"""Vandalism scoring for knowledge-base revision streams.

The package covers the full path from raw corpus lines to a served score:
parsing (`corpus`), class rebalancing (`sampling`), feature extraction and
one-hot encoding (`featurize`), from-scratch base learners (`learners`),
a stacked ensemble (`stacking`), ranking metrics and error analysis
(`evaluation`), and a line-oriented TCP scoring protocol (`serve`).

Each public name is imported from the module that defines it, for example
``from vandalstack.stacking import fit_stack``; the package itself holds
only ``__version__``, so importing one module loads only what it needs.
"""

__version__ = "0.1.0"

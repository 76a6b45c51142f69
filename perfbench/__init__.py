"""Outside-in benchmark for vandalstack: see ``perfbench/README.md``."""

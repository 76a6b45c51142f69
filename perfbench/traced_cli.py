"""Run ``vandalstack`` with the benchmark's timing wrappers installed.

    python3 perfbench/traced_cli.py SPANS_JSON <vandalstack arguments...>

Imports the package from ``PYTHONPATH``, wraps its public names (see
``perfbench.tracer.install``), runs the command line exactly as
``python -m vandalstack.cli`` would, and writes the recorded spans to
SPANS_JSON when the command returns.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from vandalstack import cli  # noqa: E402

from perfbench.tracer import Tracer, install  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

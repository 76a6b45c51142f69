"""Run ``vandalstack`` and record the peak resident set size of its own memory.

    python3 perfbench/measured_cli.py HWM_FILE <vandalstack arguments...>

Runs the command line as ``python -m vandalstack.cli`` would and, when it
returns, writes the process's ``VmHWM`` (in kB) to HWM_FILE.  The
``ru_maxrss`` that ``wait4`` reports cannot serve: Linux carries a
parent's peak RSS into its child across fork and exec, so it reads the
benchmark's own size (about 100 MB) whenever that is the larger.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# as under ``python -m``, the working directory leads the import path, not
# this script's directory
sys.path[0] = os.getcwd()

from vandalstack import cli  # noqa: E402


def peak_rss_kb() -> int:
    for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def main(argv: list[str]) -> int:
    hwm_path, args = Path(argv[0]), argv[1:]
    try:
        return cli.main(args)
    finally:
        hwm_path.write_text(str(peak_rss_kb()), encoding="ascii")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Running the system under test as a separate process, from outside.

Every measured step runs the real ``vandalstack`` command line from the
checkout's ``src`` tree in its own interpreter.  ``launch`` starts it and
``finish`` reaps it with ``wait4``, so the CPU time reported is that one
process's and not the benchmark's own; its peak RSS it records itself
(``measured_cli.py``).

Timings come from CPU time scaled by a probe (``Probe``, ``calibrate.py``)
that shares the step's CPU: on a small shared host the speed of a CPU
drifts by a third or more as neighbours come and go, and the probe sees
the same drift as the step beside it, so their ratio does not.  A timed
step runs on ``STEP_CPU``; the benchmark's own process keeps to the other
CPUs (``keep_off_step_cpu``), so a load generator or scoring server there
does not share the step's CPU.  The result is reported in seconds of the
host the benchmark was tuned on, where a probe chunk took ``PROBE_CHUNK_S``.
"""

from __future__ import annotations

import os
import platform
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"
MEASURED_CLI = Path(__file__).resolve().parent / "measured_cli.py"
PROBE = Path(__file__).resolve().parent / "calibrate.py"
# CPU seconds a probe chunk typically took on the 2-core host the benchmark
# was tuned on.  Timings are reported in seconds of that host: a step's CPU
# time times PROBE_CHUNK_S over the chunk time the probe measured beside it.
PROBE_CHUNK_S = 0.0017
# a probe at this nice level takes about a tenth of the CPU beside a
# CPU-bound step: plenty of samples over a step of seconds, at little cost
# in wall time
LIGHT_NICE = 10
# timed steps run on this CPU, each beside a probe; the benchmark's own
# process keeps to the others when there are any
STEP_CPU = max(os.sched_getaffinity(0))


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a program failure it counted)."""


def check_checkout() -> None:
    if not (SRC / "vandalstack" / "cli.py").is_file():
        raise BenchError(f"no vandalstack sources under {SRC}")


def keep_off_step_cpu() -> None:
    """Keep this process (the load generator, the scoring server) off STEP_CPU."""
    others = os.sched_getaffinity(0) - {STEP_CPU}
    if others:
        os.sched_setaffinity(0, others)


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time a running process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    # utime and stime are fields 14 and 15 of the line, in clock ticks
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Probe:
    """``calibrate.py`` pinned to STEP_CPU for the length of a ``with`` block.

    ``scale`` (set on exit) turns CPU seconds spent on STEP_CPU during the
    block into seconds of the tuning host.  Beside a CPU-bound step the
    probe takes half the CPU, or less at a higher ``nice``; an ``idle``
    probe runs only when nothing else wants the CPU.
    """

    def __init__(self, idle: bool = False, nice: int = 0):
        self.argv = [sys.executable, str(PROBE)] + (["--idle"] if idle else ["--nice", str(nice)])
        self.scale = 0.0
        self.chunk_s = 0.0

    def __enter__(self) -> "Probe":
        self.proc = subprocess.Popen(
            self.argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        try:
            os.sched_setaffinity(self.proc.pid, {STEP_CPU})
        except ProcessLookupError:  # it failed at once; the check below reports that
            pass
        if self.proc.stdout.readline().strip() != "ready":
            _, err = self._reap()
            raise BenchError(f"the probe did not start: {err[-300:]}")
        return self

    def _reap(self) -> tuple[str, str]:
        try:
            return self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.communicate()

    def __exit__(self, exc_type, *_) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        out, err = self._reap()
        if exc_type is not None:
            return
        try:
            chunks, cpu = out.split()
            self.chunk_s = float(cpu) / int(chunks)
        except (ValueError, ZeroDivisionError):
            raise BenchError(f"the probe measured nothing: {out!r} {err[-300:]}") from None
        self.scale = PROBE_CHUNK_S / self.chunk_s


def in_process_cost(step) -> float:
    """Run ``step()`` here, on STEP_CPU beside a light probe; its cost in tuning-host seconds."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {STEP_CPU})
    try:
        with Probe(nice=LIGHT_NICE) as probe:
            started = time.process_time()
            step()
            cpu = time.process_time() - started
    finally:
        os.sched_setaffinity(0, before)
    return cpu * probe.scale


@dataclass
class Finished:
    returncode: int
    wall_s: float
    # user plus system CPU time of the whole process
    cpu_s: float
    # VmHWM at exit; 0 for a traced run, which does not record it
    peak_rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Running:
    proc: subprocess.Popen
    started: float
    out_path: Path
    err_path: Path
    hwm_path: Path


def launch(
    args: list[str], log_dir: Path, tag: str, spans: Path | None = None, pin: bool = False
) -> Running:
    """Start ``vandalstack <args>``, traced into ``spans`` when that is set.

    With ``pin`` the process runs on STEP_CPU (from a few milliseconds
    after its start, long before it imports numpy).
    """
    hwm_path = log_dir / f"{tag}.hwm"
    hwm_path.unlink(missing_ok=True)
    if spans is None:
        argv = [sys.executable, str(MEASURED_CLI), str(hwm_path), *args]
    else:
        argv = [sys.executable, str(TRACED_CLI), str(spans), *args]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path = log_dir / f"{tag}.out"
    err_path = log_dir / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
    if pin:
        try:
            os.sched_setaffinity(proc.pid, {STEP_CPU})
        except ProcessLookupError:  # it failed at once; finish() reports that
            pass
    return Running(proc, started, out_path, err_path, hwm_path)


def finish(run: Running, timeout: float = 150.0) -> Finished:
    """Wait for the process to end (killing it after ``timeout``) and reap it."""
    killer = threading.Timer(timeout, run.proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(run.proc.pid, 0)
    finally:
        killer.cancel()
    ended = time.perf_counter()
    run.proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(
        returncode=run.proc.returncode,
        wall_s=ended - run.started,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=_read_kb(run.hwm_path) / 1024.0,
        stdout=run.out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=run.err_path.read_text(encoding="utf-8", errors="replace"),
    )


def _read_kb(path: Path) -> int:
    try:
        return int(path.read_text(encoding="ascii"))
    except (FileNotFoundError, ValueError):
        return 0


def run_cli(args: list[str], log_dir: Path, tag: str, spans: Path | None = None) -> Finished:
    return finish(launch(args, log_dir, tag, spans))


def run_measured(
    args: list[str], log_dir: Path, tag: str, nice: int = 0
) -> tuple[Finished, float]:
    """``run_cli`` on STEP_CPU beside a probe; returns the probe's scale too."""
    with Probe(nice=nice) as probe:
        done = finish(launch(args, log_dir, tag, pin=True))
    return done, probe.scale


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance() -> dict:
    """What a result needs to be read after the fact."""
    toplevel = _git("rev-parse", "--show-toplevel")
    in_repo = toplevel is not None and Path(toplevel).resolve() == ROOT
    rev = _git("rev-parse", "HEAD") if in_repo else None
    dirty = bool(_git("status", "--porcelain")) if in_repo else None
    return {
        "git_rev": rev,
        "git_dirty": dirty,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_start": list(os.getloadavg()),
    }

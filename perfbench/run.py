"""vandalstack benchmark: one workload run, printed as one JSON line.

    python3 perfbench/run.py --workload {train,batch,stream,all} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the result holds every end-to-end metric declared in
``BENCHMARK.json``; with ``--trace 1`` every per-layer metric, from a run
with timing wrappers installed (a layer a workload does not exercise
reads 0).  The last line of standard output is the result object; the
lines before it give provenance and a readable table.  ``--workload all``
runs the three workloads in turn and prints each one's table, including
the failed fraction.  Scratch files live under ``.perfbench_work/`` and a
copy of every result, with provenance, under ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import sut  # noqa: E402


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json at the checkout root."""
    spec = json.loads((sut.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench.workloads import Q, WORK, WORKLOADS

    declared = declared_metrics(trace)
    record = {"workload": workload, "seed": seed, "q": Q, "seconds": seconds, "trace": trace}
    record["provenance"] = sut.provenance()
    work = WORK / f"run-{workload}-{seed}-{os.getpid()}-{time.time_ns()}"
    sut.keep_off_step_cpu()
    work.mkdir(parents=True)
    try:
        result = WORKLOADS[workload](seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["provenance"]["loadavg_end"] = list(os.getloadavg())
    unknown = set(result.metrics) - set(declared)
    if unknown:
        raise sut.BenchError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    if not trace:
        absent = set(declared) - set(result.metrics)
        if absent:
            raise sut.BenchError(f"workload {workload} did not measure {sorted(absent)}")
    record["notes"] = result.notes
    record["result"] = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics.get(name, 0), "unit": unit}
            for name, unit in declared.items()
        },
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = results / f"{workload}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def print_table(record: dict) -> None:
    res = record["result"]
    print(f"== {record['workload']} seed {record['seed']} trace {int(record['trace'])}")
    for name, m in res["metrics"].items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    frac = res["failed"] / res["attempted"]
    print(f"  {'failed_frac':<34} {frac:>14.6g} ({res['failed']} of {res['attempted']})")


# the end-to-end metrics under the names a reader of the roadmap looks for:
# (name, unit, workload, metric, scale)
SUMMARY = [
    ("train_s", "s", "train", "latency_p50_ms", 1e-3),
    ("holdout_auc", "auc", "train", "holdout_auc", 1.0),
    ("batch_rows_per_s", "rows/s", "batch", "rev_per_s", 1.0),
    ("stream_rev_per_s", "rev/s", "stream", "rev_per_s", 1.0),
    ("stream_p50_ms", "ms", "stream", "latency_p50_ms", 1.0),
    ("stream_p90_ms", "ms", "stream", "latency_p90_ms", 1.0),
]


def print_summary(records: list[dict]) -> None:
    by_name = {r["workload"]: r["result"] for r in records}
    print("== summary")
    for name, unit, workload, metric, scale in SUMMARY:
        value = by_name[workload]["metrics"][metric]["value"] * scale
        print(f"  {name:<34} {value:>14.6g} {unit}")
    stream = next(r for r in records if r["workload"] == "stream")["notes"]
    print(f"  {'stream_p99_ms':<34} {stream['stream_p99_ms']:>14.6g} ms"
          f" ({stream['latency_samples']} samples)")
    for workload, res in by_name.items():
        for metric in ("setup_s", "peak_rss_mb"):
            m = res["metrics"][metric]
            print(f"  {metric + ' (' + workload + ')':<34} {m['value']:>14.6g} {m['unit']}")
        frac = res["failed"] / res["attempted"]
        print(f"  {'failed_frac (' + workload + ')':<34} {frac:>14.6g} ratio")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["train", "batch", "stream", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        sut.check_checkout()
        sys.path.insert(0, str(sut.SRC))
        names = ["train", "batch", "stream"] if args.workload == "all" else [args.workload]
        records = [run_one(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except sut.BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("provenance " + json.dumps(records[0]["provenance"]))
    for record in records:
        print("notes " + json.dumps(record["notes"]))
        print_table(record)
    if args.workload == "all":
        if not args.trace:
            print_summary(records)
        print(json.dumps({r["workload"]: r["result"] for r in records}))
    else:
        print(json.dumps(records[0]["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

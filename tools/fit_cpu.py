"""Time the model fits of one ``train-stack`` under two source trees, in one process.

Usage, from the root of a checkout::

    PYTHONPATH=src:. python tools/fit_cpu.py PARENT_SRC CHANGE_SRC [SEED [PAIRS]]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts;
SEED, a non-negative integer, defaults to 81 and PAIRS, a positive one,
to 20.  The script loads the package from each tree under its own
module name.  It writes the benchmark's train
split of SEED (``perfbench.corpusgen.write_labeled(SPEC, seed, dir)``)
into a temporary directory and runs ``train-stack`` on it with
CHANGE_SRC's package, capturing every model fit: its class, parameters
and training pair.  Then it refits every captured fit PAIRS times with
both packages, alternating which goes first, and times each fit in CPU
seconds (``time.process_time``); pin the process to one CPU for steady
figures.  Fits are grouped into families by class, parameters but the
seed, and matrix shape.  Per family it prints one line::

    GradientBoostingClassifier max_depth=6 120x31 fits 1 parent 0.438 change 0.379 diff -0.059 won 1.00 same True peak_mb 1.11 1.09

with the median CPU seconds of the family's fits per pair on each side,
the median of the paired differences (change minus parent), the share of
pairs the change was faster in, whether both sides wrote the same model
text for every fit, and each side's largest traced peak (``tracemalloc``,
MB) over one more fit of each.  A last line, ``all``, reads the same
over every captured fit: per pair the CPU of all of them, ``same`` over
all families, and each side's largest peak.  It only reads ``perfbench/``.

It exits 0 when both sides wrote the same model text for every fit, 1
(after the table) when any family reads ``same False``, and 2 on a bad
argument.
"""

from __future__ import annotations

import contextlib
import importlib.util
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from perfbench.corpusgen import write_labeled
from perfbench.workloads import SPEC


def load_package(src: Path, name: str):
    """The ``vandalstack`` package under ``src``, imported as the module ``name``."""
    root = Path(src) / "vandalstack"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def capture(package, seed: int) -> list[tuple]:
    """``(class name, params, X, y)`` of every fit in one ``train-stack`` on the seed's train split."""
    cli = importlib.import_module(package.__name__ + ".cli")
    learners = importlib.import_module(package.__name__ + ".learners")
    fits = []
    originals = {cls: cls.fit for cls in learners.BUILTIN_FAMILIES.values()}

    def recording(original):
        def fit(model, X, y):
            fits.append((type(model).__name__, model.get_params(), X.copy(), y.copy()))
            return original(model, X, y)

        return fit

    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        write_labeled(SPEC, seed, d)
        argv = ["train-stack", "--corpus", str(d / "train_corpus.tsv"),
                "--truth", str(d / "train_truth.tsv"), "--schema", str(d / "schema.txt"),
                "--pipeline", str(d / "pipeline.txt")]
        try:
            for cls in originals:
                cls.fit = recording(originals[cls])
            with contextlib.redirect_stdout(sys.stderr):
                status = cli.main(argv)
        finally:
            for cls, original in originals.items():
                cls.fit = original
    if status != 0:
        raise SystemExit(f"train-stack exited with {status}")
    return fits


def family(fit: tuple) -> str:
    """A fit's family: its class, its parameters but the seed, and its matrix shape."""
    name, params, X, _ = fit
    shown = " ".join(f"{k}={v}" for k, v in sorted(params.items()) if k != "seed")
    return f"{name} {shown} {X.shape[0]}x{X.shape[1]}"


def fit_once(package, fit: tuple):
    """CPU seconds of one fit with ``package``, and its model text."""
    name, params, X, y = fit
    learners = importlib.import_module(package.__name__ + ".learners")
    model = getattr(learners, name)(**params)
    start = time.process_time()
    model.fit(X, y)
    return time.process_time() - start, learners.model_to_lines(model)


def traced_peak(package, fit: tuple) -> float:
    """The traced peak, in MB, of one fit with ``package``."""
    tracemalloc.start()
    try:
        fit_once(package, fit)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def paired_summary(parent: list[float], change: list[float]) -> dict:
    """Medians of each side, the median paired difference and the share of pairs the change won."""
    diffs = [c - p for p, c in zip(parent, change)]
    return {
        "parent": statistics.median(parent),
        "change": statistics.median(change),
        "diff": statistics.median(diffs),
        "won": sum(d < 0 for d in diffs) / len(diffs),
    }


def compare(sides: tuple, fits: list[tuple], pairs: int) -> dict[str, dict]:
    """Per family, the paired summary of its fits' CPU over ``pairs`` alternating pairs; then of ``all``."""
    groups: dict[str, list[int]] = {}
    for i, fit in enumerate(fits):
        groups.setdefault(family(fit), []).append(i)
    times = {key: ([], []) for key in groups}
    same = {key: True for key in groups}
    for pair in range(pairs):
        order = (0, 1) if pair % 2 == 0 else (1, 0)
        for key, members in groups.items():
            totals, texts = [0.0, 0.0], [[], []]
            for i in members:
                for side in order:
                    seconds, text = fit_once(sides[side], fits[i])
                    totals[side] += seconds
                    texts[side].append(text)
            times[key][0].append(totals[0])
            times[key][1].append(totals[1])
            same[key] = same[key] and texts[0] == texts[1]
    rows = {
        key: {
            **paired_summary(*times[key]),
            "fits": len(members),
            "same": same[key],
            "peak_mb": [max(traced_peak(side, fits[i]) for i in members) for side in sides],
        }
        for key, members in groups.items()
    }
    # per pair, each side's CPU summed over every family
    totals = [[sum(pair) for pair in zip(*(times[key][side] for key in groups))] for side in (0, 1)]
    rows["all"] = {
        **paired_summary(*totals),
        "fits": len(fits),
        "same": all(same.values()),
        "peak_mb": [max(row["peak_mb"][side] for row in rows.values()) for side in (0, 1)],
    }
    return rows


def main(argv: list[str]) -> int:
    numbers = argv[2:] + ["81", "20"][len(argv) - 2 :]  # SEED and PAIRS, defaults filled in
    if not (2 <= len(argv) <= 4 and all(n.isascii() and n.isdigit() for n in numbers) and int(numbers[1]) > 0):
        print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
        return 2
    seed, pairs = map(int, numbers)
    sides = (load_package(Path(argv[0]), "parent_vandalstack"),
             load_package(Path(argv[1]), "change_vandalstack"))
    fits = capture(sides[1], seed)
    rows = compare(sides, fits, pairs)
    for key, row in rows.items():
        print(
            f"{key} fits {row['fits']} parent {row['parent']:.3f} change {row['change']:.3f}"
            f" diff {row['diff']:+.3f} won {row['won']:.2f} same {row['same']}"
            f" peak_mb {row['peak_mb'][0]:.2f} {row['peak_mb'][1]:.2f}"
        )
    return 0 if all(row["same"] for row in rows.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""A probe that gauges how fast one CPU runs while a timed step runs on it.

    python3 perfbench/calibrate.py [--idle | --nice N]

On a small shared host the speed a CPU gives a process drifts by a third
or more, in stretches of seconds to minutes, as neighbours come and go; a
wall or CPU time moves with it.  The benchmark therefore pins each timed
step to one CPU together with this probe (``sut.Probe``).  The probe
repeats a fixed chunk of work until it receives SIGTERM and then prints
``<chunks> <cpu seconds in them>``.  Sharing the CPU in slices of a few
milliseconds, probe and step see the same host speed, so the step's CPU
time divided by the probe's time per chunk keeps the program's own cost
and drops the host's drift.  With ``--idle`` the probe runs under
SCHED_IDLE and gets only the time the step leaves idle, which gauges the
CPU beside a latency-bound step without slowing it.

At the default nice level the probe shares the CPU equally with a
CPU-bound step, so the step's wall time doubles; the step's CPU time is
what is reported, scaled.  ``--nice N`` lowers the probe's share.  On
the tuning host an equal share cut the spread of ten repeated
``predict`` runs from 19% of their median (wall or CPU time) to 2%.

The chunk resembles the program's work: frontier walks of small flat
trees over a dense block, one small numpy call after another, like
``Tree.predict_dense``, and node-by-node walks in plain Python, like the
streaming path.  It depends on nothing in the package, so no change to
the program can move it.
"""

from __future__ import annotations

import os
import signal
import sys
import time

import numpy as np
from scipy import sparse

N_TREES = 8
DEPTH = 9
ROWS = 200
COLS = 40
SCALAR_ROWS = 30


def make_trees(rng: np.random.Generator) -> list[tuple[np.ndarray, ...]]:
    """Complete binary trees of DEPTH levels as flat arrays; -1 marks a leaf."""
    n = 2 ** (DEPTH + 1) - 1
    inner = 2**DEPTH - 1
    ids = np.arange(n)
    trees = []
    for _ in range(N_TREES):
        feature = np.where(ids < inner, rng.integers(0, COLS, n), -1)
        threshold = rng.random(n)
        left = np.where(ids < inner, 2 * ids + 1, 0)
        right = np.where(ids < inner, 2 * ids + 2, 0)
        value = rng.random(n)
        trees.append((feature, threshold, left, right, value))
    return trees


def walk_block(tree, Xd: np.ndarray) -> np.ndarray:
    feature, threshold, left, right, value = tree
    node = np.zeros(Xd.shape[0], dtype=np.int64)
    active = feature[node] >= 0
    while active.any():
        rows = np.nonzero(active)[0]
        cur = node[rows]
        go_left = Xd[rows, feature[cur]] <= threshold[cur]
        nxt = np.where(go_left, left[cur], right[cur])
        node[rows] = nxt
        active[rows] = feature[nxt] >= 0
    return value[node]


def walk_rows(tree, rows: list[list[float]]) -> float:
    feature, threshold, left, right, value = tree
    total = 0.0
    for row in rows:
        nid = 0
        j = feature[0]
        while j >= 0:
            nid = left[nid] if row[j] <= threshold[nid] else right[nid]
            j = feature[nid]
        total += value[nid]
    return total


def main(argv: list[str]) -> int:
    if "--idle" in argv:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    elif "--nice" in argv:
        os.nice(int(argv[argv.index("--nice") + 1]))
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    rng = np.random.default_rng(20171219)
    trees = make_trees(rng)
    tree_lists = [tuple(a.tolist() for a in tree) for tree in trees]
    Xd = sparse.random(ROWS, COLS, density=0.3, format="csr", random_state=7).toarray()
    rows = Xd[:SCALAR_ROWS].tolist()
    print("ready", flush=True)
    chunks, cpu = 0, 0.0
    while not stop:
        started = time.process_time()
        for tree, lists in zip(trees, tree_lists):
            walk_block(tree, Xd)
            walk_rows(lists, rows)
        cpu += time.process_time() - started
        chunks += 1
    print(f"{chunks} {cpu:.6f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The three workloads: ``train``, ``batch`` and ``stream``.

Each drives the real command line (or, for ``stream``, the real client
process over loopback) from outside the package and returns a
``Result``.  Untraced runs give the end-to-end metrics; traced runs give
the per-layer ones, plus tracing overhead against an untraced run of the
same step, and check that tracing left every output byte unchanged.

In an untraced run every timed step (corpus generation, ``train-stack``,
``predict``, a client's start-up and its closed-loop session) runs on one
CPU beside the probe of ``sut.Probe``, and its time is its CPU time scaled
by what the probe saw.  The open loop is timed by the wall clock, from due
time to answer, with an idle probe beside the client that scales each
segment's latencies the same way without slowing the client.

Why these inputs:

* One corpus family throughout: ``make_benchmark`` output with a share
  ``Q`` of the truth labels flipped.  Unflipped, the corpus is
  separable and holdout AUC is pinned at 1.0; at ``Q`` the median holdout
  AUC lands near 0.9, so a quality regression can show.  The flips also
  let noise columns (the geo one-hots) through importance selection:
  about 27 of 39 columns survive instead of 6, which roughly triples
  ``train-stack`` time against the unflipped corpus.
* 8,000 revisions split 4,000 train / 4,000 holdout (about 180 rows
  after sampling and dedup).  ``train-stack`` cost is mostly per tree
  (2,300 of them), so a larger training split buys little realism for a
  lot of run time.  A smaller one made importance selection unstable:
  at 2,000 training revisions the columns kept ranged from 19 to 28 by
  seed, and fit time with them.  One fit per run is enough once the
  probe takes the host's drift out of it.
* ``batch`` and ``stream`` score a 4,000-revision corpus of the same
  family drawn from another seed, with a pipeline trained once per
  checkout and source tree by the code under test (``ensure_pipeline``);
  no pipeline is committed.
"""

from __future__ import annotations

import hashlib
import shutil
import socket
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Optional

from vandalstack.corpus import load_corpus
from vandalstack.serve import ScoringServer

from perfbench import sut, tracer
from perfbench.corpusgen import CorpusSpec, write_labeled, write_scored
from perfbench.stats import auc, percentile
from perfbench.streamgen import merge_results, parity_failures, run_open_loop

Q = 0.004
SPEC = CorpusSpec(n=8000, holdout=0.5, q=Q)
# batch and stream score a corpus the size of the train workload's holdout
SCORE_N = 4000
PIPELINE_SEED = 7
SETUP_REPS = 3
WINDOW = 16
# each closed-loop ScoringServer session covers this many revisions
CLOSED_REVS = 96
# a timed step runs at least once per run (the probe makes one precise)
MIN_OPS = 1
# open loop: a fixed rate near half the closed-loop capacity of today's code,
# kept up for --seconds (the closed loop is sized by revision count)
OPEN_RATE = 20.0

WORK = sut.ROOT / ".perfbench_work"


@dataclass
class Result:
    metrics: dict
    attempted: int
    failed: int
    notes: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def derive(seed: int, tag: str) -> int:
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _source_key() -> str:
    """Hash of the package's files and the benchmark's own modules."""
    files = [p for p in sut.SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    files += Path(__file__).resolve().parent.glob("*.py")
    h = hashlib.sha256()
    for path in sorted(files):
        h.update(str(path.relative_to(sut.ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def ensure_pipeline() -> Path:
    """The pipeline ``batch`` and ``stream`` score with, trained on first use.

    It is keyed by a hash of the package and benchmark sources, so each
    checkout trains its own with its own code, once.
    """
    final = WORK / f"pipeline-{_source_key()}"
    if (final / "pipeline.txt").is_file():
        return final / "pipeline.txt"
    for stale in WORK.glob("pipeline-*"):
        shutil.rmtree(stale, ignore_errors=True)
    tmp = WORK / f"tmp-pipeline-{time.time_ns()}"
    write_labeled(SPEC, PIPELINE_SEED, tmp)
    done = sut.run_cli(train_args(tmp), tmp, "train")
    if done.returncode != 0:
        raise sut.BenchError(f"training the scoring pipeline failed: {done.stderr[-500:]}")
    try:
        tmp.rename(final)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)
    return final / "pipeline.txt"


def train_args(d: Path) -> list[str]:
    return [
        "train-stack",
        "--corpus", str(d / "train_corpus.tsv"),
        "--truth", str(d / "train_truth.tsv"),
        "--schema", str(d / "schema.txt"),
        "--pipeline", str(d / "pipeline.txt"),
    ]


def predict_args(pipeline: Path, corpus: Path, out: Path) -> list[str]:
    return ["predict", "--pipeline", str(pipeline), "--input", str(corpus), "--output", str(out)]


def read_truth(path: Path) -> dict[int, bool]:
    truth = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        rev_id, label = line.split("\t")
        truth[int(rev_id)] = label == "1"
    return truth


def check_scores(text: str, truth: dict[int, bool]) -> tuple[dict[int, str], int]:
    """Parse a scores file; returns (rev_id -> score text, failures).

    A failure is a malformed line, a score outside [0, 1], a duplicate or
    unknown rev_id, or a revision of ``truth`` left unscored.
    """
    scores: dict[int, str] = {}
    failed = 0
    for line in text.splitlines():
        parts = line.split("\t")
        try:
            rev_id, value = int(parts[0]), float(parts[1])
        except (ValueError, IndexError):
            failed += 1
            continue
        if len(parts) != 2 or not 0.0 <= value <= 1.0 or rev_id in scores or rev_id not in truth:
            failed += 1
            continue
        scores[rev_id] = parts[1]
    failed += sum(1 for rev_id in truth if rev_id not in scores)
    return scores, failed


def scores_auc(scores: dict[int, str], truth: dict[int, bool]) -> float:
    ids = sorted(scores)
    return auc([truth[i] for i in ids], [float(scores[i]) for i in ids])


def _setup_repeated(step, trace: bool) -> list[float]:
    """Cost of ``step``, SETUP_REPS times (see ``sut.in_process_cost``).

    A traced run reports no setup_s, so it runs ``step`` once, unmeasured.
    """
    if trace:
        step()
        return []
    return [sut.in_process_cost(step) for _ in range(SETUP_REPS)]


def _repeat(seconds: float, op) -> list:
    """Run ``op(i)`` back to back until ``seconds`` have passed, MIN_OPS times at least."""
    results = []
    start = time.perf_counter()
    while len(results) < MIN_OPS or time.perf_counter() - start < seconds:
        results.append(op(len(results)))
    return results


def _output(done: sut.Finished, path: Path) -> str:
    """What the command wrote to ``path``; empty if it failed or wrote nothing."""
    if done.returncode != 0:
        return ""
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return ""


def _op_metrics(costs: list[float], rows: int) -> dict:
    """Throughput and latency of a repeated step from its costs in tuning-host seconds."""
    mid = median(costs)
    return {
        "rev_per_s": rows / mid,
        "latency_p50_ms": mid * 1e3,
        "latency_p90_ms": percentile(costs, 90) * 1e3,
    }


def _host_notes(measured: list[tuple[sut.Finished, float]]) -> dict:
    """What the probe saw, beside the raw times, for reading a result afterwards."""
    return {
        "wall_s": [done.wall_s for done, _ in measured],
        "cpu_s": [done.cpu_s for done, _ in measured],
        "scale": [scale for _, scale in measured],
    }


def _pipeline_layer(pipeline_text: str) -> dict:
    lines = pipeline_text.splitlines()
    schema_lines = next(
        (int(line.split()[-1]) for line in lines if line.startswith("section schema ")), 1
    )
    return {
        "learners.trees": sum(1 for line in lines if line.startswith("tree ")),
        "learners.tree_nodes": sum(1 for line in lines if line.startswith("node ")),
        "stacking.pipeline_bytes": len(pipeline_text.encode("utf-8")),
        "featurize.dim": schema_lines - 1,
    }


# ---------------------------------------------------------------------------
# train: fit the whole stack, then score the holdout for AUC


def run_train(seed: int, seconds: float, trace: bool, work: Path) -> Result:
    data = work / "data"
    counts = {}
    setup = _setup_repeated(lambda: counts.update(write_labeled(SPEC, seed, data)), trace)
    truth = read_truth(data / "test_truth.tsv")
    outputs = (data / "pipeline.txt", data / "schema.txt")

    def train_op(tag: str, spans: Optional[Path] = None):
        done = sut.run_cli(train_args(data), work, tag, spans)
        return done, tuple(_output(done, path) for path in outputs)

    if trace:
        spans = work / "train.spans.json"
        (ref, ref_out), (traced, traced_out) = train_op("train-ref"), train_op("train-traced", spans)
        if not all(ref_out):
            raise sut.BenchError(f"train-stack failed: {ref.stderr[-500:]}")
        text = ref_out[0]
        m = tracer.layer_metrics(tracer.load_spans(spans), tracer.stage_shape(text))
        m.update(_pipeline_layer(text))
        m.update(_second_stage_aucs(outputs[0], data / "test_corpus.tsv", truth))
        m["trace.overhead_frac"] = traced.wall_s / ref.wall_s - 1.0
        return Result(m, 2, int(traced_out != ref_out), {"corpus": counts})

    def measured_op(i: int):
        # a fit of tens of seconds needs only a light probe, which keeps the run short
        done, scale = sut.run_measured(train_args(data), work, f"train-{i}", nice=sut.LIGHT_NICE)
        return (done, scale), tuple(_output(done, path) for path in outputs)

    ops = _repeat(seconds, measured_op)
    first = ops[0][1]
    failed = sum(1 for _, out in ops if not all(out) or out != first)
    holdout = work / "scores.tsv"
    pred = sut.run_cli(predict_args(outputs[0], data / "test_corpus.tsv", holdout), work, "holdout")
    scores, bad = check_scores(_output(pred, holdout), truth)
    measured = [m for m, _ in ops]
    m = _op_metrics([done.cpu_s * scale for done, scale in measured], counts["train_rows"])
    m["setup_s"] = median(setup)
    m["holdout_auc"] = scores_auc(scores, truth) if scores else 0.0
    m["peak_rss_mb"] = max(done.peak_rss_mb for done, _ in measured)
    notes = {"corpus": counts, "ops": len(ops), "host": _host_notes(measured)}
    return Result(m, len(ops) + len(truth), failed + bad, notes)


def _second_stage_aucs(pipeline_path: Path, corpus: Path, truth: dict[int, bool]) -> dict:
    """Holdout AUC of each second-stage model, through public functions."""
    from vandalstack.featurize import encode_many, extract_many, vectors_to_csr
    from vandalstack.learners import project_matrix
    from vandalstack.stacking import load_pipeline, stack_meta_features

    pipeline = load_pipeline(pipeline_path)
    revisions = load_corpus(corpus).revisions
    X = vectors_to_csr(
        encode_many(extract_many(revisions), pipeline.schema), dim=pipeline.schema.total_dim
    )
    meta = stack_meta_features(pipeline, project_matrix(X, pipeline.selected))
    labels = [truth[rev.rev_id] for rev in revisions]
    return {
        f"stacking.second.{j}.holdout_auc": auc(labels, model.predict_proba(meta))
        for j, model in enumerate(pipeline.second_models)
    }


# ---------------------------------------------------------------------------
# batch: score a large corpus with `predict`


def run_batch(seed: int, seconds: float, trace: bool, work: Path) -> Result:
    pipeline = ensure_pipeline()
    data = work / "data"
    setup = _setup_repeated(lambda: write_scored(SCORE_N, Q, derive(seed, "score"), data), trace)
    corpus = data / "score_corpus.tsv"
    truth = read_truth(data / "score_truth.tsv")
    out = work / "scores.tsv"

    def predict_op(tag: str, spans: Optional[Path] = None):
        done = sut.run_cli(predict_args(pipeline, corpus, out), work, tag, spans)
        return done, _output(done, out)

    if trace:
        spans = work / "batch.spans.json"
        (ref, ref_out), (traced, traced_out) = predict_op("batch-ref"), predict_op("batch-traced", spans)
        text = pipeline.read_text(encoding="utf-8")
        m = tracer.layer_metrics(tracer.load_spans(spans), tracer.stage_shape(text))
        m.update(_pipeline_layer(text))
        m["trace.overhead_frac"] = traced.wall_s / ref.wall_s - 1.0
        return Result(m, 2, (ref.returncode != 0) + (traced_out != ref_out))

    def measured_op(i: int):
        done, scale = sut.run_measured(predict_args(pipeline, corpus, out), work, f"batch-{i}")
        return (done, scale), _output(done, out)

    ops = _repeat(seconds, measured_op)
    first = ops[0][1]
    scores, failed = check_scores(first, truth)
    # a later run that differs from the first by a byte fails every row
    failed += sum(len(truth) for _, got in ops[1:] if got != first)
    measured = [m for m, _ in ops]
    m = _op_metrics([done.cpu_s * scale for done, scale in measured], len(truth))
    m["setup_s"] = median(setup)
    m["holdout_auc"] = scores_auc(scores, truth) if scores else 0.0
    m["peak_rss_mb"] = max(done.peak_rss_mb for done, _ in measured)
    notes = {"ops": len(ops), "host": _host_notes(measured)}
    return Result(m, len(ops) * len(truth), failed, notes)


# ---------------------------------------------------------------------------
# stream: the real client over loopback, closed loop then open loop


class TimedTrace(list):
    """Stands in for ``ScoringServer.trace``, stamping each event.

    With ``pid`` set it also notes that process's CPU time at the first
    event: the client has started, loaded its pipeline and connected.
    """

    pid: Optional[int] = None
    first_cpu_s: float = 0.0

    def append(self, event):
        if not self and self.pid is not None:
            self.first_cpu_s = sut.cpu_seconds(self.pid)
        super().append((time.perf_counter(), event))


def _client_args(pipeline: Path, port: int) -> list[str]:
    return ["client", "--pipeline", str(pipeline), "--connect", f"127.0.0.1:{port}"]


@dataclass
class Session:
    """One closed-loop ScoringServer session with a fresh client process."""

    client: sut.Finished
    # wall-clock rate, for tracing overhead and the notes
    rate: float = 0.0
    # measured sessions, in tuning-host seconds: the client's CPU time up to
    # the first send, and after it (the revisions)
    startup_cost: float = 0.0
    revs_cost: float = 0.0
    scale: float = 0.0
    answers: dict = field(default_factory=dict)
    missing: int = 0
    error: str = ""


def _closed_loop(revisions, truth, pipeline, work, tag, spans=None, measured=False) -> Session:
    """One session; ``measured`` runs the client on the step CPU beside a probe."""
    server = ScoringServer(revisions, truth, window=WINDOW, timeout=60.0)
    trace = server.trace = TimedTrace()
    host, port = server.bind()
    probe = sut.Probe() if measured else nullcontext()
    try:
        with probe, ThreadPoolExecutor(1) as pool:
            # the socket listens already, so the client may connect before accept()
            running = sut.launch(_client_args(pipeline, port), work, tag, spans, pin=measured)
            trace.pid = running.proc.pid if measured else None
            session = pool.submit(server.serve_one)
            client = sut.finish(running)
            try:
                served, error = session.result(timeout=10.0), ""
            except FutureTimeout:
                # the client never connected: unblock accept() and give up
                socket.create_connection((host, port)).close()
                served, error = None, "client never connected"
            except Exception as exc:  # the session aborted on a protocol violation
                served, error = None, repr(exc)
    finally:
        server.close()
    if served is None:
        error += f"; client exit {client.returncode}: {client.stderr[-300:]}"
        return Session(client, missing=len(revisions), error=error)
    stamps = [t for t, _ in trace]
    scale = probe.scale if measured else 0.0
    return Session(
        client,
        rate=len(revisions) / (stamps[-1] - stamps[0]),
        startup_cost=trace.first_cpu_s * scale,
        revs_cost=(client.cpu_s - trace.first_cpu_s) * scale,
        scale=scale,
        answers=served.scores,
        missing=len(revisions) - len(served.scores),
    )


def _closed_parity_failures(answers: dict[int, float], expected: dict[int, str]) -> int:
    """The server keeps answers as floats, so parity is checked on values."""
    return sum(1 for rev_id, score in answers.items() if float(expected.get(rev_id, "nan")) != score)


def _both_classes(chunk: list, i: int, revisions: list, truth: dict) -> list:
    """``chunk``, plus a revision of any class it lacks.

    ScoringServer ends a session by computing its AUC and raises when the
    session held one class only, which a 160-revision slice at 2%
    vandalism does in about one run in fifteen.  The added revisions come
    from the last 1,000 of the corpus, which no other phase sends.
    """
    for label in (True, False):
        if not any(truth[rev.rev_id] == label for rev in chunk):
            spares = [rev for rev in revisions[-1000:] if truth[rev.rev_id] == label]
            chunk = chunk + [spares[i]]
    return chunk


def _open_loop(revisions, pipeline, work, tag, spans=None, measured=False):
    """One open-loop segment; returns (result, client, scale).

    ``measured`` runs the client on the step CPU beside an idle probe,
    which gauges the CPU in the client's idle gaps without slowing it;
    ``scale`` turns the segment's latencies into tuning-host time.
    """
    probe = sut.Probe(idle=True) if measured else nullcontext()
    with probe:
        with socket.create_server(("127.0.0.1", 0)) as lsock:
            lsock.settimeout(60.0)
            port = lsock.getsockname()[1]
            client = sut.launch(_client_args(pipeline, port), work, tag, spans, pin=measured)
            conn, _ = lsock.accept()
            with conn:
                result = run_open_loop(conn, revisions, OPEN_RATE, WINDOW)
        done = sut.finish(client)
    return result, done, probe.scale if measured else 1.0


def run_stream(seed: int, seconds: float, trace: bool, work: Path) -> Result:
    """Rounds of set-up, closed-loop session and open-loop segment.

    Each round generates the corpus and starts a client, which serves one
    closed-loop session of CLOSED_REVS revisions; a second client then
    takes an open-loop segment, a share of ``--seconds`` long.  Untraced,
    each step runs beside a probe (see ``sut.Probe``).  A traced run makes
    one round.
    """
    pipeline = ensure_pipeline()
    data = work / "data"
    spans = [work / "closed.spans.json", work / "open.spans.json"] if trace else [None, None]
    rounds = 1 if trace else SETUP_REPS
    open_n = max(1, int(round(OPEN_RATE * seconds / rounds)))
    setups, sessions, segments, open_revs = [], [], [], []
    revisions = truth = None
    measured = not trace

    def generate():
        write_scored(SCORE_N, Q, derive(seed, "score"), data)

    for i in range(rounds):
        generated = 0.0
        if measured:
            generated = sut.in_process_cost(generate)
        else:
            generate()
        if revisions is None:
            truth = read_truth(data / "score_truth.tsv")
            revisions = load_corpus(data / "score_corpus.tsv").revisions
        chunk = _both_classes(revisions[i * CLOSED_REVS : (i + 1) * CLOSED_REVS], i, revisions, truth)
        sessions.append(
            _closed_loop(chunk, truth, pipeline, work, f"closed-{i}", spans[0], measured)
        )
        setups.append(generated + sessions[-1].startup_cost)
        first = rounds * CLOSED_REVS + i * open_n
        segment = revisions[first : first + open_n]
        segments.append(_open_loop(segment, pipeline, work, f"open-{i}", spans[1], measured))
        open_revs.append(segment)
    if trace:
        ref = _closed_loop(chunk, truth, pipeline, work, "closed-ref")
    opened = merge_results([result for result, _, _ in segments])
    open_clients = [client for _, client, _ in segments]

    pred = sut.run_cli(
        predict_args(pipeline, data / "score_corpus.tsv", work / "scores.tsv"), work, "parity"
    )
    expected, failed = check_scores(_output(pred, work / "scores.tsv"), truth)
    checked = sessions + [ref] if trace else sessions
    for s in checked:
        failed += s.missing + (s.client.returncode != 0)
        failed += _closed_parity_failures(s.answers, expected)
    failed += len(opened.failures) + sum(c.returncode != 0 for c in open_clients)
    failed += len(parity_failures(opened.scores, expected))
    closed_sent = sum(len(s.answers) + s.missing for s in sessions)
    attempted = closed_sent + opened.sent
    notes = {
        "closed": {
            "sent": closed_sent,
            "rates": [s.rate for s in sessions],
            "errors": [s.error for s in checked if s.error],
        },
        "open": {"sent": opened.sent, "answered": opened.answered, "failures": opened.failures[:5]},
    }
    # seconds from due time to answer, each segment's scaled by its own probe
    raw, latencies = [], []
    for segment, (_, _, scale) in zip(open_revs, segments):
        for rev in segment:
            if rev.rev_id in opened.latency:
                raw.append(opened.latency[rev.rev_id])
                latencies.append(raw[-1] * scale)
    if trace:
        text = pipeline.read_text(encoding="utf-8")
        m = tracer.layer_metrics(tracer.load_spans(*spans), tracer.stage_shape(text))
        m.update(_pipeline_layer(text))
        m["trace.overhead_frac"] = ref.rate / sessions[0].rate - 1.0 if sessions[0].rate else 0.0
        m["stream.wait_ms"] = max(0.0, percentile(latencies, 50) * 1e3 - m["stream.service_us"] / 1e3)
        m["serve.in_flight_mean"] = sum(opened.in_flight) / max(1, len(opened.in_flight))
        m["serve.backlog_max"] = opened.backlog_max
        m["gen.late_p99_ms"] = percentile(opened.late, 99) * 1e3 if opened.late else 0.0
        m["serve.sent"] = attempted
        m["serve.answered"] = sum(len(s.answers) for s in sessions) + opened.answered
        m["serve.failed"] = failed
        return Result(m, attempted, failed, notes)
    # timings in seconds of the tuning host, as in _op_metrics
    m = {
        "setup_s": median(setups),
        "rev_per_s": median(
            [len(s.answers) / s.revs_cost for s in sessions if s.revs_cost] or [0.0]
        ),
        "latency_p50_ms": percentile(latencies, 50) * 1e3 if latencies else 0.0,
        "latency_p90_ms": percentile(latencies, 90) * 1e3 if latencies else 0.0,
        "holdout_auc": scores_auc(expected, truth) if expected else 0.0,
        "peak_rss_mb": max(c.peak_rss_mb for c in [s.client for s in sessions] + open_clients),
    }
    # 200 samples at --seconds 10: p99 rests on two, so it is a note, not a metric
    notes["latency_samples"] = len(latencies)
    notes["stream_p99_ms"] = percentile(latencies, 99) * 1e3 if latencies else None
    notes["host"] = {
        "closed_scale": [s.scale for s in sessions],
        "open_scale": [scale for _, _, scale in segments],
        "open_wall_p50_ms": percentile(raw, 50) * 1e3 if raw else None,
        "open_wall_p90_ms": percentile(raw, 90) * 1e3 if raw else None,
    }
    return Result(m, attempted, failed, notes)


WORKLOADS = {"train": run_train, "batch": run_batch, "stream": run_stream}

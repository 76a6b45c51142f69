"""Acceptance criteria: one test per numbered requirement.

Each test asserts its behavioral contract at the stated tolerance and
enforces the stated wall-clock budget.  The session-scoped ``bench``
fixture (see conftest) generates the 20,000-example synthetic corpus,
trains the default stacked pipeline through the CLI, and scores the 25%
holdout; the module fixtures below reconstruct the matrices that
training used, so individual criteria can probe intermediate stages.
"""

from __future__ import annotations

import random
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

from _util import rev
from vandalstack.benchmark import make_benchmark, write_split
from vandalstack.config import RunConfig
from vandalstack.corpus import (
    LabeledExample,
    load_corpus,
    load_labels,
    join_labels,
    parse_line,
)
from vandalstack.errors import ProtocolViolation
from vandalstack.evaluation import auc_from_arrays, classical_mds, load_scores
from vandalstack.featurize import (
    encode_many,
    extract_content,
    extract_context,
    extract_features,
    load_schema,
    extract_many,
    vectors_to_csr,
)
from vandalstack.learners import ModelSpec, make_model, register_family, train
from vandalstack.learners import _REGISTRY
from vandalstack.learners.base import check_dense
from vandalstack.learners.mlp import init_params, loss_and_grad
from vandalstack.learners.selection import (
    feature_importances,
    project_matrix,
    select_features,
)
from vandalstack.rng import generator
from vandalstack.sampling import SamplingConfig, dedup, undersample
from vandalstack.serve import ScoringServer, format_score, run_client
from vandalstack.stacking import (
    StackConfig,
    fit_stack,
    load_pipeline,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def bench_data(bench):
    """Matrices reconstructed exactly as the benchmark training built them."""
    started = time.monotonic()
    cfg = RunConfig()
    load = load_corpus(bench.train_corpus)
    labels = load_labels(bench.train_truth)
    sampled = undersample(join_labels(load.revisions, labels).examples,
                          cfg.sampling_config())
    sampled = dedup(sampled)
    schema = load_schema(bench.schema_path)
    X = vectors_to_csr(
        encode_many(extract_many([ex.revision for ex in sampled]), schema),
        dim=schema.total_dim,
    )
    y = np.array([ex.label for ex in sampled], dtype=bool)

    pipeline = load_pipeline(bench.pipeline_path)
    holdout = load_corpus(bench.holdout_corpus).revisions
    truth = load_labels(bench.holdout_truth)
    Xh = vectors_to_csr(
        encode_many(extract_many(holdout), schema), dim=schema.total_dim
    )
    yh = np.array([truth[r.rev_id] for r in holdout], dtype=bool)
    return SimpleNamespace(
        schema=schema,
        pipeline=pipeline,
        X=X,
        y=y,
        X_selected=project_matrix(X, pipeline.selected),
        Xh_selected=project_matrix(Xh, pipeline.selected),
        yh=yh,
        holdout_revisions=holdout,
        build_seconds=time.monotonic() - started,
    )


@pytest.fixture(scope="module")
def bench_gbt(bench_data):
    """One default gradient-boosting model fit on the sampled training set."""
    return train(ModelSpec("gradient_boosting"), bench_data.X_selected,
                 bench_data.y)


# --------------------------------------------------------------- criteria


def _brute_force_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    pos = scores[labels]
    neg = scores[~labels]
    wins = 0.0
    for p in pos:
        wins += float(np.sum(p > neg)) + 0.5 * float(np.sum(p == neg))
    return wins / (pos.size * neg.size)


def test_criterion_01_auc_oracle_equivalence():
    started = time.monotonic()
    for trial in range(1000):
        rng = np.random.default_rng(40_000 + trial)
        n = int(rng.integers(2, 201))
        labels = rng.random(n) < rng.uniform(0.2, 0.8)
        labels[0] = True
        labels[-1] = False
        if trial % 3 == 0:
            scores = rng.random(n)  # mostly untied
        else:
            levels = int(rng.integers(2, 12))  # heavy ties
            scores = rng.integers(0, levels, size=n) / max(levels - 1, 1)
        assert auc_from_arrays(labels, scores) == pytest.approx(
            _brute_force_auc(labels, scores), abs=1e-12
        )
    assert time.monotonic() - started < 10.0


def test_criterion_02_feature_extraction_ground_truth():
    started = time.monotonic()

    hand = extract_content("Hello WORLD 123").numeric
    assert hand["commentLength"] == 15.0
    assert hand["lowerCaseRatio"] == 4 / 15
    assert hand["upperCaseRatio"] == 6 / 15
    assert hand["digitRatio"] == 3 / 15
    assert hand["whitespaceRatio"] == 2 / 15
    assert hand["longestWord"] == 5.0
    assert hand["longestCharSeq"] == 2.0
    assert hand["alphanumericRatio"] == 13 / 15
    assert hand["upperCaseWordRatio"] == 1 / 2

    line = (
        "308612969\t/* wbsetclaim-create:2||1 */ [[Property:P800]]: [[Q5974487]]"
        "\t1\t0,GB,EU,GMT,EN,LEEDS,WEST YORKSHIRE,"
    )
    context = extract_context(parse_line(line))
    assert context.categorical["revisionAction"] == "wbsetclaim"
    assert context.categorical["revisionSubaction"] == "create"
    assert context.categorical["revisionLanguage"] is None
    assert context.categorical["userCountry"] == "GB"
    assert context.categorical["userCity"] == "LEEDS"
    assert context.numeric["isRegisteredUser"] == 0.0

    tagged = extract_content("reverting #autolist edits").numeric
    assert tagged["containsHashTag"] == 1.0
    special = extract_content("by [[Special:Contributions/1.2.3.4|1.2.3.4]]").numeric
    assert special["isSpecContriUser"] == 1.0
    quiet = extract_content("an ordinary comment").numeric
    assert quiet["containsHashTag"] == 0.0
    assert quiet["isSpecContriUser"] == 0.0

    assert time.monotonic() - started < 1.0


def _run_cli(args: list[str]) -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "vandalstack.cli", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_criterion_03_process_level_determinism(tmp_path):
    started = time.monotonic()
    examples = make_benchmark(n=400, positive_rate=0.1, seed=3)
    write_split(examples, tmp_path, "d")
    corpus = tmp_path / "d_corpus.tsv"
    truth = tmp_path / "d_truth.tsv"

    def run(tag: str, corpus_path: Path) -> dict[str, bytes]:
        schema = tmp_path / f"{tag}_schema.txt"
        pipeline = tmp_path / f"{tag}_pipeline.txt"
        scores = tmp_path / f"{tag}_scores.tsv"
        _run_cli(["train-stack", "--corpus", str(corpus_path),
                  "--truth", str(truth), "--schema", str(schema),
                  "--pipeline", str(pipeline), "--fraction", "1/3"])
        _run_cli(["predict", "--pipeline", str(pipeline),
                  "--input", str(corpus), "--output", str(scores)])
        return {
            "schema": schema.read_bytes(),
            "pipeline": pipeline.read_bytes(),
            "scores": scores.read_bytes(),
        }

    first = run("one", corpus)
    second = run("two", corpus)
    assert first == second  # byte-identical schema, pipeline, predictions

    # shuffling corpus row order must not change the persisted schema
    lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(5).shuffle(lines)
    shuffled = tmp_path / "shuffled_corpus.tsv"
    shuffled.write_text("".join(lines), encoding="utf-8")
    scrambled_schema = tmp_path / "three_schema.txt"
    _run_cli(["train-stack", "--corpus", str(shuffled), "--truth", str(truth),
              "--schema", str(scrambled_schema),
              "--pipeline", str(tmp_path / "three_pipeline.txt"),
              "--fraction", "1/3"])
    assert scrambled_schema.read_bytes() == first["schema"]

    assert time.monotonic() - started < 120.0


def test_criterion_04_sampling_contract():
    started = time.monotonic()
    negatives = [
        LabeledExample(rev(i, f"routine edit number {i}"), False)
        for i in range(1, 10_001)
    ]
    positives = [
        LabeledExample(rev(100_000 + i, f"vandal scribble {i}"), True)
        for i in range(200)
    ]
    sampled = undersample(
        negatives + positives, SamplingConfig(fraction="1/50", seed=3)
    )
    assert sum(1 for ex in sampled if ex.label) == 200
    assert sum(1 for ex in sampled if not ex.label) == 200

    # dedup removes planted duplicates completely and is idempotent
    base = negatives[:50]
    duplicated = base[7]
    planted = base + [
        LabeledExample(rev(500_000 + j, duplicated.revision.comment), False)
        for j in range(10)
    ]
    deduped = dedup(planted)
    assert len(deduped) == 50
    comments = [ex.revision.comment for ex in deduped]
    assert len(set(comments)) == 50
    assert comments.count(duplicated.revision.comment) == 1
    assert dedup(deduped) == deduped

    assert time.monotonic() - started < 5.0


class _MemorizerModel:
    """Returns the training label for rows it has seen, 0.5 otherwise."""

    def __init__(self, seed=0):
        self.seed = seed

    @staticmethod
    def _key(X, i):
        return X[i].tobytes()

    def fit(self, X, y):
        X = check_dense(X)
        self.table_ = {self._key(X, i): float(y[i]) for i in range(X.shape[0])}
        self.n_features_ = X.shape[1]
        return self

    def predict_proba(self, X):
        X = check_dense(X)
        return np.array(
            [self.table_.get(self._key(X, i), 0.5) for i in range(X.shape[0])]
        )


def test_criterion_05_out_of_fold_purity():
    started = time.monotonic()
    register_family("memorizer", _MemorizerModel)
    try:
        rng = np.random.default_rng(17)
        X = sparse.csr_matrix(rng.normal(size=(31, 4)))
        y = np.arange(31) % 2 == 0
        config = StackConfig(
            first_stage=(ModelSpec("memorizer"),),
            second_stage=(ModelSpec("memorizer"),),
            k=3,
            seed=9,
        )
        pipeline = fit_stack(X, y, config)
        # a memorizer answers its training label for any row it has seen;
        # out-of-fold purity therefore means every meta-feature is 0.5
        assert pipeline.oof_.shape == (31, 1)
        assert np.all(pipeline.oof_ == 0.5)
    finally:
        _REGISTRY.pop("memorizer", None)
    assert time.monotonic() - started < 30.0


def test_criterion_06_synthetic_benchmark(bench, bench_data, bench_gbt):
    started = time.monotonic()
    data = bench_data

    # (a) the signal is learnable: a single default GBT first, then the
    # full pipeline's holdout scores written by the CLI
    gbt_auc = auc_from_arrays(
        data.yh, bench_gbt.predict_proba(data.Xh_selected)
    )
    assert gbt_auc >= 0.90

    scores = load_scores(bench.holdout_scores)
    stack_scores = np.array([scores[r.rev_id] for r in data.holdout_revisions])
    stack_auc = auc_from_arrays(data.yh, stack_scores)
    assert stack_auc >= 0.90

    # (b) stacking does not lose to any single first-stage model
    single_aucs = {}
    for spec in StackConfig().first_stage:
        model = train(spec, data.X_selected, data.y)
        single_aucs[(spec.family, tuple(sorted(spec.hyperparameters)))] = (
            auc_from_arrays(data.yh, model.predict_proba(data.Xh_selected))
        )
    assert stack_auc >= max(single_aucs.values()) - 0.01

    # (c) importance selection at 1e-5 drops the one-hot children of the
    # five pure-noise geolocation fields in at least 4 of 5 seeds
    noise_prefixes = (
        "userCity=", "userContinent=", "userCountry=", "userRegion=",
        "userTimeZone=",
    )
    noise_columns = {
        i for i in range(data.schema.total_dim)
        if data.schema.column_name(i).startswith(noise_prefixes)
    }
    assert len(noise_columns) == 19
    clean_seeds = 0
    for seed in range(5):
        selector = train(ModelSpec("gradient_boosting", {}, seed), data.X, data.y)
        kept = set(select_features(feature_importances(selector), 1e-5))
        if not kept & noise_columns:
            clean_seeds += 1
    assert clean_seeds >= 4

    elapsed = time.monotonic() - started
    assert bench.train_seconds + data.build_seconds + elapsed < 600.0


def test_criterion_07_gradient_checks(bench_data, bench_gbt):
    started = time.monotonic()

    # analytic MLP gradient vs central finite differences
    d, h, n = 7, 5, 20
    data_rng = np.random.default_rng(77)
    X = data_rng.normal(size=(n, d))
    y = (data_rng.random(n) < 0.5).astype(float)
    step = 1e-5
    for point in range(10):
        rng = generator(900 + point)
        theta = init_params(d, h, rng) + 0.1 * rng.normal(
            size=init_params(d, h, rng).shape
        )
        _, grad = loss_and_grad(theta, X, y, d, h, alpha=0.01)
        numeric = np.empty_like(grad)
        for i in range(theta.size):
            bumped = theta.copy()
            bumped[i] = theta[i] + step
            up, _ = loss_and_grad(bumped, X, y, d, h, alpha=0.01)
            bumped[i] = theta[i] - step
            down, _ = loss_and_grad(bumped, X, y, d, h, alpha=0.01)
            numeric[i] = (up - down) / (2 * step)
        rel = np.linalg.norm(numeric - grad) / max(np.linalg.norm(grad), 1.0)
        assert rel < 1e-4

    # boosting training log-loss never increases, round over round,
    # on the benchmark training data
    losses = np.asarray(bench_gbt.train_losses_)
    assert losses.size == 101
    assert np.all(np.diff(losses) <= 1e-12)

    assert time.monotonic() - started < 30.0


def _pairwise(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


def test_criterion_08_mds_exactness():
    started = time.monotonic()
    for trial in range(20):
        rng = np.random.default_rng(300 + trial)
        n = int(rng.integers(3, 40))
        intrinsic_dim = int(rng.integers(1, 3))  # 1-D or 2-D configuration
        flat = rng.normal(size=(n, intrinsic_dim)) * (3.0, 1.0)[:intrinsic_dim]
        ambient = int(rng.integers(intrinsic_dim, 8))
        basis = np.linalg.qr(rng.normal(size=(ambient, ambient)))[0]
        points = flat @ basis[:intrinsic_dim, :] + rng.normal(size=ambient)
        embedded = classical_mds(points)
        assert np.max(np.abs(_pairwise(embedded) - _pairwise(flat))) < 1e-6
    assert np.array_equal(classical_mds(np.array([[4.0, 5.0, 6.0]])),
                          np.zeros((1, 2)))
    assert time.monotonic() - started < 5.0


class _RecordingServer(ScoringServer):
    """Captures the answer lines as received so byte-level parity can be checked."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.answers: list[str] = []

    def _parse_answer(self, conn, line, outstanding, scores):
        self.answers.append(line)
        return super()._parse_answer(conn, line, outstanding, scores)


def test_criterion_09_serve_parity(bench):
    started = time.monotonic()
    revisions = load_corpus(bench.holdout_corpus).revisions[:1000]
    truth = load_labels(bench.holdout_truth)
    labels = {r.rev_id: truth[r.rev_id] for r in revisions}

    offline: dict[int, str] = {}
    with open(bench.holdout_scores, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            if i == 1000:
                break
            rev_id, _, text = line.rstrip("\n").partition("\t")
            offline[int(rev_id)] = text

    server = _RecordingServer(revisions, labels, window=16, timeout=30.0)
    host, port = server.bind()
    outcome: dict[str, object] = {}

    def serve():
        try:
            outcome["result"] = server.serve_one()
        except Exception as exc:  # surfaced by the joining assert below
            outcome["error"] = exc
        finally:
            server.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    rc = run_client(bench.pipeline_path, f"{host}:{port}", timeout=30.0)
    thread.join(timeout=30.0)
    assert not thread.is_alive()
    assert rc == 0
    assert "error" not in outcome, outcome.get("error")

    wire: dict[int, str] = {}
    for line in server.answers:
        _, rev_id, text = line.split("\t")
        wire[int(rev_id)] = text
    assert wire == offline  # byte-identical to the offline predict output

    result = outcome["result"]
    assert len(result.scores) == 1000
    in_flight = 0
    for kind, _ in result.trace:
        in_flight += 1 if kind == "send" else -1
        assert 0 <= in_flight <= 16
    assert in_flight == 0

    # a protocol violation closes the session with an error line
    bad_server = ScoringServer(revisions[:3],
                               {r.rev_id: labels[r.rev_id] for r in revisions[:3]},
                               window=4, timeout=10.0)
    bad_host, bad_port = bad_server.bind()
    bad_outcome: dict[str, object] = {}

    def serve_bad():
        try:
            bad_server.serve_one()
        except Exception as exc:
            bad_outcome["error"] = exc
        finally:
            bad_server.close()

    bad_thread = threading.Thread(target=serve_bad, daemon=True)
    bad_thread.start()
    with socket.create_connection((bad_host, bad_port), timeout=10.0) as sock:
        reader = sock.makefile("rb")
        assert reader.readline().startswith(b"REV\t")
        sock.sendall(b"SCORE\t1\tnot-a-number\n")
        tail = [raw.decode("utf-8").rstrip("\n") for raw in reader]
        reader.close()
    bad_thread.join(timeout=10.0)
    assert not bad_thread.is_alive()
    assert tail, "server closed without an error line"
    assert tail[-1].startswith("ERROR\t")
    assert isinstance(bad_outcome.get("error"), ProtocolViolation)

    assert time.monotonic() - started < 30.0


def test_criterion_10_reference_results_documented():
    text = (REPO_ROOT / "docs" / "reference_results.md").read_text(
        encoding="utf-8"
    )
    required = [
        "1/50",  # under-sampling fraction optimum
        "0.94678", "0.95124",  # duplicate-removal lift
        "0.770", "0.520",  # single-feature AUCs of the two triggers
        "1,279", "53", "1e-5",  # one-hot growth and selection
        "0.93731", "3 hours", "10 minutes",
        "0.95898", "0.95334",  # stacked vs single grid
        "0.95778", "0.95311",
        "0.95774", "0.95391",
        "0.95564", "0.95214",
        "0.95920", "0.95527",
        "0.95180", "0.95315",  # ablation grid (rest shared with above)
        "0.94412",  # final held-back evaluation score
    ]
    for token in required:
        assert token in text, f"reference results missing {token!r}"
    flags = text.count("not reproducible without the Wikidata corpus")
    assert flags >= 6

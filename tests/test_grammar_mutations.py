"""Every grammar in docs/formats.md, mutated: loaders fail closed, never hang.

Each grammar gets one well-formed document: a model file per family, a
pipeline, a schema, a scores file, a corpus, a truth file, and the lines
each side of the scoring protocol sends.  Unmutated, each document loads
and writes back byte for byte.  Mutated, by deleting, duplicating,
swapping or truncating a line, or by putting ``nan``, ``inf``, ``1²``, a
huge integer or an empty string in place of one token, a load either
succeeds or raises a :class:`VandalstackError`, within 10 s.  A file
loader's error names a line of the file.
"""

from __future__ import annotations

import functools
import io
import re
import socket
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests._util import rev
from vandalstack.corpus import format_line, load_corpus, load_labels
from vandalstack.errors import MalformedLine, VandalstackError
from vandalstack.evaluation import load_scores
from vandalstack.featurize import (
    build_schema,
    encode_matrix,
    extract_many,
    load_schema,
    save_schema,
)
from vandalstack.learners import (
    ExtraTreesClassifier,
    GradientBoostingClassifier,
    LogisticRegression,
    MLPClassifier,
    ModelSpec,
    RandomForestClassifier,
    load_model,
    save_model,
)
from vandalstack.serve import ScoringServer, format_score, run_client
from vandalstack.stacking import StackConfig, fit_stack, load_pipeline, save_pipeline

# a warning from a loader (numpy's, say) counts as an escaped error
pytestmark = pytest.mark.filterwarnings("error")

TOKENS = ("nan", "inf", "1²", "9" * 30, "")
SECONDS = 10.0
MUTATION_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def mutated(draw, lines):
    """``lines`` after one or two line or token mutations."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 2))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("delete", "duplicate", "swap", "truncate", "token")))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "truncate":
            lines[i] = lines[i][: draw(st.integers(0, max(0, len(lines[i]) - 1)))]
        else:
            # tokens sit at even positions, separators at odd ones
            parts = re.split(r"([ \t,])", lines[i])
            k = 2 * draw(st.integers(0, len(parts) // 2))
            parts[k] = draw(st.sampled_from(TOKENS))
            lines[i] = "".join(parts)
    return lines


def text_of(lines):
    return "".join(line + "\n" for line in lines)


def run_bounded(fn, *args):
    """``fn(*args)`` in a thread; its value, or the VandalstackError it raised."""
    box = {}

    def run():
        try:
            box["value"] = fn(*args)
        except BaseException as exc:  # noqa: BLE001 - sorted out below
            box["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=SECONDS)
    assert not thread.is_alive(), f"{fn.__name__} did not finish within {SECONDS} s"
    error = box.get("error")
    if error is not None and not isinstance(error, VandalstackError):
        raise error
    return box


def assert_fails_closed(load, lines):
    """Load ``lines`` as a file: success, or an error naming one of its lines."""
    outcome = run_bounded(load, text_of(lines))
    error = outcome.get("error")
    if error is not None:
        assert isinstance(error, MalformedLine), repr(error)
        assert error.line_no is not None and 1 <= error.line_no <= len(lines) + 1, repr(error)
    return outcome


# --- the documents ----------------------------------------------------------

def revisions():
    geo = dict(country="DE", continent="EU", timezone="CET", region="BE", city="BERLIN")
    out = []
    for i in range(1, 13):
        vandal = i % 3 == 0
        out.append(
            rev(
                1000 + i,
                comment=f"SPAM {i}!!! [[Q{i}]]" if vandal else f"/* wbsetlabel-add:1|en */ item {i}",
                has_contributor=not vandal,
                registered=not vandal,
                user_tag="bot,flagged" if i == 4 else None,
                **(geo if i % 2 else {}),
            )
        )
    return out


@functools.lru_cache(maxsize=None)
def fitted():
    revs = revisions()
    raws = extract_many(revs)
    schema = build_schema(raws)
    y = np.array([r.rev_id % 3 == 0 for r in revs])
    config = StackConfig(
        first_stage=(
            ModelSpec("mlp", {"hidden_units": 3, "max_epochs": 2}),
            ModelSpec("extra_trees", {"n_estimators": 2, "max_depth": 3}),
            ModelSpec("gradient_boosting", {"n_estimators": 2, "max_depth": 2}),
            ModelSpec("logistic_regression", {"max_iter": 20}),
        ),
        second_stage=(ModelSpec("random_forest", {"n_estimators": 2, "max_depth": 3}),),
        k=2,
        seed=3,
    )
    selected = tuple(range(0, schema.total_dim, 2))
    pipeline = fit_stack(encode_matrix(raws, schema), y, config, schema=schema, selected=selected)
    return schema, pipeline


def written(save, obj):
    buf = io.StringIO()
    save(obj, buf)
    return buf.getvalue().splitlines()


@functools.lru_cache(maxsize=None)
def model_documents():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 4))
    y = (X[:, 0] + 0.3 * rng.normal(size=30)) > 0
    models = (
        RandomForestClassifier(n_estimators=2, max_depth=3, seed=1),
        ExtraTreesClassifier(n_estimators=2, max_depth=3, seed=2),
        GradientBoostingClassifier(n_estimators=2, max_depth=2, seed=3),
        LogisticRegression(max_iter=20),
        MLPClassifier(hidden_units=3, max_epochs=2, seed=5),
    )
    return tuple(tuple(written(save_model, m.fit(X, y))) for m in models)


def score_lines():
    rng = np.random.default_rng(6)
    values = np.concatenate([rng.random(40), [0.0, 1.0, 0.5, 1e-12, 0.39199605018578665]])
    return [f"{2000 + i}\t{format_score(float(v))}" for i, v in enumerate(values)]


def corpus_lines():
    return [format_line(r) for r in revisions()]


def truth_lines():
    return [f"{r.rev_id}\t{1 if r.rev_id % 3 == 0 else 0}" for r in revisions()]


# --- file loaders: each returns the bytes it would write back -----------------

def reload_model(text):
    return text_of(written(save_model, load_model(io.StringIO(text))))


def reload_pipeline(text):
    return text_of(written(save_pipeline, load_pipeline(io.StringIO(text))))


def reload_schema(text):
    return text_of(written(save_schema, load_schema(io.StringIO(text))))


def reload_scores(text):
    scores = load_scores(io.StringIO(text))
    return text_of(f"{rev_id}\t{format_score(score)}" for rev_id, score in scores.items())


def reload_corpus(text):
    return text_of(format_line(r) for r in load_corpus(io.StringIO(text), "abort").revisions)


def reload_corpus_skipping(text):
    load = load_corpus(io.StringIO(text), "skip")
    assert len(load.revisions) + load.malformed_count <= text.count("\n")
    return load


def reload_truth(text):
    labels = load_labels(io.StringIO(text))
    return text_of(f"{rev_id}\t{1 if label else 0}" for rev_id, label in labels.items())


FILES = {
    "model": (reload_model, lambda: model_documents()),
    "pipeline": (reload_pipeline, lambda: (written(save_pipeline, fitted()[1]),)),
    "schema": (reload_schema, lambda: (written(save_schema, fitted()[0]),)),
    "scores": (reload_scores, lambda: (score_lines(),)),
    "corpus": (reload_corpus, lambda: (corpus_lines(),)),
    "truth": (reload_truth, lambda: (truth_lines(),)),
}


def test_unmutated_files_round_trip_byte_for_byte():
    for name, (reload, documents) in FILES.items():
        for lines in documents():
            text = text_of(lines)
            assert run_bounded(reload, text)["value"] == text, name


def test_empty_node_line_fails_closed():
    lines = list(model_documents()[0])
    at = lines.index("trees 2") + 2
    lines[at] = ""
    error = assert_fails_closed(reload_model, lines)["error"]
    assert error.line_no == at + 1


@pytest.mark.parametrize("value", ["x", "1²", "sqrt2", "0", "-3", "True", "2.0"])
def test_max_features_outside_sqrt_none_or_a_positive_int_fails_at_its_line(value):
    lines = list(model_documents()[0])
    at = lines.index("param max_features sqrt")
    lines[at] = f"param max_features {value}"
    error = assert_fails_closed(reload_model, lines)["error"]
    assert error.line_no == at + 1 and "max_features" in str(error)


@pytest.mark.parametrize("value", ["None", "1", "4"])
def test_max_features_none_or_a_positive_int_loads(value):
    lines = list(model_documents()[0])
    lines[lines.index("param max_features sqrt")] = f"param max_features {value}"
    text = text_of(lines)
    assert run_bounded(reload_model, text)["value"] == text


def file_case(name):
    docs = FILES[name][1]()
    return st.sampled_from(range(len(docs))).flatmap(lambda k: mutated(docs[k]))


@MUTATION_SETTINGS
@given(file_case("model"))
def test_mutated_model_files_fail_closed(lines):
    assert_fails_closed(reload_model, lines)


@MUTATION_SETTINGS
@given(file_case("pipeline"))
def test_mutated_pipeline_files_fail_closed(lines):
    assert_fails_closed(reload_pipeline, lines)


@MUTATION_SETTINGS
@given(file_case("schema"))
def test_mutated_schema_files_fail_closed(lines):
    assert_fails_closed(reload_schema, lines)


@MUTATION_SETTINGS
@given(file_case("scores"))
def test_mutated_scores_files_fail_closed(lines):
    assert_fails_closed(reload_scores, lines)


@MUTATION_SETTINGS
@given(file_case("corpus"))
def test_mutated_corpus_files_fail_closed(lines):
    assert_fails_closed(reload_corpus, lines)
    assert "error" not in run_bounded(reload_corpus_skipping, text_of(lines))


@MUTATION_SETTINGS
@given(file_case("truth"))
def test_mutated_truth_files_fail_closed(lines):
    assert_fails_closed(reload_truth, lines)


# --- protocol lines -----------------------------------------------------------

def listener():
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.bind(("127.0.0.1", 0))
    sock.listen(1)
    return sock


def send_then_drain(conn, lines):
    """Send ``lines``, close the sending side, read until the peer closes."""
    try:
        conn.sendall(text_of(lines).encode("utf-8"))
        conn.shutdown(socket.SHUT_WR)
        received = b""
        while chunk := conn.recv(65536):
            received += chunk
        return received.decode("utf-8").splitlines()
    except OSError:
        return None
    finally:
        conn.close()


def answer_lines():
    revs = revisions()[:4]
    return revs, [f"SCORE\t{r.rev_id}\t{format_score(0.25 * k)}" for k, r in enumerate(revs)]


def serve_answers(lines):
    """A ScoringServer session whose client sends ``lines`` as its answers."""
    revs, _ = answer_lines()
    server = ScoringServer(revs, {r.rev_id: r.rev_id % 3 == 0 for r in revs}, timeout=SECONDS / 2)
    address = server.bind()

    def client():
        with socket.create_connection(address, timeout=SECONDS / 2) as conn:
            send_then_drain(conn, lines)

    thread = threading.Thread(target=client, daemon=True)
    thread.start()
    try:
        return server.serve_one()
    finally:
        server.close()
        thread.join(timeout=SECONDS / 2)


def session_lines():
    return [f"REV\t{line}" for line in corpus_lines()[:4]] + ["END"]


def client_answers(lines):
    """``run_client``'s exit status and answers to a server that sends ``lines``."""
    sock = listener()
    answers = {}

    def server():
        conn, _ = sock.accept()
        conn.settimeout(SECONDS / 2)
        answers["lines"] = send_then_drain(conn, lines)

    thread = threading.Thread(target=server, daemon=True)
    thread.start()
    host, port = sock.getsockname()
    try:
        status = run_client(fitted()[1], f"{host}:{port}", timeout=SECONDS / 2)
    finally:
        thread.join(timeout=SECONDS / 2)
        sock.close()
    return status, answers.get("lines")


def test_unmutated_protocol_lines_round_trip():
    revs, lines = answer_lines()
    result = run_bounded(serve_answers, lines)["value"]
    assert [f"SCORE\t{i}\t{format_score(s)}" for i, s in result.scores.items()] == lines

    status, answers = run_bounded(client_answers, session_lines())["value"]
    assert status == 0
    assert [a.split("\t")[1] for a in answers] == [str(r.rev_id) for r in revs]
    sent = [line[len("REV\t"):] for line in session_lines()[:-1]]
    assert [format_line(r) for r in revs] == sent


@MUTATION_SETTINGS
@given(mutated(answer_lines()[1]))
def test_mutated_answer_lines_fail_closed(lines):
    run_bounded(serve_answers, lines)


@MUTATION_SETTINGS
@given(mutated(session_lines()))
def test_mutated_session_lines_fail_closed(lines):
    outcome = run_bounded(client_answers, lines)
    if "value" in outcome:
        assert outcome["value"][0] in (0, 1)

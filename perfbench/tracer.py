"""Outside-in tracing: timing wrappers around the package's public names.

``install`` replaces functions at the name the caller looks up (for
example ``cli.fit_stack``, ``stacking.train``, ``serve.predict_stack``,
and ``predict_proba`` on every built-in learner class) with wrappers that
record a span: name, start, end, parent span and a few counts taken from
the arguments or result.  Spans stay in memory and are written out once,
when the traced command ends.  Nothing inside the package is edited, so a
traced run must write the same bytes as an untraced one; the benchmark
checks that.

``layer_metrics`` turns the spans of one traced command into per-layer
numbers.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from statistics import median
from typing import Callable, Optional

from perfbench.stats import auc


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else None}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if note is not None:
                span.update(note(result, *args, **kwargs))
            return result

        return traced

    def patch(self, owner, attr: str, name: str, note: Optional[Callable] = None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), note))

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans), encoding="utf-8")


def _rows(result, *_args, **_kwargs) -> dict:
    return {"rows": len(result)}


def _oof_aucs(pipeline, X, y, *_args, **_kwargs) -> dict:
    labels = [bool(v) for v in y]
    oof = pipeline.oof_
    return {"oof_auc": [auc(labels, oof[:, j]) for j in range(oof.shape[1])]}


def install(tracer: Tracer) -> None:
    """Wrap every traced name in the already-imported package."""
    from vandalstack import cli, serve, stacking
    from vandalstack.learners.io import BUILTIN_FAMILIES

    p = tracer.patch
    # cli: the train-stack and predict flows
    p(cli, "load_corpus", "corpus.load_corpus", lambda r, *a, **k: {"rows": len(r.revisions)})
    p(cli, "load_labels", "corpus.load_labels")
    p(cli, "join_labels", "corpus.join_labels", lambda r, *a, **k: {"rows": len(r.examples)})
    p(cli, "undersample", "sampling.undersample", _rows)
    p(cli, "dedup", "sampling.dedup", _rows)
    p(cli, "extract_many", "featurize.extract_many")
    p(cli, "build_schema", "featurize.build_schema", lambda r, *a, **k: {"dim": r.total_dim})
    p(cli, "encode_many", "featurize.encode_many")
    p(cli, "vectors_to_csr", "featurize.vectors_to_csr")
    p(cli, "train", "selection.train")
    p(cli, "select_features", "selection.select_features", lambda r, *a, **k: {"selected": len(r)})
    p(cli, "fit_stack", "stacking.fit_stack", _oof_aucs)
    p(cli, "save_pipeline", "stacking.save_pipeline")
    p(cli, "load_pipeline", "stacking.load_pipeline")
    p(cli, "predict_stack_batch", "stacking.predict_stack_batch", _rows)
    # stacking internals reached through module-level names
    p(stacking, "train", "stacking.train")
    p(stacking, "project_matrix", "selection.project_matrix")
    p(stacking, "stack_meta_features", "stacking.stack_meta_features")
    p(stacking, "predict_stack_batch", "stacking.predict_stack_batch", _rows)
    p(stacking, "vectors_to_csr", "featurize.vectors_to_csr")
    # the streaming client
    p(serve, "load_pipeline", "stacking.load_pipeline")
    p(serve, "parse_line", "corpus.parse_line")
    p(serve, "extract_features", "featurize.extract_features")
    p(serve, "encode", "featurize.encode")
    p(serve, "predict_stack", "stacking.predict_stack")
    p(serve, "format_score", "serve.format_score")
    for cls in BUILTIN_FAMILIES.values():
        p(cls, "predict_proba", "learners.predict_proba")


def load_spans(*paths: Path) -> list[dict]:
    """Spans of one or more traced commands, as one list of disjoint trees."""
    spans: list[dict] = []
    for path in paths:
        offset = len(spans)
        for span in json.loads(path.read_text(encoding="utf-8")):
            if span["parent"] is not None:
                span["parent"] += offset
            spans.append(span)
    return spans


def _children(spans: list[dict]) -> dict:
    kids: dict = {}
    for i, span in enumerate(spans):
        kids.setdefault(span["parent"], []).append(i)
    return kids


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _total(spans: list[dict], name: str) -> float:
    return sum(_dur(s) for s in spans if s["name"] == name)


def stage_shape(pipeline_text: str) -> tuple[int, int, int]:
    """(k, first-stage count, second-stage count) from a pipeline file."""
    head = {}
    for line in pipeline_text.splitlines()[1:6]:
        key, _, value = line.partition(" ")
        head[key] = int(value)
    return head["k"], head["first_stage"], head["second_stage"]


def layer_metrics(spans: list[dict], shape: tuple[int, int, int]) -> dict:
    """Per-layer numbers from the spans of one or more traced commands.

    Model indices come from call order, which ``fit_stack`` and
    ``stack_meta_features`` fix: first-stage spec j fold f is call
    ``j * k + f``, then the second-stage models in order.
    """
    k, n_first, n_second = shape
    kids = _children(spans)
    m: dict = {}
    first_fit = [0.0] * n_first
    second_fit = [0.0] * n_second
    first_pred = [0.0] * n_first
    second_pred = [0.0] * n_second
    oof_auc = [0.0] * n_first
    for i, span in enumerate(spans):
        if span["name"] != "stacking.fit_stack":
            continue
        oof_auc = span.get("oof_auc", oof_auc)
        fits = -1
        for c in kids.get(i, []):
            child = spans[c]
            if child["name"] == "stacking.train":
                fits += 1
                if fits < k * n_first:
                    first_fit[fits // k] += _dur(child)
                elif fits - k * n_first < n_second:
                    second_fit[fits - k * n_first] += _dur(child)
            elif child["name"] == "learners.predict_proba" and 0 <= fits < k * n_first:
                first_pred[fits // k] += _dur(child)
    model_calls = 0
    rows_scored = 0
    first_us, second_us = [], []
    for i, span in enumerate(spans):
        if span["name"] != "stacking.predict_stack_batch":
            continue
        second = 0.0
        second_j = 0
        for c in kids.get(i, []):
            child = spans[c]
            if child["name"] == "stacking.stack_meta_features":
                first_us.append(_dur(child) * 1e6)
                for n, g in enumerate(kids.get(c, [])):
                    if spans[g]["name"] == "learners.predict_proba":
                        first_pred[min(n // k, n_first - 1)] += _dur(spans[g])
                        model_calls += 1
            elif child["name"] == "learners.predict_proba":
                second_pred[min(second_j, n_second - 1)] += _dur(child)
                second_j += 1
                second += _dur(child)
                model_calls += 1
        second_us.append(second * 1e6)
        rows_scored += span.get("rows", 0)
    for j in range(n_first):
        m[f"stacking.first.{j}.fit_s"] = first_fit[j]
        m[f"stacking.first.{j}.predict_s"] = first_pred[j]
        m[f"stacking.first.{j}.oof_auc"] = oof_auc[j]
    for j in range(n_second):
        m[f"stacking.second.{j}.fit_s"] = second_fit[j]
        m[f"stacking.second.{j}.predict_s"] = second_pred[j]
    m["stacking.meta_s"] = _total(spans, "stacking.stack_meta_features")
    m["stacking.model_calls"] = model_calls / rows_scored if rows_scored else 0.0
    m["selection.fit_s"] = _total(spans, "selection.train")
    m["selection.project_s"] = _total(spans, "selection.project_matrix")
    m["selection.selected"] = sum(s.get("selected", 0) for s in spans)
    m["featurize.extract_s"] = _total(spans, "featurize.extract_many")
    m["featurize.encode_s"] = _total(spans, "featurize.encode_many")
    m["featurize.csr_s"] = _total(spans, "featurize.vectors_to_csr")
    m["featurize.build_schema_s"] = _total(spans, "featurize.build_schema")
    m["corpus.load_s"] = _total(spans, "corpus.load_corpus") + _total(spans, "corpus.load_labels")
    m["corpus.rows"] = sum(s.get("rows", 0) for s in spans if s["name"] == "corpus.load_corpus")
    m["sampling.undersample_s"] = _total(spans, "sampling.undersample")
    m["sampling.dedup_s"] = _total(spans, "sampling.dedup")
    m["sampling.rows_joined"] = sum(
        s.get("rows", 0) for s in spans if s["name"] == "corpus.join_labels"
    )
    kept = [s["rows"] for s in spans if s["name"] in ("sampling.undersample", "sampling.dedup")]
    m["sampling.rows_kept"] = kept[-1] if kept else 0
    m["stacking.save_s"] = _total(spans, "stacking.save_pipeline")
    loads = [_dur(s) for s in spans if s["name"] == "stacking.load_pipeline"]
    m["stacking.load_s"] = sum(loads) / len(loads) if loads else 0.0
    per_rev = {
        "stream.parse_us": ["corpus.parse_line"],
        "stream.featurize_us": ["featurize.extract_features", "featurize.encode"],
        "stream.format_us": ["serve.format_score"],
    }
    for metric, names in per_rev.items():
        m[metric] = sum(
            median([_dur(s) * 1e6 for s in spans if s["name"] == n] or [0.0]) for n in names
        )
    streamed = any(s["name"] == "stacking.predict_stack" for s in spans)
    m["stream.first_us"] = median(first_us) if streamed and first_us else 0.0
    m["stream.second_us"] = median(second_us) if streamed and second_us else 0.0
    m["stream.service_us"] = (
        median([_dur(s) * 1e6 for s in spans if s["name"] == "stacking.predict_stack"])
        + m["stream.parse_us"] + m["stream.featurize_us"] + m["stream.format_us"]
        if streamed else 0.0
    )
    return m

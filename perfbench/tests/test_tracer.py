"""Tracing changes no output byte, and its spans cover every layer."""

from __future__ import annotations

import json

import pytest

from perfbench import sut, tracer
from perfbench.corpusgen import CorpusSpec, write_labeled
from perfbench.workloads import predict_args, train_args


def _outputs(d):
    return [(d / name).read_bytes() for name in ("schema.txt", "pipeline.txt", "scores.tsv")]


def _run(d, log, spans=None):
    assert sut.run_cli(train_args(d), log, "train", spans and spans[0]).returncode == 0
    predict = predict_args(d / "pipeline.txt", d / "test_corpus.tsv", d / "scores.tsv")
    assert sut.run_cli(predict, log, "predict", spans and spans[1]).returncode == 0
    return _outputs(d)


def test_traced_run_writes_identical_bytes_and_spans_every_layer(tmp_path):
    data = tmp_path / "data"
    write_labeled(CorpusSpec(n=3000, holdout=0.5, q=0.004), 5, data)
    plain = _run(data, tmp_path)
    spans = [tmp_path / "train.spans.json", tmp_path / "predict.spans.json"]
    traced = _run(data, tmp_path, spans)
    assert traced == plain

    shape = tracer.stage_shape(plain[1].decode())
    m = tracer.layer_metrics(tracer.load_spans(*spans), shape)
    declared = json.loads((sut.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(m) <= {d["name"] for d in declared}
    k, n_first, n_second = shape
    assert all(m[f"stacking.first.{j}.fit_s"] > 0 for j in range(n_first))
    assert all(m[f"stacking.second.{j}.fit_s"] > 0 for j in range(n_second))
    assert all(0.5 < m[f"stacking.first.{j}.oof_auc"] <= 1.0 for j in range(n_first))
    assert m["stacking.model_calls"] == pytest.approx((k * n_first + n_second) / 1500)
    for name in ("selection.fit_s", "featurize.extract_s", "corpus.load_s",
                 "sampling.undersample_s", "stacking.save_s", "stacking.load_s"):
        assert m[name] > 0, name

"""Command-line entry point wiring every module into subcommands.

    vandalstack ingest      parse + join a corpus and truth file, print counts
    vandalstack sample      under-sample and dedup, write reduced corpus/truth
    vandalstack train       fit one model family on a corpus (debug utility)
    vandalstack train-stack full training flow from a config file
    vandalstack predict     score a corpus with a saved pipeline
    vandalstack evaluate    AUC + error report from a scores file
    vandalstack analyze     evaluate plus histogram/error/MDS data files
    vandalstack serve       one-session scoring server
    vandalstack client      answer a scoring session with a saved pipeline

Every artifact is deterministic: rerunning a subcommand with the same
inputs and seeds writes byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .config import _KEYS, RunConfig, integer, load_run_config, plain_float
from .corpus import (
    join_labels,
    load_corpus,
    load_labels,
    write_corpus,
    write_labels,
)
from .errors import UsageError, VandalstackError
from .evaluation import (
    MDS_CAP,
    ErrorSets,
    EvalReport,
    classical_mds,
    error_sets,
    evaluate_scored,
    histogram_rows,
    join_scored,
    load_scores,
)
from .featurize import (  # noqa: F401 - perfbench's tracer wraps encode_many, vectors_to_csr
    build_schema,
    encode_many,
    encode_matrix,
    extract_many,
    load_schema,
    save_schema,
    vectors_to_csr,
)
from .learners import (
    BUILTIN_FAMILIES,
    ModelSpec,
    default_spec,
    feature_importances,
    optimized_spec,
    save_model,
    select_features,
    train,
)
from .lines import write_lines
from .sampling import dedup, undersample
from .serve import format_score, run_client, run_server
from .stacking import fit_stack, load_pipeline, predict_stack_batch, save_pipeline

_FORMAT_VERSIONS = "schema v1, model v1, pipeline v1"


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VandalstackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vandalstack",
        description="Stacked-ensemble vandalism scoring for revision streams.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"vandalstack {__version__} ({_FORMAT_VERSIONS})",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each setting's dest is its config key, and its default the run config's
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--fraction", dest="sampling.fraction")
    sampling.add_argument("--window", dest="sampling.window")
    sampling.add_argument("--dedup-order", dest="sampling.dedup_order", choices=["after", "before"])
    sampling.add_argument("--malformed", choices=["skip", "abort"])
    scored = argparse.ArgumentParser(add_help=False)
    scored.add_argument("--scores", required=True)
    scored.add_argument("--truth", required=True)
    scored.add_argument("--corpus", help="corpus for feature-vector dedup / MDS")
    scored.add_argument("--schema", help="schema matching --corpus")
    scored.add_argument("--threshold", type=plain_float, default=0.5)

    p = sub.add_parser("ingest", help="parse a corpus, join labels, print counts")
    p.add_argument("--corpus", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--malformed", choices=["skip", "abort"], default="skip")
    p.add_argument("--output", help="write the parsed corpus back out (normalised)")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser(
        "sample", parents=[sampling], help="under-sample negatives and drop duplicates"
    )
    p.add_argument("--corpus", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--output-corpus", required=True)
    p.add_argument("--output-truth", required=True)
    p.add_argument("--seed", dest="sampling.seed")
    p.add_argument("--no-dedup", dest="sampling.dedup", action="store_const", const="0")
    p.set_defaults(func=_cmd_sample, config=None)

    p = sub.add_parser("train", help="fit a single model family (debug utility)")
    p.add_argument("--corpus", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument(
        "--model",
        required=True,
        choices=list(BUILTIN_FAMILIES),
    )
    p.add_argument("--preset", choices=["default", "optimized"], default="default")
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--output", required=True, help="model file to write")
    p.add_argument("--schema", help="also write the feature schema here")
    p.add_argument("--malformed", choices=["skip", "abort"], default="skip")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser(
        "train-stack", parents=[sampling], help="full training flow from a config file"
    )
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--corpus")
    p.add_argument("--truth")
    p.add_argument("--schema")
    p.add_argument("--pipeline")
    p.add_argument("--master-seed", dest="master_seed")
    p.add_argument("--threshold", dest="selection.threshold")
    p.add_argument("--k", dest="stack.k")
    p.set_defaults(func=_cmd_train_stack)

    p = sub.add_parser("predict", help="score a corpus with a saved pipeline")
    p.add_argument("--pipeline", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--malformed", choices=["skip", "abort"], default="skip")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser(
        "evaluate", parents=[scored], help="AUC and error report for a scores file"
    )
    p.add_argument("--report", required=True)
    p.add_argument("--mds", help="write an error-embedding TSV here")
    p.set_defaults(func=_cmd_evaluate, out_dir=None)

    p = sub.add_parser(
        "analyze", parents=[scored], help="evaluate + histogram/error/MDS data files"
    )
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_evaluate, report=None, mds=None)

    p = sub.add_parser("serve", help="serve one scoring session over TCP")
    p.add_argument("--corpus", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--listen", default="127.0.0.1:0")
    p.add_argument("--window", type=integer, default=16)
    p.add_argument("--timeout", type=plain_float, default=60.0)
    p.add_argument("--report", help="write the session report here (default stdout)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("client", help="answer a scoring session")
    p.add_argument("--pipeline", required=True)
    p.add_argument("--connect", required=True)
    p.add_argument("--timeout", type=plain_float, default=60.0)
    p.set_defaults(func=_cmd_client)

    return parser


def _load_joined(corpus_path: str, truth_path: str, malformed: str):
    loaded = load_corpus(corpus_path, on_malformed=malformed)
    labels = load_labels(truth_path)
    joined = join_labels(loaded.revisions, labels)
    return loaded, labels, joined


def _cmd_ingest(args) -> int:
    loaded, _, joined = _load_joined(args.corpus, args.truth, args.malformed)
    positives = sum(1 for ex in joined.examples if ex.label)
    print(f"revisions {len(loaded.revisions)}")
    print(f"malformed {loaded.malformed_count}")
    print(f"labeled {len(joined.examples)}")
    print(f"unlabeled {joined.unlabeled_count}")
    print(f"positives {positives}")
    print(f"negatives {len(joined.examples) - positives}")
    if args.output:
        write_corpus(loaded.revisions, args.output)
    return 0


def _reduce(examples, cfg: RunConfig):
    """The training-set reduction: under-sample negatives, drop repeated content.

    ``dedup`` runs before or after ``undersample`` as ``cfg`` says, or not
    at all.  Both are looked up as names of this module, where perfbench's
    tracer wraps them.
    """
    if cfg.dedup and cfg.dedup_order == "before":
        examples = dedup(examples)
    examples = undersample(examples, cfg.sampling_config())
    if cfg.dedup and cfg.dedup_order == "after":
        examples = dedup(examples)
    return examples


def _run_config(args) -> RunConfig:
    """``--config``'s file, then each flag given, stored at its dest: the key it sets."""
    return load_run_config(args.config, {k: v for k, v in vars(args).items() if k in _KEYS})


def _cmd_sample(args) -> int:
    cfg = _run_config(args)
    _, _, joined = _load_joined(cfg.corpus, cfg.truth, cfg.malformed)
    examples = _reduce(joined.examples, cfg)
    write_corpus((ex.revision for ex in examples), args.output_corpus)
    write_labels(examples, args.output_truth)
    positives = sum(1 for ex in examples if ex.label)
    print(f"kept {len(examples)} examples ({positives} positive)")
    return 0


def _encode(examples):
    """Extract, build the schema and encode: schema, X, labels.

    The steps are looked up as names of this module, where perfbench's
    tracer wraps them.  The commands save the schema only once their fit
    succeeds.
    """
    raws = extract_many([ex.revision for ex in examples])
    schema = build_schema(raws)
    return schema, encode_matrix(raws, schema), [ex.label for ex in examples]


def _cmd_train(args) -> int:
    _, _, joined = _load_joined(args.corpus, args.truth, args.malformed)
    if not joined.examples:
        raise UsageError("no labeled examples to train on")
    schema, X, labels = _encode(joined.examples)
    spec = (
        default_spec(args.model, args.seed)
        if args.preset == "default"
        else optimized_spec(args.model, args.seed)
    )
    model = train(spec, X, labels)
    save_model(model, args.output)
    if args.schema:
        save_schema(schema, args.schema)
    print(f"trained {args.model} ({args.preset}) on {X.shape[0]} examples, dim {X.shape[1]}")
    return 0


def _cmd_train_stack(args) -> int:
    cfg = _run_config(args)
    if cfg.corpus is None or cfg.truth is None:
        raise UsageError("train-stack needs corpus and truth paths")
    if cfg.pipeline is None:
        raise UsageError("train-stack needs a pipeline output path")
    _, _, joined = _load_joined(cfg.corpus, cfg.truth, cfg.malformed)
    if not joined.examples:
        raise UsageError("no labeled examples to train on")
    examples = _reduce(joined.examples, cfg)
    schema, X, labels = _encode(examples)

    selection_model = train(
        ModelSpec("gradient_boosting", {}, cfg.selection_seed), X, labels
    )
    selected = select_features(feature_importances(selection_model), cfg.selection_threshold)
    if not selected:
        raise UsageError(
            "feature selection removed every column; lower selection.threshold"
        )

    pipeline = fit_stack(X, labels, cfg.stack_config(), schema=schema, selected=selected)
    # the schema and the pipeline go in place only once the fit succeeds
    save_pipeline(pipeline, cfg.pipeline)
    save_schema(schema, cfg.schema_path())
    print(f"training examples {len(examples)}")
    print(f"encoded dim {schema.total_dim}")
    print(f"selected {len(selected)}")
    print(f"schema {cfg.schema_path()}")
    print(f"pipeline {cfg.pipeline}")
    return 0


def _cmd_predict(args) -> int:
    pipeline = load_pipeline(args.pipeline)
    loaded = load_corpus(args.input, on_malformed=args.malformed)
    X = encode_matrix(extract_many(loaded.revisions), pipeline.schema)
    scores = predict_stack_batch(pipeline, X)
    rows = zip(loaded.revisions, scores)
    write_lines(args.output, (f"{rev.rev_id}\t{format_score(float(score))}" for rev, score in rows))
    if loaded.malformed_count:
        print(f"skipped {loaded.malformed_count} malformed lines", file=sys.stderr)
    print(f"scored {len(loaded.revisions)} revisions -> {args.output}")
    return 0


def _corpus_rows(corpus_path: str, schema_path: str, rev_ids: np.ndarray) -> dict:
    """Each scored rev_id's row of ``--corpus`` encoded against ``--schema``.

    A rev_id on several corpus lines gets its last line's row.
    """
    schema = load_schema(schema_path)
    revisions = load_corpus(corpus_path).revisions
    X = encode_matrix(extract_many(revisions), schema)
    rows = {rev.rev_id: X[i] for i, rev in enumerate(revisions)}
    for rev_id in rev_ids.tolist():
        if rev_id not in rows:
            raise UsageError(f"scored rev_id {rev_id} is not in --corpus {corpus_path}")
    return rows


def _report_lines(report: EvalReport) -> list[str]:
    lines = [
        f"examples {report.n}",
        f"positives {report.positives}",
        f"negatives {report.negatives}",
        f"auc {report.auc!r}",
        f"misclassified {report.misclassified_count}",
        f"fp_total {report.fp_total}",
        f"fn_total {report.fn_total}",
    ]
    if report.fp_distinct is not None:
        lines.append(f"fp_distinct {report.fp_distinct}")
    if report.fn_distinct is not None:
        lines.append(f"fn_distinct {report.fn_distinct}")
    return lines + ["histogram"] + _histogram_lines(report)


def _histogram_lines(report: EvalReport) -> list[str]:
    return [f"{lo!r}\t{hi!r}\t{count}" for lo, hi, count in histogram_rows(report.histogram)]


def _mds_lines(errors: ErrorSets, rows: dict) -> list[str]:
    tagged = [(rev_id, "FP") for rev_id in errors.fp]
    tagged += [(rev_id, "FN") for rev_id in errors.fn]
    tagged.sort()
    tagged = tagged[:MDS_CAP]
    if not tagged:
        return []
    coords = classical_mds(np.stack([rows[rev_id] for rev_id, _ in tagged])).tolist()
    return [f"{rev_id}\t{x!r}\t{y!r}\t{tag}" for (rev_id, tag), (x, y) in zip(tagged, coords)]


def _error_lines(errors: ErrorSets) -> list[str]:
    distinct_fp = set(errors.fp_distinct)
    distinct_fn = set(errors.fn_distinct)
    return [f"{rev_id}\tFP\t{1 if rev_id in distinct_fp else 0}" for rev_id in errors.fp] + [
        f"{rev_id}\tFN\t{1 if rev_id in distinct_fn else 0}" for rev_id in errors.fn
    ]


def _cmd_evaluate(args) -> int:
    """``evaluate`` writes ``--report`` (and ``--mds``); ``analyze`` fills ``--out-dir``."""
    if not math.isfinite(args.threshold):
        raise UsageError(f"--threshold must be finite, got {args.threshold!r}")
    scores = load_scores(args.scores)
    labels = load_labels(args.truth)
    rev_ids, values, flags = join_scored(scores, labels)
    missing = len(scores) - rev_ids.size
    if missing:
        print(f"warning: {missing} scored rev_ids have no label", file=sys.stderr)
    if not rev_ids.size:
        raise UsageError("no scored examples with labels")
    rows = None
    if args.corpus and args.schema:
        rows = _corpus_rows(args.corpus, args.schema, rev_ids)
    elif args.mds:
        raise UsageError("--mds needs --corpus and --schema for feature vectors")
    report_path, mds_path = args.report, args.mds
    if args.out_dir is not None:
        out_dir = Path(args.out_dir)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"cannot create {out_dir}: {exc.strerror or exc}") from None
        report_path = out_dir / "report.txt"
        mds_path = out_dir / "mds.tsv" if rows is not None else None
    errors = error_sets(rev_ids, values, flags, args.threshold, rows)
    report = evaluate_scored(values, flags, errors, distinct=rows is not None)
    write_lines(report_path, _report_lines(report))
    if mds_path:
        write_lines(mds_path, _mds_lines(errors, rows))
    print(f"auc {report.auc!r}")
    if args.out_dir is not None:
        write_lines(out_dir / "histogram.tsv", _histogram_lines(report))
        write_lines(out_dir / "errors.tsv", _error_lines(errors))
        print(f"wrote {out_dir}")
    return 0


def _cmd_serve(args) -> int:
    result = run_server(
        args.corpus,
        args.truth,
        listen=args.listen,
        window=args.window,
        timeout=args.timeout,
    )
    write_lines(args.report or sys.stdout, _report_lines(result.report))
    return 0


def _cmd_client(args) -> int:
    return run_client(args.pipeline, args.connect, timeout=args.timeout)


if __name__ == "__main__":
    raise SystemExit(main())

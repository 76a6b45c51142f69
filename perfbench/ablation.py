"""The paper's selection x stacking x ensemble ablation, on demand.

    python3 perfbench/ablation.py [--seed N]

Not a workload: it runs once, on the ``train`` workload's corpus for the
seed, through the package's public functions (``train``,
``select_features``, ``fit_stack``, ``stack_meta_features``), and prints
the six holdout AUCs beside the paper's Wikidata numbers from
``docs/reference_results.md``.  "Single model" is the optimized gradient
boosting spec; "ensemble" is the mean of the four second-stage specs.
Without stacking those models fit the features directly; with stacking
they fit the out-of-fold first-stage scores.  The result is also written
to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import sut  # noqa: E402

# (selection, stacking, ensemble) -> the paper's validation AUC-ROC
PAPER = {
    (False, False, False): 0.95180,
    (False, False, True): 0.95315,
    (True, False, False): 0.95391,
    (True, False, True): 0.95527,
    (True, True, False): 0.95774,
    (True, True, True): 0.95920,
}
SINGLE = 2  # index of the optimized gradient boosting spec in the second stage


def ablate(seed: int, work: Path) -> dict:
    import numpy as np

    from perfbench.corpusgen import write_labeled
    from perfbench.stats import auc
    from perfbench.workloads import SPEC, read_truth
    from vandalstack.config import load_run_config
    from vandalstack.corpus import join_labels, load_corpus, load_labels
    from vandalstack.featurize import build_schema, encode_many, extract_many, vectors_to_csr
    from vandalstack.learners import (
        ModelSpec, feature_importances, project_matrix, select_features, train,
    )
    from vandalstack.rng import derive_seed
    from vandalstack.sampling import dedup, undersample
    from vandalstack.stacking import StackConfig, fit_stack, stack_meta_features

    write_labeled(SPEC, seed, work)
    cfg = load_run_config(None, {})
    joined = join_labels(
        load_corpus(work / "train_corpus.tsv").revisions, load_labels(work / "train_truth.tsv")
    )
    examples = dedup(undersample(joined.examples, cfg.sampling_config()))
    raws = extract_many([ex.revision for ex in examples])
    labels = [ex.label for ex in examples]
    schema = build_schema(raws)
    X = vectors_to_csr(encode_many(raws, schema), dim=schema.total_dim)
    holdout = load_corpus(work / "test_corpus.tsv").revisions
    truth = read_truth(work / "test_truth.tsv")
    y_test = [truth[rev.rev_id] for rev in holdout]
    X_test = vectors_to_csr(encode_many(extract_many(holdout), schema), dim=schema.total_dim)

    selector = train(ModelSpec("gradient_boosting", {}, cfg.selection_seed), X, labels)
    selected = select_features(feature_importances(selector), cfg.selection_threshold)
    config = StackConfig(k=cfg.stack_k, seed=cfg.stack_seed())

    def second_stage_scores(use_selection: bool, stacking: bool) -> list:
        Xtr, Xte = (X, X_test)
        if use_selection:
            Xtr, Xte = project_matrix(X, selected), project_matrix(X_test, selected)
        if stacking:
            pipeline = fit_stack(Xtr, labels, config)
            return [m.predict_proba(stack_meta_features(pipeline, Xte)) for m in pipeline.second_models]
        return [
            train(spec, Xtr, labels, seed=derive_seed(config.seed, "second-stage", j)).predict_proba(Xte)
            for j, spec in enumerate(config.second_stage)
        ]

    rows = []
    for use_selection, stacking in [(False, False), (True, False), (True, True)]:
        scores = second_stage_scores(use_selection, stacking)
        for ensemble in (False, True):
            final = np.mean(scores, axis=0) if ensemble else scores[SINGLE]
            key = (use_selection, stacking, ensemble)
            rows.append({
                "selection": use_selection, "stacking": stacking, "ensemble": ensemble,
                "auc": auc(y_test, final), "paper_auc": PAPER[key],
            })
    return {
        "seed": seed, "training_rows": len(examples), "columns": schema.total_dim,
        "selected": len(selected), "holdout_rows": len(holdout), "rows": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    try:
        sut.check_checkout()
    except sut.BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(sut.SRC))
    from perfbench.workloads import WORK

    work = WORK / f"ablation-{args.seed}"
    result = ablate(args.seed, work)
    result["provenance"] = sut.provenance()
    print(f"seed {args.seed}: {result['training_rows']} training rows, "
          f"{result['selected']} of {result['columns']} columns selected, "
          f"{result['holdout_rows']} holdout rows")
    print(f"{'selection':<10} {'stacking':<9} {'ensemble':<9} {'AUC':>8} {'paper':>8}")
    for row in result["rows"]:
        flags = ["yes" if row[k] else "no" for k in ("selection", "stacking", "ensemble")]
        print(f"{flags[0]:<10} {flags[1]:<9} {flags[2]:<9} {row['auc']:>8.5f} {row['paper_auc']:>8.5f}")
    out = WORK / "results" / f"ablation-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Vandalism scoring for knowledge-base revision streams.

The package covers the full path from raw corpus lines to a served score:
parsing (`corpus`), class rebalancing (`sampling`), feature extraction and
one-hot encoding (`featurize`), from-scratch base learners (`learners`),
a stacked ensemble (`stacking`), ranking metrics and error analysis
(`evaluation`), and a line-oriented TCP scoring protocol (`serve`).
"""

__version__ = "0.1.0"

from .corpus import (
    CorpusLoad,
    JoinResult,
    LabeledExample,
    Revision,
    join_labels,
    load_corpus,
    load_labels,
    parse_line,
    format_line,
    write_corpus,
    write_labels,
)
from .errors import (
    DimensionMismatch,
    DuplicateConflict,
    EmptyDataset,
    IndexOutOfRange,
    MalformedLine,
    NotFitted,
    ProtocolViolation,
    SingleClass,
    Timeout,
    TooFewExamples,
    UnsupportedFamily,
    UsageError,
    VandalstackError,
)
from .evaluation import (
    ErrorSets,
    EvalReport,
    auc_from_arrays,
    classical_mds,
    error_sets,
    evaluate_scored,
    load_scores,
    score_diff_histogram,
)
from .featurize import (
    FeatureSchema,
    FeatureVector,
    RawFeatures,
    build_schema,
    encode,
    encode_many,
    encode_matrix,
    extract_content,
    extract_context,
    extract_features,
    extract_many,
    load_schema,
    save_schema,
    vectors_to_csr,
)
from .rng import derive_seed, generator
from .sampling import SamplingConfig, content_key, dedup, undersample
from .serve import ScoringServer, format_score, run_client, run_server
from .stacking import (
    StackConfig,
    StackedPipeline,
    fit_stack,
    kfold_assign,
    load_pipeline,
    predict_stack,
    predict_stack_batch,
    save_pipeline,
    stack_meta_features,
)

__all__ = [
    "__version__",
    # corpus
    "CorpusLoad",
    "JoinResult",
    "LabeledExample",
    "Revision",
    "join_labels",
    "load_corpus",
    "load_labels",
    "parse_line",
    "format_line",
    "write_corpus",
    "write_labels",
    # errors
    "DimensionMismatch",
    "DuplicateConflict",
    "EmptyDataset",
    "IndexOutOfRange",
    "MalformedLine",
    "NotFitted",
    "ProtocolViolation",
    "SingleClass",
    "Timeout",
    "TooFewExamples",
    "UnsupportedFamily",
    "UsageError",
    "VandalstackError",
    # evaluation
    "ErrorSets",
    "EvalReport",
    "auc_from_arrays",
    "classical_mds",
    "error_sets",
    "evaluate_scored",
    "load_scores",
    "score_diff_histogram",
    # featurize
    "FeatureSchema",
    "FeatureVector",
    "RawFeatures",
    "build_schema",
    "encode",
    "encode_many",
    "encode_matrix",
    "extract_content",
    "extract_context",
    "extract_features",
    "extract_many",
    "load_schema",
    "save_schema",
    "vectors_to_csr",
    # rng
    "derive_seed",
    "generator",
    # sampling
    "SamplingConfig",
    "content_key",
    "dedup",
    "undersample",
    # serve
    "ScoringServer",
    "format_score",
    "run_client",
    "run_server",
    # stacking
    "StackConfig",
    "StackedPipeline",
    "fit_stack",
    "kfold_assign",
    "load_pipeline",
    "predict_stack",
    "predict_stack_batch",
    "save_pipeline",
    "stack_meta_features",
]

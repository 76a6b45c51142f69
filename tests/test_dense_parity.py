"""Dense after projection: one row scores the same alone as in a block.

The streaming client scores one revision at a time and ``predict`` scores
thousands at once; both must write the same bytes.  These properties pin
the dense paths that make that true: the branch-free sigmoid against the
masked formula it replaced, MLP and logistic-regression scoring of single
rows against the whole block, and ``predict_stack`` on feature vectors
against ``predict_stack_batch`` on the same rows.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vandalstack.benchmark import make_benchmark
from vandalstack.featurize import build_schema, encode_many, extract_many, vectors_to_csr
from vandalstack.learners import LogisticRegression, MLPClassifier, ModelSpec
from vandalstack.learners.boosting import sigmoid
from vandalstack.stacking import StackConfig, fit_stack, predict_stack, predict_stack_batch


def reference_sigmoid(z):
    """The masked formula ``sigmoid`` replaced, kept as the reference."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


EDGES = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2e-308, np.inf, -np.inf,
     709.782712893384, -709.782712893384, 745.1332191019412, -745.1332191019412,
     36.7368005696771, -36.7368005696771, 1e300, -1e300, 1.0, -1.0]
)


def assert_same_bits(a, b):
    assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=1, max_side=64),
                  elements=st.floats(allow_nan=False, width=64)))
def test_sigmoid_matches_the_masked_formula(z):
    assert_same_bits(sigmoid(z), reference_sigmoid(z))


def test_sigmoid_matches_the_masked_formula_on_edges_and_random_bits():
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(np.float64)
    for z in (EDGES, bits[~np.isnan(bits)], rng.normal(scale=30.0, size=100_000)):
        assert_same_bits(sigmoid(z), reference_sigmoid(z))
    assert np.isnan(sigmoid(np.array([np.nan, -np.nan]))).all()
    assert sigmoid(np.array([-0.0]))[0] == 0.5


cells = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]),
    st.floats(-50.0, 50.0, allow_nan=False, width=64),
)


@st.composite
def scored_blocks(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 12))
    X = draw(hnp.arrays(np.float64, (n, d), elements=cells))
    seed = draw(st.integers(0, 2**32 - 1))
    return X, seed


def random_mlp(d, seed):
    rng = np.random.default_rng(seed)
    h = int(rng.integers(1, 20))
    model = MLPClassifier(hidden_units=h)
    model.theta_ = rng.normal(size=d * h + 2 * h + 1)
    model.n_features_ = d
    return model


def random_lr(d, seed):
    rng = np.random.default_rng(seed)
    model = LogisticRegression()
    model.coef_ = rng.normal(size=d)
    model.intercept_ = float(rng.normal())
    model.n_features_ = d
    return model


def assert_rows_match_block(model, X):
    block = model.predict_proba(X)
    alone = np.concatenate([model.predict_proba(X[i : i + 1]) for i in range(X.shape[0])])
    fresh = np.concatenate(
        [model.predict_proba(np.array(X[i])[None, :]) for i in range(X.shape[0])]
    )
    assert_same_bits(alone, block)
    assert_same_bits(fresh, block)


@settings(max_examples=150, deadline=None)
@given(scored_blocks())
def test_mlp_rows_alone_match_the_block(case):
    X, seed = case
    assert_rows_match_block(random_mlp(X.shape[1], seed), X)


@settings(max_examples=150, deadline=None)
@given(scored_blocks())
def test_logistic_regression_rows_alone_match_the_block(case):
    X, seed = case
    assert_rows_match_block(random_lr(X.shape[1], seed), X)


def test_fitted_models_rows_alone_match_a_large_block():
    rng = np.random.default_rng(11)
    X = np.where(rng.random((4000, 25)) < 0.3, rng.normal(size=(4000, 25)), 0.0)
    y = (X[:, 0] + X[:, 3] > 0.2).astype(int)
    for model in (
        MLPClassifier(hidden_units=100, max_epochs=3, seed=2).fit(X[:300], y[:300]),
        LogisticRegression(max_iter=50).fit(X[:300], y[:300]),
    ):
        block = model.predict_proba(X)
        rows = [0, 1, 777, 2048, 3999]
        alone = np.concatenate([model.predict_proba(X[i : i + 1]) for i in rows])
        assert_same_bits(alone, block[rows])


def test_predict_stack_on_vectors_matches_the_batch():
    examples = make_benchmark(n=400, positive_rate=0.1, seed=5)
    raws = extract_many([ex.revision for ex in examples])
    schema = build_schema(raws)
    vectors = encode_many(raws, schema)
    X = vectors_to_csr(vectors, dim=schema.total_dim)
    y = [ex.label for ex in examples]
    config = StackConfig(
        first_stage=(
            ModelSpec("mlp", {"hidden_units": 8, "max_epochs": 5}),
            ModelSpec("extra_trees", {"n_estimators": 5}),
            ModelSpec("gradient_boosting", {"n_estimators": 5}),
            ModelSpec("logistic_regression", {"max_iter": 30}),
        ),
        second_stage=(
            ModelSpec("mlp", {"hidden_units": 4, "max_epochs": 5}),
            ModelSpec("random_forest", {"n_estimators": 5}),
        ),
        k=3,
        seed=6,
    )
    selected = tuple(range(0, schema.total_dim, 2))
    pipeline = fit_stack(X, y, config, schema=schema, selected=selected)
    batch = predict_stack_batch(pipeline, X)
    assert_same_bits(predict_stack_batch(pipeline, X.toarray()), batch)
    streamed = np.array([predict_stack(pipeline, v) for v in vectors])
    assert_same_bits(streamed, batch)

"""The grove's draws: every tree's stream read in one pass per step, exactly as numpy reads it.

Each test runs the batched draw beside a copy of every generator that
makes the per-node calls the draw replaces, sorted
``Generator.choice(d, m, replace=False)`` and then ``Generator.random(k)``,
and compares the values bit for bit and each generator's end state.  If a
numpy upgrade changes how ``Generator`` consumes its stream, these tests
fail first.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests._util import LocalTree
from tests.test_tree import mean_leaf, ref_build
from vandalstack.learners import grower as grower_module
from vandalstack.learners.grower import TreeBuilder, TreeJob, _Streams
from vandalstack.rng import generator


def pcg64_at(seed, offset):
    return np.random.Generator(np.random.PCG64(seed).advance(offset))


def reference_step(rng, d, m, live):
    """The per-node calls: sorted candidates (``None`` when none are drawn), then the doubles."""
    candidates = None if m is None else np.sort(rng.choice(d, size=m, replace=False))
    return candidates, rng.random(int(live.sum()))


def run_both(rngs, refs, d, m, width, steps):
    """Each step's draws from one ``_Streams`` over ``rngs`` and per node from ``refs``.

    ``steps`` holds ``(idx, live)`` pairs: the rows that draw, and per row
    a mask of ``width`` columns with one double each.  Compares every draw,
    then every generator's end state.
    """
    streams = _Streams(rngs, d, m, width)
    for idx, live in steps:
        streams.reserve()
        got = streams.choose(idx) if m is not None else None
        doubles = streams.doubles(idx, live)
        want = [reference_step(refs[r], d, m, row) for r, row in zip(idx.tolist(), live)]
        if m is not None:
            assert got.dtype == np.int64
            assert np.array_equal(got, np.array([c for c, _ in want]).reshape(idx.size, m))
        assert doubles.tobytes() == np.concatenate([u for _, u in want] + [np.zeros(0)]).tobytes()
    streams.close()
    for rng, ref in zip(rngs, refs):
        assert rng.bit_generator.state == ref.bit_generator.state


@st.composite
def draw_runs(draw):
    """Generators (some with a half left pending), ``d``, ``m``, and steps over mixed subsets."""
    n_trees = draw(st.integers(1, 5))
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=n_trees, max_size=n_trees))
    d = draw(st.integers(2, 40))
    m = draw(st.one_of(st.none(), st.just(1), st.just(d - 1), st.integers(1, d - 1)))
    # the exact rule draws no doubles; the random rule one per candidate at most
    width = d if m is None else draw(st.sampled_from((0, m)))
    # a bootstrap's integers draw before hand-over: an odd count leaves a half pending
    boots = draw(st.lists(st.integers(0, 7), min_size=n_trees, max_size=n_trees))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = []
    for _ in range(draw(st.integers(1, 40))):
        idx = np.flatnonzero(rng.random(n_trees) < 0.6)
        if idx.size == 0:
            idx = np.array([int(rng.integers(n_trees))])
        live = rng.random((idx.size, width)) < draw(st.sampled_from((0.0, 0.5, 1.0)))
        steps.append((idx, live))
    raw_words = draw(st.sampled_from((1, 2, 7, grower_module.RAW_WORDS)))
    return seeds, boots, d, m, width, steps, raw_words


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(draw_runs())
def test_batched_draw_reads_each_stream_as_choice_then_random(case):
    seeds, boots, d, m, width, steps, raw_words = case
    rngs, refs = [generator(s) for s in seeds], [generator(s) for s in seeds]
    for rng, ref, n in zip(rngs, refs, boots):
        for g in (rng, ref):
            g.integers(0, 1000, size=n)
    # a small read-ahead refills the rows, pending half and all, every few steps
    with mock.patch.object(grower_module, "RAW_WORDS", raw_words):
        run_both(rngs, refs, d, m, width, steps)


def test_a_generator_that_never_draws_ends_where_it_began():
    rng, ref = generator(5), generator(5)
    rng.integers(0, 9, size=3)
    ref.integers(0, 9, size=3)
    _Streams([rng], 10, 3, 3).close()
    assert rng.bit_generator.state == ref.bit_generator.state


def test_refuses_a_generator_not_on_pcg64():
    with pytest.raises(TypeError):
        _Streams([np.random.Generator(np.random.MT19937(0))], 10, 3, 0)


# A real PCG64 position whose low half Lemire's draw below 641 rejects:
# 2^32 mod 641 is 640, the widest biased sliver of any bound below 642,
# found by scanning ``PCG64(2).random_raw``.
REJECT_SEED, REJECT_OFFSET, REJECT_BOUND = 2, 2295774, 641


def test_the_pinned_position_is_a_lemire_rejection():
    word = int(np.random.PCG64(REJECT_SEED).advance(REJECT_OFFSET).random_raw())
    low = word & 0xFFFFFFFF
    assert (low * REJECT_BOUND) % 2**32 < 2**32 % REJECT_BOUND


def spy_on_redraws():
    return mock.patch.object(
        _Streams, "_half", autospec=True, side_effect=_Streams._half
    )


@pytest.mark.parametrize("width", [0, 2])
def test_a_rejected_first_draw_is_redrawn_as_numpy_does(width):
    # Floyd's first draw of choice(641, 1) is below 641 and reads the pinned half
    rngs = [pcg64_at(REJECT_SEED, REJECT_OFFSET), generator(1)]
    refs = [pcg64_at(REJECT_SEED, REJECT_OFFSET), generator(1)]
    live = np.ones((2, 1), dtype=bool) if width else np.zeros((2, 0), dtype=bool)
    steps = [(np.array([0, 1]), live), (np.array([0]), live[:1])]
    with spy_on_redraws() as half:
        run_both(rngs, refs, REJECT_BOUND, 1, width, steps)
    assert half.called


def test_a_rejected_later_draw_after_a_pending_half_is_redrawn_as_numpy_does():
    # choice(641, 2) draws below 640, then below 641: the first reads the half
    # an integers draw left pending, the second the pinned half
    rngs, refs = [pcg64_at(REJECT_SEED, REJECT_OFFSET - 1)], [pcg64_at(REJECT_SEED, REJECT_OFFSET - 1)]
    for g in rngs + refs:
        g.integers(0, 5)
    assert rngs[0].bit_generator.state["has_uint32"] == 1
    steps = [(np.array([0]), np.ones((1, 2), dtype=bool))] * 3
    with spy_on_redraws() as half:
        run_both(rngs, refs, REJECT_BOUND, 2, 2, steps)
    assert half.called


def grow_against_reference(X, y, rngs, refs, max_features, random_threshold):
    """Trees grown in one grove match the per-node reference, generators included."""
    builder = TreeBuilder("gini", None, max_features, random_threshold=random_threshold)
    rows = np.arange(X.shape[0], dtype=np.int64)
    grown = list(builder.build_many(X, [TreeJob(rows, y, None, rng) for rng in rngs]))
    for (columns, leaf_of), ref in zip(grown, refs):
        want, want_leaf_of = ref_build(
            X, rows, y, mean_leaf(y), np.zeros(X.shape[1]), "gini", None,
            max_features, ref, random_threshold,
        )
        tree = LocalTree.grown(columns)
        for name in ("feature", "threshold", "left", "right", "value"):
            assert getattr(tree, name).tobytes() == getattr(want, name).tobytes(), name
        assert np.array_equal(leaf_of, want_leaf_of)
    for rng, ref in zip(rngs, refs):
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("random_threshold", [False, True])
def test_a_tree_whose_root_draw_is_rejected_grows_as_numpy_draws(random_threshold):
    rng = np.random.default_rng(3)
    X = rng.random((12, REJECT_BOUND))
    y = (X[:, 0] > 0.5).astype(np.float64)
    rngs = [pcg64_at(REJECT_SEED, REJECT_OFFSET), generator(4)]
    refs = [pcg64_at(REJECT_SEED, REJECT_OFFSET), generator(4)]
    with spy_on_redraws() as half:
        grow_against_reference(X, y, rngs, refs, 1, random_threshold)
    assert half.called


# numpy's choice without replacement runs a tail shuffle instead of
# Floyd's algorithm past 10,000 items when more than a 50th are drawn; the
# default "sqrt" never gets there, an integer max_features can
TAIL_D, TAIL_M = 10_001, 201


def test_tail_shuffle_draw_matches_numpy():
    assert TAIL_M > TAIL_D // 50
    rngs, refs = [generator(s) for s in (1, 2, 3)], [generator(s) for s in (1, 2, 3)]
    for g in (rngs[1], refs[1]):
        g.integers(0, 7, size=3)  # a pending half
    rng = np.random.default_rng(0)
    steps = [
        (idx, rng.random((idx.size, TAIL_M)) < 0.5)
        for idx in (np.array([0, 1, 2]), np.array([1, 2]), np.array([0, 2]), np.array([2]))
    ]
    with mock.patch.object(grower_module, "RAW_WORDS", 2):
        run_both(rngs, refs, TAIL_D, TAIL_M, TAIL_M, steps)


@pytest.mark.parametrize("random_threshold", [False, True])
def test_trees_on_a_tail_shuffle_draw_grow_as_numpy_draws(random_threshold):
    rng = np.random.default_rng(8)
    X = np.round(rng.random((8, TAIL_D)), 1)
    y = np.array([0, 1, 0, 1, 1, 0, 1, 0], dtype=np.float64)
    rngs, refs = [generator(s) for s in (5, 6)], [generator(s) for s in (5, 6)]
    grow_against_reference(X, y, rngs, refs, TAIL_M, random_threshold)

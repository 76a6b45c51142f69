"""Deterministic PRNG layer: published vectors, derivation, sampling, the keyed draw rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from vandalstack.rng import (
    M64,
    Xoshiro256StarStar,
    derive_seed,
    generator,
    keyed_below,
    keyed_choice,
    keyed_doubles,
    keyed_words,
    node_streams,
    sample_without_replacement,
    splitmix64,
)

# Published reference outputs of splitmix64 starting from state 0.
SPLITMIX64_FROM_ZERO = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
]


def test_splitmix64_reference_vector():
    state = 0
    for expected in SPLITMIX64_FROM_ZERO:
        state, out = splitmix64(state)
        assert out == expected


def test_splitmix64_outputs_stay_in_64_bits():
    rng = np.random.default_rng(1)
    for _ in range(200):
        state = int(rng.integers(0, 1 << 63)) | (int(rng.integers(0, 2)) << 63)
        new_state, out = splitmix64(state)
        assert 0 <= new_state <= M64
        assert 0 <= out <= M64


def test_xoshiro_frozen_stream():
    # regression pin: the generator feeding undersample must never drift
    rng = Xoshiro256StarStar(0)
    assert [rng.next_u64() for _ in range(3)] == [
        11091344671253066420,
        13793997310169335082,
        1900383378846508768,
    ]


def test_xoshiro_determinism_and_seed_sensitivity():
    a = Xoshiro256StarStar(42)
    b = Xoshiro256StarStar(42)
    c = Xoshiro256StarStar(43)
    stream_a = [a.next_u64() for _ in range(50)]
    stream_b = [b.next_u64() for _ in range(50)]
    stream_c = [c.next_u64() for _ in range(50)]
    assert stream_a == stream_b
    assert stream_a != stream_c


def test_randbelow_range_and_rough_uniformity():
    rng = Xoshiro256StarStar(7)
    counts = np.zeros(10, dtype=int)
    draws = 20000
    for _ in range(draws):
        x = rng.randbelow(10)
        assert 0 <= x < 10
        counts[x] += 1
    expected = draws / 10
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # 9 degrees of freedom; 33.7 is far beyond the 99.9% quantile
    assert chi2 < 33.7


def test_randbelow_rejects_nonpositive():
    rng = Xoshiro256StarStar(0)
    with pytest.raises(ValueError):
        rng.randbelow(0)


def test_sample_without_replacement_basic_contract():
    rng_master = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng_master.integers(1, 60))
        k = int(rng_master.integers(0, n + 1))
        seed = int(rng_master.integers(0, 1 << 32))
        out = sample_without_replacement(n, k, Xoshiro256StarStar(seed))
        assert len(out) == k
        assert len(set(out)) == k
        assert all(0 <= i < n for i in out)


def test_sample_without_replacement_matches_dense_fisher_yates():
    # same draws through a materialized-array swap oracle
    def oracle(n, k, rng):
        arr = list(range(n))
        for i in range(k):
            j = i + rng.randbelow(n - i)
            arr[i], arr[j] = arr[j], arr[i]
        return arr[:k]

    rng_master = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng_master.integers(1, 40))
        k = int(rng_master.integers(0, n + 1))
        seed = int(rng_master.integers(0, 1 << 32))
        got = sample_without_replacement(n, k, Xoshiro256StarStar(seed))
        want = oracle(n, k, Xoshiro256StarStar(seed))
        assert got == want


def test_sample_without_replacement_subset_uniformity():
    # every 2-subset of range(4) should appear about equally often
    counts = {}
    for trial in range(3000):
        out = frozenset(sample_without_replacement(4, 2, Xoshiro256StarStar(trial)))
        counts[out] = counts.get(out, 0) + 1
    assert len(counts) == 6
    expected = 3000 / 6
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 20.5  # 5 dof, beyond the 99.9% quantile


def test_sample_without_replacement_bounds():
    with pytest.raises(ValueError):
        sample_without_replacement(3, 4, Xoshiro256StarStar(0))
    with pytest.raises(ValueError):
        sample_without_replacement(3, -1, Xoshiro256StarStar(0))


def test_derive_seed_frozen_values():
    # regression pins: every persisted artifact hangs off these
    assert derive_seed(0, "sampling", 0) == 7547205381456735101
    assert derive_seed(0, "stack", 0) == 1045756967859480198
    assert derive_seed(7, "benchmark", 0) == 11178510099340574498


def test_derive_seed_streams_are_distinct():
    seen = set()
    for master in (0, 1, 123456789):
        for tag in ("sampling", "stack", "folds", "first-stage", "second-stage"):
            for index in range(50):
                seen.add(derive_seed(master, tag, index))
    assert len(seen) == 3 * 5 * 50


def test_derive_seed_is_pure():
    for _ in range(5):
        assert derive_seed(99, "anything", 3) == derive_seed(99, "anything", 3)


def test_generator_reproducible():
    a = generator(123).random(8)
    b = generator(123).random(8)
    assert np.array_equal(a, b)


# The keyed rule at four fixed nodes: (tree key, depth, position).
KEYS = np.array([0, 1, 0xDEADBEEFCAFEF00D, M64], dtype=np.uint64)
DEPTHS = np.array([0, 3, 17, 1])
POSITIONS = np.array([0, 120, 5, (1 << 40) - 1])


def test_keyed_rule_values_are_pinned():
    # regression pins: the forests' bytes hang off these, and no library
    # version may move them
    streams = node_streams(KEYS, DEPTHS, POSITIONS)
    assert streams.tolist() == [
        0xA706DD2F4D197E6F, 0x8911D7D523401D24, 0xC082464888012A15, 0x4FA0E90829EDC015,
    ]
    assert keyed_words(streams, np.array([0, 1, 2, 1000])).tolist() == [
        0x238275BC38FCBE91, 0x78E5504F45EC210D, 0x07FDCE60048F8BE8, 0x598DA30A31D3F28F,
    ]
    assert keyed_doubles(streams, np.arange(4)).tolist() == [
        0.13870941014555427, 0.4722490495241094, 0.031216524545525925, 0.01865344449386719,
    ]
    slot = np.zeros(4, dtype=np.uint64)
    assert keyed_below(streams, slot, 31).tolist() == [4, 17, 30, 3]
    assert slot.tolist() == [1, 1, 1, 1]
    # a bound whose biased sliver holds a quarter of the draws: the first
    # stream's slot 0 falls in it, and the draw moves on to slot 1
    slot = np.zeros(4, dtype=np.uint64)
    assert keyed_below(streams, slot, 3 << 30).tolist() == [3128138764, 1821219693, 3184852120, 315226096]
    assert slot.tolist() == [2, 1, 1, 1]
    chosen, slot = keyed_choice(streams, 31, 6)
    assert chosen.tolist() == [
        [3, 7, 9, 19, 26, 28], [2, 12, 14, 18, 19, 29], [0, 15, 21, 23, 25, 26], [0, 1, 2, 4, 8, 13],
    ]
    assert slot.tolist() == [6, 6, 6, 6]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, M64), st.integers(0, (1 << 24) - 1), st.integers(0, (1 << 40) - 1), st.integers(0, 50))
def test_a_slot_is_the_splitmix64_walk_from_the_node_state(key, depth, position, slot):
    _, inner = splitmix64(depth << 40 | position)
    _, state = splitmix64(key ^ inner)
    stream = node_streams(np.array([key], dtype=np.uint64), np.array([depth]), np.array([position]))
    assert stream.tolist() == [state]
    for _ in range(slot + 1):
        state, word = splitmix64(state)
    assert keyed_words(stream, np.array([slot])).tolist() == [word]
    assert keyed_doubles(stream, np.array([slot])).tolist() == [(word >> 11) * 2.0**-53]


def chi_square_p(counts):
    expected = counts.sum() / counts.size
    return chi2.sf(float(((counts - expected) ** 2 / expected).sum()), counts.size - 1)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, M64), st.sampled_from([2, 3, 7, 31, 1000]))
def test_bounded_draws_are_uniform(key, bound):
    # 200 draws a value, one per node key
    n = 200 * bound
    streams = node_streams(np.full(n, key, dtype=np.uint64), np.arange(n) % 7, np.arange(n))
    values = keyed_below(streams, np.zeros(n, dtype=np.uint64), bound)
    assert values.max() < bound
    assert chi_square_p(np.bincount(values.astype(np.intp), minlength=bound)) > 1e-6


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, M64))
def test_bounded_draws_with_rejections_are_uniform(key):
    # below 3 * 2^30, the high halves 4q, 4q + 1 would both land on 3q, so
    # without the rejection of the biased sliver values fall 0, 1 and 2
    # mod 3 at 1/2, 1/4 and 1/4; with it, at a third each
    n = 6000
    bound = 3 << 30
    streams = node_streams(np.full(n, key, dtype=np.uint64), np.zeros(n), np.arange(n))
    slot = np.zeros(n, dtype=np.uint64)
    values = keyed_below(streams, slot, bound)
    assert values.max() < bound
    assert (slot > 1).any()  # some draws were rejected and moved on
    assert chi_square_p(np.bincount((values % 3).astype(np.intp), minlength=3)) > 1e-6


@settings(max_examples=50, deadline=None)
@given(st.integers(0, M64), st.integers(1, 40), st.data())
def test_keyed_choice_draws_distinct_sorted_features(key, d, data):
    m = data.draw(st.integers(1, d))
    streams = node_streams(np.full(20, key, dtype=np.uint64), np.arange(20), np.zeros(20))
    chosen, slot = keyed_choice(streams, d, m)
    assert chosen.shape == (20, m) and chosen.dtype == np.int64
    assert ((chosen >= 0) & (chosen < d)).all()
    assert (np.diff(chosen, axis=1) > 0).all()
    assert (slot >= m).all()


def test_keyed_choice_includes_every_feature_equally_often():
    n, d, m = 6000, 10, 3
    streams = node_streams(np.full(n, 5, dtype=np.uint64), np.ones(n), np.arange(n))
    chosen, _ = keyed_choice(streams, d, m)
    assert chi_square_p(np.bincount(chosen.ravel(), minlength=d)) > 1e-6


def floyd_over_the_walk(key, depth, position, d, m):
    """Floyd's sorted set and the next slot, drawn one splitmix64 output at a time."""
    _, inner = splitmix64(depth << 40 | position)
    _, state = splitmix64(key ^ inner)
    chosen, slot = [], 0
    for j in range(d - m, d):
        while True:
            state, word = splitmix64(state)
            slot += 1
            product = (word >> 32) * (j + 1)
            if product & 0xFFFFFFFF >= (1 << 32) % (j + 1):
                break
        r = product >> 32
        chosen.append(j if r in chosen else r)
    return sorted(chosen), slot


@pytest.mark.parametrize("d, m", [(31, 6), (6, 2), (3 << 30, 3)])
def test_keyed_choice_is_floyd_over_the_walk_rejections_included(d, m):
    # below 3 * 2^30 a quarter of the draws are rejected: the slot after
    # the draws counts them
    depths, positions = np.arange(40) % 5, np.arange(40) * 7
    chosen, slot = keyed_choice(node_streams(np.full(40, 11, dtype=np.uint64), depths, positions), d, m)
    want = [floyd_over_the_walk(11, int(a), int(b), d, m) for a, b in zip(depths, positions)]
    assert chosen.tolist() == [c for c, _ in want]
    assert slot.tolist() == [s for _, s in want]
    if d == 3 << 30:
        assert (slot > m).any()

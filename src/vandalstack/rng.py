"""Deterministic randomness for the whole pipeline.

One 64-bit master seed reproduces every random decision: sampling, fold
assignment and each model's internal randomness all obtain their seeds
through :func:`derive_seed`, which is pure integer mixing and therefore
identical on every platform and process.

The sampling stage uses an explicit xoshiro256** generator (seeded through
splitmix64) so that the exact subset drawn is pinned by this module rather
than by any library version.  The tree growers' draws are pinned here too,
by one keyed rule (:func:`node_streams`): a draw is a pure function of the
tree's key, the node's key and a slot, as in counter-based generators
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011),
so it does not depend on the order in which nodes grow.  The forest
bootstrap, the fold assignment and the MLP use numpy's PCG64 ``Generator``
keyed by a derived seed.
"""

from __future__ import annotations

import numpy as np

M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_LOW_HALF = np.uint64(0xFFFFFFFF)


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state once; return ``(new_state, output)``."""
    state = (state + _GOLDEN) & M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return state, (z ^ (z >> 31)) & M64


def derive_seed(master: int, tag: str, index: int = 0) -> int:
    """Derive a 64-bit seed from ``(master, tag, index)``.

    The tag bytes are absorbed one at a time into a splitmix64 walk, the
    index is mixed in last.  Distinct (tag, index) pairs give independent
    streams for all practical purposes.
    """
    state = master & M64
    for byte in tag.encode("utf-8"):
        # absorb through the mixed output, not the raw +GOLDEN counter:
        # counter states of same-length tags differ only in low bits and
        # would collide with each other under the index XOR below
        _, state = splitmix64(state ^ byte)
    state ^= index & M64
    _, out = splitmix64(state)
    return out


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & M64


class Xoshiro256StarStar:
    """xoshiro256** with the reference state initialisation via splitmix64."""

    def __init__(self, seed: int):
        state = seed & M64
        s = []
        for _ in range(4):
            state, out = splitmix64(state)
            s.append(out)
        self._s = s

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & M64, 7) * 9) & M64
        t = (s1 << 17) & M64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def randbelow(self, n: int) -> int:
        """Uniform integer in ``[0, n)`` by rejection — no modulo bias."""
        if n <= 0:
            raise ValueError("randbelow needs a positive bound")
        span = M64 + 1
        limit = span - span % n
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n


def sample_without_replacement(n: int, k: int, rng: Xoshiro256StarStar) -> list[int]:
    """Draw ``k`` distinct indices from ``range(n)``, uniformly.

    Partial Fisher-Yates over a sparse (dict-backed) permutation, so memory
    is O(k) even when ``n`` is the size of a full corpus.
    """
    if not 0 <= k <= n:
        raise ValueError(f"cannot draw {k} items from {n}")
    swapped: dict[int, int] = {}
    out = []
    for i in range(k):
        j = i + rng.randbelow(n - i)
        out.append(swapped.get(j, j))
        swapped[j] = swapped.get(i, i)
    return out


def _outputs(states: np.ndarray) -> np.ndarray:
    """The output of :func:`splitmix64` from each of ``states`` (uint64), elementwise."""
    z = states + np.uint64(_GOLDEN)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def node_streams(tree_key: np.ndarray, depth: np.ndarray, position: np.ndarray) -> np.ndarray:
    """Per node, the state of its own splitmix64 stream: the keyed draw rule.

    A node is keyed by its depth and its lowest tree-local position (where
    its range of the tree's positions starts), a pair that is unique
    within a tree and does not depend on the order in which the tree
    grows.  The stream state is the splitmix64 output of ``tree_key`` XOR
    the output of ``depth << 40 | position``; slot ``s`` of the node is
    the stream's output ``s`` (:func:`keyed_words`).  A node reads its
    slots in order: its candidate features (:func:`keyed_choice`), then
    one threshold per candidate (:func:`keyed_doubles`).
    """
    code = depth.astype(np.uint64) << np.uint64(40)
    code |= position.astype(np.uint64)
    return _outputs(tree_key.astype(np.uint64) ^ _outputs(code))


def keyed_words(stream: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """Slot ``slot`` of each stream: the ``slot``-th output of splitmix64 from state ``stream``, from 0."""
    return _outputs(stream + np.uint64(_GOLDEN) * slot.astype(np.uint64))


def keyed_doubles(stream: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """A double in ``[0, 1)`` per slot: ``(word >> 11) * 2**-53`` of its word."""
    return (keyed_words(stream, slot) >> np.uint64(11)) * 2.0**-53


def keyed_below(stream: np.ndarray, slot: np.ndarray, bound: int) -> np.ndarray:
    """One draw in ``[0, bound)`` per stream, from slot ``slot`` on; advances ``slot`` past it.

    Lemire's method on the word's high 32-bit half: the high half of its
    product with ``bound``, unless the low half falls in the biased
    sliver below ``2**32 mod bound``, when the draw moves on to the next
    slot.  ``bound`` is at most ``2**32``.
    """
    reject_below = (1 << 32) % bound
    value = np.empty(stream.size, dtype=np.uint64)
    todo = np.arange(stream.size)
    while todo.size:
        product = (keyed_words(stream[todo], slot[todo]) >> np.uint64(32)) * np.uint64(bound)
        slot[todo] += 1
        kept = (product & _LOW_HALF) >= reject_below
        value[todo[kept]] = product[kept] >> np.uint64(32)
        todo = todo[~kept]
    return value


def keyed_choice(stream: np.ndarray, d: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Per stream, ``m`` distinct features of ``d``, sorted, and the slot after its draws.

    Floyd's algorithm, one round for every stream at once: round ``j``,
    for ``j`` from ``d - m`` to ``d - 1``, draws ``r`` below ``j + 1``
    and adds it, or ``j`` if ``r`` is in already.
    """
    slot = np.zeros(stream.size, dtype=np.uint64)
    chosen = np.empty((stream.size, m), dtype=np.int64)
    for i, j in enumerate(range(d - m, d)):
        r = keyed_below(stream, slot, j + 1).astype(np.int64)
        chosen[:, i] = np.where((chosen[:, :i] == r[:, None]).any(axis=1), j, r)
    chosen.sort(axis=1)
    return chosen, slot


def generator(seed: int) -> np.random.Generator:
    """The numpy generator used inside the learners, keyed by a derived seed."""
    return np.random.Generator(np.random.PCG64(seed & M64))

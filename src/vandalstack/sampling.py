"""Training-set reduction: negative under-sampling, then duplicate removal.

The class balance in a revision stream is extreme, and most negatives teach
a model nothing.  ``undersample`` keeps every positive and a fixed fraction
of the negatives; ``dedup`` then collapses revisions whose user-visible
content is identical, keeping the earliest.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .corpus import GEO_FIELDS, LabeledExample
from .errors import UsageError
from .rng import Xoshiro256StarStar, sample_without_replacement

FractionLike = Union[Fraction, int, float, str]


@dataclass(frozen=True)
class SamplingConfig:
    """Parameters of the under-sampling step.

    fraction
        Fraction of the eligible negatives to keep, exact rational
        arithmetic (``"1/50"`` keeps exactly ``round(n / 50)`` of ``n``).
    window
        Restrict the eligible negatives to the ``window`` most recent ones
        (highest rev_ids).  ``None`` means all negatives are eligible.
    seed
        Seed of the sampling generator.

    A bad value is a :class:`UsageError` naming its run-config key
    (``sampling.fraction``, ``sampling.window``).
    """

    fraction: FractionLike = Fraction(1, 50)
    window: int | None = None
    seed: int = 0

    def __post_init__(self):
        try:
            frac = Fraction(self.fraction)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"sampling.fraction: bad value {self.fraction!r}") from exc
        if not 0 < frac <= 1:
            raise UsageError(f"sampling.fraction must be in (0, 1], got {frac}")
        object.__setattr__(self, "fraction", frac)
        if self.window is not None and self.window < 0:
            raise UsageError(f"sampling.window must be >= 0, got {self.window}")


def undersample(
    examples: Sequence[LabeledExample], config: SamplingConfig
) -> list[LabeledExample]:
    """Keep all positives plus an exact-count random subset of negatives.

    Negatives are ranked newest-first by rev_id before the optional window
    is applied, the subset size is ``round(fraction * len(eligible))``
    (ties to even), and the draw is without replacement.  The result is
    sorted by rev_id.  Only ``config.seed`` influences which negatives are
    drawn — input order does not.
    """
    positives = [ex for ex in examples if ex.label]
    negatives = [ex for ex in examples if not ex.label]
    negatives.sort(key=lambda ex: ex.revision.rev_id, reverse=True)
    if config.window is not None:
        negatives = negatives[: config.window]
    count = int(round(config.fraction * len(negatives)))
    rng = Xoshiro256StarStar(config.seed)
    chosen = sample_without_replacement(len(negatives), count, rng)
    kept = positives + [negatives[i] for i in chosen]
    kept.sort(key=lambda ex: ex.revision.rev_id)
    return kept


def content_key(ex: LabeledExample) -> tuple:
    """The identity used by :func:`dedup`: everything a user contributed."""
    rev = ex.revision
    return (
        rev.comment,
        rev.registered,
        *(getattr(rev, name) for name in GEO_FIELDS),
        rev.user_tag,
    )


def dedup(examples: Sequence[LabeledExample]) -> list[LabeledExample]:
    """Drop repeated content, keeping the occurrence with the lowest rev_id.

    Relative input order is preserved among the survivors, and the
    operation is idempotent.
    """
    winners: dict[tuple, tuple[int, int]] = {}
    for pos, ex in enumerate(examples):
        key = content_key(ex)
        cur = winners.get(key)
        if cur is None or ex.revision.rev_id < cur[0]:
            winners[key] = (ex.revision.rev_id, pos)
    keep = {pos for _, pos in winners.values()}
    return [ex for pos, ex in enumerate(examples) if pos in keep]

"""Synthetic revision corpus with a planted nonlinear signal.

Generates labeled corpus/truth files shaped exactly like real input, for
tests and demo runs.  The signal lives in the comment text so it reaches
the model through the ordinary content features:

* two hidden bits drive digit-heavy and uppercase-heavy vocabulary;
  positives carry exactly one of the two, negatives either none or both,
  so the class is the exclusive-or of the bits — readable by depth >= 2
  trees, while each bit alone is only a lean (50% vs 12%),
* when a bit is on, the fraction of affected words is drawn per example
  from a class-shifted range, so the digit/uppercase ratios carry smooth
  continuous signal instead of clumping at two values,
* a URL token interacts with the pair pattern (its lift depends on it),
* comment length, word length, doubled letters, punctuation bursts and
  stray language-code words all lean gently with the class, keeping
  genuine structure in every numeric column at every tree depth.

The five geolocation fields (country, continent, timezone, region, city)
are drawn independently of the label — pure categorical noise whose
one-hot children a sound importance-threshold selection should drop.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from .corpus import LabeledExample, Revision, write_corpus, write_labels
from .rng import derive_seed, generator

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_COUNTRIES = ["BR", "DE", "JP", "US"]
_CONTINENTS = ["AS", "EU", "NA"]
_TIMEZONES = ["CET", "JST", "PST", "UTC"]
_REGIONS = ["BAY", "ILE", "KAN", "ONT"]
_CITIES = ["BERLIN", "LIMA", "OSAKA", "PERTH"]

# joint distribution of the (digit, uppercase) hidden bits given the label:
# probability of the one-on/one-off pattern, of both-on, and of both-off.
# Positives always show exactly one bit; negatives never do, so the pair
# pattern is an exact exclusive-or of the class.
_PATTERNS = {True: (1.0, 0.0, 0.0), False: (0.0, 0.12, 0.88)}
# URL probability given (label, both-bits-on): informative only through
# the pattern — a both-on negative carries a URL far more often than a
# both-off one, so the URL's meaning depends on the bit pair
_P_URL = {
    (True, False): 0.80,
    (False, True): 0.30,
    (False, False): 0.05,
}
# per-example fraction of words affected when a bit is on, by label
# (at least one word is always affected, so an "on" bit is never silent)
_AFFECT = {True: (0.55, 0.95), False: (0.25, 0.65)}
# comment word count range, by label
_N_WORDS = {True: (4, 13), False: (5, 16)}
# word length range, by label
_WORD_LEN = {True: (2, 10), False: (2, 9)}
# chance of a doubled letter inside a word, by label
_P_DOUBLE = {True: 0.35, False: 0.20}
# chance of a trailing exclamation burst, by label
_P_BANG = {True: 0.45, False: 0.25}
# per-word chance of a language-code word, by label
_P_LANG = {True: 0.06, False: 0.03}

_LANG_CODES = ["de", "en", "es", "fr", "ja"]


def _word(rng: np.random.Generator, positive: bool) -> str:
    lo, hi = _WORD_LEN[positive]
    length = int(rng.integers(lo, hi))
    chars = [str(_LETTERS[int(c)]) for c in rng.integers(0, 26, size=length)]
    if length >= 3 and rng.random() < _P_DOUBLE[positive]:
        pos = int(rng.integers(0, length - 1))
        chars[pos + 1] = chars[pos]
    return "".join(chars)


def _digit_run(rng: np.random.Generator) -> str:
    length = int(rng.integers(2, 7))
    return "".join(str(int(c)) for c in rng.integers(0, 10, size=length))


def _draw_pattern(rng: np.random.Generator, positive: bool) -> tuple[bool, bool]:
    p_xor, p_both, _ = _PATTERNS[positive]
    u = rng.random()
    if u < p_xor:
        digit_on = rng.random() < 0.5
        return digit_on, not digit_on
    if u < p_xor + p_both:
        return True, True
    return False, False


def _affected_count(rng: np.random.Generator, positive: bool, n_words: int) -> int:
    lo, hi = _AFFECT[positive]
    return max(1, int(round(float(rng.uniform(lo, hi)) * n_words)))


def _comment(
    rng: np.random.Generator,
    positive: bool,
    digit_on: bool,
    upper_on: bool,
    url_on: bool,
) -> str:
    lo, hi = _N_WORDS[positive]
    n_words = int(rng.integers(lo, hi))
    k_digit = _affected_count(rng, positive, n_words) if digit_on else 0
    k_upper = _affected_count(rng, positive, n_words) if upper_on else 0
    if digit_on and upper_on:
        k_digit = min(k_digit, n_words - 1)
        k_upper = min(k_upper, n_words - k_digit)
    else:
        k_digit = min(k_digit, n_words)
        k_upper = min(k_upper, n_words)
    order = rng.permutation(n_words)
    digit_slots = set(int(s) for s in order[:k_digit])
    upper_slots = set(int(s) for s in order[k_digit : k_digit + k_upper])
    words = []
    for slot in range(n_words):
        if slot in digit_slots:
            words.append(_digit_run(rng))
        elif slot in upper_slots:
            words.append(_word(rng, positive).upper())
        elif rng.random() < _P_LANG[positive]:
            words.append(str(_LANG_CODES[int(rng.integers(len(_LANG_CODES)))]))
        else:
            words.append(_word(rng, positive))
    if rng.random() < _P_BANG[positive]:
        words[int(rng.integers(n_words))] += "!" * int(rng.integers(1, 4))
    if url_on:
        words.append(f"www.{_word(rng, positive)}.org")
    return " ".join(words)


def make_benchmark(
    n: int = 20000, positive_rate: float = 0.02, seed: int = 7
) -> list[LabeledExample]:
    """Generate ``n`` labeled examples with exactly round(n*rate) positives.

    ``n`` below 0, or a ``positive_rate`` outside [0, 1], raises ``ValueError``.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 0.0 <= positive_rate <= 1.0:  # NaN fails both
        raise ValueError(f"positive_rate must be in [0, 1], got {positive_rate}")
    rng = generator(derive_seed(seed, "benchmark", 0))
    n_pos = int(round(n * positive_rate))
    labels = np.zeros(n, dtype=bool)
    labels[rng.permutation(n)[:n_pos]] = True
    examples = []
    for i in range(n):
        positive = bool(labels[i])
        digit_on, upper_on = _draw_pattern(rng, positive)
        url_on = rng.random() < _P_URL[(positive, digit_on and upper_on)]
        rev = Revision(
            rev_id=100000 + i,
            comment=_comment(rng, positive, digit_on, upper_on, url_on),
            has_contributor=bool(rng.random() < 0.5),
            registered=False,
            country=str(_COUNTRIES[int(rng.integers(len(_COUNTRIES)))]),
            continent=str(_CONTINENTS[int(rng.integers(len(_CONTINENTS)))]),
            timezone=str(_TIMEZONES[int(rng.integers(len(_TIMEZONES)))]),
            region=str(_REGIONS[int(rng.integers(len(_REGIONS)))]),
            city=str(_CITIES[int(rng.integers(len(_CITIES)))]),
            county=None,
            user_tag=None,
        )
        examples.append(LabeledExample(rev, positive))
    return examples


def split_holdout(
    examples: list[LabeledExample], holdout: float
) -> tuple[list[LabeledExample], list[LabeledExample]]:
    """Deterministic split: the last ``holdout`` fraction becomes the test set."""
    if not 0.0 < holdout < 1.0:
        raise ValueError("holdout must be in (0, 1)")
    n_train = int(round(len(examples) * (1.0 - holdout)))
    if not 0 < n_train < len(examples):
        raise ValueError("holdout leaves an empty split")
    return examples[:n_train], examples[n_train:]


def write_split(examples: list[LabeledExample], out_dir: Path, stem: str) -> None:
    write_corpus((ex.revision for ex in examples), out_dir / f"{stem}_corpus.tsv")
    write_labels(examples, out_dir / f"{stem}_truth.tsv")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m vandalstack.benchmark",
        description="Write a synthetic labeled revision corpus.",
    )
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--n", type=int, default=20000)
    parser.add_argument("--positive-rate", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--holdout",
        type=float,
        default=None,
        help="also write train_/test_ splits holding out this trailing fraction",
    )
    args = parser.parse_args(argv)
    try:
        examples = make_benchmark(args.n, args.positive_rate, args.seed)
    except ValueError as exc:
        # the message leads with the parameter's name, and its flag is that name
        name, _, problem = str(exc).partition(" ")
        parser.error(f"--{name.replace('_', '-')} {problem}")
    splits = {"bench": examples}
    if args.holdout is not None:
        try:
            splits["train"], splits["test"] = split_holdout(examples, args.holdout)
        except ValueError as exc:
            parser.error(f"--holdout {args.holdout}: {exc}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for stem, split in splits.items():
        write_split(split, out_dir, stem)
    positives = sum(1 for ex in examples if ex.label)
    print(f"wrote {len(examples)} examples ({positives} positive) to {out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

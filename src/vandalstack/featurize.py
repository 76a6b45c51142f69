"""Content/context feature extraction and the persisted one-hot schema.

Two design rules make encodings reproducible anywhere:

* The categorical vocabulary is explicit and persisted.  Every
  ``(feature, value)`` pair seen at schema-build time gets a column, and
  columns are assigned by lexicographic order of the pair — never by a
  hash, so no process, platform or iteration-order detail can move a
  column.  Unseen or missing values encode as all-zero groups.
* Numeric columns come first (sorted by name), categorical columns after.

The extracted features themselves are plain functions of one revision:
character-class ratios and word shape statistics of the comment, a parse
of the structured ``/* action-subaction:params */`` comment header, and
the user's geolocation fields.
"""

from __future__ import annotations

import math
import re
import unicodedata
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import IO, Iterable, Mapping, Optional, Sequence, Union

import numpy as np
from scipy import sparse

from .corpus import Revision
from .errors import (
    DimensionMismatch,
    EmptyDataset,
    IndexOutOfRange,
    MalformedLine,
)

SCHEMA_HEADER = "vandalstack-schema v1"

_URL_MARKERS = ("http://", "https://", "www.")
_SPECIAL_CONTRIB = "[[Special:Contributions/"
_LANGUAGE_CODE = re.compile(r"[a-z]{2,3}")


@dataclass
class RawFeatures:
    """Named feature values before encoding.

    ``numeric`` maps feature name to a finite float; ``categorical`` maps
    feature name to a string value or ``None`` for missing.
    """

    numeric: dict[str, float] = field(default_factory=dict)
    categorical: dict[str, Optional[str]] = field(default_factory=dict)

    def merged_with(self, other: "RawFeatures") -> "RawFeatures":
        return RawFeatures(
            numeric={**self.numeric, **other.numeric},
            categorical={**self.categorical, **other.categorical},
        )


@lru_cache(maxsize=None)
def _char_flags(ch: str) -> tuple[bool, bool, bool, bool, bool, bool, bool, bool]:
    """(lower, upper, digit, alnum, space, punct, alpha, latin) for one char."""
    alpha = ch.isalpha()
    latin = False
    if alpha:
        try:
            latin = unicodedata.name(ch).startswith("LATIN")
        except ValueError:
            latin = False
    return (
        ch.islower(),
        ch.isupper(),
        ch.isdigit(),
        ch.isalnum(),
        ch.isspace(),
        unicodedata.category(ch).startswith("P"),
        alpha,
        latin,
    )


@lru_cache(maxsize=1)
def lang_words() -> frozenset[str]:
    return _load_wordlist("lang_words.txt")


@lru_cache(maxsize=1)
def latin_languages() -> frozenset[str]:
    return _load_wordlist("latin_languages.txt")


def _load_wordlist(name: str) -> frozenset[str]:
    text = resources.files("vandalstack").joinpath("data").joinpath(name).read_text(
        encoding="utf-8"
    )
    words = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line.lower())
    return frozenset(words)


def extract_content(comment: str) -> RawFeatures:
    """Character and word statistics of the comment text.

    Every ratio is 0.0 on the empty comment; ratios over letters (latin /
    non-latin) and over cased words fall back to 0.0 when their
    denominator is empty.
    """
    n = len(comment)
    lower = upper = digit = alnum = space = punct = alpha = latin = 0
    longest_run = 0
    run = 0
    prev = None
    for ch in comment:
        lo, up, dg, an, sp, pu, al, la = _char_flags(ch)
        lower += lo
        upper += up
        digit += dg
        alnum += an
        space += sp
        punct += pu
        alpha += al
        latin += la
        if ch == prev:
            run += 1
        else:
            run = 1
            prev = ch
        if run > longest_run:
            longest_run = run

    words = comment.split()
    longest_word = max((len(w) for w in words), default=0)
    cased = [w for w in words if any(c.isalpha() for c in w)]
    lower_words = sum(1 for w in cased if w.islower())
    upper_words = sum(1 for w in cased if w.isupper())
    known = lang_words()
    lang_hits = sum(1 for w in words if w.lower() in known)

    def ratio(count: int, denom: int) -> float:
        return count / denom if denom else 0.0

    numeric = {
        "alphanumericRatio": ratio(alnum, n),
        "commentLength": float(n),
        "containsHashTag": 1.0 if _find_hashtag(comment) is not None else 0.0,
        "containsLangWord": 1.0 if lang_hits else 0.0,
        "containsURL": 1.0 if any(m in comment for m in _URL_MARKERS) else 0.0,
        "digitRatio": ratio(digit, n),
        "isSpecContriUser": 1.0 if _SPECIAL_CONTRIB in comment else 0.0,
        "langWordRatio": ratio(lang_hits, len(words)),
        "latinRatio": ratio(latin, alpha),
        "longestCharSeq": float(longest_run),
        "longestWord": float(longest_word),
        "lowerCaseRatio": ratio(lower, n),
        "lowerCaseWordRatio": ratio(lower_words, len(cased)),
        "nonLatinRatio": ratio(alpha - latin, alpha),
        "punctuationRatio": ratio(punct, n),
        "upperCaseRatio": ratio(upper, n),
        "upperCaseWordRatio": ratio(upper_words, len(cased)),
        "whitespaceRatio": ratio(space, n),
    }
    return RawFeatures(numeric=numeric)


def parse_comment_header(
    comment: str,
) -> tuple[Optional[str], Optional[str], Optional[str]]:
    """Split a structured ``/* action-subaction:params */`` comment header.

    Returns ``(action, subaction, language)``, each ``None`` when absent.
    The language is the last ``|``-separated parameter when it looks like
    a language code (``en``, ``pt-br``, ...).  Comments that do not start
    with a header parse as ``(None, None, None)``.
    """
    if not comment.startswith("/*"):
        return (None, None, None)
    end = comment.find("*/", 2)
    if end < 0:
        return (None, None, None)
    header = comment[2:end].strip()
    head, _, params = header.partition(":")
    head = head.strip()
    if not head:
        return (None, None, None)
    token = head.split()[0]
    if "-" in token:
        action, subaction = token.split("-", 1)
    else:
        action, subaction = token, None
    language = None
    if params:
        tail = params.rsplit("|", 1)[-1].strip()
        if tail and _LANGUAGE_CODE.fullmatch(tail):
            language = tail
    return (action or None, subaction or None, language)


def _find_hashtag(comment: str) -> Optional[str]:
    """First ``#tag`` token: the alphanumeric run right after a ``#``."""
    start = 0
    while True:
        pos = comment.find("#", start)
        if pos < 0:
            return None
        end = pos + 1
        while end < len(comment) and comment[end].isalnum():
            end += 1
        if end > pos + 1:
            return comment[pos + 1 : end]
        start = pos + 1


def extract_context(rev: Revision) -> RawFeatures:
    """Features of who edited and what the edit declared itself to be."""
    action, subaction, language = parse_comment_header(rev.comment)
    numeric = {
        "isRegisteredUser": 1.0 if rev.registered else 0.0,
        "isLatinLanguage": 1.0 if language in latin_languages() else 0.0,
    }
    categorical = {
        "revisionAction": action,
        "revisionLanguage": language,
        "revisionSubaction": subaction,
        "revisionTag": _find_hashtag(rev.comment),
        "userCity": rev.city,
        "userContinent": rev.continent,
        "userCountry": rev.country,
        "userCounty": rev.county,
        "userRegion": rev.region,
        "userTimeZone": rev.timezone,
    }
    return RawFeatures(numeric=numeric, categorical=categorical)


def extract_features(rev: Revision) -> RawFeatures:
    """All features of one revision (content merged with context)."""
    return extract_content(rev.comment).merged_with(extract_context(rev))


def extract_many(revisions: Iterable[Revision]) -> list[RawFeatures]:
    return [extract_features(rev) for rev in revisions]


@dataclass(frozen=True)
class FeatureVector:
    """A sparse encoded example: strictly increasing indices, nonzero values."""

    dim: int
    entries: tuple[tuple[int, float], ...]

    def __post_init__(self):
        last = -1
        for idx, value in self.entries:
            if not last < idx < self.dim:
                raise IndexOutOfRange(
                    f"entry index {idx} invalid for dimension {self.dim}"
                )
            if value == 0.0 or not math.isfinite(value):
                raise ValueError(f"entry ({idx}, {value!r}) must be finite nonzero")
            last = idx

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.dim)
        for idx, value in self.entries:
            dense[idx] = value
        return dense


@dataclass(frozen=True)
class FeatureSchema:
    """The persisted encoding layout.

    ``numeric_names`` are sorted; ``categorical_vocab`` holds the sorted
    ``(feature, value)`` pairs.  Column ``i`` is ``numeric_names[i]`` for
    ``i < len(numeric_names)`` and the one-hot for
    ``categorical_vocab[i - len(numeric_names)]`` after that.
    """

    numeric_names: tuple[str, ...]
    categorical_vocab: tuple[tuple[str, str], ...]

    @property
    def total_dim(self) -> int:
        return len(self.numeric_names) + len(self.categorical_vocab)

    def numeric_index(self, name: str) -> int:
        return self._numeric_lookup()[name]

    def column_name(self, index: int) -> str:
        """Human-readable name of a column (for importance reports)."""
        if not 0 <= index < self.total_dim:
            raise IndexOutOfRange(f"column {index} out of range")
        if index < len(self.numeric_names):
            return self.numeric_names[index]
        feature, value = self.categorical_vocab[index - len(self.numeric_names)]
        return f"{feature}={value}"

    def _numeric_lookup(self) -> dict[str, int]:
        cached = getattr(self, "_numeric_cache", None)
        if cached is None:
            cached = {name: i for i, name in enumerate(self.numeric_names)}
            object.__setattr__(self, "_numeric_cache", cached)
        return cached

    def _vocab_lookup(self) -> dict[tuple[str, str], int]:
        cached = getattr(self, "_vocab_cache", None)
        if cached is None:
            base = len(self.numeric_names)
            cached = {
                pair: base + i for i, pair in enumerate(self.categorical_vocab)
            }
            object.__setattr__(self, "_vocab_cache", cached)
        return cached


def build_schema(dataset: Iterable[RawFeatures]) -> FeatureSchema:
    """Collect names and categorical values; fix the column layout.

    The layout depends only on the *set* of observed names and values, so
    shuffling the dataset cannot change it.
    """
    names: set[str] = set()
    pairs: set[tuple[str, str]] = set()
    count = 0
    for raw in dataset:
        count += 1
        names.update(raw.numeric)
        for feature, value in raw.categorical.items():
            if value is not None:
                pairs.add((feature, value))
    if count == 0:
        raise EmptyDataset("cannot build a schema from zero examples")
    return FeatureSchema(tuple(sorted(names)), tuple(sorted(pairs)))


def encode(raw: RawFeatures, schema: FeatureSchema) -> FeatureVector:
    """Encode one example against a fixed schema.

    Numeric features missing from ``raw`` become 0.0; categorical values
    outside the vocabulary (and ``None``) leave their group all-zero;
    names unknown to the schema are ignored.
    """
    entries: list[tuple[int, float]] = []
    numeric_lookup = schema._numeric_lookup()
    for name, value in raw.numeric.items():
        idx = numeric_lookup.get(name)
        if idx is not None and value != 0.0:
            if not math.isfinite(value):
                raise ValueError(f"numeric feature {name} is not finite: {value!r}")
            entries.append((idx, float(value)))
    vocab_lookup = schema._vocab_lookup()
    for feature, value in raw.categorical.items():
        if value is None:
            continue
        idx = vocab_lookup.get((feature, value))
        if idx is not None:
            entries.append((idx, 1.0))
    entries.sort()
    return FeatureVector(dim=schema.total_dim, entries=tuple(entries))


def encode_many(dataset: Sequence[RawFeatures], schema: FeatureSchema) -> list[FeatureVector]:
    return [encode(raw, schema) for raw in dataset]


def vectors_to_csr(
    vectors: Sequence[FeatureVector], dim: int | None = None
) -> sparse.csr_matrix:
    """Stack feature vectors into one CSR matrix without densifying."""
    if dim is None:
        if not vectors:
            raise EmptyDataset("need at least one vector or an explicit dim")
        dim = vectors[0].dim
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for vec in vectors:
        if vec.dim != dim:
            raise DimensionMismatch(f"vector dim {vec.dim} != matrix dim {dim}")
        for idx, value in vec.entries:
            indices.append(idx)
            data.append(value)
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (
            np.asarray(data, dtype=np.float64),
            np.asarray(indices, dtype=np.int64),
            np.asarray(indptr, dtype=np.int64),
        ),
        shape=(len(vectors), dim),
    )


def save_schema(schema: FeatureSchema, path: str | Path | IO[str]) -> None:
    """Write the schema file (stable bytes for equal schemas).

    Format: a header line, then one ``N <name>`` line per numeric column,
    then one ``C <feature><TAB><value>`` line per categorical column, in
    column order.
    """
    lines = schema_to_lines(schema)
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def schema_to_lines(schema: FeatureSchema) -> list[str]:
    lines = [SCHEMA_HEADER]
    for name in schema.numeric_names:
        if not name or any(c in name for c in "\t\n\r "):
            raise ValueError(f"numeric name {name!r} not serialisable")
        lines.append(f"N {name}")
    for feature, value in schema.categorical_vocab:
        if "\t" in value or "\n" in value or "\r" in value:
            raise ValueError(f"categorical value {value!r} not serialisable")
        lines.append(f"C {feature}\t{value}")
    return lines


def load_schema(path: str | Path | IO[str]) -> FeatureSchema:
    if hasattr(path, "read"):
        text = path.read()
    else:
        with open(path, "r", encoding="utf-8", newline="\n") as fh:
            text = fh.read()
    return schema_from_lines(text.splitlines())


def schema_from_lines(lines: Sequence[str], offset: int = 0) -> FeatureSchema:
    """Parse a schema file; ``offset`` lines precede it in the file read."""
    if not lines or lines[0] != SCHEMA_HEADER:
        raise MalformedLine(f"expected schema header {SCHEMA_HEADER!r}", offset + 1)
    numeric: list[str] = []
    vocab: list[tuple[str, str]] = []
    for line_no, line in enumerate(lines[1:], start=offset + 2):
        if line == "":
            continue
        kind, _, rest = line.partition(" ")
        if kind == "N" and rest:
            columns, column = numeric, rest
        elif kind == "C" and "\t" in rest:
            columns, column = vocab, tuple(rest.partition("\t")[::2])
        else:
            raise MalformedLine(f"bad schema line {line!r}", line_no)
        # canonical order: each kind strictly ascending, so no duplicates
        if columns and column <= columns[-1]:
            raise MalformedLine(f"schema column {line!r} out of canonical order", line_no)
        columns.append(column)
    return FeatureSchema(tuple(numeric), tuple(vocab))

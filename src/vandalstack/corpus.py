"""Parsing and serialisation of the merged revision-record format.

Corpus line grammar (one revision per line; lines as read by :mod:`.lines`)::

    rev_id <TAB> comment <TAB> has_contributor <TAB> meta_csv

``has_contributor`` is ``0`` or ``1``.  ``meta_csv`` is comma-separated
with seven or eight fields::

    registered,country,continent,timezone,region,city,county[,user_tag]

``registered`` is ``0`` or ``1``; the remaining fields are free text where
the empty string means *missing*.  When a ``user_tag`` is present it is
everything after the seventh comma, so tags containing commas survive a
round trip verbatim.  No field holds a CR.  Truth line grammar::

    rev_id <TAB> label

Every file keyed by rev_id (corpus, truth, scores) and the scoring
protocol's answers read it by one rule, :func:`parse_rev_id`: ASCII
digits whose value is below 2^63, so that it fits an int64.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional

from .errors import DuplicateConflict, MalformedLine
from .lines import Source, iter_lines, write_lines

GEO_FIELDS = ("country", "continent", "timezone", "region", "city", "county")

# A rev_id is below this bound, so that every one fits an int64 array.
REV_ID_BOUND = 1 << 63

# The label spellings a truth file may use, lower-cased.  Projects that export
# reverts straight from wiki dumps tend to use the ROLLBACK_REVERTED tag.
TRUE_LABELS = frozenset({"1", "true", "t", "yes", "vandalism", "rollback_reverted"})
FALSE_LABELS = frozenset({"0", "false", "f", "no", "regular", "safe"})


@dataclass(frozen=True)
class Revision:
    """One parsed revision record."""

    rev_id: int
    comment: str = ""
    has_contributor: bool = False
    registered: bool = False
    country: Optional[str] = None
    continent: Optional[str] = None
    timezone: Optional[str] = None
    region: Optional[str] = None
    city: Optional[str] = None
    county: Optional[str] = None
    user_tag: Optional[str] = None


@dataclass(frozen=True)
class LabeledExample:
    revision: Revision
    label: bool


@dataclass
class CorpusLoad:
    revisions: list[Revision]
    malformed_count: int


@dataclass
class JoinResult:
    examples: list[LabeledExample]
    unlabeled_count: int


def parse_line(line: str, line_no: int | None = None) -> Revision:
    """Parse one canonical corpus line, without its line end, into a :class:`Revision`.

    Raises :class:`MalformedLine` on any deviation from the grammar,
    a CR or LF inside a field included.
    """
    if "\r" in line or "\n" in line:
        raise MalformedLine("a field holds a line break", line_no)
    parts = line.split("\t")
    if len(parts) != 4:
        raise MalformedLine(
            f"expected 4 tab-separated fields, got {len(parts)}", line_no
        )
    rev_raw, comment, contrib_raw, meta_csv = parts
    rev_id = parse_rev_id(rev_raw, line_no)
    if contrib_raw not in ("0", "1"):
        raise MalformedLine(f"has_contributor must be 0 or 1, got {contrib_raw!r}", line_no)
    meta = meta_csv.split(",")
    if len(meta) < 7:
        raise MalformedLine(
            f"meta block needs at least 7 comma-separated fields, got {len(meta)}",
            line_no,
        )
    if meta[0] not in ("0", "1"):
        raise MalformedLine(f"registered flag must be 0 or 1, got {meta[0]!r}", line_no)
    geo = [field if field != "" else None for field in meta[1:7]]
    user_tag: Optional[str] = None
    if len(meta) > 7:
        tag = ",".join(meta[7:])
        user_tag = tag if tag != "" else None
    return Revision(
        rev_id=rev_id,
        comment=comment,
        has_contributor=contrib_raw == "1",
        registered=meta[0] == "1",
        country=geo[0],
        continent=geo[1],
        timezone=geo[2],
        region=geo[3],
        city=geo[4],
        county=geo[5],
        user_tag=user_tag,
    )


def format_line(rev: Revision) -> str:
    """Serialise a revision back to the canonical line (no trailing newline).

    Parsing the result yields a revision equal to ``rev``.
    """
    # chained `in` tests: a generator over the characters costs 4x here
    comment, tag = rev.comment, rev.user_tag
    if "\t" in comment or "\n" in comment or "\r" in comment:
        raise ValueError("comment must not contain tabs or line breaks")
    meta = ["1" if rev.registered else "0"]
    for name in GEO_FIELDS:
        value = getattr(rev, name)
        if value is not None and (
            "," in value or "\t" in value or "\n" in value or "\r" in value
        ):
            raise ValueError(f"{name} must not contain commas or separators")
        meta.append(value if value is not None else "")
    if tag is not None:
        if "\t" in tag or "\n" in tag or "\r" in tag:
            raise ValueError("user_tag must not contain tabs or line breaks")
        meta.append(tag)
    return "\t".join(
        [
            str(rev.rev_id),
            rev.comment,
            "1" if rev.has_contributor else "0",
            ",".join(meta),
        ]
    )


def load_corpus(source: Source, on_malformed: str = "skip") -> CorpusLoad:
    """Read every corpus line from ``source`` in file order.

    ``on_malformed`` is ``"skip"`` (count and continue) or ``"abort"``
    (raise the first :class:`MalformedLine`).  A blank line and a line
    that is not UTF-8 are malformed like any other.
    """
    if on_malformed not in ("skip", "abort"):
        raise ValueError(f"unknown malformed-line policy {on_malformed!r}")
    revisions: list[Revision] = []
    bad = 0
    undecodable: set[int] = set()
    for line_no, line in enumerate(iter_lines(source, undecodable), start=1):
        try:
            if line_no in undecodable:
                raise MalformedLine("not valid UTF-8", line_no)
            revisions.append(parse_line(line, line_no))
        except MalformedLine:
            if on_malformed == "abort":
                raise
            bad += 1
    return CorpusLoad(revisions, bad)


def load_labels(source: Source) -> dict[int, bool]:
    """Read a truth file into ``{rev_id: label}``.

    Label spellings are matched ASCII case-insensitively against
    :data:`TRUE_LABELS` and :data:`FALSE_LABELS`, after ASCII spaces and
    tabs around the label are stripped; any other character is part of
    the label.
    Re-stating the same label for a rev_id is fine; a contradiction raises
    :class:`DuplicateConflict`.
    """
    labels: dict[int, bool] = {}
    for line_no, line in enumerate(iter_lines(source), start=1):
        rev_id, text = split_keyed(line, line_no)
        token = text.strip(" \t")
        # only ASCII is case-folded: lower() would read the Kelvin sign as k
        token = token.lower() if token.isascii() else token
        if token in TRUE_LABELS:
            label = True
        elif token in FALSE_LABELS:
            label = False
        else:
            raise MalformedLine(f"unknown label spelling {text!r}", line_no)
        if rev_id in labels and labels[rev_id] != label:
            raise DuplicateConflict(
                f"rev_id {rev_id} labeled both {labels[rev_id]} and {label}", line_no
            )
        labels[rev_id] = label
    return labels


def join_labels(
    revisions: Iterable[Revision], labels: Mapping[int, bool]
) -> JoinResult:
    """Pair revisions with their labels, preserving corpus order.

    Revisions without a label are counted and dropped.
    """
    examples: list[LabeledExample] = []
    unlabeled = 0
    for rev in revisions:
        label = labels.get(rev.rev_id)
        if label is None:
            unlabeled += 1
        else:
            examples.append(LabeledExample(rev, label))
    return JoinResult(examples, unlabeled)


def write_corpus(revisions: Iterable[Revision], path: str | Path) -> None:
    write_lines(path, (format_line(rev) for rev in revisions))


def write_labels(examples: Iterable[LabeledExample], path: str | Path) -> None:
    write_lines(path, (f"{ex.revision.rev_id}\t{1 if ex.label else 0}" for ex in examples))


def parse_rev_id(token: str, line_no: int | None = None) -> int:
    """A rev_id: ASCII digits, leading zeros allowed, whose value is below :data:`REV_ID_BOUND`."""
    significant = token.lstrip("0")
    # 2^63 has 19 digits; the length test comes first, as int() refuses over 4,300 of them
    if token.isascii() and token.isdigit() and len(significant) <= 19:
        rev_id = int(significant or "0")
        if rev_id < REV_ID_BOUND:
            return rev_id
    raise MalformedLine(f"rev_id must be ASCII digits below 2^63, got {token!r}", line_no)


def split_keyed(line: str, line_no: int | None = None) -> tuple[int, str]:
    """A ``rev_id <TAB> value`` line: its rev_id, by :func:`parse_rev_id`, and its value's text."""
    parts = line.split("\t")
    if len(parts) != 2:
        raise MalformedLine(f"expected 2 tab-separated fields, got {len(parts)}", line_no)
    return parse_rev_id(parts[0], line_no), parts[1]

"""Parsing and serialisation of the merged revision-record format.

Corpus line grammar (UTF-8, LF-terminated, one revision per line)::

    rev_id <TAB> comment <TAB> has_contributor <TAB> meta_csv

``has_contributor`` is ``0`` or ``1``.  ``meta_csv`` is comma-separated
with seven or eight fields::

    registered,country,continent,timezone,region,city,county[,user_tag]

``registered`` is ``0`` or ``1``; the remaining fields are free text where
the empty string means *missing*.  When a ``user_tag`` is present it is
everything after the seventh comma, so tags containing commas survive a
round trip verbatim.  Truth line grammar::

    rev_id <TAB> label
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Optional, Union

from .errors import DuplicateConflict, MalformedLine

Source = Union[str, Path, IO[str], IO[bytes], Iterable[str]]

GEO_FIELDS = ("country", "continent", "timezone", "region", "city", "county")

# Label spellings accepted by default, lower-cased.  Projects that export
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
    label: Optional[bool] = None


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
    """Parse one canonical corpus line into a :class:`Revision`.

    Raises :class:`MalformedLine` on any deviation from the grammar.
    """
    line = _strip_eol(line)
    parts = line.split("\t")
    if len(parts) != 4:
        raise MalformedLine(
            f"expected 4 tab-separated fields, got {len(parts)}", line_no
        )
    rev_raw, comment, contrib_raw, meta_csv = parts
    rev_id = _parse_rev_id(rev_raw, line_no)
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

    Parsing the result yields a revision equal to ``rev`` (ignoring any
    attached label, which lives in the truth file, not the corpus).
    """
    if "\t" in rev.comment or "\n" in rev.comment or "\r" in rev.comment:
        raise ValueError("comment must not contain tabs or line breaks")
    meta = ["1" if rev.registered else "0"]
    for name in GEO_FIELDS:
        value = getattr(rev, name)
        if value is not None and ("," in value or "\t" in value or "\n" in value):
            raise ValueError(f"{name} must not contain commas or separators")
        meta.append(value if value is not None else "")
    if rev.user_tag is not None:
        meta.append(rev.user_tag)
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
    (raise the first :class:`MalformedLine`).
    """
    if on_malformed not in ("skip", "abort"):
        raise ValueError(f"unknown malformed-line policy {on_malformed!r}")
    revisions: list[Revision] = []
    bad = 0
    for line_no, line in enumerate(_iter_lines(source), start=1):
        if line == "":
            continue
        try:
            revisions.append(parse_line(line, line_no))
        except MalformedLine:
            if on_malformed == "abort":
                raise
            bad += 1
    return CorpusLoad(revisions, bad)


def load_labels(
    source: Source,
    true_labels: frozenset[str] = TRUE_LABELS,
    false_labels: frozenset[str] = FALSE_LABELS,
) -> dict[int, bool]:
    """Read a truth file into ``{rev_id: label}``.

    Label spellings are matched case-insensitively against the two sets.
    Re-stating the same label for a rev_id is fine; a contradiction raises
    :class:`DuplicateConflict`.
    """
    labels: dict[int, bool] = {}
    for line_no, line in enumerate(_iter_lines(source), start=1):
        if line == "":
            continue
        stripped = _strip_eol(line)
        parts = stripped.split("\t")
        if len(parts) != 2:
            raise MalformedLine(
                f"expected 2 tab-separated fields, got {len(parts)}", line_no
            )
        rev_id = _parse_rev_id(parts[0], line_no)
        token = parts[1].strip().lower()
        if token in true_labels:
            label = True
        elif token in false_labels:
            label = False
        else:
            raise MalformedLine(f"unknown label spelling {parts[1]!r}", line_no)
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rev in revisions:
            fh.write(format_line(rev))
            fh.write("\n")


def write_labels(examples: Iterable[LabeledExample], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for ex in examples:
            fh.write(f"{ex.revision.rev_id}\t{1 if ex.label else 0}\n")


def _parse_rev_id(token: str, line_no: int | None) -> int:
    if not (token.isascii() and token.isdigit()):
        raise MalformedLine(f"rev_id must be a non-negative integer, got {token!r}", line_no)
    return int(token)


def _strip_eol(line: str) -> str:
    if line.endswith("\n"):
        line = line[:-1]
    if line.endswith("\r"):
        line = line[:-1]
    return line


def _iter_lines(source: Source) -> Iterator[str]:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="\n") as fh:
            yield from fh
        return
    if hasattr(source, "read"):
        for raw in source:
            if isinstance(raw, bytes):
                yield raw.decode("utf-8")
            else:
                yield raw
        return
    yield from iter(source)

"""Exception hierarchy shared by every stage of the pipeline."""

from __future__ import annotations


class VandalstackError(Exception):
    """Base class for all errors raised by this package."""


class MalformedLine(VandalstackError):
    """A corpus, truth, score, or protocol line does not match its grammar.

    ``line_no`` is 1-based when the offending line came from a file and
    ``None`` when it came from an in-memory string.
    """

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class DuplicateConflict(MalformedLine):
    """The same rev_id twice with contradictory labels or scores (the second line)."""


class EmptyDataset(VandalstackError):
    """An operation that needs at least one example received none."""


class SingleClass(VandalstackError):
    """An operation that needs both classes saw only one."""


class TooFewExamples(VandalstackError):
    """Fewer examples than folds (or some other hard minimum)."""


class DimensionMismatch(VandalstackError):
    """A vector or matrix does not match the dimensionality it is used with."""


class IndexOutOfRange(VandalstackError):
    """A column index falls outside the containing vector's dimension."""


class UnsupportedFamily(VandalstackError):
    """An unknown model family name, or an operation a family cannot do."""


class NotFitted(VandalstackError):
    """predict was called on a model that has not been fit."""


class EmptyList(VandalstackError):
    """An aggregation over models received an empty list."""


class ProtocolViolation(VandalstackError):
    """The scoring client broke the streaming protocol."""


class Timeout(VandalstackError):
    """The peer did not answer within the configured timeout."""


class UsageError(VandalstackError):
    """Bad command-line arguments or configuration values."""

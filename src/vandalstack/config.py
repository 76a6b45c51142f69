"""Line-oriented ``key = value`` run configuration.

Sections are spelled as dotted prefixes (``sampling.fraction = 1/50``).
Every key but ``sampling.seed``, ``sampling.dedup`` and
``selection.seed`` has a ``train-stack`` flag that overrides it; those
three are set in the file only.  The defaults reproduce the reference
configuration: 1/50 under-sampling, dedup after sampling, selection
threshold 1e-5 with a seed-0 selection model, the standard 6+4 model
stages with k=3, and one master seed that every other seed derives from.

Each default is taken from its owner: ``sampling.fraction`` and
``sampling.window`` from :class:`~vandalstack.sampling.SamplingConfig`,
``stack.k`` from :class:`~vandalstack.stacking.StackConfig` and
``selection.threshold`` from :mod:`~vandalstack.learners.selection`.
The two configs also check their values when a :class:`RunConfig` is
made, so a bad one fails at config load, before any input file is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from .errors import UsageError
from .learners.selection import DEFAULT_THRESHOLD
from .lines import is_plain, iter_lines, parse_int
from .rng import derive_seed
from .sampling import SamplingConfig
from .stacking import StackConfig

_TRUTHY = {"1", "true", "yes", "on"}
_FALSY = {"0", "false", "no", "off"}


def _parse_bool(value: str) -> bool:
    low = value.lower()
    if low in _TRUTHY:
        return True
    if low in _FALSY:
        return False
    raise ValueError(value)


def integer(value: str) -> int:
    """``value`` by :func:`~vandalstack.lines.parse_int`; a ``ValueError`` if it is not one.

    The parser of every integer key, and the argparse type of every
    integer flag that sets no key.
    """
    number = parse_int(value)
    if number is None:
        raise ValueError(value)
    return number


def _plain(parse):
    """``parse``, on text that :func:`~vandalstack.lines.is_plain` accepts only.

    It keeps ``parse``'s name, which argparse shows in its error message.
    """

    def parse_plain(value: str):
        if not is_plain(value):
            raise ValueError(value)
        return parse(value)

    parse_plain.__name__ = parse.__name__
    return parse_plain


# the parser of every float key, and the argparse type of every float flag that sets no key
plain_float = _plain(float)


# config key -> (RunConfig field, parser of its text)
_KEYS = {
    "corpus": ("corpus", str),
    "truth": ("truth", str),
    "schema": ("schema", str),
    "pipeline": ("pipeline", str),
    "master_seed": ("master_seed", integer),
    "malformed": ("malformed", str),
    "sampling.fraction": ("sampling_fraction", _plain(Fraction)),
    "sampling.window": (
        "sampling_window", lambda value: None if value == "all" else integer(value)
    ),
    "sampling.seed": ("sampling_seed", integer),
    "sampling.dedup": ("dedup", _parse_bool),
    "sampling.dedup_order": ("dedup_order", str),
    "selection.threshold": ("selection_threshold", plain_float),
    "selection.seed": ("selection_seed", integer),
    "stack.k": ("stack_k", integer),
}


@dataclass
class RunConfig:
    corpus: Optional[str] = None
    truth: Optional[str] = None
    schema: Optional[str] = None
    pipeline: Optional[str] = None
    master_seed: int = 0
    malformed: str = "skip"
    sampling_fraction: Fraction = SamplingConfig.fraction
    sampling_window: Optional[int] = SamplingConfig.window
    sampling_seed: Optional[int] = None  # None -> derived from master_seed
    dedup: bool = True
    dedup_order: str = "after"
    selection_threshold: float = DEFAULT_THRESHOLD
    selection_seed: int = 0
    stack_k: int = StackConfig.k

    def __post_init__(self):
        if self.malformed not in ("skip", "abort"):
            raise UsageError(f"malformed must be skip|abort, got {self.malformed!r}")
        if self.dedup_order not in ("after", "before"):
            raise UsageError(f"sampling.dedup_order must be after|before, got {self.dedup_order!r}")
        if not (math.isfinite(self.selection_threshold) and self.selection_threshold >= 0):
            raise UsageError("selection.threshold must be finite and >= 0")
        self.sampling_config()  # its errors name their keys
        try:
            self.stack_config()
        except UsageError as exc:
            raise UsageError(f"stack.k: {exc}") from None

    def sampling_config(self) -> SamplingConfig:
        seed = self.sampling_seed
        if seed is None:
            seed = derive_seed(self.master_seed, "sampling", 0)
        return SamplingConfig(
            fraction=self.sampling_fraction, window=self.sampling_window, seed=seed
        )

    def stack_seed(self) -> int:
        return derive_seed(self.master_seed, "stack", 0)

    def stack_config(self) -> StackConfig:
        return StackConfig(k=self.stack_k, seed=self.stack_seed())

    def schema_path(self) -> str:
        if self.schema is not None:
            return self.schema
        if self.pipeline is None:
            raise UsageError("no schema or pipeline path configured")
        return self.pipeline + ".schema"


def parse_config_file(path: Union[str, Path]) -> dict[str, str]:
    """Read ``key = value`` pairs; '#' starts a comment, blanks ignored.

    Only ASCII spaces and tabs around a key or value are stripped.

    Each value is checked as :func:`build_run_config` would take it, and a
    bad one is a :class:`UsageError` naming its ``path:line``.
    """
    pairs: dict[str, str] = {}
    for line_no, raw in enumerate(iter_lines(path), start=1):
        line = raw.split("#", 1)[0].strip(" \t")
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip(" \t")
        value = value.strip(" \t")
        try:
            build_run_config({key: value})
        except UsageError as exc:
            raise UsageError(f"{path}:{line_no}: {exc}") from None
        pairs[key] = value
    return pairs


def build_run_config(pairs: dict[str, str]) -> RunConfig:
    """Typed RunConfig from raw string pairs (file values + CLI overrides)."""
    kwargs: dict[str, object] = {}
    for key, value in pairs.items():
        if key not in _KEYS:
            raise UsageError(f"unknown config key {key!r}")
        name, parse = _KEYS[key]
        try:
            kwargs[name] = parse(value)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"config {key}: bad value {value!r}") from None
    return RunConfig(**kwargs)


def load_run_config(
    path: Optional[Union[str, Path]], overrides: Optional[dict[str, str]] = None
) -> RunConfig:
    pairs = parse_config_file(path) if path is not None else {}
    pairs.update((key, value) for key, value in (overrides or {}).items() if value is not None)
    return build_run_config(pairs)

"""Run-configuration parsing, overrides and derived seeds."""

import re
from fractions import Fraction

import pytest

from vandalstack.config import (
    RunConfig,
    build_run_config,
    load_run_config,
    parse_config_file,
)
from vandalstack.errors import UsageError
from vandalstack.rng import derive_seed
from vandalstack.stacking import StackConfig


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_parse_config_file_comments_and_blanks(tmp_path):
    path = write_config(
        tmp_path,
        """
        # reference setup
        sampling.fraction = 1/50   # the sweep optimum
        master_seed = 7

        stack.k = 3
        """,
    )
    assert parse_config_file(path) == {
        "sampling.fraction": "1/50",
        "master_seed": "7",
        "stack.k": "3",
    }


def test_parse_config_file_rejects_unknown_key_and_missing_equals(tmp_path):
    with pytest.raises(UsageError):
        parse_config_file(write_config(tmp_path, "no_such_key = 1\n"))
    with pytest.raises(UsageError):
        parse_config_file(write_config(tmp_path, "just some words\n"))


def test_typed_parsing():
    cfg = build_run_config(
        {
            "sampling.fraction": "1/50",
            "sampling.window": "all",
            "sampling.dedup": "false",
            "sampling.dedup_order": "before",
            "selection.threshold": "1e-5",
            "master_seed": "11",
        }
    )
    assert cfg.sampling_fraction == Fraction(1, 50)
    assert cfg.sampling_window is None
    assert cfg.dedup is False
    assert cfg.dedup_order == "before"
    assert cfg.selection_threshold == 1e-5
    assert cfg.master_seed == 11


def test_window_integer_parsing():
    cfg = build_run_config({"sampling.window": "250000"})
    assert cfg.sampling_window == 250000


def test_defaults_match_reference_setup():
    cfg = RunConfig()
    assert cfg.sampling_fraction == Fraction(1, 50)
    assert cfg.sampling_window is None
    assert cfg.dedup is True and cfg.dedup_order == "after"
    assert cfg.selection_threshold == 1e-5
    assert cfg.selection_seed == 0
    assert cfg.stack_k == 3
    assert cfg.master_seed == 0


def test_overrides_beat_file_values(tmp_path):
    path = write_config(tmp_path, "master_seed = 1\nstack.k = 3\n")
    cfg = load_run_config(path, {"master_seed": "2", "stack.k": None})
    assert cfg.master_seed == 2
    assert cfg.stack_k == 3  # None override is ignored
    with pytest.raises(UsageError):
        load_run_config(path, {"bogus": "1"})


def test_no_file_only_overrides():
    cfg = load_run_config(None, {"sampling.fraction": "1/10"})
    assert cfg.sampling_fraction == Fraction(1, 10)


def test_derived_seeds_follow_master_seed():
    cfg = RunConfig(master_seed=5)
    sampling = cfg.sampling_config()
    assert sampling.seed == derive_seed(5, "sampling", 0)
    assert cfg.stack_seed() == derive_seed(5, "stack", 0)
    # an explicit sampling seed wins over derivation
    pinned = RunConfig(master_seed=5, sampling_seed=123)
    assert pinned.sampling_config().seed == 123
    # the selection seed does not follow the master seed
    assert RunConfig(master_seed=99).selection_seed == 0


def test_sampling_config_carries_fraction_and_window():
    cfg = RunConfig(sampling_fraction=Fraction(1, 10), sampling_window=500)
    sampling = cfg.sampling_config()
    assert sampling.fraction == Fraction(1, 10)
    assert sampling.window == 500


def test_schema_path_falls_back_to_pipeline_suffix():
    assert RunConfig(schema="s.txt", pipeline="p.txt").schema_path() == "s.txt"
    assert RunConfig(pipeline="p.txt").schema_path() == "p.txt.schema"
    with pytest.raises(UsageError):
        RunConfig().schema_path()


def test_validation_errors():
    with pytest.raises(UsageError):
        RunConfig(malformed="explode")
    with pytest.raises(UsageError):
        RunConfig(dedup_order="during")
    with pytest.raises(UsageError):
        RunConfig(selection_threshold=-1.0)
    with pytest.raises(UsageError, match="stack.k"):
        RunConfig(stack_k=1)
    with pytest.raises(UsageError):
        build_run_config({"sampling.fraction": "nope"})
    # an out-of-range fraction parses, and SamplingConfig refuses it at once
    with pytest.raises(UsageError, match=re.escape("sampling.fraction must be in (0, 1]")):
        build_run_config({"sampling.fraction": "3/2"})


@pytest.mark.parametrize(
    "key, value",
    [
        ("stack.k", "abc"),
        ("master_seed", "1.5"),
        ("sampling.window", "some"),
        ("sampling.seed", ""),
        ("sampling.dedup", "maybe"),
        ("sampling.fraction", "1/0"),
        ("sampling.fraction", "2"),
        ("sampling.fraction", "0"),
        ("sampling.fraction", "3/2"),
        ("sampling.window", "-5"),
        ("selection.threshold", "x"),
        ("selection.threshold", "nan"),
        ("selection.threshold", "inf"),
        ("selection.seed", "0x1"),
        ("stack.k", "1"),
        ("stack.k", "0"),
        ("stack.refit_full", "2"),
        # int(), float() and Fraction() take these; the config does not
        ("stack.k", "1_0"),
        ("stack.k", "+3"),
        ("master_seed", "\u0663"),
        ("master_seed", "3\x85"),
        ("sampling.window", "+5"),
        ("sampling.window", "1_0"),
        ("sampling.seed", "\u0663"),
        ("selection.seed", "1_0"),
        ("sampling.fraction", "1/5_0"),
        ("sampling.fraction", "\u0661/\u0665\u0660"),
        ("selection.threshold", "1_0e-6"),
        ("selection.threshold", "\u0661e-5"),
    ],
)
def test_every_bad_value_is_a_usage_error_naming_its_key_and_line(tmp_path, key, value):
    with pytest.raises(UsageError, match=re.escape(key)):
        build_run_config({key: value})
    path = write_config(tmp_path, f"# header\nmaster_seed = 4\n{key} = {value}\n")
    for load in (parse_config_file, lambda p: load_run_config(p)):
        with pytest.raises(UsageError, match=re.escape(f"{path}:3:")):
            load(path)


@pytest.mark.parametrize("key", ["sampling.fraction", "selection.threshold"])
@pytest.mark.parametrize("space", [" ", "\t", "\x0b", "\x1f", "\x85", "\u2028"])
def test_a_number_with_whitespace_around_it_is_refused(tmp_path, key, space):
    value = "1/50" if key == "sampling.fraction" else "1e-5"
    for text in (space + value, value + space):
        with pytest.raises(UsageError, match=re.escape(f"config {key}: bad value")):
            build_run_config({key: text})
    # the file strips ASCII spaces and tabs around a value, and nothing else
    path = write_config(tmp_path, f"{key} = {value}{space}\n")
    if space in " \t":
        assert parse_config_file(path) == {key: value}
    else:
        with pytest.raises(UsageError, match=re.escape(f"{path}:1: config {key}")):
            parse_config_file(path)


def test_output_is_not_a_config_key(tmp_path):
    with pytest.raises(UsageError):
        build_run_config({"output": "scores.tsv"})
    path = write_config(tmp_path, "output = scores.tsv\n")
    with pytest.raises(UsageError, match=re.escape(f"{path}:1: unknown config key 'output'")):
        parse_config_file(path)
    assert not hasattr(RunConfig(), "output")


def test_refit_full_is_not_a_config_key(tmp_path):
    path = write_config(tmp_path, "master_seed = 4\nstack.refit_full = 1\n")
    message = re.escape(f"{path}:2: unknown config key 'stack.refit_full'")
    for load in (parse_config_file, lambda p: load_run_config(p)):
        with pytest.raises(UsageError, match=message):
            load(path)
    assert not hasattr(RunConfig(), "refit_full")


def test_stack_config_carries_k_and_the_derived_seed():
    cfg = RunConfig(master_seed=5, stack_k=4)
    assert cfg.stack_config() == StackConfig(k=4, seed=cfg.stack_seed())


def test_a_lone_cr_does_not_end_a_config_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"master_seed = 1\r\nstack.k = 4\rmaster_seed = 2\n")
    with pytest.raises(UsageError, match=re.escape(f"{path}:2:")):
        parse_config_file(path)
    path.write_bytes(b"master_seed = 1\r\nstack.k = 4\r\n")
    assert parse_config_file(path) == {"master_seed": "1", "stack.k": "4"}

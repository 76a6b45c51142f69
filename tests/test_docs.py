"""The documents state what the code does: config keys, flags, commands and the pipeline grammar."""

import argparse
import re
from pathlib import Path

import numpy as np

from tests._util import schema_of_width
from vandalstack import cli, config
from vandalstack.learners import ModelSpec
from vandalstack.stacking import StackConfig, fit_stack, pipeline_to_lines

ROOT = Path(__file__).resolve().parents[1]


def doc_section(path, heading):
    """The text under a ``## heading`` of a markdown file, up to the next one."""
    text = (ROOT / path).read_text(encoding="utf-8")
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def subparsers():
    parser = cli._build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_the_config_section_lists_exactly_the_config_keys():
    section = doc_section("docs/formats.md", "Config file")
    listed = section.split("Recognized keys:", 1)[1]
    # the list ends with its sentence; parentheses hold each key's values
    listed = re.sub(r"\([^)]*\)", "", " ".join(listed.split())).split(". ", 1)[0]
    assert sorted(re.findall(r"`([^`]+)`", listed)) == sorted(config._KEYS)


def test_every_flag_the_config_section_names_is_a_train_stack_flag():
    section = " ".join(doc_section("docs/formats.md", "Config file").split())
    pairs = dict(re.findall(r"`([a-z_.]+)` by `(--[a-z-]+)`", section))
    same_name = re.search(r"((?:`[a-z_.]+`,? (?:and )?)+)by the flag of the same name", section)
    pairs.update((key, f"--{key}") for key in re.findall(r"`([a-z_.]+)`", same_name.group(1)))
    options = subparsers()["train-stack"]._option_string_actions
    # each "`key` by `--flag`" pair is the flag's dest, and every flag that sets a key is named
    assert {key: options[flag].dest for key, flag in pairs.items()} == {k: k for k in pairs}
    setting_flags = {a.option_strings[0] for a in options.values() if a.dest in config._KEYS}
    assert set(pairs.values()) == setting_flags


def test_the_readme_python_api_imports_run():
    section = doc_section("README.md", "Python API")
    imports = re.findall(r"^from vandalstack[.\w]* import .+$", section, flags=re.MULTILINE)
    assert len(imports) >= 5
    exec("\n".join(imports), {})


def test_the_readme_command_table_lists_exactly_the_subcommands():
    section = doc_section("README.md", "Commands")
    rows = re.findall(r"^\| `([a-z-]+)` +\|", section, flags=re.MULTILINE)
    assert sorted(rows) == sorted(subparsers())


def test_the_pipeline_grammar_lists_the_writers_line_tags_in_order():
    def tags(lines):
        """Each line's first word, a run of one word as one."""
        words = [line.split(" ", 1)[0] for line in lines]
        return [word for i, word in enumerate(words) if i == 0 or words[i - 1] != word]

    section = doc_section("docs/formats.md", "Pipeline file (`vandalstack-pipeline v1`)")
    grammar = section.split("```\n", 2)[1].splitlines()
    # a line that starts with a space or `…` continues or elides the one above
    documented = tags(line for line in grammar if line[:1] not in (" ", "…"))
    X = np.arange(12.0).reshape(6, 2)
    lr = (ModelSpec("logistic_regression"),)
    stack = StackConfig(first_stage=lr, second_stage=lr, k=2)
    lines = list(pipeline_to_lines(fit_stack(X, [0, 1] * 3, stack, schema=schema_of_width(2))))
    written, at = [], 0
    while at < len(lines):  # the file's own lines, each section's body skipped
        written.append(lines[at])
        at += 1 + (int(lines[at].rsplit(" ", 1)[1]) if lines[at].startswith("section ") else 0)
    assert documented == tags(written)

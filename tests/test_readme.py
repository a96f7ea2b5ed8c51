"""README.md's claims point at tests that exist, and its examples load
and parse."""

import ast
import json
import pathlib
import re
import shlex

import pytest

from centerbias import cli, harness
from centerbias.config import from_dict

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
CITATIONS = sorted(set(re.findall(r"tests/(\w+\.py)::(\w+)", README)))


def test_readme_cites_tests():
    assert CITATIONS


@pytest.mark.parametrize("path, name", CITATIONS,
                         ids=[f"{p}::{n}" for p, n in CITATIONS])
def test_cited_test_exists(path, name):
    tree = ast.parse((ROOT / "tests" / path).read_text())
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert name in defined


def test_example_experiment_config_loads():
    section = README.split("## Experiment config", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    config = from_dict(harness.ExperimentConfig, json.loads(example))
    assert config.train_policies and config.augmentations


def readme_commands():
    """Every `centerbias ...` command of the README's sh blocks, with its
    backslash continuations joined."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.strip()
            if line.startswith("centerbias "):
                commands.append(line)
    return commands


COMMANDS = readme_commands()


def test_readme_shows_commands():
    assert len(COMMANDS) >= 10


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_parses(command):
    try:
        cli.build_parser().parse_args(shlex.split(command)[1:])
    except SystemExit:
        pytest.fail(f"the parser rejects {command!r}")

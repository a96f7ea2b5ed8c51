"""README.md's claims point at tests that exist, and its examples load
and parse."""

import ast
import json
import pathlib
import re
import shlex

import numpy as np
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


def test_outputs_paragraph_names_the_exported_files(tmp_path):
    paragraph = README.split("Outputs under `output_dir`:", 1)[1]
    paragraph = paragraph.split("\n\n", 1)[0]
    named = set(re.findall(r"`(\w+\.(?:json|csv))`", paragraph))
    config = harness.ExperimentConfig(repeats=1, epochs=1)
    record = harness.RunRecord(
        config, np.ones((1, 1, 2)), traces=[[[1.0]]],
        checkpoints=[["train0_rep0.ckpt"]],
        wall_clock=harness.WallClock(1.0, 1))
    written = harness.export_results(record, str(tmp_path)).values()
    assert named == {pathlib.Path(p).name for p in written}
    assert "`checkpoints/train{i}_rep{j}.ckpt`" in paragraph

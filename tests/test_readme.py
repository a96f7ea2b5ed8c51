"""README.md's claims point at tests that exist, and its example loads."""

import ast
import json
import pathlib
import re

import pytest

from centerbias import harness
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

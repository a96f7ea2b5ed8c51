"""The program names the benchmark reads still exist.

`perfbench/` reads the program from outside: `layers.py` wraps module
attributes by name and reads tape fields in its span attributes, and
`workloads.py` calls the program's functions with keywords.  A rename or a
deleted parameter there fails here, in the unit tests, instead of in a
benchmark run.  Nothing under `perfbench/` is imported for its workloads;
`workloads.py` is only parsed.
"""

import ast
import importlib
import inspect
import os
import sys

import numpy as np
import pytest

from centerbias import augment, data, harness, saliency, unet
from centerbias import tensor_core as tc

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
MODULES = (augment, data, harness, saliency, unet, tc)


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("layers")
    finally:
        sys.path.remove(PERFBENCH)


def test_wrappers_install_read_their_spans_and_restore(layers, monkeypatch):
    # one traced train step, evaluation and saliency map run every span
    # attribute reader (conv tapes, evaluation arguments) and every metric
    monkeypatch.setattr(unet, "_shard_thread", False)
    before = {m: dict(vars(m)) for m in MODULES}
    with layers.Tracer() as tracer:
        layers.install(tracer, layers.ConvLayers())
        assert unet.forward is not before[unet]["forward"]
        model = unet.build_unet(unet.UNetConfig(base_channels=2, seed=1))
        rng = np.random.default_rng(0)
        x = rng.random((2, 1, 16, 16)).astype(np.float32)
        t = rng.integers(0, 11, (2, 16, 16)).astype(np.uint8)
        unet.train_step(model, x, t,
                        tc.AdamState.for_params([model.flat_params]))
        template = data.DatasetConfig(height=32, width=32,
                                      glyph_source="builtin:14")
        harness.evaluate_bands(model, [data.Band(0.8, 1.0)], 2, 4, template)
        saliency.saliency_map(model, data.sample_at(template, 0))
    for m in MODULES:
        assert vars(m) == before[m], m.__name__
    metrics = layers.per_layer_metrics(tracer.spans, tracer.counts, 1,
                                       {"trace.overhead_ratio": 1.0})
    for layer in layers.UNET_LAYERS:
        assert metrics[f"unet.{layer}.fwd_ms"] > 0, layer
        assert metrics[f"unet.{layer}.bwd_ms"] > 0, layer
    assert metrics["tensor_core.conv.gflop"] > 0
    assert metrics["saliency.saliency_map.ms"] > 0


def workload_tree():
    with open(os.path.join(PERFBENCH, "workloads.py")) as f:
        return ast.parse(f.read())


def program_aliases(tree) -> dict[str, object]:
    """Local name -> centerbias module, from the file's imports."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "centerbias":
            for a in node.names:
                aliases[a.asname or a.name] = importlib.import_module(
                    f"centerbias.{a.name}")
    return aliases


def dotted(node) -> list[str] | None:
    """["unet", "UNetConfig"] for `unet.UNetConfig`, None for other
    expressions."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(parts)]


def resolve(parts, aliases):
    obj = aliases[parts[0]]
    for i, attr in enumerate(parts[1:], 1):
        assert hasattr(obj, attr), f"{'.'.join(parts[:i + 1])} is gone"
        obj = getattr(obj, attr)
    return obj


def test_workloads_read_only_names_that_exist():
    tree = workload_tree()
    aliases = program_aliases(tree)
    assert set(aliases) == {"data", "harness", "saliency", "unet", "tc"}
    read = set()
    for node in ast.walk(tree):
        parts = dotted(node) if isinstance(node, ast.Attribute) else None
        if parts and parts[0] in aliases:
            resolve(parts, aliases)
            read.add(".".join(parts))
    assert {"unet.train_step", "harness.run_regional_training",
            "saliency.saliency_shift_map", "harness.evaluate_bands"} <= read


def test_workload_calls_fit_their_signatures():
    tree = workload_tree()
    aliases = program_aliases(tree)
    calls = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        parts = dotted(node.func)
        if not parts or parts[0] not in aliases or len(parts) < 2:
            continue
        sig = inspect.signature(resolve(parts, aliases))
        where = f"{'.'.join(parts)} at line {node.lineno}"
        keywords = [k.arg for k in node.keywords]
        if None in keywords or any(isinstance(a, ast.Starred)
                                   for a in node.args):
            # unpacked arguments: only the named keywords can be checked
            for k in filter(None, keywords):
                assert k in sig.parameters, f"{where}: no keyword {k!r}"
            continue
        try:
            sig.bind(*node.args, **dict.fromkeys(keywords))
        except TypeError as e:
            pytest.fail(f"{where}: {e}")
        calls += 1
    assert calls > 20

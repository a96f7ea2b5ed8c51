"""Tests of the benchmark's tracer.  Run: python3 -m pytest -q perfbench"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from centerbias import augment, data, harness, saliency, unet  # noqa: E402
from centerbias import tensor_core as tc  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402

MODULES = (augment, data, harness, saliency, unet, tc)


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, "root", 0, 100, None, 1, None),
        Span(1, "a", 10, 40, 0, 1, None),
        Span(2, "a.child", 15, 25, 1, 1, None),
        Span(3, "b", 50, 70, 0, 1, None),
    ]
    assert self_times(spans) == {0: 50, 1: 20, 2: 10, 3: 20}


def test_spans_nest_and_share_the_op_id():
    ticks = iter(range(1000))
    tracer = Tracer(clock=lambda: next(ticks))

    class Owner:
        @staticmethod
        def leaf(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Owner.leaf(Owner.leaf(x))

        @staticmethod
        def gen(n):
            for i in range(n):
                yield Owner.leaf(i)

    with tracer:
        tracer.wrap(Owner, "leaf", "leaf")
        tracer.wrap(Owner, "outer", "outer")
        tracer.wrap_iter(Owner, "gen", "gen")
        with tracer.op(7):
            assert Owner.outer(1) == 3
            assert list(Owner.gen(2)) == [1, 2]
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (op,), (outer,), (gen,) = by_name["op"], by_name["outer"], by_name["gen"]
    leaves = by_name["leaf"]
    assert [s.parent for s in leaves] == [outer.sid] * 2 + [gen.sid] * 2
    assert outer.parent == op.sid and gen.parent == op.sid
    assert {s.op for s in tracer.spans} == {7}
    own = self_times(tracer.spans)
    for s in tracer.spans:
        assert 0 <= own[s.sid] <= s.end - s.start


def _attributes():
    return {(m.__name__, name): getattr(m, name)
            for m in MODULES for name in dir(m)}


def test_install_restores_every_attribute_even_after_an_error():
    before = _attributes()
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            layers.install(tracer, layers.ConvLayers())
            changed = [k for k, v in _attributes().items()
                       if v is not before[k]]
            assert ("centerbias.unet", "forward") in changed
            assert ("centerbias.data", "stream") in changed
            raise RuntimeError("interrupted traced run")
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_traced_step_is_bit_identical_and_fully_attributed():
    config = unet.UNetConfig(depth=2, base_channels=2, seed=3)
    rng = np.random.default_rng(0)
    x = rng.random((2, 1, 8, 8), dtype=np.float32)
    t = rng.integers(0, config.num_classes, (2, 8, 8))
    losses = []
    for trace in (False, True):
        model = unet.build_unet(config)
        adam = tc.AdamState.for_params([model.flat_params])
        convs = layers.ConvLayers()
        with Tracer() as tracer:
            if trace:
                layers.install(tracer, convs)
                convs.register(model)
            with tracer.op(0):
                losses.append(unet.train_step(model, x, t, adam))
    assert np.float64(losses[0]).tobytes() == np.float64(losses[1]).tobytes()
    metrics = layers.per_layer_metrics(tracer.spans, tracer.counts, 1,
                                       {"trace.overhead_ratio": 1.0})
    assert metrics.keys() == layers.UNITS.keys()
    assert 0 < metrics["unet.coverage"] <= 1
    named = {s.attrs["layer"] for s in tracer.spans
             if s.name.startswith("tensor_core.conv2d") and s.attrs}
    assert named == {layer.name for layer in model.layers()}


def test_benchmark_json_lists_the_metrics_the_code_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.UNITS
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)

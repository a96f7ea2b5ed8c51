"""The benchmark's workloads: set-up, a timed closed loop, output checks.

Each workload builds its inputs from the seed, times a closed loop of ops
(the next op starts when the previous one returns) for the given number of
seconds, and checks every op's output.  With `trace` on, it runs the same
ops twice, first plain and then under a `Tracer`, and compares the two.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from centerbias import data, harness, saliency, unet
from centerbias import tensor_core as tc

import layers
from tracer import Tracer

SETUP_REPEATS = 9
# Untimed ops after set-up, so first-call costs (BLAS threads, allocator
# growth, glyph cache) are not timed.  The train-zero warm-up steps are also
# the fixed-length loss trace that is fingerprinted.
TRAIN_WARMUP_STEPS = 4
WARMUP_OPS = 1


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    setup_s: float = 0.0
    op_seconds: list[float] = field(default_factory=list)
    items: float = 0.0                  # the workload's unit of work, summed
    items_seconds: float = 0.0          # time base of items, if not all ops
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    fingerprints: dict[str, str] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    conv_table: list[tuple] = field(default_factory=list)
    tracer: Tracer | None = None

    def check(self, error: str | None) -> None:
        if error:
            self.failed += 1
            self.errors.append(error)

    def end_to_end(self) -> dict[str, float]:
        ms = sorted(1e3 * t for t in self.op_seconds)
        return {"setup_s": self.setup_s,
                "op_ms_p50": statistics.median(ms),
                "op_ms_p95": _percentile(ms, 0.95),
                "items_per_s": self.items / (self.items_seconds
                                             or sum(self.op_seconds))}


def _percentile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] -
                                              sorted_values[lo])


def fingerprint(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


def import_probe(src: str) -> None:
    """Import the CLI in a fresh interpreter: what every command and every
    spawned worker pays before doing any work."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c", "import centerbias.cli"],
                   env=env, check=True)


def timed_setup(setup, src: str):
    """Median wall time of SETUP_REPEATS fresh set-ups; returns the last."""
    seconds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        import_probe(src)
        state = setup()
        seconds.append(time.perf_counter() - t0)
    return state, statistics.median(seconds)


def closed_loop(op, out: Outcome, seconds: float, count: int | None = None,
                tracer: Tracer | None = None) -> list[float]:
    """Run op(i) back to back for `seconds` (at least once), or exactly
    `count` times; `op` returns an error string or None."""
    times = []
    deadline = time.perf_counter() + seconds
    while (len(times) < count if count is not None
           else not times or time.perf_counter() < deadline):
        i = len(times)
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                error = op(i)
            else:
                with tracer.op(i):
                    error = op(i)
        except Exception as e:  # an op that raises is a failed op
            traceback.print_exc(file=sys.stderr)
            error = f"op {i} raised {e!r}"
        times.append(time.perf_counter() - t0)
        out.check(error)
    return times


def sample_batch(policy, count: int, seed: int):
    cfg = data.DatasetConfig(policy=policy, count=count, master_seed=seed)
    samples = list(data.iter_samples(cfg))
    return (np.concatenate([s.input for s in samples]),
            np.stack([s.target for s in samples]))


def tape_peak_mb(model, batch) -> float:
    """tracemalloc peak of one forward pass, tape included."""
    tracemalloc.start()
    try:
        logits, tape = unet.forward(model, batch)
        peak = tracemalloc.get_traced_memory()[1]
        del logits, tape
    finally:
        tracemalloc.stop()
    return peak / 1e6


def traced(out: Outcome, run_traced) -> None:
    """Run `run_traced(tracer, convs)` with every layer wrapped; keep the
    spans."""
    convs = layers.ConvLayers()
    with Tracer() as tracer:
        layers.install(tracer, convs)
        run_traced(tracer, convs)
    out.tracer = tracer


# --------------------------------------------------------------------------
# train-zero: consecutive default train steps, zero padding, no augmentation

TRAIN_BATCH = 16
TRAIN_SAMPLES = 256


def train_zero(seed: int, seconds: float, trace: bool, src: str, tmp: str
               ) -> Outcome:
    out = Outcome()

    def setup():
        X, T = sample_batch(data.AllowedCentral(0.3), TRAIN_SAMPLES, seed)
        batches = [(X[i:i + TRAIN_BATCH], T[i:i + TRAIN_BATCH])
                   for i in range(0, TRAIN_SAMPLES, TRAIN_BATCH)]
        model = unet.build_unet(unet.UNetConfig(seed=seed))
        return model, tc.AdamState.for_params([model.flat_params]), batches

    (model, adam, batches), out.setup_s = timed_setup(setup, src)

    def run(losses):
        def op(i):
            xb, tb = batches[i % len(batches)]
            losses.append(unet.train_step(model, xb, tb, adam))
            return None if math.isfinite(losses[-1]) else \
                f"step {i}: non-finite loss {losses[-1]}"
        return op

    warmup = []
    closed_loop(run(warmup), out, 0, count=TRAIN_WARMUP_STEPS)
    out.fingerprints["loss_trace"] = fingerprint(np.array(warmup))
    snapshot = (model.flat_params.copy(), adam.m[0].copy(), adam.v[0].copy(),
                adam.step_count, model.step)

    plain = []
    out.op_seconds = closed_loop(run(plain), out,
                                 seconds / 2 if trace else seconds)
    out.items = TRAIN_BATCH * len(out.op_seconds)
    e2e = out.end_to_end()
    out.named = {"train.samples_per_s": (e2e["items_per_s"], "samples/s"),
                 "train.step_ms_p50": (e2e["op_ms_p50"], "ms"),
                 "train.step_ms_p95": (e2e["op_ms_p95"], "ms")}
    if not trace:
        return out

    flat, m, v, t, step = snapshot
    model.flat_params[...] = flat
    adam.m[0][...], adam.v[0][...] = m, v
    adam.step_count, model.step = t, step
    traced_losses = []

    def run_traced(tracer, convs):
        convs.register(model)
        times = closed_loop(run(traced_losses), out, 0,
                            count=len(plain), tracer=tracer)
        extra["trace.overhead_ratio"] = sum(times) / sum(out.op_seconds)

    extra = {}
    traced(out, run_traced)
    for i, (a, b) in enumerate(zip(plain, traced_losses)):
        if not same_bits(a, b):
            out.check(f"traced step {i} loss {b!r} != plain {a!r}")
    extra["unet.tape_peak_mb"] = tape_peak_mb(model, batches[0][0])
    _finish_trace(out, len(plain), extra)
    return out


# --------------------------------------------------------------------------
# experiment: the paper's center/edge pair with circular padding and
# periodic-shift augmentation, one run_regional_training call per op

# A quarter of `scripts/run_regional_bias.py --quick` (256 train and 32 eval
# samples, 1 epoch, batch 16), with the same 8:1 train:eval ratio: 4 train
# steps per model.  Measured shares of a traced job on 2 vCPUs, at --quick
# and at this size: training 92% and 94%, evaluation 7% and 6%, generation
# 1.0% and 0.7%, the checkpoint write under 0.2%.
EXP_TRAIN_COUNT = 64
EXP_EVAL_COUNT = 8


def experiment_config(seed: int, output_dir: str) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        model=unet.UNetConfig(padding=tc.CIRCULAR),
        train_policies=(data.AllowedCentral(0.3), data.ForbiddenCentral(0.7)),
        eval_bands=(data.Band(0.0, 0.1), data.Band(0.8, 1.0)),
        epochs=1, batch_size=16, train_count=EXP_TRAIN_COUNT,
        eval_count=EXP_EVAL_COUNT, repeats=1, master_seed=seed,
        augmentations=({"name": "random_periodic_shift", "max_frac": 0.25},),
        output_dir=output_dir)


def experiment(seed: int, seconds: float, trace: bool, src: str, tmp: str,
               workers: int | None) -> Outcome:
    """`workers=1` trains the jobs one after another in this process;
    `workers=None` is the program's default pool (CENTERBIAS_WORKERS, else
    2 spawned workers), which has a plain run only.  The tracer sees only
    this process, so the traced run times one op on the default pool and
    traces the one-process ops."""
    out = Outcome()
    config, out.setup_s = timed_setup(
        lambda: experiment_config(seed, os.path.join(tmp, "experiment")), src)
    matrices = {}

    def run(key, w):
        def op(i):
            record = harness.run_regional_training(config, workers=w)
            harness.export_results(record)
            pr = record.per_repeat
            done = sum(bool(np.isfinite(pr[ti, rep]).all())
                       and os.path.exists(record.checkpoints[ti][rep])
                       for ti in range(pr.shape[0])
                       for rep in range(pr.shape[1]))
            out.items += done if key == "plain" else 0
            traces = np.array(record.traces, dtype=float)
            if done < pr.shape[0] * pr.shape[1] or \
                    not np.isfinite(traces).all():
                return f"op {i}: non-finite matrix or loss, or no checkpoint"
            first = matrices.setdefault(key, pr)
            if not same_bits(first, pr):
                return f"op {i}: per_repeat differs from op 0"
            return None
        return op

    closed_loop(run("warmup", workers), out, 0, count=WARMUP_OPS)
    if not trace:
        out.op_seconds = closed_loop(run("plain", workers), out, seconds)
    else:
        # one op on the default pool, then the one-process ops, plain and
        # traced; all three must give the same matrix
        pool_s = closed_loop(run("pool", None), out, 0, count=1)[0]
        out.op_seconds = closed_loop(run("plain", 1), out, seconds / 3)
        extra = {}

        def run_traced(tracer, convs):
            times = closed_loop(run("traced", 1), out, 0,
                                count=len(out.op_seconds), tracer=tracer)
            extra["trace.overhead_ratio"] = sum(times) / sum(out.op_seconds)
            extra["harness.pool_speedup"] = statistics.mean(times) / pool_s

        traced(out, run_traced)
        for key in ("pool", "plain"):
            if not same_bits(matrices.get(key), matrices.get("traced")):
                out.check(f"{key} per_repeat differs from the traced "
                          "single-process run")
        model = unet.build_unet(config.model)
        X, _ = sample_batch(config.train_policies[0], config.batch_size, seed)
        extra["unet.tape_peak_mb"] = tape_peak_mb(model, X)
        _finish_trace(out, len(out.op_seconds), extra)
    out.fingerprints["per_repeat"] = fingerprint(matrices.get("plain", []))
    out.named = {"experiment.models_per_h":
                 (3600 * out.end_to_end()["items_per_s"], "models/h")}
    return out


# --------------------------------------------------------------------------
# inspect: band evaluation (batch-32 forward) and a saliency-shift map
# (batch-1 forward + backward to the input) of a checkpointed model

INSPECT_BANDS = (data.Band(0.0, 0.1), data.Band(0.45, 0.55),
                 data.Band(0.8, 1.0))
# the `centerbias eval` default count and the `centerbias saliency` default
# grid: +-16 pixels in steps of 2, 289 maps
INSPECT_EVAL_COUNT = 64
INSPECT_GRID = saliency.ShiftGrid(16, 16, 2)


def inspect(seed: int, seconds: float, trace: bool, src: str, tmp: str
            ) -> Outcome:
    out = Outcome()
    grid = INSPECT_GRID
    maps_per_op = len(grid.dxs) * len(grid.dys)
    origin = (grid.dys.index(0), grid.dxs.index(0))

    def setup():
        built = unet.build_unet(unet.UNetConfig(seed=seed))
        path = os.path.join(tmp, "inspect.ckpt")
        unet.save_checkpoint(built, path)
        model = unet.load_checkpoint(path)
        if not same_bits(model.flat_params, built.flat_params):
            raise RuntimeError("checkpoint round trip changed the weights")
        glyphs = data.builtin_glyphs()
        k = int(np.random.default_rng(seed).integers(len(glyphs.images)))
        scene = saliency.make_scene(
            glyphs.images[k], int(glyphs.labels[k]), (64, 96),
            (grid.extent_x, grid.extent_y), data.NoisePool(), seed=seed)
        return model, scene

    (model, scene), out.setup_s = timed_setup(setup, src)
    results = {}
    clock = {"eval": 0.0, "saliency": 0.0}

    def run(key):
        def op(i):
            t0 = time.perf_counter()
            row = np.array(harness.evaluate_bands(
                model, list(INSPECT_BANDS), INSPECT_EVAL_COUNT, seed))
            t1 = time.perf_counter()
            shift_map = saliency.saliency_shift_map(model, scene, grid)
            t2 = time.perf_counter()
            if key == "plain":
                clock["eval"] += t1 - t0
                clock["saliency"] += t2 - t1
            if not (np.isfinite(row).all()
                    and np.isfinite(shift_map.values).all()):
                return f"op {i}: non-finite eval row or shift map"
            if shift_map.raw[origin] != 0.0 or shift_map.values[origin] != 0.0:
                return f"op {i}: shift-map origin is not exactly 0"
            first = results.setdefault(key, (row, shift_map.raw))
            if not (same_bits(first[0], row)
                    and same_bits(first[1], shift_map.raw)):
                return f"op {i}: eval row or shift map differs from op 0"
            return None
        return op

    closed_loop(run("warmup"), out, 0, count=WARMUP_OPS)
    out.op_seconds = closed_loop(run("plain"), out,
                                 seconds / 2 if trace else seconds)
    ops = len(out.op_seconds)
    out.items = len(INSPECT_BANDS) * INSPECT_EVAL_COUNT * ops
    out.items_seconds = clock["eval"]
    out.named = {
        "inspect.eval_samples_per_s": (out.end_to_end()["items_per_s"],
                                       "samples/s"),
        "inspect.maps_per_s": (maps_per_op * ops / clock["saliency"],
                               "maps/s"),
    }
    row, raw = results.get("plain", ([], []))
    out.fingerprints.update(eval_row=fingerprint(row),
                            shift_map=fingerprint(raw))
    if trace:
        extra = {}

        def run_traced(tracer, convs):
            convs.register(model)
            times = closed_loop(run("traced"), out, 0, count=ops,
                                tracer=tracer)
            extra["trace.overhead_ratio"] = sum(times) / sum(out.op_seconds)

        traced(out, run_traced)
        plain, again = results.get("plain"), results.get("traced")
        if not (plain and again and same_bits(plain[0], again[0])
                and same_bits(plain[1], again[1])):
            out.check("traced eval row or shift map differs from plain")
        X, _ = sample_batch(INSPECT_BANDS[0], harness.EVAL_BATCH, seed)
        extra["unet.tape_peak_mb"] = tape_peak_mb(model, X)
        _finish_trace(out, ops, extra)
    return out


def _finish_trace(out: Outcome, n_ops: int, extra: dict) -> None:
    t = out.tracer
    out.per_layer = layers.per_layer_metrics(t.spans, t.counts, n_ops, extra)
    out.conv_table = layers.conv_table(t.spans, n_ops)


WORKLOADS = {
    "train-zero": train_zero,
    "experiment-serial": lambda *a: experiment(*a, workers=1),
    "experiment-circular": lambda *a: experiment(*a, workers=None),
    "inspect": inspect,
}

"""Which program functions the traced run wraps, and the per-layer metrics.

Every wrapper sits on a module attribute that the program looks up at call
time, so nothing under `src/` changes.  Conv FLOPs and im2col bytes are
computed from the call's array shapes for the numpy im2col + GEMM path (the
only conv path that runs without numba); they are counts, not measurements.
"""

from __future__ import annotations

from collections import defaultdict

from centerbias import augment, data, harness, saliency, unet
from centerbias import tensor_core as tc

from tracer import Span, Tracer, ancestors, self_times

# Layer names of the default depth-3 U-Net, in Model.layers() order.
UNET_LAYERS = ("enc0a", "enc0b", "enc1a", "enc1b", "enc2a", "enc2b",
               "dec0a", "dec0b", "dec1a", "dec1b", "head")

# tensor_core metric -> the spans whose self time it sums
TC_OPS = {
    "conv2d_forward": ("conv2d_forward",),
    "conv2d_backward": ("conv2d_backward",),
    "pad": ("pad",),
    "maxpool2x2": ("maxpool2x2_forward", "maxpool2x2_backward"),
    "upsample2x": ("upsample_nearest2x", "upsample_nearest2x_backward"),
    "relu": ("relu", "relu_backward"),
    "softmax_ce": ("softmax_cross_entropy_pixelwise",),
    "adam_step": ("adam_step",),
}

UNITS = {
    **{f"tensor_core.{op}.ms": "ms" for op in TC_OPS},
    "tensor_core.conv.gflop": "GFLOP",
    "tensor_core.conv.im2col_mb": "MB",
    "tensor_core.conv.gflops": "GFLOP/s",
    "unet.forward.ms": "ms",
    "unet.backward.ms": "ms",
    "unet.train_step.ms": "ms",
    "unet.glue.ms": "ms",
    **{f"unet.{layer}.{d}_ms": "ms" for layer in UNET_LAYERS
       for d in ("fwd", "bwd")},
    "unet.coverage": "ratio",
    "unet.tape_peak_mb": "MB",
    "data.sample_at.us": "us",
    "data.generate_background.us": "us",
    "data.sample_placement.us": "us",
    "data.composite_sample.us": "us",
    "data.placement.accept_ratio": "ratio",
    "augment.periodic_shift.us": "us",
    "rng.stream.calls": "count",
    "rng.stream.us": "us",
    "harness.generate_s": "s",
    "harness.train_s": "s",
    "harness.checkpoint_s": "s",
    "harness.evaluate_s": "s",
    "harness.evaluate_bands.samples_per_s": "1/s",
    "harness.pool_speedup": "ratio",
    "saliency.saliency_map.ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def _is_1x1(spec) -> bool:
    return spec.kernel == (1, 1) and spec.stride == 1 and spec.pad == 0


class ConvLayers:
    """Names conv calls after U-Net layers by the identity of the weights.

    Each registered weight array is kept alive so its id is never reused.
    """

    def __init__(self):
        self._by_id: dict[int, tuple[str, object]] = {}

    def register(self, model) -> None:
        for layer in model.layers():
            self._by_id[id(layer.weight)] = (layer.name, layer.weight)

    def name(self, weights) -> str | None:
        entry = self._by_id.get(id(weights))
        return entry[0] if entry is not None and entry[1] is weights else None

    def forward_attrs(self, args, kwargs, result):
        if result is None:
            return None
        x, weights = args[0], args[1]
        y, tape = result
        oc, ic, kh, kw = weights.shape
        k, m = ic * kh * kw, x.shape[0] * y.shape[2] * y.shape[3]
        return {"layer": self.name(weights), "flop": 2 * oc * k * m,
                "im2col_bytes": 0 if _is_1x1(tape.spec)
                else k * m * x.itemsize}

    def backward_attrs(self, args, kwargs, result):
        tape = args[0]
        spec = tape.spec
        n, ic, _, _ = tape.x_shape
        oh, ow = tape.out_hw
        hp, wp = tape.padded.shape[2], tape.padded.shape[3]
        oc, (kh, kw) = spec.out_channels, spec.kernel
        k, m = ic * kh * kw, n * oh * ow
        if _is_1x1(spec):
            flop, cols = 2 * oc * k * m + 2 * ic * oc * m, 0
        else:
            # grad-W GEMM over the forward's im2col matrix, grad-input GEMM
            # over the im2col of the zero-extended upstream
            flop = 2 * oc * m * k + 2 * ic * (oc * kh * kw) * (n * hp * wp)
            cols = k * m + oc * kh * kw * n * hp * wp
        return {"layer": self.name(tape.weights), "flop": flop,
                "im2col_bytes": cols * tape.padded.itemsize}


def _eval_attrs(args, kwargs, result):
    return {"samples": len(args[1]) * args[2]}


def install(tracer: Tracer, convs: ConvLayers) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    tracer.wrap(tc, "conv2d_forward", "tensor_core.conv2d_forward",
                convs.forward_attrs)
    tracer.wrap(tc, "conv2d_backward", "tensor_core.conv2d_backward",
                convs.backward_attrs)
    for metric, names in TC_OPS.items():
        if not metric.startswith("conv2d"):
            for attr in names:
                tracer.wrap(tc, attr, f"tensor_core.{attr}")
    for attr in ("forward", "backward", "train_step", "save_checkpoint",
                 "load_checkpoint"):
        tracer.wrap(unet, attr, f"unet.{attr}")
    # models built inside traced jobs (and by load_checkpoint) get layer names
    tracer.wrap(unet, "build_unet", "unet.build_unet",
                lambda args, kwargs, model:
                    convs.register(model) if model else None)
    for attr in ("sample_at", "sample_placement", "generate_background",
                 "composite_sample"):
        tracer.wrap(data, attr, f"data.{attr}")
    tracer.wrap_iter(data, "iter_samples", "data.iter_samples")
    tracer.count(data, "admits", "data.admits")
    tracer.wrap(augment, "periodic_shift", "augment.periodic_shift")
    for module in (data, harness, saliency, unet):
        tracer.wrap(module, "stream", "rng.stream")
    # the job function is the only per-job boundary; single-worker runs call
    # it through the module global
    tracer.wrap(harness, "_train_job", "harness.job")
    tracer.wrap(harness, "evaluate_bands", "harness.evaluate_bands",
                _eval_attrs)
    tracer.wrap(saliency, "saliency_map", "saliency.saliency_map")


def per_layer_metrics(spans: list[Span], counts, n_ops: int,
                      extra: dict[str, float]) -> dict[str, float]:
    """Every metric in UNITS; a layer the workload never calls reads 0.

    Times named `.ms` (and `rng.stream.calls`, the conv counts) are per op;
    `.us` and `saliency_map.ms` are per call; `harness.*_s` are per job.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def dur(s):
        return s.end - s.start

    def per_op_ms(ns):
        return ns / 1e6 / n_ops

    def mean_call(name, scale):
        calls = by_name[name]
        return sum(map(dur, calls)) / scale / len(calls) if calls else 0.0

    m: dict[str, float] = {}
    for metric, names in TC_OPS.items():
        ns = sum(own[s.sid] for n in names for s in by_name[f"tensor_core.{n}"])
        m[f"tensor_core.{metric}.ms"] = per_op_ms(ns)

    convs = by_name["tensor_core.conv2d_forward"] + \
        by_name["tensor_core.conv2d_backward"]
    flop = sum(s.attrs["flop"] for s in convs if s.attrs)
    m["tensor_core.conv.gflop"] = flop / 1e9 / n_ops
    m["tensor_core.conv.im2col_mb"] = \
        sum(s.attrs["im2col_bytes"] for s in convs if s.attrs) / 1e6 / n_ops
    conv_ns = sum(map(dur, convs))
    m["tensor_core.conv.gflops"] = flop / conv_ns if conv_ns else 0.0

    glue = 0
    for attr in ("forward", "backward", "train_step"):
        calls = by_name[f"unet.{attr}"]
        m[f"unet.{attr}.ms"] = per_op_ms(sum(map(dur, calls)))
        glue += sum(own[s.sid] for s in calls)
    m["unet.glue.ms"] = per_op_ms(glue)
    for layer in UNET_LAYERS:
        for d, name in (("fwd", "conv2d_forward"), ("bwd", "conv2d_backward")):
            ns = sum(dur(s) for s in by_name[f"tensor_core.{name}"]
                     if s.attrs and s.attrs["layer"] == layer)
            m[f"unet.{layer}.{d}_ms"] = per_op_ms(ns)

    step_ns = sum(map(dur, by_name["unet.train_step"]))
    chain = ancestors(spans)
    leaf_ns = sum(own[s.sid] for s in spans
                  if s.name.startswith("tensor_core.")
                  and "unet.train_step" in chain(s))
    m["unet.coverage"] = leaf_ns / step_ns if step_ns else 0.0
    m["unet.tape_peak_mb"] = extra.get("unet.tape_peak_mb", 0.0)

    for attr in ("sample_at", "generate_background", "sample_placement",
                 "composite_sample"):
        m[f"data.{attr}.us"] = mean_call(f"data.{attr}", 1e3)
    admits = counts.get("data.admits", 0)
    m["data.placement.accept_ratio"] = \
        len(by_name["data.sample_placement"]) / admits if admits else 0.0
    m["augment.periodic_shift.us"] = mean_call("augment.periodic_shift", 1e3)
    m["rng.stream.calls"] = len(by_name["rng.stream"]) / n_ops
    m["rng.stream.us"] = mean_call("rng.stream", 1e3)

    phases = defaultdict(float)
    jobs = by_name["harness.job"]
    for job in jobs:
        parts = {name: sum(dur(s) for s in by_name[name] if s.parent == job.sid)
                 for name in ("data.iter_samples", "unet.save_checkpoint",
                              "harness.evaluate_bands")}
        phases["generate"] += parts["data.iter_samples"]
        phases["checkpoint"] += parts["unet.save_checkpoint"]
        phases["evaluate"] += parts["harness.evaluate_bands"]
        phases["train"] += dur(job) - sum(parts.values())
    for phase in ("generate", "train", "checkpoint", "evaluate"):
        m[f"harness.{phase}_s"] = \
            phases[phase] / 1e9 / len(jobs) if jobs else 0.0
    evals = by_name["harness.evaluate_bands"]
    eval_ns = sum(map(dur, evals))
    m["harness.evaluate_bands.samples_per_s"] = \
        sum(s.attrs["samples"] for s in evals) / eval_ns * 1e9 \
        if eval_ns else 0.0
    m["harness.pool_speedup"] = extra.get("harness.pool_speedup", 0.0)
    m["saliency.saliency_map.ms"] = mean_call("saliency.saliency_map", 1e6)
    m["trace.overhead_ratio"] = extra["trace.overhead_ratio"]
    assert m.keys() == UNITS.keys()
    return m


def conv_table(spans: list[Span], n_ops: int) -> list[tuple]:
    """Per U-Net layer and op: fwd ms, bwd ms, GFLOP and im2col MB (the
    last two computed from shapes)."""
    rows = {layer: [0.0, 0.0, 0.0, 0.0] for layer in UNET_LAYERS}
    for s in spans:
        if s.name in ("tensor_core.conv2d_forward",
                      "tensor_core.conv2d_backward") and s.attrs \
                and s.attrs["layer"] in rows:
            row = rows[s.attrs["layer"]]
            row[0 if s.name.endswith("forward") else 1] += \
                (s.end - s.start) / 1e6 / n_ops
            row[2] += s.attrs["flop"] / 1e9 / n_ops
            row[3] += s.attrs["im2col_bytes"] / 1e6 / n_ops
    return [(layer, *vals) for layer, vals in rows.items()]

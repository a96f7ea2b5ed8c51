"""Small U-Net for the composite digit-segmentation task.

Encoder levels are [conv3x3, relu, conv3x3, relu] followed by 2x2 max pooling
(except at the deepest level); the decoder upsamples 2x, concatenates the
skip connection, and applies two more conv3x3+relu pairs; a 1x1 conv head
emits per-pixel class logits.  The padding mode of every 3x3 conv is a config
knob, which is the whole point of this laboratory.

Every batch of n >= 2 images runs as two shards: the first n // 2 images and
the rest.  The split depends on n alone, never on the machine, and an
image's bits do not depend on its batch position (see tensor_core), so a
shard's images come out as they would in the whole batch.  The second shard
runs on one lazily started worker thread while the calling thread runs the
first, each with one OpenBLAS thread (numpy releases the GIL in its kernels,
so the two shards use two cores).  Without numpy's bundled OpenBLAS hook,
inside a shard, or in a process that owns a single core (the experiment
pool's workers), both shards run one after the other on the calling thread,
with the same bits.  `train_step` sums the two shards' parameter gradients;
the tape-free `forward` and `saliency.saliency_maps` concatenate the shards'
outputs.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import tensor_core as tc
from .rng import stream

__all__ = [
    "UNetConfig", "ConvLayer", "Model",
    "build_unet", "param_count", "forward", "backward", "train_step",
    "run_shards", "disable_shard_thread", "save_checkpoint",
    "load_checkpoint",
]

_DTYPES = {"f32": np.float32, "f64": np.float64}

CHECKPOINT_FORMAT = "centerbias-unet"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class UNetConfig:
    depth: int = 3
    base_channels: int = 8
    in_channels: int = 1
    num_classes: int = 11
    padding: tc.PaddingMode = tc.ZERO
    precision: str = "f32"
    seed: int = 0

    def __post_init__(self):
        for name in ("depth", "base_channels", "in_channels", "num_classes",
                     "seed"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"model.{name} must be an integer, "
                                 f"got {value!r}")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.precision not in _DTYPES:
            raise ValueError(f"precision must be one of {tuple(_DTYPES)}")

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(_DTYPES[self.precision])

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "base_channels": self.base_channels,
            "in_channels": self.in_channels,
            "num_classes": self.num_classes,
            "padding": tc.padding_to_dict(self.padding),
            "precision": self.precision,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "UNetConfig":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown model config keys {sorted(unknown)}")
        d = dict(d)
        d["padding"] = tc.padding_from_dict(d["padding"])
        return cls(**d)


@dataclass
class ConvLayer:
    name: str
    spec: tc.ConvSpec
    weight: np.ndarray
    bias: np.ndarray


@dataclass
class Model:
    config: UNetConfig
    encoder: list[list[ConvLayer]]   # depth levels, two convs each
    decoder: list[list[ConvLayer]]   # depth-1 levels, shallowest first
    head: ConvLayer
    flat_params: np.ndarray          # backing store; layers hold views
    step: int = 0

    def layers(self) -> list[ConvLayer]:
        out = [l for lvl in self.encoder for l in lvl]
        out += [l for lvl in self.decoder for l in lvl]
        out.append(self.head)
        return out

    def parameters(self) -> list[np.ndarray]:
        """Weight and bias arrays in declaration order (views of flat_params)."""
        params = []
        for layer in self.layers():
            params.append(layer.weight)
            params.append(layer.bias)
        return params


def _layer_plan(config: UNetConfig) -> list[tuple[str, int, int, int]]:
    """(name, in_channels, out_channels, kernel size) in declaration order."""
    base, depth = config.base_channels, config.depth
    plan = []
    for lvl in range(depth):
        cin = config.in_channels if lvl == 0 else base * 2 ** (lvl - 1)
        cout = base * 2 ** lvl
        plan.append((f"enc{lvl}a", cin, cout, 3))
        plan.append((f"enc{lvl}b", cout, cout, 3))
    for lvl in range(depth - 2, -1, -1):
        cout = base * 2 ** lvl
        plan.append((f"dec{lvl}a", 3 * cout, cout, 3))
        plan.append((f"dec{lvl}b", cout, cout, 3))
    plan.append(("head", base, config.num_classes, 1))
    return plan


def param_count(config: UNetConfig) -> int:
    """Closed-form parameter count for a config."""
    total = 0
    for _, cin, cout, k in _layer_plan(config):
        total += cout * cin * k * k + cout
    return total


def build_unet(config: UNetConfig) -> Model:
    """He-uniform initialized model; bit-identical for equal seeds."""
    rng = stream(config.seed)
    dtype = config.dtype
    flat = np.empty(param_count(config), dtype=dtype)
    layers = {}
    cursor = 0

    def carve(shape):
        nonlocal cursor
        size = int(np.prod(shape))
        view = flat[cursor:cursor + size].reshape(shape)
        cursor += size
        return view

    for name, cin, cout, k in _layer_plan(config):
        spec = tc.ConvSpec(cin, cout, k, config.padding)
        fan_in = cin * k * k
        bound = np.sqrt(6.0 / fan_in)
        weight = carve((cout, cin, k, k))
        weight[...] = rng.uniform(-bound, bound, weight.shape)
        bias = carve((cout,))
        bias[...] = 0
        layers[name] = ConvLayer(name, spec, weight, bias)
    encoder = [[layers[f"enc{l}a"], layers[f"enc{l}b"]] for l in range(config.depth)]
    decoder = [[layers[f"dec{l}a"], layers[f"dec{l}b"]] for l in range(config.depth - 1)]
    return Model(config, encoder, decoder, layers["head"], flat)


# --------------------------------------------------------------------------
# two-shard runner

_blas_setter = None       # openblas_set_num_threads_local, False if missing
_shard_thread = True      # False in processes that own a single core
_shard_pool: ThreadPoolExecutor | None = None
_shard_lock = threading.Lock()  # held while two shards run; shards never nest


def _blas_threads_hook():
    """numpy's bundled OpenBLAS thread-count setter, looked up once."""
    global _blas_setter
    if _blas_setter is None:
        libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                            "numpy.libs", "libscipy_openblas*.so")
        _blas_setter = False
        for path in sorted(glob.glob(libs)):
            try:
                setter = ctypes.CDLL(path).openblas_set_num_threads_local
            except (OSError, AttributeError):
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
            _blas_setter = setter
            break
    return _blas_setter


def _forget_shard_thread() -> None:
    # a forked child has no worker thread and must not wait for one
    global _shard_pool, _shard_lock
    _shard_pool, _shard_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_shard_thread)


def disable_shard_thread() -> None:
    """Run both shards of every later batch on the calling thread.

    For processes that already own one core each, such as the experiment
    pool's workers; results do not change.
    """
    global _shard_thread
    _shard_thread = False
    _keep_freed_heap()


# glibc's malloc gives the free top of a heap back to the system once it
# passes a trim threshold that follows the largest block freed so far (a few
# MB here).  Every train step frees its tapes (tens of MB per shard), so each
# step page-faulted them back in: about 10k faults and a sixth of the CPU
# time of a default two-thread step, and most of its spread from one run to
# the next; a fifth of the time of a pool worker's step.  run_shards (when
# it starts its thread) and disable_shard_thread pin both thresholds at the
# maxima glibc's own rule would reach on 64-bit (mmap 32 MiB, trim twice
# that), so freed tapes stay mapped for the next step.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_heap() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], \
        ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


# numpy's bundled OpenBLAS 0.3.31 applies the "local" setting to the whole
# process, so run_shards sets it before the worker starts and restores it
# only after the worker is done; the worker sets its own too, for builds
# where the setting is per thread.
def _one_blas_thread(setter, shard, lo: int, hi: int):
    prev = setter(1)
    try:
        return shard(lo, hi)
    finally:
        setter(prev)


def run_shards(shard, n: int) -> list:
    """[shard(0, n // 2), shard(n // 2, n)] for n >= 2, else [shard(0, n)].

    `shard(lo, hi)` handles images lo..hi-1.  The second shard runs on the
    worker thread while this thread runs the first, each with one BLAS
    thread; both run here, one after the other, when there is no BLAS hook,
    in a single-core process, or when called from inside a shard.
    """
    global _shard_pool
    if n < 2:
        return [shard(0, n)]
    h = n // 2
    setter = _blas_threads_hook() if _shard_thread else None
    if not setter or not _shard_lock.acquire(blocking=False):
        return [shard(0, h), shard(h, n)]
    try:
        if _shard_pool is None:
            _keep_freed_heap()
            _shard_pool = ThreadPoolExecutor(1,
                                             thread_name_prefix="unet-shard")
        prev = setter(1)
        try:
            second = _shard_pool.submit(_one_blas_thread, setter, shard, h, n)
            try:
                first = shard(0, h)
            finally:
                wait([second])
            return [first, second.result()]
        finally:
            setter(prev)
    finally:
        _shard_lock.release()


@dataclass
class _Tape:
    conv_tapes: dict[str, tc.ConvTape] = field(default_factory=dict)
    activations: dict[str, np.ndarray] = field(default_factory=dict)  # frames
    pools: list[tc.PoolRecord] = field(default_factory=list)
    concat_split: list[int] = field(default_factory=list)  # upsampled channels
    input_shape: tuple = ()


def _conv_relu(layer: ConvLayer, x, tape, rng):
    y, ct = tc.conv2d_forward(x, layer.weight, layer.bias, layer.spec, rng)
    tc.relu(y, out=y)
    if tape is not None:
        tape.conv_tapes[layer.name] = ct
        tape.activations[layer.name] = y
    return y


def forward(model: Model, batch: np.ndarray,
            rng: np.random.Generator | None = None, keep_tape: bool = True
            ) -> tuple[np.ndarray, _Tape | None]:
    """Run the network on an NCHW batch; returns (NCHW logits, tape).

    Inside, every activation is a padded frame (see tensor_core).  With
    `keep_tape=False` the tape is None, each activation is dropped once its
    consumer has run (the skips once the decoder has used them), and the
    batch runs as two shards (see the module docstring); the logits are
    bit-identical either way.  `rng` is only consumed by random-fill
    padding, so runs are deterministic given (weights, input) plus the seed
    when that mode is active.  A random-padding batch runs whole, so its
    draws land where a taped forward puts them.
    """
    cfg = model.config
    div = 2 ** (cfg.depth - 1)
    if batch.shape[2] % div or batch.shape[3] % div:
        raise ValueError(
            f"input dims {batch.shape[2:]} must be divisible by {div}")
    if keep_tape or cfg.padding.kind == "random":
        return _forward(model, batch, rng, keep_tape)
    shards = run_shards(
        lambda lo, hi: _forward(model, batch[lo:hi], rng, False)[0],
        len(batch))
    return (shards[0] if len(shards) == 1 else np.concatenate(shards)), None


def _forward(model: Model, batch: np.ndarray, rng, keep_tape: bool
             ) -> tuple[np.ndarray, _Tape | None]:
    cfg = model.config
    x = tc.to_frame(batch, cfg.dtype)
    tape = _Tape(input_shape=batch.shape) if keep_tape else None
    skips = []
    for lvl in range(cfg.depth):
        a, b = model.encoder[lvl]
        x = _conv_relu(a, x, tape, rng)
        x = _conv_relu(b, x, tape, rng)
        if lvl < cfg.depth - 1:
            skips.append(x)
            rec = tc.maxpool2x2_forward(x)
            if tape is not None:
                tape.pools.append(rec)
            x = rec.output
    for lvl in range(cfg.depth - 2, -1, -1):
        skip = skips.pop()
        split, n, hp, wp = x.shape[0], *skip.shape[1:]
        cat = tc.new_frame(split + skip.shape[0], n, hp - 2, wp - 2, cfg.dtype)
        tc.upsample_nearest2x(x, out=cat[:split])
        cat[split:] = skip
        del skip
        if tape is not None:
            tape.concat_split.append(split)
        a, b = model.decoder[lvl]
        x = _conv_relu(a, cat, tape, rng)
        del cat
        x = _conv_relu(b, x, tape, rng)
    head = model.head
    logits, ct = tc.conv2d_forward(x, head.weight, head.bias, head.spec, rng)
    if tape is not None:
        tape.conv_tapes[head.name] = ct
    return tc.from_frame(logits), tape


def backward(model: Model, tape: _Tape, grad_logits: np.ndarray, *,
             need_input: bool = True, need_params: bool = True
             ) -> tuple[list[np.ndarray] | None, np.ndarray | None]:
    """VJP through the whole net, from NCHW logit gradients.

    Returns (param_grads, NCHW grad_input); param_grads aligns with
    model.parameters().  Each side is None, and not computed, unless asked
    for by `need_params` / `need_input`.
    """
    cfg = model.config
    grads: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def back_conv_relu(layer, g, need_input=True):
        g = tc.relu_backward(tape.activations[layer.name], g)
        gx, gw, gb = tc.conv2d_backward(tape.conv_tapes[layer.name], g,
                                        need_input=need_input,
                                        need_params=need_params)
        grads[layer.name] = (gw, gb)
        return gx

    g, gw, gb = tc.conv2d_backward(tape.conv_tapes[model.head.name],
                                   tc.to_frame(grad_logits),
                                   need_params=need_params)
    grads[model.head.name] = (gw, gb)

    skip_grads: dict[int, np.ndarray] = {}
    for i, lvl in enumerate(range(cfg.depth - 1)):
        a, b = model.decoder[lvl]
        g = back_conv_relu(b, g)
        g = back_conv_relu(a, g)
        split = tape.concat_split[len(tape.concat_split) - 1 - i]
        skip_grads[lvl] = g[split:]
        g = tc.upsample_nearest2x_backward(g[:split])
    for lvl in range(cfg.depth - 1, -1, -1):
        if lvl < cfg.depth - 1:
            g = tc.maxpool2x2_backward(tape.pools[lvl], g)
            g += skip_grads.pop(lvl)
        a, b = model.encoder[lvl]
        g = back_conv_relu(b, g)
        # only the first conv's input gradient is the network's
        g = back_conv_relu(a, g, need_input or lvl > 0)

    param_grads = None
    if need_params:
        param_grads = [grad for layer in model.layers()
                       for grad in grads[layer.name]]
    return param_grads, None if g is None else tc.from_frame(g)


def train_step(model: Model, batch: np.ndarray, targets: np.ndarray,
               adam: tc.AdamState,
               rng: np.random.Generator | None = None) -> float:
    """One forward/backward/Adam cycle; returns the pre-update loss.

    `adam` holds one moment pair for the flat parameter buffer:
    AdamState.for_params([model.flat_params]).  The batch runs as two shards
    (see the module docstring), each scaling its loss and gradient by the
    whole batch's pixel count; the step adds shard 1's gradient to shard 0's
    and the two losses.  With random padding, each shard's stream is seeded
    from `rng`, in shard order, before either shard runs.
    """
    n = len(batch)
    shard_rngs = [rng, rng]
    if rng is not None and n >= 2:
        shard_rngs = [stream(int(s)) for s in rng.integers(2 ** 63, size=2)]

    def shard(lo, hi):
        logits, tape = forward(model, batch[lo:hi], shard_rngs[lo > 0])
        loss, grad_logits = tc.softmax_cross_entropy_pixelwise(
            logits, targets[lo:hi], npix=targets.size)
        param_grads, _ = backward(model, tape, grad_logits, need_input=False)
        return loss, np.concatenate([g.reshape(-1) for g in param_grads])

    (loss, flat_grads), *rest = run_shards(shard, n)
    for shard_loss, grads in rest:
        loss += shard_loss
        flat_grads += grads
    tc.adam_step([model.flat_params], [flat_grads], adam)
    model.step += 1
    return loss


def save_checkpoint(model: Model, path) -> None:
    """One JSON header line, then all parameters as little-endian floats."""
    params = model.parameters()
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": model.config.to_dict(),
        "precision": model.config.precision,
        "step": model.step,
        "param_shapes": [list(p.shape) for p in params],
    }
    le = "<f4" if model.config.precision == "f32" else "<f8"
    with open(path, "wb") as f:
        f.write(json.dumps(header).encode() + b"\n")
        for p in params:
            f.write(np.ascontiguousarray(p, dtype=le).tobytes())


def load_checkpoint(path) -> Model:
    """Rebuild a model bit-exactly from save_checkpoint output."""
    with open(path, "rb") as f:
        header_line = f.readline()
        payload = f.read()
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError as e:
        raise ValueError(f"corrupt checkpoint header: {e}") from e
    if header.get("format") != CHECKPOINT_FORMAT:
        raise ValueError("not a centerbias U-Net checkpoint")
    config = UNetConfig.from_dict(header["config"])
    if header["precision"] != config.precision:
        raise ValueError("header precision disagrees with config")
    model = build_unet(config)
    model.step = int(header.get("step", 0))
    params = model.parameters()
    shapes = [tuple(s) for s in header["param_shapes"]]
    if shapes != [p.shape for p in params]:
        raise ValueError("checkpoint shapes do not match its config")
    le = np.dtype("<f4" if config.precision == "f32" else "<f8")
    expected = sum(int(np.prod(s)) for s in shapes) * le.itemsize
    if len(payload) != expected:
        raise ValueError(
            f"payload holds {len(payload)} bytes, header declares {expected}")
    offset = 0
    for p in params:
        nbytes = p.size * le.itemsize
        chunk = np.frombuffer(payload, dtype=le, count=p.size,
                              offset=offset).reshape(p.shape)
        p[...] = chunk.astype(config.dtype)
        offset += nbytes
    return model

"""Small U-Net for the composite digit-segmentation task.

Encoder levels are [conv3x3, relu, conv3x3, relu] followed by 2x2 max pooling
(except at the deepest level); the decoder upsamples 2x, concatenates the
skip connection, and applies two more conv3x3+relu pairs; a 1x1 conv head
emits per-pixel class logits.  The padding mode of every 3x3 conv is a config
knob, which is the whole point of this laboratory.

Every batch runs through `run_shards`, the one rule for splitting it: n >= 2
images run as two shards, the first n // 2 images and the rest.  The split
depends on n alone, never on the machine, and an image's bits do not depend
on its batch position (see tensor_core), so a shard's images come out as
they would in the whole batch.  The second shard runs on one lazily started
worker thread while the calling thread runs the first, each with one
OpenBLAS thread (numpy releases the GIL in its kernels, so the two shards
use two cores).  Without numpy's bundled OpenBLAS hook, inside a shard, or
in a process that owns a single core (the experiment pool's workers), both
shards run one after the other on the calling thread, with the same bits.
`train_step` sums the two shards' parameter gradients; `sample_losses` and
`saliency.saliency_maps` concatenate the shards' per-image results.  The
logits stay in the head's output frame: a shard's loss, and in training its
gradient, are computed there (see tensor_core).
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from . import tensor_core as tc
from .config import from_dict, to_dict
from .rng import MODEL_INIT, stream

__all__ = [
    "UNetConfig", "ConvLayer", "Model",
    "build_unet", "param_count", "forward", "backward", "train_step",
    "sample_losses", "run_shards", "disable_shard_thread", "save_checkpoint",
    "load_checkpoint",
]

_DTYPES = {"f32": np.float32, "f64": np.float64}

CHECKPOINT_FORMAT = "centerbias-unet"
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class UNetConfig:
    depth: int = 3
    base_channels: int = 8
    padding: tc.PaddingMode = tc.ZERO
    precision: str = "f32"
    seed: int = 0
    # constants, not fields: the samples' one gray channel, and background
    # plus ten digit classes (see data)
    in_channels = 1
    num_classes = 11

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.base_channels < 1:
            raise ValueError("base_channels must be >= 1")
        if self.precision not in _DTYPES:
            raise ValueError(f"precision must be one of {tuple(_DTYPES)}")
        if self.seed < 0:  # seed-tree names are non-negative
            raise ValueError("seed must be >= 0")

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(_DTYPES[self.precision])


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
    flat_params: np.ndarray          # backing store in parameters() order;
                                     # layers hold views
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
    """He-uniform initialized model; bit-identical for equal seeds.

    The init draws go layer by layer in `_layer_plan` order.  `flat_params`
    holds the parameters in `Model.parameters()` order, the order of
    `backward`'s gradients and of a checkpoint's payload.
    """
    rng = stream(config.seed, MODEL_INIT)
    dtype = config.dtype
    layers = {}
    for name, cin, cout, k in _layer_plan(config):
        spec = tc.ConvSpec(cin, cout, k, config.padding)
        bound = np.sqrt(6.0 / (cin * k * k))
        weight = rng.uniform(-bound, bound, (cout, cin, k, k)).astype(dtype)
        layers[name] = ConvLayer(name, spec, weight, np.zeros(cout, dtype))
    encoder = [[layers[f"enc{l}a"], layers[f"enc{l}b"]] for l in range(config.depth)]
    decoder = [[layers[f"dec{l}a"], layers[f"dec{l}b"]] for l in range(config.depth - 1)]
    model = Model(config, encoder, decoder, layers["head"],
                  np.empty(param_count(config), dtype=dtype))
    cursor = 0
    for layer in model.layers():  # the layers become views of flat_params
        for attr in ("weight", "bias"):
            p = getattr(layer, attr)
            view = model.flat_params[cursor:cursor + p.size].reshape(p.shape)
            view[...] = p
            setattr(layer, attr, view)
            cursor += p.size
    return model


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
def _one_blas_thread(setter, shard, *args):
    prev = setter(1)
    try:
        return shard(*args)
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
            second = _shard_pool.submit(_one_blas_thread, setter, shard,
                                        h, n)
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
    grad_logits: np.ndarray | None = None  # set by the caller for backward


def _decoder_input(low, skip):
    """A decoder's input frame, with a zero ring: frame `low` upsampled 2x,
    then the channels of frame `skip`."""
    split, n, hp, wp = low.shape[0], *skip.shape[1:]
    cat = tc.new_frame(split + skip.shape[0], n, hp - 2, wp - 2, skip.dtype)
    tc.upsample_nearest2x(low, out=cat[:split])
    cat[split:] = skip
    return cat


def _conv_relu(layer: ConvLayer, x, tape):
    y, ct = tc.conv2d_forward(x, layer.weight, layer.bias, layer.spec)
    tc.relu(y, out=y)
    if tape is not None:
        tape.conv_tapes[layer.name] = ct
        tape.activations[layer.name] = y
    return y


def forward(model: Model, batch: np.ndarray, keep_tape: bool = True
            ) -> tuple[np.ndarray, _Tape | None]:
    """Run the network on an NCHW batch; returns (logits frame, tape).

    Every activation is a padded frame (see tensor_core), the logits too:
    a (num_classes, n, h + 2, w + 2) frame.  With `keep_tape=False` the
    tape is None and each activation is dropped once its consumer has run
    (the skips once the decoder has used them); the logits are bit-identical
    either way.  The tape keeps no decoder input frame: backward rebuilds
    it from two activations on the tape.  The logits depend on the weights
    and the input alone.
    """
    cfg = model.config
    div = 2 ** (cfg.depth - 1)
    if batch.shape[2] % div or batch.shape[3] % div:
        raise ValueError(
            f"input dims {batch.shape[2:]} must be divisible by {div}")
    x = tc.to_frame(batch, cfg.dtype)
    tape = _Tape() if keep_tape else None
    skips = []
    for lvl in range(cfg.depth):
        a, b = model.encoder[lvl]
        x = _conv_relu(a, x, tape)
        x = _conv_relu(b, x, tape)
        if lvl < cfg.depth - 1:
            skips.append(x)
            rec = tc.maxpool2x2_forward(x)
            if tape is not None:
                tape.pools.append(rec)
            x = rec.output
    for lvl in range(cfg.depth - 2, -1, -1):
        cat = _decoder_input(x, skips.pop())
        a, b = model.decoder[lvl]
        x = _conv_relu(a, cat, tape)
        if tape is not None:
            tape.conv_tapes[a.name].padded = None
        del cat
        x = _conv_relu(b, x, tape)
    head = model.head
    logits, ct = tc.conv2d_forward(x, head.weight, head.bias, head.spec)
    if tape is not None:
        tape.conv_tapes[head.name] = ct
    return logits, tape


def backward(model: Model, tape: _Tape, *, need_input: bool = True,
             need_params: bool = True
             ) -> tuple[list[np.ndarray] | None, np.ndarray | None]:
    """VJP through the whole net, from `tape.grad_logits`: the logits'
    gradient in a frame shaped like forward's logits (the frame the
    training loss writes), which the caller sets after forward.

    Returns (param_grads, NCHW grad_input); param_grads aligns with
    model.parameters().  Each side is None, and not computed, unless asked
    for by `need_params` / `need_input`.  A tape serves one backward: it
    drops each record as soon as that layer's backward has used it, and the
    `grad_logits` frame (all of it overwritten but its interior) after the
    head's, so each is freed then unless the caller still holds it.  A
    decoder's input frame is rebuilt, bit for bit, its ring refilled by
    `tc.pad`, and then takes its gradient.
    """
    cfg = model.config
    grads: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def back_conv_relu(layer, g, need_input=True, out=None):
        g = tc.relu_backward(tape.activations.pop(layer.name), g)
        gx, gw, gb = tc.conv2d_backward(tape.conv_tapes.pop(layer.name), g,
                                        need_input=need_input,
                                        need_params=need_params, out=out)
        grads[layer.name] = (gw, gb)
        return gx

    g, gw, gb = tc.conv2d_backward(tape.conv_tapes.pop(model.head.name),
                                   tape.grad_logits, need_params=need_params)
    tape.grad_logits = None
    grads[model.head.name] = (gw, gb)

    skip_grads: dict[int, np.ndarray] = {}
    lows = model.decoder[1:] + model.encoder[-1:]  # what each level upsamples
    for lvl in range(cfg.depth - 1):
        a, b = model.decoder[lvl]
        g = back_conv_relu(b, g)
        low, skip = lows[lvl][1], model.encoder[lvl][1]
        cat = tc.pad(_decoder_input(tape.activations[low.name],
                                    tape.activations[skip.name]), a.spec.mode)
        tape.conv_tapes[a.name].padded = cat
        g = back_conv_relu(a, g, out=cat)
        del cat
        split = low.spec.out_channels  # the upsampled channels come first
        g, skip_grads[lvl] = (tc.upsample_nearest2x_backward(g[:split]),
                              g[split:].copy())  # g's frame is freed here
    for lvl in range(cfg.depth - 1, -1, -1):
        if lvl < cfg.depth - 1:
            g = tc.maxpool2x2_backward(tape.pools.pop(), g)
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
               adam: tc.AdamState) -> float:
    """One forward/backward/Adam cycle; returns the pre-update loss.

    `adam` holds one moment pair for the flat parameter buffer:
    AdamState.for_params([model.flat_params]).  The batch runs through
    `run_shards` (see the module docstring), each shard scaling
    its loss and gradient by the whole batch's pixel count; the step adds
    shard 1's gradient to shard 0's and the two losses.
    """
    def shard(lo, hi):
        logits, tape = forward(model, batch[lo:hi])
        loss, tape.grad_logits = tc.softmax_cross_entropy_pixelwise(
            logits, targets[lo:hi], npix=targets.size)
        del logits  # backward frees the frame after the head's backward
        param_grads, _ = backward(model, tape, need_input=False)
        return loss, np.concatenate([g.reshape(-1) for g in param_grads])

    (loss, flat_grads), *rest = run_shards(shard, len(batch))
    for shard_loss, grads in rest:
        loss += shard_loss
        flat_grads += grads
    tc.adam_step([model.flat_params], [flat_grads], adam)
    model.step += 1
    return loss


def sample_losses(model: Model, batch: np.ndarray,
                  targets: np.ndarray) -> np.ndarray:
    """Each image's mean pixel cross-entropy, from a tape-free forward.

    The batch runs through `run_shards` (see the module docstring), each
    shard reduced to its images' losses inside the shard, so no gradient,
    NCHW logits or concatenated logits are made.  An image's loss does not
    depend on its batch position or the shard split.
    """
    def shard(lo, hi):
        logits, _ = forward(model, batch[lo:hi], keep_tape=False)
        losses, _ = tc.softmax_cross_entropy_pixelwise(
            logits, targets[lo:hi], need_grad=False)
        return losses

    return np.concatenate(run_shards(shard, len(batch)))


@dataclass(frozen=True)
class _CheckpointHeader:
    """A checkpoint's header line, written and read by the config codec."""

    format: str
    version: int
    config: UNetConfig
    precision: str
    step: int
    param_shapes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.step < 0:
            raise ValueError("step must be >= 0")


def save_checkpoint(model: Model, path) -> None:
    """One JSON header line, then `flat_params` (every parameter, in
    declaration order) as little-endian floats."""
    header = _CheckpointHeader(
        CHECKPOINT_FORMAT, CHECKPOINT_VERSION, model.config,
        model.config.precision, model.step,
        tuple(p.shape for p in model.parameters()))
    le = "<f4" if model.config.precision == "f32" else "<f8"
    with open(path, "wb") as f:
        f.write(json.dumps(to_dict(header)).encode() + b"\n")
        f.write(model.flat_params.astype(le).tobytes())


def load_checkpoint(path) -> Model:
    """Rebuild a model bit-exactly from save_checkpoint output.

    The header is read by the config rule (see config): an unknown or
    missing key or a mistyped value raises a ValueError naming the key.
    """
    with open(path, "rb") as f:
        header_line = f.readline()
        payload = f.read()
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError as e:
        raise ValueError(f"corrupt checkpoint header: {e}") from e
    if not isinstance(header, dict):
        raise ValueError("checkpoint header must be a JSON object")
    if header.get("format") != CHECKPOINT_FORMAT:
        raise ValueError("not a centerbias U-Net checkpoint")
    if header.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint version {header.get('version')!r}: "
                         f"this build reads version {CHECKPOINT_VERSION}")
    header = from_dict(_CheckpointHeader, header)
    config = header.config
    if header.precision != config.precision:
        raise ValueError("header precision disagrees with config")
    model = build_unet(config)
    model.step = header.step
    if header.param_shapes != tuple(p.shape for p in model.parameters()):
        raise ValueError("param_shapes do not match config")
    le = np.dtype("<f4" if config.precision == "f32" else "<f8")
    expected = model.flat_params.size * le.itemsize
    if len(payload) != expected:
        raise ValueError(
            f"payload holds {len(payload)} bytes, header declares {expected}")
    model.flat_params[...] = np.frombuffer(payload, dtype=le)
    return model

"""Minimal deterministic NCHW tensor engine.

Padded convolution (zero / circular / reflect / random borders), 2x2 max
pooling, ReLU, nearest-neighbor upsampling, pixel-wise softmax cross-entropy,
Adam, and a central-finite-difference gradient checker.  Every operation is a
pure function of its inputs plus an explicit RNG stream; forward ops hand back
a tape that the matching backward op consumes.

Every convolution is stride-1 and "same": an odd square kernel of size k on
an input padded by k // 2, so the output keeps the input's height and width.
It uses the cross-correlation convention (no kernel flip) and is implemented
as im2col + GEMM so f32 training runs at BLAS speed.  Its input gradient is
the same kind of GEMM: a valid cross-correlation of the extended upstream
gradient with the flipped, channel-transposed kernel.  For a zero, random or
circular border the upstream is extended by the pad with zeros or wrapped,
which yields the input gradient directly at the input size.  A reflect border
zero-extends the upstream by twice the pad, which yields the padded-input
gradient, and folds it back with the pad's adjoint, a few slice-adds per
axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "PaddingMode", "ZERO", "CIRCULAR", "REFLECT", "random_pad",
    "padding_to_dict", "padding_from_dict",
    "ConvSpec", "ConvTape", "PoolRecord", "AdamState", "GradcheckReport",
    "pad", "conv2d_forward", "conv2d_backward",
    "maxpool2x2_forward", "maxpool2x2_backward",
    "relu", "relu_backward", "upsample_nearest2x", "upsample_nearest2x_backward",
    "softmax_cross_entropy_pixelwise", "adam_step", "gradcheck",
]

_PAD_KINDS = ("zero", "circular", "reflect", "random")


@dataclass(frozen=True)
class PaddingMode:
    """Border fill rule. `amplitude` only matters for kind="random"."""

    kind: str
    amplitude: float = 1.0

    def __post_init__(self):
        if self.kind not in _PAD_KINDS:
            raise ValueError(f"unknown padding kind {self.kind!r}")
        if self.kind == "random" and not self.amplitude >= 0:
            raise ValueError("random padding amplitude must be >= 0")


ZERO = PaddingMode("zero")
CIRCULAR = PaddingMode("circular")
REFLECT = PaddingMode("reflect")


def random_pad(amplitude: float = 1.0) -> PaddingMode:
    """Padding that fills the border with iid U[0, amplitude) draws."""
    return PaddingMode("random", amplitude)


def padding_to_dict(mode: PaddingMode) -> dict:
    d = {"kind": mode.kind}
    if mode.kind == "random":
        d["amplitude"] = mode.amplitude
    return d


def padding_from_dict(d: dict) -> PaddingMode:
    return PaddingMode(d["kind"], d.get("amplitude", 1.0))


def _require_nchw(x: np.ndarray, name: str = "input") -> None:
    if not isinstance(x, np.ndarray) or x.ndim != 4:
        raise ValueError(f"{name} must be a 4-d (n, c, h, w) array")


def pad(x: np.ndarray, amount: int, mode: PaddingMode,
        rng: np.random.Generator | None = None) -> np.ndarray:
    """Pad both spatial axes by `amount` pixels per side.

    The interior equals the input exactly; the border is filled per mode
    (zero, wrap-around, mirror excluding the edge pixel, or iid uniform).
    """
    _require_nchw(x)
    if amount < 0:
        raise ValueError("pad amount must be >= 0")
    if amount == 0:
        return x.copy()
    a = amount
    widths = ((0, 0), (0, 0), (a, a), (a, a))
    if mode.kind == "zero":
        return _zero_pad_hw(x, a)
    if mode.kind == "circular":
        return np.pad(x, widths, mode="wrap")
    if mode.kind == "reflect":
        if a >= min(x.shape[2], x.shape[3]):
            raise ValueError(
                f"reflect pad {a} too large for spatial dims {x.shape[2:]}")
        return np.pad(x, widths, mode="reflect")
    # random
    if rng is None:
        raise ValueError("random padding requires an rng")
    n, c, h, w = x.shape
    out = np.empty((n, c, h + 2 * a, w + 2 * a), dtype=x.dtype)
    out[:, :, a:a + h, a:a + w] = x
    border = np.ones(out.shape, dtype=bool)
    border[:, :, a:a + h, a:a + w] = False
    out[border] = rng.uniform(0.0, mode.amplitude, int(border.sum())).astype(x.dtype)
    return out


@dataclass(frozen=True)
class ConvSpec:
    """A stride-1 "same" conv with a `size` x `size` kernel, `size` odd."""

    in_channels: int
    out_channels: int
    size: int
    mode: PaddingMode = ZERO

    stride = 1  # a class constant, not a field; perfbench/layers.py reads it

    def __post_init__(self):
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValueError("channel counts must be >= 1")
        if self.size < 1 or self.size % 2 == 0:
            raise ValueError(f"kernel size must be odd and >= 1, "
                             f"got {self.size}")

    @property
    def kernel(self) -> tuple[int, int]:
        return (self.size, self.size)

    @property
    def pad(self) -> int:
        return self.size // 2


@dataclass
class ConvTape:
    """State saved by conv2d_forward for the matching backward call."""

    padded: np.ndarray          # input after boundary fill
    weights: np.ndarray
    spec: ConvSpec
    x_shape: tuple[int, int, int, int]
    out_hw: tuple[int, int]     # the input's (h, w)


def _im2col(xp: np.ndarray, k: int) -> np.ndarray:
    n, c, hp, wp = xp.shape
    oh, ow = hp - k + 1, wp - k + 1
    sn, sc, sh, sw = xp.strides
    win = as_strided(xp, (c, k, k, n, oh, ow), (sc, sh, sw, sn, sh, sw))
    # copies into a contiguous (c*k*k, n*oh*ow) matrix: one big GEMM per
    # layer instead of a batch of skinny ones, and the copy reads image rows
    # sequentially
    return win.reshape(c * k * k, n * oh * ow)


def _conv_gemm(xp: np.ndarray, weights: np.ndarray,
               bias: np.ndarray | None = None) -> np.ndarray:
    """Valid cross-correlation of `xp` with `weights`, as one im2col GEMM."""
    oc, _, k, _ = weights.shape
    n, _, hp, wp = xp.shape
    cols = _im2col(xp, k)
    y = np.matmul(weights.reshape(oc, -1), cols)
    del cols
    if bias is not None:
        y += bias[:, None]
    return np.ascontiguousarray(
        y.reshape(oc, n, hp - k + 1, wp - k + 1).transpose(1, 0, 2, 3))


def _zero_pad_hw(x: np.ndarray, a: int) -> np.ndarray:
    """np.pad(constant) without zero-filling the soon-overwritten interior."""
    n, c, h, w = x.shape
    out = np.empty((n, c, h + 2 * a, w + 2 * a), dtype=x.dtype)
    out[:, :, :a, :] = 0
    out[:, :, a + h:, :] = 0
    out[:, :, a:a + h, :a] = 0
    out[:, :, a:a + h, a + w:] = 0
    out[:, :, a:a + h, a:a + w] = x
    return out


def conv2d_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray,
                   spec: ConvSpec, rng: np.random.Generator | None = None
                   ) -> tuple[np.ndarray, ConvTape]:
    """Cross-correlate the padded input with `weights`; returns (out, tape)."""
    _require_nchw(x)
    k = spec.size
    if weights.shape != (spec.out_channels, spec.in_channels, k, k):
        raise ValueError(
            f"weight shape {weights.shape} does not match spec {spec}")
    if x.shape[1] != spec.in_channels:
        raise ValueError(
            f"input has {x.shape[1]} channels, spec wants {spec.in_channels}")
    if bias.shape != (spec.out_channels,):
        raise ValueError("bias length must equal out_channels")
    n, _, h, w = x.shape
    xp = pad(x, spec.pad, spec.mode, rng) if spec.pad else x
    tape = ConvTape(xp, weights, spec, x.shape, (h, w))
    if k == 1:
        w2 = weights.reshape(spec.out_channels, spec.in_channels)
        y = np.matmul(w2, xp.reshape(n, spec.in_channels, h * w))
        y += bias[:, None]
        return y.reshape(n, spec.out_channels, h, w), tape
    return _conv_gemm(xp, weights, bias), tape


def _fold_reflect(g: np.ndarray, a: int, size: int) -> np.ndarray:
    """Adjoint of reflect-padding axis 0 of a `size`-long array by `a`.

    Adds every padded slice onto the source index it was copied from, in
    ascending padded order, so each sum adds its terms in the order of a
    sequential scatter.  Padded j < a holds source a - j, padded
    a + size + i holds source size - 2 - i (a < size).
    """
    out = np.zeros((size,) + g.shape[1:], dtype=g.dtype)
    out[1:a + 1] += g[a - 1::-1]
    out += g[a:a + size]
    out[size - 1 - a:size - 1] += g[a + size:][::-1]
    return out


def _pad_adjoint(gxp: np.ndarray, a: int, h: int, w: int) -> np.ndarray:
    """Accumulate reflect-padded-input gradients back onto the input."""
    gh = _fold_reflect(gxp.transpose(2, 0, 1, 3), a, h)
    gw = _fold_reflect(gh.transpose(3, 1, 2, 0), a, w)
    return np.ascontiguousarray(gw.transpose(1, 2, 3, 0))


def conv2d_backward(tape: ConvTape, upstream: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact VJP of conv2d_forward: (grad_input, grad_weights, grad_bias)."""
    spec = tape.spec
    n, _, h, w = tape.x_shape
    if upstream.shape != (n, spec.out_channels, h, w):
        raise ValueError(
            f"upstream shape {upstream.shape} does not match forward output")
    k, a = spec.size, spec.pad
    grad_bias = upstream.sum(axis=(0, 2, 3))

    if k == 1:
        g3 = upstream.reshape(n, spec.out_channels, h * w)
        x3 = tape.padded.reshape(n, spec.in_channels, h * w)
        w2 = tape.weights.reshape(spec.out_channels, spec.in_channels)
        grad_weights = np.matmul(g3, x3.transpose(0, 2, 1)).sum(axis=0)
        grad_weights = grad_weights.reshape(tape.weights.shape)
        gxp = np.matmul(w2.T, g3)
        return (gxp.reshape(n, spec.in_channels, h, w), grad_weights,
                grad_bias)
    g_flat = np.ascontiguousarray(upstream.transpose(1, 0, 2, 3)).reshape(
        spec.out_channels, n * h * w)
    cols = _im2col(tape.padded, k)
    grad_weights = (g_flat @ cols.T).reshape(tape.weights.shape)
    del g_flat, cols
    flipped = tape.weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    # input pixel (i, j) meets upstream (i - a .. i + a, j - a .. j + a),
    # wrapped for circular, outside the image zero otherwise
    if spec.mode.kind == "circular":
        ups = np.pad(upstream, ((0, 0), (0, 0), (a, a), (a, a)), mode="wrap")
        return _conv_gemm(ups, flipped), grad_weights, grad_bias
    if spec.mode.kind != "reflect":
        return (_conv_gemm(_zero_pad_hw(upstream, a), flipped), grad_weights,
                grad_bias)
    # reflect: the gradient of the padded input, then the pad's adjoint
    gxp = _conv_gemm(_zero_pad_hw(upstream, 2 * a), flipped)
    return _pad_adjoint(gxp, a, h, w), grad_weights, grad_bias


@dataclass
class PoolRecord:
    """Pooled output plus the flat input index of each window maximum."""

    output: np.ndarray
    argmax: np.ndarray
    input_shape: tuple[int, int, int, int]


def maxpool2x2_forward(x: np.ndarray) -> PoolRecord:
    """2x2/stride-2 max pool; ties break to the lowest flat input index."""
    _require_nchw(x)
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2x2 needs even spatial dims, got {h}x{w}")
    oh, ow = h // 2, w // 2
    tl = x[:, :, 0::2, 0::2]
    tr = x[:, :, 0::2, 1::2]
    bl = x[:, :, 1::2, 0::2]
    br = x[:, :, 1::2, 1::2]
    out = np.maximum(np.maximum(tl, tr), np.maximum(bl, br))
    # first window cell equal to the max, in ascending flat-input order,
    # is the tie rule
    k = np.where(tl == out, 0,
                 np.where(tr == out, 1, np.where(bl == out, 2, 3)))
    rows = 2 * np.arange(oh)[None, None, :, None] + (k >> 1)
    cols = 2 * np.arange(ow)[None, None, None, :] + (k & 1)
    base = (np.arange(n)[:, None, None, None] * c
            + np.arange(c)[None, :, None, None])
    argmax = (base * h + rows) * w + cols
    return PoolRecord(np.ascontiguousarray(out), argmax, x.shape)


def maxpool2x2_backward(record: PoolRecord, upstream: np.ndarray) -> np.ndarray:
    """Route each upstream value to its recorded argmax cell."""
    if upstream.shape != record.output.shape:
        raise ValueError("upstream shape does not match pooled output")
    gx = np.zeros(record.input_shape, dtype=upstream.dtype)
    # argmax cells are distinct across windows, so plain assignment is exact
    gx.reshape(-1)[record.argmax.reshape(-1)] = upstream.reshape(-1)
    return gx


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0, out=out)


def relu_backward(x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Masks upstream where the forward input was <= 0.

    The mask is identical whether `x` holds the pre- or post-activation
    values, since relu(x) > 0 exactly where x > 0.
    """
    if upstream.shape != x.shape:
        raise ValueError("upstream shape does not match input")
    return np.where(x > 0, upstream, np.zeros((), dtype=upstream.dtype))


def upsample_nearest2x(x: np.ndarray) -> np.ndarray:
    """Replicate every pixel into a 2x2 block."""
    _require_nchw(x)
    return np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)


def upsample_nearest2x_backward(upstream: np.ndarray) -> np.ndarray:
    """Adjoint of nearest-2x upsampling: sum each 2x2 block."""
    _require_nchw(upstream)
    n, c, h, w = upstream.shape
    if h % 2 or w % 2:
        raise ValueError("upstream dims must be even")
    g = upstream
    return ((g[:, :, 0::2, 0::2] + g[:, :, 0::2, 1::2])
            + (g[:, :, 1::2, 0::2] + g[:, :, 1::2, 1::2]))


def softmax_cross_entropy_pixelwise(logits: np.ndarray, target: np.ndarray
                                    ) -> tuple[float, np.ndarray]:
    """Mean per-pixel cross-entropy and its gradient w.r.t. the logits.

    `target` holds class indices shaped (n, h, w); the loss is the mean over
    all n*h*w pixels of -log softmax(logits)[target].
    """
    _require_nchw(logits)
    n, k, h, w = logits.shape
    if target.shape != (n, h, w):
        raise ValueError(f"target shape {target.shape} != {(n, h, w)}")
    if target.min() < 0 or target.max() >= k:
        raise ValueError(f"class index out of range [0, {k})")
    t = target[:, None].astype(np.int64)
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    denom = e.sum(axis=1, keepdims=True)
    logp_t = np.take_along_axis(z, t, axis=1) - np.log(denom)
    npix = n * h * w
    loss = float(-logp_t.sum() / npix)
    grad = e / denom
    np.put_along_axis(grad, t, np.take_along_axis(grad, t, axis=1) - 1, axis=1)
    grad /= npix
    return loss, grad


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment estimates, one entry per parameter array."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    lr: float = 1e-3
    step_count: int = 0

    @classmethod
    def for_params(cls, params: Sequence[np.ndarray],
                   lr: float = 1e-3) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params], lr=lr)


def adam_step(params: Sequence[np.ndarray], grads: Sequence[np.ndarray],
              state: AdamState) -> None:
    """One bias-corrected Adam update, in place on params and state."""
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ValueError("params / grads / state length mismatch")
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g.shape != p.shape:
            raise ValueError("gradient shape does not match parameter")
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * np.square(g)
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


@dataclass(frozen=True)
class GradcheckReport:
    max_rel_error: float
    tolerance: float
    passed: bool


def gradcheck(op: Callable, inputs: Sequence[np.ndarray],
              tolerance: float = 1e-4,
              rng: np.random.Generator | None = None) -> GradcheckReport:
    """Compare an op's VJP against central finite differences.

    `op(*inputs)` must return (output, vjp) where vjp(upstream) yields one
    gradient per input.  A fixed random probe direction turns the output into
    a scalar; each input element is then wiggled by a step scaled to the
    input's precision.  Passes iff the max relative error < tolerance.
    """
    rng = rng or np.random.default_rng(0)
    out, vjp = op(*inputs)
    probe = rng.uniform(0.5, 1.5, out.shape)
    probe *= np.where(rng.random(out.shape) < 0.5, -1.0, 1.0)
    probe = probe.astype(out.dtype)
    analytic = vjp(probe)
    if len(analytic) != len(inputs):
        raise ValueError("vjp must return one gradient per input")

    def scalar(*args):
        y, _ = op(*args)
        return float((y * probe).sum())

    max_rel = 0.0
    work = [np.array(x, copy=True) for x in inputs]
    for i, x in enumerate(work):
        base = float(np.finfo(x.dtype).eps) ** (1.0 / 3.0)
        flat = x.reshape(-1)
        ana = np.asarray(analytic[i]).reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            h = base * max(1.0, abs(float(orig)))
            flat[j] = orig + h
            fp = scalar(*work)
            flat[j] = orig - h
            fm = scalar(*work)
            flat[j] = orig
            num = (fp - fm) / (2.0 * h)
            a = float(ana[j])
            rel = abs(a - num) / max(abs(a), abs(num), 1e-6)
            if rel > max_rel:
                max_rel = rel
    return GradcheckReport(max_rel, tolerance, max_rel < tolerance)

"""Minimal deterministic tensor engine on channel-major padded frames.

Padded convolution (zero / circular / reflect borders), 2x2 max pooling,
ReLU, nearest-neighbor upsampling, pixel-wise softmax cross-entropy, Adam,
and a central-finite-difference gradient checker.  Every operation is a pure
function of its inputs; forward ops hand back a tape that the matching
backward op consumes.

Activations and their gradients live in frames.  A frame is a
(C, N, H + 2, W + 2) view holding every image of a batch with a 1-pixel ring
around it; `to_frame` and `from_frame` convert from and to NCHW.  Ops read and
write a frame's interior.  The ring is scratch space that `pad` fills in place
before a 3x3 conv reads it.  Each channel of a frame is one row of a
C-contiguous (C, L) buffer: a guard of G columns, the frame's N*(H+2)*(W+2)
pixels, a tail up to the end of the span (the frame plus its tail, a multiple
of _ALIGN columns), and another guard.  Guards and tail start at zero and
only ever hold finite values.

The loss works on frames too: softmax cross-entropy reads the head's logits
frame and, for training, writes its gradient into that same frame, which is
the upstream the head's backward reads; for evaluation it reduces the frame
to each image's mean pixel loss.

Every convolution is stride-1 and "same": a 3x3 kernel on the ring-padded
input, or the 1x1 head, which is one GEMM over the buffer.  It uses the
cross-correlation convention (no kernel flip).  In the buffer, tap (di, dj)
of a 3x3 conv reads the span shifted by (di - 1) * (W + 2) + (dj - 1)
columns, so the conv is shift-accumulate GEMMs over contiguous slices, with
no im2col gather (kn2row; Anderson, Vasudevan, Keane & Gregg, 2017).  Each
conv shift-stacks its thinner side: either the nine shifted input slices
(9*c rows, one GEMM), or the GEMM output (Z = W_taps @ X with 9*oc rows,
then one sum over its nine shifted blocks).  Both read the same strided view
of the taps.  A shift that crosses a ring reaches the guards or the
neighbouring image only from ring and tail outputs, which are never read.

The backward pass zeroes everything of the upstream gradient but its
interior, since only interior outputs exist.  grad-W and grad-bias are GEMMs
against the same shifted slices.  grad-input is the same conv run on the
upstream with the flipped, transposed taps, over the whole frame; a circular
or reflect border then folds the ring back onto the interior pixels it
copies, reading `pad`'s table of ring sources.  A caller can ask for
grad-input alone (a saliency map) or for grad-W and grad-bias alone (the
network's first conv in training); the other side is then skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "PaddingMode", "ZERO", "CIRCULAR", "REFLECT", "new_frame",
    "to_frame", "from_frame", "ConvSpec", "ConvTape", "PoolRecord",
    "AdamState", "GradcheckReport", "pad", "conv2d_forward", "conv2d_backward",
    "maxpool2x2_forward", "maxpool2x2_backward", "relu", "relu_backward",
    "upsample_nearest2x", "upsample_nearest2x_backward",
    "softmax_cross_entropy_pixelwise", "adam_step", "gradcheck",
]

_PAD_KINDS = ("zero", "circular", "reflect")


@dataclass(frozen=True)
class PaddingMode:
    """Border fill rule: one of zero, circular or reflect."""

    kind: str

    def __post_init__(self):
        if self.kind not in _PAD_KINDS:
            raise ValueError(f"unknown padding kind {self.kind!r}")


ZERO = PaddingMode("zero")
CIRCULAR = PaddingMode("circular")
REFLECT = PaddingMode("reflect")


def _require_nchw(x: np.ndarray, name: str = "input") -> None:
    if not isinstance(x, np.ndarray) or x.ndim != 4:
        raise ValueError(f"{name} must be a 4-d (n, c, h, w) array")


# Every GEMM over pixels runs over a whole span (length a multiple of _ALIGN,
# starting a multiple of 32 columns into the buffer) or a whole buffer row.
# OpenBLAS computes the last (columns mod 16) pixels of a thread's range with
# a different kernel, so without this a pixel's bits would depend on its
# position in the batch and on the BLAS thread count; with it, two threads
# split every GEMM on a tile boundary.
_ALIGN = 64


def _guard(wp: int) -> int:
    """Guard columns on each side of the span: room for a 3x3 shift."""
    return -(-(wp + 1) // 32) * 32


def _span(m: int) -> int:
    """Frame columns rounded up to a multiple of _ALIGN."""
    return -(-m // _ALIGN) * _ALIGN


def _require_frame(x: np.ndarray, name: str = "input") -> None:
    if not (isinstance(x, np.ndarray) and x.ndim == 4
            and min(x.shape[2:]) >= 3):
        raise ValueError(f"{name} must be a 4-d (c, n, h + 2, w + 2) frame")


def _rows(f: np.ndarray, name: str = "input") -> np.ndarray:
    """The (C, L) buffer behind a whole frame `f`."""
    _require_frame(f, name)
    buf = f.base
    c, n, hp, wp = f.shape
    item = f.itemsize
    if not (isinstance(buf, np.ndarray) and buf.ndim == 2
            and buf.flags.c_contiguous and buf.dtype == f.dtype
            and buf.shape[0] == c
            and buf.shape[1] == 2 * _guard(wp) + _span(n * hp * wp)
            and f.strides[1:] == (hp * wp * item, wp * item, item)
            and f.ctypes.data - buf.ctypes.data == _guard(wp) * item):
        raise ValueError(f"{name} must be a frame made by new_frame, "
                         f"to_frame or a tensor_core op")
    return buf


def _zero_ring(f: np.ndarray) -> None:
    f[:, :, 0] = 0
    f[:, :, -1] = 0
    f[:, :, 1:-1, 0] = 0
    f[:, :, 1:-1, -1] = 0


def _empty_frame(c: int, n: int, h: int, w: int, dtype) -> np.ndarray:
    """A frame with zero guards and tail; ring and interior unset."""
    hp, wp = h + 2, w + 2
    g, m = _guard(wp), n * hp * wp
    buf = np.empty((c, 2 * g + _span(m)), dtype=dtype)
    buf[:, :g] = 0
    buf[:, g + m:] = 0
    return buf[:, g:g + m].reshape(c, n, hp, wp)


def new_frame(c: int, n: int, h: int, w: int, dtype) -> np.ndarray:
    """A frame with zero ring, guards and tail, and an unset interior."""
    f = _empty_frame(c, n, h, w, dtype)
    _zero_ring(f)
    return f


def to_frame(x: np.ndarray, dtype=None) -> np.ndarray:
    """Copy an (n, c, h, w) batch into a new frame with a zero ring."""
    _require_nchw(x)
    n, c, h, w = x.shape
    f = new_frame(c, n, h, w, x.dtype if dtype is None else dtype)
    f[:, :, 1:-1, 1:-1] = x.transpose(1, 0, 2, 3)
    return f


def from_frame(f: np.ndarray) -> np.ndarray:
    """A frame's interior as a new contiguous (n, c, h, w) array."""
    _require_frame(f)
    return np.ascontiguousarray(f[:, :, 1:-1, 1:-1].transpose(1, 0, 2, 3))


# the frame row (column) each copy border's first and last ring row (column)
# copies; `pad` and its adjoint `_fold` both read it
_RING_SOURCES = {"circular": (-2, 1), "reflect": (2, -3)}


def pad(x: np.ndarray, mode: PaddingMode) -> np.ndarray:
    """Fill the ring of frame `x` in place per mode; returns `x`.

    Zero, wrap-around, or mirror excluding the edge pixel.  The fill is a
    function of the interior alone, so a ring can always be recomputed.
    """
    _require_frame(x)
    h, w = x.shape[2] - 2, x.shape[3] - 2
    if mode.kind == "zero":
        _zero_ring(x)
        return x
    if mode.kind == "reflect" and min(h, w) < 2:
        raise ValueError(f"reflect padding needs spatial dims >= 2, "
                         f"got {h}x{w}")
    first, last = _RING_SOURCES[mode.kind]
    x[:, :, 1:-1, 0] = x[:, :, 1:-1, first]
    x[:, :, 1:-1, -1] = x[:, :, 1:-1, last]
    x[:, :, 0] = x[:, :, first]
    x[:, :, -1] = x[:, :, last]
    return x


@dataclass(frozen=True)
class ConvSpec:
    """A stride-1 "same" conv: 3x3 on the ring-padded input, or 1x1."""

    in_channels: int
    out_channels: int
    size: int
    mode: PaddingMode = ZERO

    stride = 1  # a class constant, not a field; perfbench/layers.py reads it

    def __post_init__(self):
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValueError("channel counts must be >= 1")
        if self.size not in (1, 3):
            raise ValueError(f"kernel size must be 1 or 3, got {self.size}")

    @property
    def kernel(self) -> tuple[int, int]:
        return (self.size, self.size)

    @property
    def pad(self) -> int:
        return self.size // 2


@dataclass
class ConvTape:
    """State saved by conv2d_forward for the matching backward call."""

    # the input frame, its ring filled; a caller may drop it after forward
    # if it puts back an equal frame before the backward call
    padded: np.ndarray | None
    weights: np.ndarray
    spec: ConvSpec
    x_shape: tuple[int, int, int, int]   # the input's (n, c, h, w)
    out_hw: tuple[int, int]     # the input's (h, w)


# Column chunks of a span are sized so that one chunk's tap stack is about
# this many bytes: it stays in cache between being built and being read.
_CHUNK_BYTES = 1 << 20


def _chunks(span: int, column_bytes: int) -> list[tuple[int, int]]:
    """[a, b) column ranges covering a span, each a multiple of _ALIGN."""
    step = max(_ALIGN, _CHUNK_BYTES // column_bytes // _ALIGN * _ALIGN)
    return [(a, min(span, a + step)) for a in range(0, span, step)]


def _shifted(rows: np.ndarray, wp: int, a: int, b: int,
             stacked: bool = False) -> np.ndarray:
    """(3, 3, c, b - a) view: [di, dj] is span columns [a, b) of buffer
    `rows` shifted by (di - 1) * wp + dj - 1, on every row, or if `stacked`,
    on tap 3 * di + dj's own block of c = rows / 9 rows."""
    r, length = rows.shape
    c = r // 9 if stacked else r
    block, s = c * length * stacked, rows.itemsize
    return np.ndarray((3, 3, c, b - a), rows.dtype, rows,
                      (_guard(wp) + a - wp - 1) * s,
                      ((3 * block + wp) * s, (block + 1) * s, length * s, s))


def _taps(rows: np.ndarray, wp: int, a: int, b: int) -> np.ndarray:
    """(9 * c, b - a) stack of the nine shifted copies of span [a, b)."""
    return _shifted(rows, wp, a, b).reshape(-1, b - a)


def _conv_rows(src: np.ndarray, weights: np.ndarray, wp: int,
               out: np.ndarray) -> None:
    """Span of buffer `out` = 3x3 cross-correlation of buffer `src` with
    (oc, c, 3, 3) `weights`, stacking the thinner side chunk by chunk."""
    oc, c = weights.shape[:2]
    g = _guard(wp)
    span = out.shape[1] - 2 * g
    if c <= oc:
        w2 = weights.transpose(0, 2, 3, 1).reshape(oc, 9 * c)
        for a, b in _chunks(span, 9 * c * src.itemsize):
            np.matmul(w2, _taps(src, wp, a, b), out=out[:, g + a:g + b])
        return
    wt = weights.transpose(2, 3, 0, 1).reshape(9 * oc, c)
    for a, b in _chunks(span, 9 * oc * src.itemsize):
        # Z over [a, b + 2g) holds every column the shifts read, on _ALIGN
        # boundaries like every pixel GEMM; the sum adds taps 0..8 in order
        z = wt @ src[:, a:b + 2 * g]
        np.sum(_shifted(z, wp, 0, b - a, stacked=True), axis=(0, 1),
               out=out[:, g + a:g + b])


def conv2d_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray,
                   spec: ConvSpec) -> tuple[np.ndarray, ConvTape]:
    """Cross-correlate frame `x` with `weights`; returns (out frame, tape).

    A 3x3 conv first fills the ring of `x` in place per `spec.mode`.  The
    tape holds `x` itself, so `x` must not change before the backward call.
    """
    X = _rows(x)
    k, c, oc = spec.size, spec.in_channels, spec.out_channels
    if weights.shape != (oc, c, k, k):
        raise ValueError(
            f"weight shape {weights.shape} does not match spec {spec}")
    if x.shape[0] != c:
        raise ValueError(f"input has {x.shape[0]} channels, spec wants {c}")
    if bias.shape != (oc,):
        raise ValueError("bias length must equal out_channels")
    _, n, hp, wp = x.shape
    tape = ConvTape(x, weights, spec, (n, c, hp - 2, wp - 2), (hp - 2, wp - 2))
    # the GEMMs write the whole span, ring and tail included
    y = _empty_frame(oc, n, hp - 2, wp - 2, x.dtype)
    Y = y.base
    if k == 1:
        np.matmul(weights.reshape(oc, c), X, out=Y)
    else:
        pad(x, spec.mode)
        _conv_rows(X, weights, wp, Y)
    Y += bias[:, None]
    return y, tape


def _fold(f: np.ndarray, mode: PaddingMode) -> None:
    """Adjoint of a copy border's `pad`, in place: add each ring gradient
    onto the interior pixel it copies (rows first, so corners fold twice)."""
    first, last = _RING_SOURCES[mode.kind]
    f[:, :, first] += f[:, :, 0]
    f[:, :, last] += f[:, :, -1]
    f[:, :, :, first] += f[:, :, :, 0]
    f[:, :, :, last] += f[:, :, :, -1]


def conv2d_backward(tape: ConvTape, upstream: np.ndarray, *,
                    need_input: bool = True, need_params: bool = True,
                    out: np.ndarray | None = None
                    ) -> tuple[np.ndarray | None, np.ndarray | None,
                               np.ndarray | None]:
    """Exact VJP of conv2d_forward: (grad_input frame, grad_weights,
    grad_bias).  A gradient not asked for by `need_input` / `need_params`
    is None and is not computed.  Overwrites all of the `upstream` buffer
    but its interior.  grad-input goes into frame `out` if given, which
    may be `tape.padded` itself: every path reads an input column for
    grad-W before it writes that column of grad-input, so bits match."""
    spec = tape.spec
    k, oc = spec.size, spec.out_channels
    n, c, h, w = tape.x_shape
    G = _rows(upstream, "upstream")
    if upstream.shape != (oc, n, h + 2, w + 2):
        raise ValueError(
            f"upstream shape {upstream.shape} does not match forward output")
    if out is not None:
        _rows(out, "out")
        if out.shape != (c, n, h + 2, w + 2):
            raise ValueError(f"out shape {out.shape} does not match the input")
    weights = tape.weights
    wp, g = w + 2, _guard(w + 2)
    # only interior outputs exist
    _zero_ring(upstream)
    G[:, :g] = 0
    G[:, g + upstream[0].size:] = 0
    X = tape.padded.base
    gx = grad_weights = grad_bias = None
    if need_params:
        grad_bias = G.sum(axis=1)
    if need_input:
        gx = _empty_frame(c, n, h, w, upstream.dtype) if out is None else out
        GX = gx.base
    if k == 1:
        if need_params:
            grad_weights = (G @ X.T).reshape(weights.shape)
        if need_input:
            np.matmul(weights.reshape(oc, c).T, G, out=GX)
        return gx, grad_weights, grad_bias

    # output p reads input p + off(t): grad-W pairs the upstream with the
    # shifted input, and grad-input is the conv of the upstream with the
    # flipped taps, whose offsets are -off(t)
    span = G.shape[1] - 2 * g
    flipped = weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    fused = need_params and need_input and c >= oc
    if need_params and c < oc:
        grad_weights = np.zeros((oc, 9 * c), dtype=G.dtype)
        for a, b in _chunks(span, 9 * c * X.itemsize):
            grad_weights += G[:, g + a:g + b] @ _taps(X, wp, a, b).T
        grad_weights = grad_weights.reshape(oc, 3, 3, c).transpose(0, 3, 1, 2)
    elif need_params:
        # the upstream's tap stack feeds grad-W (its block t pairs with tap
        # 8 - t) and, when fused, grad-input: it is the stack _conv_rows
        # would build, in the same chunks
        w2 = flipped.transpose(0, 2, 3, 1).reshape(c, 9 * oc)
        grad_weights = np.zeros((9 * oc, c), dtype=G.dtype)
        for a, b in _chunks(span, 9 * oc * G.itemsize):
            taps = _taps(G, wp, a, b)
            grad_weights += taps @ X[:, g + a:g + b].T
            if fused:
                np.matmul(w2, taps, out=GX[:, g + a:g + b])
        grad_weights = grad_weights.reshape(3, 3, oc, c)[::-1, ::-1]
        grad_weights = grad_weights.transpose(2, 3, 0, 1)
    if need_params:
        grad_weights = np.ascontiguousarray(grad_weights)

    if need_input and not fused:
        _conv_rows(G, flipped, wp, GX)
    if need_input and spec.mode.kind != "zero":
        _fold(gx, spec.mode)
    return gx, grad_weights, grad_bias


@dataclass
class PoolRecord:
    """Pooled output frame plus the window cell (0-3, row-major) of each
    maximum, or None if the forward was not asked for it."""

    output: np.ndarray
    argmax: np.ndarray | None
    input_shape: tuple[int, int, int, int]   # the input frame's shape


_WINDOW = ((0, 0), (0, 1), (1, 0), (1, 1))


def maxpool2x2_forward(x: np.ndarray, *, need_argmax: bool = True
                       ) -> PoolRecord:
    """2x2/stride-2 max pool of a frame's interior into a new frame; ties
    break to the lowest window cell.  The argmax codes, which only the
    backward reads, are computed only if `need_argmax`; the output is the
    same either way."""
    _require_frame(x)
    c, n, hp, wp = x.shape
    h, w = hp - 2, wp - 2
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2x2 needs even spatial dims, got {h}x{w}")
    xi = x[:, :, 1:-1, 1:-1]
    tl, tr, bl, br = (xi[:, :, r::2, s::2] for r, s in _WINDOW)
    out = new_frame(c, n, h // 2, w // 2, x.dtype)
    top, bottom = np.maximum(tl, tr), np.maximum(bl, br)
    np.maximum(top, bottom, out=out[:, :, 1:-1, 1:-1])
    if not need_argmax:
        return PoolRecord(out, None, x.shape)
    # the first window cell equal to the max is the tie rule: the top pair
    # wins ties with the bottom pair, the left cell with the right one
    low = bottom > top
    code = np.where(low, br > bl, tr > tl).view(np.uint8)
    code += 2 * low.view(np.uint8)
    return PoolRecord(out, code, x.shape)


def maxpool2x2_backward(record: PoolRecord, upstream: np.ndarray) -> np.ndarray:
    """Route each upstream value to its recorded argmax cell."""
    if upstream.shape != record.output.shape:
        raise ValueError("upstream shape does not match pooled output")
    c, n, hp, wp = record.input_shape
    gx = new_frame(c, n, hp - 2, wp - 2, upstream.dtype)
    gi = gx[:, :, 1:-1, 1:-1]
    g = upstream[:, :, 1:-1, 1:-1]
    # each interior cell lies in exactly one window, at exactly one cell
    for cell, (r, s) in enumerate(_WINDOW):
        np.multiply(g, record.argmax == cell, out=gi[:, :, r::2, s::2])
    return gx


def _as_rows(*arrays: np.ndarray) -> Sequence[np.ndarray]:
    """2-d views of equal-shape arrays, one row per leading index, if every
    array's memory allows one (a frame's does); else the arrays.  numpy runs
    elementwise ops on a frame's 2-d view about twice as fast as on the 4-d
    one."""
    try:
        return [a.reshape(a.shape[0], -1, copy=False) for a in arrays]
    except ValueError:
        return arrays


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if out is None:
        return np.maximum(x, 0)
    xr, outr = _as_rows(x, out)
    np.maximum(xr, 0, out=outr)
    return out


def relu_backward(x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Zeroes `upstream` in place where the forward input was <= 0, and
    returns it.

    The mask is identical whether `x` holds the pre- or post-activation
    values, since relu(x) > 0 exactly where x > 0.
    """
    if upstream.shape != x.shape:
        raise ValueError("upstream shape does not match input")
    xr, g = _as_rows(x, upstream)
    np.multiply(g, xr > 0, out=g)
    return upstream


def upsample_nearest2x(x: np.ndarray, out: np.ndarray | None = None
                       ) -> np.ndarray:
    """Replicate every interior pixel of frame `x` into a 2x2 block of the
    interior of `out` (a new frame by default, or a frame of the right
    shape, such as the leading channels of a decoder's input frame)."""
    _require_frame(x)
    c, n, hp, wp = x.shape
    h, w = hp - 2, wp - 2
    if out is None:
        out = new_frame(c, n, 2 * h, 2 * w, x.dtype)
    elif out.shape != (c, n, 2 * h + 2, 2 * w + 2):
        raise ValueError(f"out shape {out.shape} does not fit input {x.shape}")
    oi, xi = out[:, :, 1:-1, 1:-1], x[:, :, 1:-1, 1:-1]
    for r, s in _WINDOW:
        oi[:, :, r::2, s::2] = xi
    return out


def upsample_nearest2x_backward(upstream: np.ndarray) -> np.ndarray:
    """Adjoint of nearest-2x upsampling: sum each 2x2 block into a new
    frame."""
    _require_frame(upstream, "upstream")
    c, n, hp, wp = upstream.shape
    h, w = hp - 2, wp - 2
    if h % 2 or w % 2:
        raise ValueError("upstream dims must be even")
    g = upstream[:, :, 1:-1, 1:-1]
    gx = new_frame(c, n, h // 2, w // 2, upstream.dtype)
    gi = gx[:, :, 1:-1, 1:-1]
    np.add(g[:, :, 0::2, 0::2], g[:, :, 0::2, 1::2], out=gi)
    gi += g[:, :, 1::2, 0::2] + g[:, :, 1::2, 1::2]
    return gx


def softmax_cross_entropy_pixelwise(
        logits: np.ndarray, target: np.ndarray, npix: int | None = None, *,
        need_grad: bool = True) -> tuple[float | np.ndarray, np.ndarray | None]:
    """Pixel-wise cross-entropy of a logits frame, in place.

    `logits` is a (k, n, h + 2, w + 2) frame, such as the 1x1 head's output,
    and `target` holds class indices shaped (n, h, w), of any integer dtype
    (the data's class maps are uint8; the bits do not depend on it).  A
    pixel's loss is -log softmax(logits)[target].  The frame is
    overwritten, ring included.

    With `need_grad`, returns (the sum of the pixel losses / `npix`, the
    gradient of that loss w.r.t. the logits), the gradient in the interior
    of the same frame.  `npix` defaults to n*h*w, the mean; a shard of a
    larger batch passes the whole batch's pixel count, so the shards'
    losses and gradients add up to the batch's.  Entries below the dtype's
    tiny / eps are 0.  Without it, returns (each image's mean pixel loss as
    an (n,) float64 array, None).
    """
    Z = _rows(logits, "logits")
    k, n, hp, wp = logits.shape
    h, w = hp - 2, wp - 2
    if target.shape != (n, h, w):
        raise ValueError(f"target shape {target.shape} != {(n, h, w)}")
    if target.min() < 0 or target.max() >= k:
        raise ValueError(f"class index out of range [0, {k})")
    # each pixel is one column of the frame's span; softmax runs down the
    # columns of the whole span, ring included, which no caller reads
    g = _guard(wp)
    Z = Z[:, g:g + n * hp * wp]
    cols = (np.arange(n)[:, None, None] * (hp * wp)
            + np.arange(1, h + 1)[:, None] * wp + np.arange(1, w + 1))
    Z -= Z.max(axis=0)
    z_t = Z[target, cols]
    np.exp(Z, out=Z)
    denom = Z.sum(axis=0)  # row by row in class order, so the bits are fixed
    logp_t = z_t - np.log(denom[cols])
    if not need_grad:
        return -logp_t.reshape(n, -1).sum(axis=1, dtype=np.float64) \
            / (h * w), None
    if npix is None:
        npix = n * h * w
    loss = float(-logp_t.sum() / npix)
    Z /= denom
    # flush each probability whose entry p / npix would lie below tiny / eps
    # (2**-103 in f32) to 0: a converged model's entries otherwise turn
    # subnormal, in here and in every layer's backward, and each subnormal
    # operand stalls the GEMMs.  Adam's eps (1e-8) hides such entries anyway.
    Z *= Z >= np.finfo(Z.dtype).tiny / np.finfo(Z.dtype).eps * npix
    Z[target, cols] -= 1
    Z /= npix
    return loss, logits


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
    gradient per input; vjp gets a copy of the probe, since backward ops may
    write into their upstream.  A fixed random probe direction turns the
    output into a scalar; each input element is then wiggled by a step scaled
    to the input's precision.  Passes iff the max relative error < tolerance.
    """
    rng = rng or np.random.default_rng(0)
    out, vjp = op(*inputs)
    probe = rng.uniform(0.5, 1.5, out.shape)
    probe *= np.where(rng.random(out.shape) < 0.5, -1.0, 1.0)
    probe = probe.astype(out.dtype)
    analytic = vjp(probe.copy())
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

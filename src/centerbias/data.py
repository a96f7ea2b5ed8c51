"""Placement-controlled synthetic segmentation datasets.

Digit glyphs are pasted at policy-constrained positions over procedural-noise
or image-pool backgrounds; every non-background pixel is set to the maximum
intensity and labeled with its digit class + 1.  Sample i of a dataset is a
pure function of its SAMPLE and BACKGROUND streams (see rng), so datasets
are identical across generation order and worker counts.
"""

from __future__ import annotations

import functools
import os
import struct
from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from .netpbm import read_pnm_gray
from .rng import BACKGROUND, SAMPLE, stream

__all__ = [
    "AllowedCentral", "Band", "ForbiddenCentral", "Unrestricted",
    "PlacementPolicy", "admits", "policy_label", "parse_policy",
    "GlyphSet", "parse_idx", "load_glyph_dir", "builtin_glyphs",
    "NoisePool", "ImageDir", "generate_background",
    "edge_distance", "normalized_offset", "sample_placement",
    "composite_sample",
    "Sample", "SampleMeta", "DatasetConfig",
    "sample_at", "iter_samples", "mask_bbox",
]

BACKGROUND_CAP = 0.95  # keeps the pasted object the unique maximum intensity


# --------------------------------------------------------------------------
# placement policies over normalized edge distance r

@dataclass(frozen=True)
class AllowedCentral:
    KIND = "allowed_central"
    a: float

    def __post_init__(self):
        if not 0 < self.a <= 1:
            raise ValueError("AllowedCentral needs a in (0, 1]")


@dataclass(frozen=True)
class Band:
    KIND = "band"
    lo: float
    hi: float

    def __post_init__(self):
        if not 0 <= self.lo < self.hi <= 1:
            raise ValueError("Band needs 0 <= lo < hi <= 1")


@dataclass(frozen=True)
class ForbiddenCentral:
    KIND = "forbidden_central"
    c: float

    def __post_init__(self):
        if not 0 <= self.c < 1:
            raise ValueError("ForbiddenCentral needs c in [0, 1)")


@dataclass(frozen=True)
class Unrestricted:
    KIND = "unrestricted"


PlacementPolicy = Union[AllowedCentral, Band, ForbiddenCentral, Unrestricted]


def admits(policy: PlacementPolicy, r):
    """Whether edge distance r satisfies the policy; elementwise for an
    array of distances.

    Bands are half-open except that a band reaching 1.0 also admits r == 1.0
    exactly (an object touching the edge belongs to the outermost band).
    """
    if isinstance(policy, AllowedCentral):
        return r <= policy.a
    if isinstance(policy, Band):
        return (policy.lo <= r) & ((r <= 1.0) if policy.hi >= 1.0
                                   else (r < policy.hi))
    if isinstance(policy, ForbiddenCentral):
        return r >= policy.c
    if isinstance(policy, Unrestricted):
        return np.full(np.shape(r), True)[()]
    raise TypeError(f"not a placement policy: {policy!r}")


def policy_label(policy: PlacementPolicy) -> str:
    if isinstance(policy, AllowedCentral):
        return f"allowed:{policy.a:g}"
    if isinstance(policy, Band):
        return f"band:{policy.lo:g}-{policy.hi:g}"
    if isinstance(policy, ForbiddenCentral):
        return f"forbidden:{policy.c:g}"
    return "unrestricted"


def parse_policy(token: str) -> PlacementPolicy:
    """Inverse of policy_label, also used for CLI flags.  A token that is
    not a label raises `cannot parse placement policy`; a label out of its
    policy's range raises the policy's own error."""
    token = token.strip()
    if token == "unrestricted":
        return Unrestricted()
    kind, _, arg = token.partition(":")
    parts = arg.split("-") if kind == "band" else [arg]
    try:
        values = [float(v) for v in parts]
    except ValueError:
        values = []
    if kind == "allowed" and len(values) == 1:
        return AllowedCentral(*values)
    if kind == "band" and len(values) == 2:
        return Band(*values)
    if kind == "forbidden" and len(values) == 1:
        return ForbiddenCentral(*values)
    raise ValueError(f"cannot parse placement policy {token!r}")


# --------------------------------------------------------------------------
# glyph sources

@dataclass
class GlyphSet:
    images: np.ndarray   # (count, g, g) floats in [0, 1]
    labels: np.ndarray   # (count,) ints 0..9

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ValueError("image count != label count")
        if len(self.images) and (self.images.min() < 0
                                 or self.images.max() > 1):
            raise ValueError("glyph pixels must lie in [0, 1]")
        if len(self.labels) and (self.labels.min() < 0
                                 or self.labels.max() > 9):
            raise ValueError("glyph labels must lie in 0..9")


IDX_UBYTE = 0x08


def parse_idx(data: bytes) -> np.ndarray:
    """Decode an IDX container of unsigned bytes.

    Header: two zero bytes, the type code 0x08, a dimension count, then that
    many big-endian u32 dims, then the raw payload.
    """
    if len(data) < 4 or data[0] != 0 or data[1] != 0:
        raise ValueError("bad IDX magic")
    if data[2] != IDX_UBYTE:
        raise ValueError(f"unsupported IDX type code 0x{data[2]:02x}")
    ndim = data[3]
    header_len = 4 + 4 * ndim
    if len(data) < header_len:
        raise ValueError("truncated IDX dimension table")
    dims = struct.unpack(f">{ndim}I", data[4:header_len])
    count = int(np.prod(dims)) if dims else 0
    payload = data[header_len:]
    if len(payload) != count:
        raise ValueError(
            f"IDX payload holds {len(payload)} bytes, dims {dims} need {count}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def load_glyph_dir(path) -> GlyphSet:
    """Load MNIST-style IDX files from a directory.

    Expects exactly one *images-idx3* file and one *labels-idx1* file
    (the canonical MNIST naming).
    """
    names = sorted(os.listdir(path))
    img = [n for n in names if "images-idx3" in n]
    lab = [n for n in names if "labels-idx1" in n]
    if len(img) != 1 or len(lab) != 1:
        raise ValueError(
            f"{path} must hold exactly one images-idx3 and one labels-idx1 file")
    with open(os.path.join(path, img[0]), "rb") as f:
        images = parse_idx(f.read())
    with open(os.path.join(path, lab[0]), "rb") as f:
        labels = parse_idx(f.read())
    if images.ndim != 3 or labels.ndim != 1:
        raise ValueError("unexpected IDX ranks for glyph data")
    return GlyphSet(images.astype(np.float32) / 255.0,
                    labels.astype(np.int64))


_DIGIT_FONT = {
    0: ("01110", "10001", "10011", "10101", "11001", "10001", "01110"),
    1: ("00100", "01100", "00100", "00100", "00100", "00100", "01110"),
    2: ("01110", "10001", "00001", "00010", "00100", "01000", "11111"),
    3: ("11111", "00010", "00100", "00010", "00001", "10001", "01110"),
    4: ("00010", "00110", "01010", "10010", "11111", "00010", "00010"),
    5: ("11111", "10000", "11110", "00001", "00001", "10001", "01110"),
    6: ("00110", "01000", "10000", "11110", "10001", "10001", "01110"),
    7: ("11111", "00001", "00010", "00100", "01000", "01000", "01000"),
    8: ("01110", "10001", "10001", "01110", "10001", "10001", "01110"),
    9: ("01110", "10001", "10001", "01111", "00001", "00010", "01100"),
}


@functools.lru_cache(maxsize=None)
def builtin_glyphs(size: int = 28) -> GlyphSet:
    """Ten procedural digit glyphs on a size x size frame.

    A dependency-free stand-in for handwritten digits: one crisp binary
    shape per class, upscaled from a 5x7 bitmap font.
    """
    cell = size // 7
    images = np.zeros((10, size, size), dtype=np.float32)
    for digit, rows in _DIGIT_FONT.items():
        bitmap = np.array([[int(ch) for ch in row] for row in rows],
                          dtype=np.float32)
        up = np.kron(bitmap, np.ones((cell, cell), dtype=np.float32))
        oy = (size - up.shape[0]) // 2
        ox = (size - up.shape[1]) // 2
        images[digit, oy:oy + up.shape[0], ox:ox + up.shape[1]] = up
    return GlyphSet(images, np.arange(10, dtype=np.int64))


@functools.lru_cache(maxsize=4)
def _glyphs_for(source: str) -> GlyphSet:
    if source == "builtin":
        return builtin_glyphs()
    if source.startswith("builtin:"):
        return builtin_glyphs(int(source.split(":", 1)[1]))
    return load_glyph_dir(source)


# --------------------------------------------------------------------------
# placement geometry

def edge_distance(adx, ady, max_dx: int, max_dy: int):
    """r of absolute offsets (scalars or arrays) within (max_dx, max_dy): the
    larger of adx / max_dx and ady / max_dy, an axis of zero extent counting
    as 0."""
    rx = adx / max_dx if max_dx else 0.0
    ry = ady / max_dy if max_dy else 0.0
    return np.maximum(rx, ry)


def normalized_offset(dx: int, dy: int, image_hw: tuple[int, int],
                      object_hw: tuple[int, int]) -> float:
    """Chebyshev-normalized edge distance r of an object-center offset.

    Each axis offset is divided by its largest in-frame value; r is the max
    of the two, so r = 0 is centered and r = 1 touches an image edge.
    """
    H, W = image_hw
    h, w = object_hw
    if h > H or w > W:
        raise ValueError(f"object {h}x{w} larger than image {H}x{W}")
    max_dy = (H - h) // 2
    max_dx = (W - w) // 2
    if abs(dx) > max_dx or abs(dy) > max_dy:
        raise ValueError(f"offset ({dx}, {dy}) exceeds ({max_dx}, {max_dy})")
    return float(edge_distance(abs(dx), abs(dy), max_dx, max_dy))


MAX_REJECTIONS = 10_000
# candidates drawn per rng call; a band:0-0.1 sample at 64x96 needs about
# 120 draws, an unrestricted one a single draw
PLACEMENT_BLOCK = 64


def sample_placement(policy: PlacementPolicy, image_hw: tuple[int, int],
                     object_hw: tuple[int, int],
                     rng: np.random.Generator) -> tuple[int, int]:
    """Uniform integer offset over the policy's admissible set.

    Rejection-sampled over the full offset rectangle: the first admitted
    (dx, dy) of a sequence of candidates, drawn PLACEMENT_BLOCK at a time.
    A block of (k, 2) draws takes from `rng` exactly what k alternating
    scalar dx, dy draws take, so the candidates do not depend on the block
    size; the rest of the last block is drawn but unused.  A policy whose
    admissible set is empty for these dims fails after MAX_REJECTIONS draws.
    """
    H, W = image_hw
    h, w = object_hw
    max_dy = (H - h) // 2
    max_dx = (W - w) // 2
    low, high = (-max_dx, -max_dy), (max_dx + 1, max_dy + 1)
    for start in range(0, MAX_REJECTIONS, PLACEMENT_BLOCK):
        k = min(PLACEMENT_BLOCK, MAX_REJECTIONS - start)
        d = rng.integers(low, high, (k, 2))
        r = edge_distance(np.abs(d[:, 0]), np.abs(d[:, 1]), max_dx, max_dy)
        hits = np.flatnonzero(admits(policy, r))
        if hits.size:
            dx, dy = d[hits[0]]
            return int(dx), int(dy)
    raise ValueError(
        f"no admissible placement for {policy_label(policy)} on {H}x{W} "
        f"after {MAX_REJECTIONS} draws")


# --------------------------------------------------------------------------
# backgrounds

@dataclass(frozen=True)
class NoisePool:
    KIND = "noise"
    smoothing: int = 2


@dataclass(frozen=True)
class ImageDir:
    KIND = "image_dir"
    path: str


BackgroundSpec = Union[NoisePool, ImageDir]


def _box_blur(img: np.ndarray, radius: int) -> np.ndarray:
    """Mean filter with clamped windows, separable via cumulative sums."""
    if radius <= 0:
        return img

    def blur_axis(a, axis):
        n = a.shape[axis]
        cs = np.cumsum(a, axis=axis)
        cs = np.concatenate([np.zeros_like(np.take(cs, [0], axis=axis)), cs],
                            axis=axis)
        idx = np.arange(n)
        lo = np.clip(idx - radius, 0, n)
        hi = np.clip(idx + radius + 1, 0, n)
        sums = np.take(cs, hi, axis=axis) - np.take(cs, lo, axis=axis)
        counts = (hi - lo).astype(a.dtype)
        shape = [1, 1]
        shape[axis] = n
        return sums / counts.reshape(shape)

    return blur_axis(blur_axis(img, 0), 1)


@functools.lru_cache(maxsize=4)
def _image_pool(path: str) -> tuple:
    names = sorted(n for n in os.listdir(path)
                   if n.lower().endswith((".pgm", ".ppm")))
    if not names:
        raise ValueError(f"no PGM/PPM files in {path}")
    return tuple(read_pnm_gray(os.path.join(path, n)) for n in names)


def _nearest_resize(img: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    H, W = out_hw
    rows = np.floor((np.arange(H) + 0.5) * img.shape[0] / H).astype(int)
    cols = np.floor((np.arange(W) + 0.5) * img.shape[1] / W).astype(int)
    return img[rows][:, cols]


def generate_background(spec: BackgroundSpec, hw: tuple[int, int],
                        rng: np.random.Generator) -> np.ndarray:
    """Background image in [0, BACKGROUND_CAP] as float32."""
    H, W = hw
    if isinstance(spec, NoisePool):
        img = _box_blur(rng.random((H, W)), spec.smoothing)
    elif isinstance(spec, ImageDir):
        pool = _image_pool(spec.path)
        src = pool[int(rng.integers(len(pool)))]
        sh, sw = src.shape
        scale_max = min(sh / H, sw / W)
        if scale_max <= 1.0:
            crop = src
        else:
            f = float(rng.uniform(1.0, scale_max))
            ch, cw = int(H * f), int(W * f)
            top = int(rng.integers(0, sh - ch + 1))
            left = int(rng.integers(0, sw - cw + 1))
            crop = src[top:top + ch, left:left + cw]
        img = _nearest_resize(crop, hw)
    else:
        raise TypeError(f"not a background spec: {spec!r}")
    return np.clip(img, 0.0, BACKGROUND_CAP).astype(np.float32)


# --------------------------------------------------------------------------
# samples

@dataclass
class SampleMeta:
    digit_class: int
    offset: tuple[int, int] | None      # (dx, dy) pixels from center
    r: float | None
    bbox: tuple[int, int, int, int] | None  # (x, y, w, h), None if empty


@dataclass
class Sample:
    input: np.ndarray    # (1, 1, H, W) float32 in [0, 1]
    target: np.ndarray   # (H, W) uint8; 0 background, 1..10 digit classes
    meta: SampleMeta


def mask_bbox(mask: np.ndarray) -> tuple[int, int, int, int] | None:
    """Tight (x, y, w, h) box of a boolean mask; None if it is empty."""
    ys, xs = np.nonzero(mask)
    if ys.size == 0:
        return None
    x0, x1 = int(xs.min()), int(xs.max())
    y0, y1 = int(ys.min()), int(ys.max())
    return (x0, y0, x1 - x0 + 1, y1 - y0 + 1)


GLYPH_THRESHOLD = 0.5


def composite_sample(glyph: np.ndarray, digit_class: int,
                     background: np.ndarray, offset: tuple[int, int]
                     ) -> Sample:
    """Paste a binarized glyph onto a background at an offset from center.

    Mask pixels get intensity exactly 1.0 and target value digit_class + 1.
    """
    H, W = background.shape
    gh, gw = glyph.shape
    dx, dy = offset
    r = normalized_offset(dx, dy, (H, W), (gh, gw))  # validates the offset
    oy = (H - gh) // 2 + dy
    ox = (W - gw) // 2 + dx
    mask = glyph > GLYPH_THRESHOLD
    img = background.astype(np.float32, copy=True)
    img[oy:oy + gh, ox:ox + gw][mask] = 1.0
    target = np.zeros((H, W), dtype=np.uint8)
    target[oy:oy + gh, ox:ox + gw][mask] = digit_class + 1
    full = np.zeros((H, W), dtype=bool)
    full[oy:oy + gh, ox:ox + gw] = mask
    meta = SampleMeta(digit_class, (dx, dy), r, mask_bbox(full))
    return Sample(img.reshape(1, 1, H, W), target, meta)


# --------------------------------------------------------------------------
# dataset streams

@dataclass(frozen=True)
class DatasetConfig:
    height: int = 64
    width: int = 96
    policy: PlacementPolicy = Unrestricted()
    background: BackgroundSpec = NoisePool()
    count: int = 1
    master_seed: int = 0
    glyph_source: str = "builtin"

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.master_seed < 0:  # seed-tree names are non-negative
            raise ValueError("master_seed must be >= 0")
        gh, gw = _glyphs_for(self.glyph_source).images.shape[1:]
        if gh > self.height or gw > self.width:
            raise ValueError(f"glyph {gh}x{gw} does not fit a "
                             f"{self.height}x{self.width} image")


def sample_at(config: DatasetConfig, index: int) -> Sample:
    """Sample `index` of the stream, reproducible in isolation."""
    glyphs = _glyphs_for(config.glyph_source)
    rng = stream(config.master_seed, SAMPLE, index)
    k = int(rng.integers(len(glyphs.images)))
    glyph = glyphs.images[k]
    hw = (config.height, config.width)
    dx, dy = sample_placement(config.policy, hw, glyph.shape, rng)
    background = generate_background(
        config.background, hw, stream(config.master_seed, BACKGROUND, index))
    return composite_sample(glyph, int(glyphs.labels[k]), background,
                            (dx, dy))


def iter_samples(config: DatasetConfig) -> Iterator[Sample]:
    for i in range(config.count):
        yield sample_at(config, i)

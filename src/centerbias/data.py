"""Placement-controlled synthetic segmentation datasets.

Digit glyphs are pasted at policy-constrained positions over procedural-noise
or image-pool backgrounds; every non-background pixel is set to the maximum
intensity and labeled with its digit class + 1.  Sample i of a dataset is a
pure function of its SAMPLE and BACKGROUND streams (see rng), so datasets
are identical across generation order, block size and worker counts.
`sample_block` is the one generator: it makes a block of samples under
one or several placement policies; `sample_at` is a block of one, and
`iter_samples` a run of blocks.
"""

from __future__ import annotations

import functools
import os
import re
import struct
from dataclasses import astuple, dataclass, fields
from typing import Iterator, Union

import numpy as np

from .netpbm import read_pnm_gray
from .rng import BACKGROUND, SAMPLE, stream

__all__ = [
    "AllowedCentral", "Band", "ForbiddenCentral", "Unrestricted",
    "PlacementPolicy", "admits", "policy_label", "parse_policy",
    "GlyphSet", "parse_idx", "load_glyph_dir", "builtin_glyphs",
    "NoisePool", "ImageDir", "generate_background",
    "edge_distance", "admitted_offsets",
    "sample_placement", "composite_sample",
    "Sample", "DatasetConfig", "SampleBlock",
    "sample_block", "sample_at", "iter_samples", "mask_bbox",
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


# the label prefix of each policy kind with bounds; a label is the prefix,
# ":" and the bounds joined by "-", each the shortest text that reads back
# as the same float ("0.1", "1e-05", "0.30000000000000004"; -0.0 is "0")
_LABEL_PREFIX = {AllowedCentral: "allowed", Band: "band",
                 ForbiddenCentral: "forbidden"}


def policy_label(policy: PlacementPolicy) -> str:
    if isinstance(policy, Unrestricted):
        return "unrestricted"
    bounds = "-".join(repr(float(v) + 0.0).removesuffix(".0")
                      for v in astuple(policy))
    return f"{_LABEL_PREFIX[type(policy)]}:{bounds}"


def parse_policy(token: str) -> PlacementPolicy:
    """Inverse of policy_label, also used for CLI flags.  A token that is
    not a label raises `cannot parse placement policy`; a label out of its
    policy's range raises the policy's own error."""
    token = token.strip()
    if token == "unrestricted":
        return Unrestricted()
    prefix, _, arg = token.partition(":")
    cls = {p: c for c, p in _LABEL_PREFIX.items()}.get(prefix)
    try:  # an exponent's "-" (band:1e-05-0.1) does not split the bounds
        values = [float(v) for v in re.split(r"(?<![eE])-", arg)]
    except ValueError:
        values = []
    if cls is None or len(values) != len(fields(cls)):
        raise ValueError(f"cannot parse placement policy {token!r}")
    return cls(*values)


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
    if size < 7:  # a font pixel needs one image pixel at least
        raise ValueError(f"builtin glyph size must be >= 7, got {size}")
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


@functools.lru_cache(maxsize=16)
def admitted_offsets(policy: PlacementPolicy, image_hw: tuple[int, int],
                     object_hw: tuple[int, int]) -> np.ndarray:
    """Every in-frame (dx, dy) whose edge distance the policy admits, as a
    read-only (n, 2) int array in row-major order of the offset rectangle
    (dy, then dx).  A policy that admits none at these sizes raises."""
    H, W = image_hw
    h, w = object_hw
    max_dy = (H - h) // 2
    max_dx = (W - w) // 2
    dy, dx = np.mgrid[-max_dy:max_dy + 1, -max_dx:max_dx + 1]
    keep = admits(policy, edge_distance(np.abs(dx), np.abs(dy),
                                        max_dx, max_dy))
    if not keep.any():
        raise ValueError(f"{policy_label(policy)} admits no offset of a "
                         f"{h}x{w} glyph on a {H}x{W} image")
    offsets = np.stack([dx[keep], dy[keep]], axis=1)
    offsets.flags.writeable = False
    return offsets


def sample_placement(policy: PlacementPolicy, image_hw: tuple[int, int],
                     object_hw: tuple[int, int],
                     rng: np.random.Generator) -> tuple[int, int]:
    """Uniform integer offset over the policy's admitted set: one draw of
    an index into `admitted_offsets`."""
    offsets = admitted_offsets(policy, tuple(image_hw), tuple(object_hw))
    return tuple(offsets[rng.integers(len(offsets))].tolist())


# --------------------------------------------------------------------------
# backgrounds

@dataclass(frozen=True)
class NoisePool:
    KIND = "noise"
    smoothing: int = 2

    def __post_init__(self):
        if self.smoothing < 0:
            raise ValueError("smoothing must be >= 0")


@dataclass(frozen=True)
class ImageDir:
    KIND = "image_dir"
    path: str


BackgroundSpec = Union[NoisePool, ImageDir]


def _box_blur(img: np.ndarray, radius: int) -> np.ndarray:
    """Mean filter over the last two axes with clamped windows, separable
    via cumulative sums; a stack of images is blurred image by image."""
    if radius <= 0:
        return img

    def blur_axis(a, axis):
        # window sum of pixel i: cs[hi - 1] - cs[lo - 1], the second term
        # only where the window does not start at pixel 0
        n = a.shape[axis]
        idx = np.arange(n)
        lo = np.maximum(idx - radius, 0)
        hi = np.minimum(idx + radius + 1, n)
        cs = np.cumsum(a, axis=axis)
        sums = np.take(cs, hi - 1, axis=axis)
        last = np.moveaxis(sums, axis, -1)
        last[..., radius + 1:] -= np.moveaxis(cs, axis, -1)[
            ..., :max(n - radius - 1, 0)]
        last /= (hi - lo).astype(a.dtype)
        return sums

    return blur_axis(blur_axis(img, -2), -1)


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


def _image_crop(pool: tuple, hw: tuple[int, int],
                rng: np.random.Generator) -> np.ndarray:
    """A random image of the pool, randomly cropped and scaled to hw."""
    H, W = hw
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
    return _nearest_resize(crop, hw)


def _backgrounds(spec: BackgroundSpec, hw: tuple[int, int],
                 rngs: list[np.random.Generator]) -> np.ndarray:
    """(n, H, W) float32 backgrounds in [0, BACKGROUND_CAP], one from each
    generator.  Noise is drawn image by image and blurred as one stack."""
    H, W = hw
    if isinstance(spec, NoisePool):
        noise = np.empty((len(rngs), H, W))
        for rng, out in zip(rngs, noise):
            rng.random(out=out)
        img = _box_blur(noise, spec.smoothing)
    elif isinstance(spec, ImageDir):
        pool = _image_pool(spec.path)
        img = np.stack([_image_crop(pool, hw, rng) for rng in rngs])
    else:
        raise TypeError(f"not a background spec: {spec!r}")
    return np.clip(img, 0.0, BACKGROUND_CAP, out=img).astype(np.float32)


def generate_background(spec: BackgroundSpec, hw: tuple[int, int],
                        rng: np.random.Generator) -> np.ndarray:
    """Background image in [0, BACKGROUND_CAP] as float32."""
    return _backgrounds(spec, hw, [rng])[0]


# --------------------------------------------------------------------------
# samples

@dataclass
class Sample:
    input: np.ndarray    # (1, 1, H, W) float32 in [0, 1]
    target: np.ndarray   # (H, W) uint8; 0 background, 1..10 digit classes


def mask_bbox(mask: np.ndarray) -> tuple[int, int, int, int] | None:
    """Tight (x, y, w, h) box of a boolean mask; None if it is empty."""
    ys, xs = np.nonzero(mask)
    if ys.size == 0:
        return None
    x0, x1 = int(xs.min()), int(xs.max())
    y0, y1 = int(ys.min()), int(ys.max())
    return (x0, y0, x1 - x0 + 1, y1 - y0 + 1)


GLYPH_THRESHOLD = 0.5


def _composite(glyphs: np.ndarray, classes, backgrounds: np.ndarray,
               offsets) -> tuple[np.ndarray, np.ndarray]:
    """Paste binarized glyph j onto background j at offsets[j] = (dx, dy)
    from the center: (n, 1, H, W) float32 inputs and (n, H, W) uint8 class
    maps.  Mask pixels get intensity exactly 1.0 and class value
    classes[j] + 1."""
    n, H, W = backgrounds.shape
    gh, gw = glyphs.shape[1:]
    X = backgrounds.astype(np.float32).reshape(n, 1, H, W)
    T = np.zeros((n, H, W), dtype=np.uint8)
    for x, t, glyph, cls, (dx, dy) in zip(X[:, 0], T, glyphs, classes,
                                          offsets):
        mask = glyph > GLYPH_THRESHOLD
        oy = (H - gh) // 2 + dy
        ox = (W - gw) // 2 + dx
        x[oy:oy + gh, ox:ox + gw][mask] = 1.0
        t[oy:oy + gh, ox:ox + gw][mask] = cls + 1
    return X, T


def composite_sample(glyph: np.ndarray, digit_class: int,
                     background: np.ndarray, offset: tuple[int, int]
                     ) -> Sample:
    """Paste a binarized glyph onto a background at an offset (dx, dy) from
    the center.

    Mask pixels get intensity exactly 1.0 and target value digit_class + 1.
    """
    (H, W), (gh, gw) = background.shape, glyph.shape
    dx, dy = offset
    if abs(dx) > (W - gw) // 2 or abs(dy) > (H - gh) // 2:
        raise ValueError(f"offset ({dx}, {dy}) puts the {gh}x{gw} glyph "
                         f"outside the {H}x{W} image")
    X, T = _composite(glyph[None], [digit_class], background[None], [offset])
    return Sample(X, T[0])


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
        try:
            gh, gw = _glyphs_for(self.glyph_source).images.shape[1:]
        except ValueError as e:  # a builtin size below 7, a bad IDX file
            raise ValueError(f"glyph_source: {e}") from None
        if gh > self.height or gw > self.width:
            raise ValueError(f"glyph {gh}x{gw} does not fit a "
                             f"{self.height}x{self.width} image")
        # raises if the policy admits no offset
        admitted_offsets(self.policy, (self.height, self.width), (gh, gw))
        if isinstance(self.background, ImageDir):
            _image_pool(self.background.path)  # raises unless it holds images


BLOCK = 32  # samples per sample_block call of iter_samples and training


@dataclass(frozen=True)
class SampleBlock:
    """Samples of one stream under several placement policies: each has
    one digit and one background, and an offset per policy."""

    glyphs: np.ndarray       # (n, gh, gw) the samples' glyphs
    classes: np.ndarray      # (n,) their digit classes
    backgrounds: np.ndarray  # (n, H, W) float32
    offsets: np.ndarray      # (policies, n, 2) (dx, dy) from the center

    def composite(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        """Inputs (n, 1, H, W) float32 and class maps (n, H, W) uint8 of
        the samples placed by policy p."""
        return _composite(self.glyphs, self.classes, self.backgrounds,
                          self.offsets[p])


def sample_block(config: DatasetConfig, indices: range,
                 policies=None) -> SampleBlock:
    """Samples `indices` of the stream under each of `policies` (default:
    the config's own).  Each index's digit and background are made once:
    its digit and then, from the same state for every policy, its offset
    are drawn from its SAMPLE stream, and the noise of all its backgrounds
    is blurred as one stack.  No bit depends on the block or on the other
    policies: policy p's samples equal sample_at of the config with policy
    p."""
    policies = (config.policy,) if policies is None else tuple(policies)
    glyph_set = _glyphs_for(config.glyph_source)
    hw = (config.height, config.width)
    ghw = glyph_set.images.shape[1:]
    ks = np.empty(len(indices), dtype=np.int64)
    offsets = np.empty((len(policies), len(indices), 2), dtype=np.int64)
    for j, i in enumerate(indices):
        rng = stream(config.master_seed, SAMPLE, i)
        ks[j] = rng.integers(len(glyph_set.images))
        drawn = rng.bit_generator.state
        for p, policy in enumerate(policies):
            rng.bit_generator.state = drawn
            offsets[p, j] = sample_placement(policy, hw, ghw, rng)
    backgrounds = _backgrounds(
        config.background, hw,
        [stream(config.master_seed, BACKGROUND, i) for i in indices])
    return SampleBlock(glyph_set.images[ks], glyph_set.labels[ks],
                       backgrounds, offsets)


def _samples(block: SampleBlock) -> Iterator[Sample]:
    """The block's samples under its first policy."""
    X, T = block.composite(0)
    for j in range(len(T)):
        yield Sample(X[j:j + 1], T[j])


def sample_at(config: DatasetConfig, index: int) -> Sample:
    """Sample `index` of the stream, reproducible in isolation."""
    return next(_samples(sample_block(config, range(index, index + 1))))


def iter_samples(config: DatasetConfig) -> Iterator[Sample]:
    """The whole stream, generated one block of BLOCK samples at a time."""
    for start in range(0, config.count, BLOCK):
        yield from _samples(sample_block(
            config, range(start, min(start + BLOCK, config.count))))

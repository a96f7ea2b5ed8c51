"""Mitigation transforms: periodic shifts, shift-object-to-boundary, and the
input-level edge-band drop.

All transforms are pure given an explicit RNG stream.  Periodic shifts wrap
pixel content modularly; a bounding box that straddles the wrap seam is split
into the corresponding fragments.  `random_shift` and `boundary_shift` pick
the shift, so array-level callers (the training harness) apply exactly the
shifts the Sample-level transforms do.  `edge_block_drop` acts on whatever
array it is given; the harness applies it to input images only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Sample, SampleMeta, mask_bbox

__all__ = [
    "ShiftSpec", "EdgeDropSpec", "periodic_shift", "shift_bboxes",
    "shift_sample", "random_shift", "random_periodic_shift", "boundary_shift",
    "shift_object_to_boundary", "edge_block_drop",
]

Box = tuple[int, int, int, int]  # (x, y, w, h) in pixels


@dataclass(frozen=True)
class ShiftSpec:
    """Periodic translation by (dx, dy); positive moves right/down."""

    dx: int
    dy: int


@dataclass(frozen=True)
class EdgeDropSpec:
    probability: float
    band_width: int

    def __post_init__(self):
        if not 0 <= self.probability <= 1:
            raise ValueError("probability must lie in [0, 1]")
        if self.band_width < 1:
            raise ValueError("band_width must be >= 1")


def periodic_shift(array: np.ndarray, spec: ShiftSpec) -> np.ndarray:
    """Roll the last two axes so pixel (i, j) moves to
    ((i + dy) mod H, (j + dx) mod W)."""
    if array.ndim < 2:
        raise ValueError("need at least 2 spatial dims")
    return np.roll(array, (spec.dy, spec.dx), axis=(-2, -1))


def _split_segments(start: int, length: int, size: int) -> list[tuple[int, int]]:
    """Wrap an interval modularly; returns up to two (start, length) pieces."""
    start %= size
    if start + length <= size:
        return [(start, length)]
    first = size - start
    return [(start, first), (0, length - first)]


def shift_bboxes(boxes: list[Box], spec: ShiftSpec, width: int, height: int
                 ) -> tuple[list[Box], list[int]]:
    """Move boxes with the image; seam-straddling boxes split into pieces.

    Returns (boxes, origins) where origins[i] is the index of the input box
    each output box came from, so labels can be replicated alongside.
    """
    out: list[Box] = []
    origins: list[int] = []
    for idx, (x, y, w, h) in enumerate(boxes):
        for sx, sw in _split_segments(x + spec.dx, w, width):
            for sy, sh in _split_segments(y + spec.dy, h, height):
                out.append((sx, sy, sw, sh))
                origins.append(idx)
    return out, origins


def shift_sample(sample: Sample, spec: ShiftSpec) -> Sample:
    """Periodic shift of a Sample's image and label map together.

    The offset/r bookkeeping is only meaningful for an unwrapped object: it
    is kept when the shifted mask stays in one piece and cleared otherwise.
    """
    img = periodic_shift(sample.input, spec)
    target = periodic_shift(sample.target, spec)
    H, W = target.shape
    meta = sample.meta
    offset = r = None
    bbox = mask_bbox(target > 0)
    if meta.bbox is not None:
        pieces, _ = shift_bboxes([meta.bbox], spec, W, H)
        if len(pieces) > 1:
            bbox = None  # wrapped: no single tight box describes the object
    return Sample(img, target, SampleMeta(meta.digit_class, offset, r, bbox))


def random_shift(hw: tuple[int, int], rng: np.random.Generator,
                 max_frac: float = 0.25) -> ShiftSpec:
    """Uniform dx, dy up to +-floor(max_frac * dim) pixels, dx drawn first."""
    H, W = hw
    mx = int(max_frac * W)
    my = int(max_frac * H)
    dx = int(rng.integers(-mx, mx + 1)) if mx else 0
    dy = int(rng.integers(-my, my + 1)) if my else 0
    return ShiftSpec(dx, dy)


def random_periodic_shift(sample: Sample, rng: np.random.Generator,
                          max_frac: float = 0.25) -> Sample:
    """Shift by uniform dx, dy up to +-floor(max_frac * dim) pixels."""
    return shift_sample(sample,
                        random_shift(sample.target.shape, rng, max_frac))


_SIDE_ORDER = ("left", "right", "top", "bottom")


def boundary_shift(box: Box, hw: tuple[int, int]) -> ShiftSpec:
    """The shift that moves `box` onto its nearest image edge.

    The box's smallest edge distance picks the direction (ties resolved in
    left, right, top, bottom order) and the shift magnitude equals that
    distance, leaving that box edge exactly on the boundary.
    """
    H, W = hw
    x, y, w, h = box
    distances = {
        "left": x,
        "right": W - (x + w),
        "top": y,
        "bottom": H - (y + h),
    }
    side = min(_SIDE_ORDER, key=distances.get)  # min keeps the first tie
    d = distances[side]
    return ShiftSpec(
        dx=-d if side == "left" else d if side == "right" else 0,
        dy=-d if side == "top" else d if side == "bottom" else 0)


def shift_object_to_boundary(image: np.ndarray, bboxes: list[Box],
                             labels: list, rng: np.random.Generator
                             ) -> tuple[np.ndarray, list[Box], list]:
    """Periodically shift so one random object's box lands on the image edge.

    The box is drawn uniformly from `bboxes`; `boundary_shift` picks the
    shift.
    """
    if not bboxes:
        raise ValueError("need at least one bounding box")
    H, W = image.shape[-2], image.shape[-1]
    spec = boundary_shift(bboxes[int(rng.integers(len(bboxes)))], (H, W))
    shifted = periodic_shift(image, spec)
    boxes, origins = shift_bboxes(bboxes, spec, W, H)
    return shifted, boxes, [labels[i] for i in origins]


def edge_block_drop(activation: np.ndarray, spec: EdgeDropSpec,
                    rng: np.random.Generator) -> np.ndarray:
    """Zero a full band on one random side, rescaling survivors.

    With probability `probability` every channel loses a band_width-wide
    strip on a uniformly drawn side; the remaining values are scaled by
    total/kept cell count so the expected mass is preserved.  Otherwise the
    input is returned as is.  The training harness applies it to input
    images (an input-level augmentation), not to hidden activations.
    """
    n, c, h, w = activation.shape
    if spec.band_width >= min(h, w):
        raise ValueError(
            f"band_width {spec.band_width} too wide for {h}x{w} activation")
    if rng.random() >= spec.probability:
        return activation
    side = _SIDE_ORDER[int(rng.integers(4))]
    b = spec.band_width
    total = h * w
    kept = total - (b * h if side in ("left", "right") else b * w)
    out = activation * (total / kept)
    if side == "left":
        out[:, :, :, :b] = 0
    elif side == "right":
        out[:, :, :, w - b:] = 0
    elif side == "top":
        out[:, :, :b, :] = 0
    else:
        out[:, :, h - b:, :] = 0
    return out

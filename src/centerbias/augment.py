"""Mitigation transforms: periodic shifts, shift-object-to-boundary, and the
input-level edge-band drop.

Every augmentation has one implementation: a transform
`(x, t, rng) -> (x, t)` on an input image `x` (shape (C, H, W)) and its
label map `t` (shape (H, W)), built by `build_augmentations` from a spec
such as `{"name": "random_periodic_shift", "max_frac": 0.25}`.  Training
applies these transforms to each sample; `centerbias augment` applies the
same ones to a sample file and checks their postconditions.

Periodic shifts wrap pixel content modularly and move the label map with
the image.  `random_shift` and `boundary_shift` pick the shift;
`edge_block_drop` zeroes a band of the input image only.  All randomness
comes from the explicit `rng` stream.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from .data import mask_bbox

__all__ = [
    "ShiftSpec", "EdgeDropSpec", "periodic_shift", "random_shift",
    "boundary_shift", "edge_block_drop", "build_augmentations",
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
        if not _is_fraction(self.probability):
            raise ValueError(f"probability must be a number in [0, 1], "
                             f"got {self.probability!r}")
        if type(self.band_width) is not int or self.band_width < 1:
            raise ValueError(f"band_width must be an integer >= 1, "
                             f"got {self.band_width!r}")

    def check_fits(self, hw: tuple[int, int]) -> None:
        """Raise unless a band leaves part of an (H, W) image standing."""
        if self.band_width >= min(hw):
            raise ValueError(f"band_width {self.band_width} too wide for "
                             f"{hw[0]}x{hw[1]} images")


def _is_fraction(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0 <= value <= 1)


def periodic_shift(array: np.ndarray, spec: ShiftSpec) -> np.ndarray:
    """Roll the last two axes so pixel (i, j) moves to
    ((i + dy) mod H, (j + dx) mod W)."""
    if array.ndim < 2:
        raise ValueError("need at least 2 spatial dims")
    return np.roll(array, (spec.dy, spec.dx), axis=(-2, -1))


def random_shift(hw: tuple[int, int], rng: np.random.Generator,
                 max_frac: float = 0.25) -> ShiftSpec:
    """Uniform dx, dy up to +-floor(max_frac * dim) pixels, dx drawn first."""
    H, W = hw
    mx = int(max_frac * W)
    my = int(max_frac * H)
    dx = int(rng.integers(-mx, mx + 1)) if mx else 0
    dy = int(rng.integers(-my, my + 1)) if my else 0
    return ShiftSpec(dx, dy)


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


def edge_block_drop(x: np.ndarray, spec: EdgeDropSpec,
                    rng: np.random.Generator) -> np.ndarray:
    """Zero a full band on one random side, rescaling survivors.

    With probability `probability` every channel loses a band_width-wide
    strip of the last two axes on a uniformly drawn side; the remaining
    values are scaled by total/kept cell count so the expected mass is
    preserved.  Otherwise the input is returned as is.  Training applies it
    to input images (an input-level augmentation), not to hidden
    activations.
    """
    h, w = x.shape[-2:]
    spec.check_fits((h, w))
    if rng.random() >= spec.probability:
        return x
    side = _SIDE_ORDER[int(rng.integers(4))]
    b = spec.band_width
    total = h * w
    kept = total - (b * h if side in ("left", "right") else b * w)
    out = x * (total / kept)
    if side == "left":
        out[..., :, :b] = 0
    elif side == "right":
        out[..., :, w - b:] = 0
    elif side == "top":
        out[..., :b, :] = 0
    else:
        out[..., h - b:, :] = 0
    return out


# --------------------------------------------------------------------------
# registry of (x, t, rng) -> (x, t) transforms, referenced by name in
# config JSON; each factory takes the image size and the spec's parameters

def _shift_pair(x, t, spec):
    return periodic_shift(x, spec), periodic_shift(t, spec)


def _build_random_shift(hw, max_frac=0.25):
    if not _is_fraction(max_frac):
        raise ValueError(
            f"max_frac must be a number in [0, 1], got {max_frac!r}")

    def apply(x, t, rng):
        return _shift_pair(x, t, random_shift(t.shape, rng, max_frac))

    return apply


def _build_boundary_shift(hw):
    # one object per sample: its box is the mask's tight bbox, so no box is
    # drawn and `rng` is left untouched
    def apply(x, t, rng):
        box = mask_bbox(t > 0)
        if box is None:
            return x, t
        return _shift_pair(x, t, boundary_shift(box, t.shape))

    return apply


def _build_edge_drop(hw, probability=0.5, band_width=4):
    spec = EdgeDropSpec(probability, band_width)
    spec.check_fits(hw)

    def apply(x, t, rng):
        return edge_block_drop(x, spec, rng), t

    return apply


_AUGMENTS = {
    "random_periodic_shift": _build_random_shift,
    "shift_object_to_boundary": _build_boundary_shift,
    "edge_block_drop": _build_edge_drop,
}


def build_augmentations(specs, hw: tuple[int, int]) -> list:
    """One `(x, t, rng) -> (x, t)` transform per spec, for (H, W) images.

    Raises ValueError for an unknown name, an unknown parameter key or a
    parameter out of range.
    """
    fns = []
    for spec in specs:
        name = spec.get("name") if isinstance(spec, dict) else None
        if not isinstance(name, str) or name not in _AUGMENTS:
            raise ValueError(f"unknown augmentation {spec!r}")
        factory = _AUGMENTS[name]
        params = {k: v for k, v in spec.items() if k != "name"}
        allowed = list(inspect.signature(factory).parameters)[1:]
        unknown = sorted(set(params) - set(allowed))
        if unknown:
            raise ValueError(f"augmentation {name!r} has unknown parameters "
                             f"{unknown}; allowed: {allowed}")
        fns.append(factory(hw, **params))
    return fns

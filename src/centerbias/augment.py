"""Mitigation transforms: periodic shifts, shift-object-to-boundary, and the
input-level edge-band drop.

Every augmentation kind is one frozen record that is itself its transform
`(x, t, rng) -> (x, t)` on an input image `x` (shape (C, H, W)) and its
label map `t` (shape (H, W)).  `build_augmentations` reads the records from
specs such as `{"name": "random_periodic_shift", "max_frac": 0.25}`: the
name picks the kind and the config codec reads the rest.  Training applies
these transforms to each sample; `centerbias augment` applies the same ones
to a sample file and checks their postconditions.

Periodic shifts wrap pixel content modularly and move the label map with
the image.  `random_shift` and `boundary_shift` pick the shift;
`edge_block_drop` zeroes a band of the input image only.  All randomness
comes from the explicit `rng` stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import from_dict
from .data import mask_bbox

__all__ = [
    "ShiftSpec", "RandomPeriodicShift", "ShiftObjectToBoundary",
    "EdgeDropSpec", "periodic_shift", "random_shift", "boundary_shift",
    "SIDES", "edge_band", "edge_block_drop", "build_augmentations",
]

Box = tuple[int, int, int, int]  # (x, y, w, h) in pixels


@dataclass(frozen=True)
class ShiftSpec:
    """Periodic translation by (dx, dy); positive moves right/down."""

    dx: int
    dy: int


@dataclass(frozen=True)
class RandomPeriodicShift:
    """A uniform periodic shift of up to +-max_frac of each dimension."""

    max_frac: float = 0.25

    def __post_init__(self):
        if not 0 <= self.max_frac <= 1:
            raise ValueError(
                f"max_frac must be in [0, 1], got {self.max_frac!r}")

    def __call__(self, x, t, rng):
        return _shift_pair(x, t, random_shift(t.shape, rng, self.max_frac))


@dataclass(frozen=True)
class ShiftObjectToBoundary:
    """The periodic shift that moves the object onto its nearest edge."""

    def __call__(self, x, t, rng):
        # one object per sample: its box is the mask's tight bbox, so no box
        # is drawn and `rng` is left untouched
        box = mask_bbox(t > 0)
        if box is None:
            return x, t
        return _shift_pair(x, t, boundary_shift(box, t.shape))


@dataclass(frozen=True)
class EdgeDropSpec:
    """The input-level edge-band drop (see edge_block_drop)."""

    probability: float = 0.5
    band_width: int = 4

    def __post_init__(self):
        if not 0 <= self.probability <= 1:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability!r}")
        if self.band_width < 1:
            raise ValueError(
                f"band_width must be >= 1, got {self.band_width!r}")

    def check_fits(self, hw: tuple[int, int]) -> None:
        """Raise unless a band leaves part of an (H, W) image standing."""
        if self.band_width >= min(hw):
            raise ValueError(f"band_width {self.band_width} too wide for "
                             f"{hw[0]}x{hw[1]} images")

    def __call__(self, x, t, rng):
        return edge_block_drop(x, self, rng), t


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


SIDES = ("left", "right", "top", "bottom")


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
    side = min(SIDES, key=distances.get)  # min keeps the first tie
    d = distances[side]
    return ShiftSpec(
        dx=-d if side == "left" else d if side == "right" else 0,
        dy=-d if side == "top" else d if side == "bottom" else 0)


def edge_band(side: str, width: int,
              hw: tuple[int, int]) -> tuple[slice, slice]:
    """The (rows, cols) slices of the width-wide band on one side of an
    (H, W) image."""
    h, w = hw
    return {"left": (slice(None), slice(0, width)),
            "right": (slice(None), slice(w - width, w)),
            "top": (slice(0, width), slice(None)),
            "bottom": (slice(h - width, h), slice(None))}[side]


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
    band = edge_band(SIDES[int(rng.integers(4))], spec.band_width, (h, w))
    kept = np.ones((h, w), dtype=bool)
    kept[band] = False
    out = x * (h * w / int(kept.sum()))  # a float scale keeps x's dtype
    out[(..., *band)] = 0
    return out


def _shift_pair(x, t, spec):
    return periodic_shift(x, spec), periodic_shift(t, spec)


# the kinds, by the "name" that config JSON gives them
_AUGMENTS = {
    "random_periodic_shift": RandomPeriodicShift,
    "shift_object_to_boundary": ShiftObjectToBoundary,
    "edge_block_drop": EdgeDropSpec,
}


def build_augmentations(specs, hw: tuple[int, int]) -> list:
    """The transform of each spec, for (H, W) images.

    Raises a ValueError naming `augmentations[i]`, or the parameter as
    `augmentations[i].<param>`, for an unknown name, an unknown or mistyped
    parameter, or a parameter out of range.
    """
    fns = []
    for i, spec in enumerate(specs):
        where = f"augmentations[{i}]"
        if not isinstance(spec, dict):
            raise ValueError(f"{where} must be a dict, got {spec!r}")
        name = spec.get("name")
        if not isinstance(name, str) or name not in _AUGMENTS:
            raise ValueError(f"{where}.name must be one of "
                             f"{list(_AUGMENTS)}, got {name!r}")
        params = {k: v for k, v in spec.items() if k != "name"}
        fn = from_dict(_AUGMENTS[name], params, where)
        if isinstance(fn, EdgeDropSpec):
            try:
                fn.check_fits(hw)
            except ValueError as e:
                raise ValueError(f"{where}: {e}") from None
        fns.append(fn)
    return fns

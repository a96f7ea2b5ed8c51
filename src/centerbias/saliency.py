"""Gradient saliency maps and saliency-shift difference matrices.

The scalar score behind every map is the mean, over the object mask, of
each mask pixel's logit for its own class in the class map; the map is the
absolute input gradient of that score.  A saliency-shift map slides a crop
window over an oversized canvas (object and background move together),
re-aligns each map into object-centered coordinates, and reduces each shift
to the mean absolute difference from the centered map over the overlap,
finally dividing the whole matrix by its population standard deviation.

The crops of a shift map go through the network in batches of SHIFT_BATCH
(8), each run by `unet.run_shards` as two shards of 4, with a backward pass
that computes only the input gradient.  An image's bits do not depend on
its batch position (see tensor_core), so every map equals the one computed
alone.
Why 8: a batch-8 taped forward and backward stays near the peak memory of
a batch-32 evaluation forward, and larger batches gain little time for much
memory.  At 64x96 on 2 cores, a 64-sample `evaluate_bands` over 3 bands and
then a 289-map grid (best of 3, fresh process per run) took 2.40 / 1.50 /
1.37 / 1.20 / 1.31 s of map time at batch 1 / 4 / 8 / 16 / 32, and left the
peak RSS at 80 MB at batch 1 and 4 (the evaluation's own peak), 84 MB at 8,
112 MB at 16 and 177 MB at 32.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import unet
from .data import (BackgroundSpec, Sample, composite_sample, edge_distance,
                   generate_background)
from .harness import write_matrix_csv
from .netpbm import to_u8, write_pgm
from .rng import BACKGROUND, stream

__all__ = [
    "saliency_maps", "saliency_map", "CanvasScene", "make_scene",
    "ShiftGrid", "SaliencyShiftMap", "saliency_shift_map",
    "dispersion_normalize", "ring_ratio", "export_shift_map", "SHIFT_BATCH",
]

SHIFT_BATCH = 8


def saliency_maps(model: unet.Model, inputs: np.ndarray,
                  targets: np.ndarray) -> np.ndarray:
    """Absolute input gradient of each image's score: the mean, over its
    object mask (targets > 0), of each mask pixel's logit for that pixel's
    class in `targets`.

    Takes the (N, 1, H, W) inputs and (N, H, W) class maps of
    `unet.sample_losses`.  The images run through `unet.run_shards`, each
    shard one taped forward and one input-only backward; returns an
    (N, H, W) array.  Raises before any forward pass if an image has an
    empty mask.
    """
    counts = (targets > 0).sum(axis=(1, 2))
    if not counts.all():
        raise ValueError(f"sample {counts.argmin()} has an empty object mask")

    def shard(lo, hi):
        logits, tape = unet.forward(model, inputs[lo:hi])
        # the score's gradient w.r.t. the logits, in their frame
        logits[...] = 0
        t = targets[lo:hi]
        i, y, x = np.nonzero(t)
        logits[t[i, y, x], i, y + 1, x + 1] = 1.0 / counts[lo + i]
        tape.grad_logits = logits
        del logits  # so the backward frees the frame after the head's
        _, grad_input = unet.backward(model, tape, need_params=False)
        return np.abs(grad_input[:, 0])

    return np.concatenate(unet.run_shards(shard, len(inputs)))


def saliency_map(model: unet.Model, sample: Sample) -> np.ndarray:
    """One sample's (H, W) map.  perfbench/layers.py times this name."""
    return saliency_maps(model, sample.input, sample.target[None])[0]


@dataclass
class CanvasScene:
    """Composited oversized canvas with the object at its exact center."""

    canvas: np.ndarray        # (Hc, Wc) float32
    target: np.ndarray        # (Hc, Wc) uint8 class map
    crop_hw: tuple[int, int]

    def crops(self, shifts) -> tuple[np.ndarray, np.ndarray]:
        """Inputs (n, 1, H, W) and class maps (n, H, W) of the (H, W)
        windows moved by each (dx, dy) of `shifts` from the centered
        position."""
        H, W = self.crop_hw
        my = (self.canvas.shape[0] - H) // 2
        mx = (self.canvas.shape[1] - W) // 2
        for dx, dy in shifts:
            if abs(dx) > mx or abs(dy) > my:
                raise ValueError(
                    f"shift ({dx}, {dy}) exceeds margins ({mx}, {my})")
        dx, dy = np.array(shifts, dtype=int).reshape(-1, 2).T
        windows = (my + dy, mx + dx)
        X = sliding_window_view(self.canvas, (H, W))[windows]
        T = sliding_window_view(self.target, (H, W))[windows]
        return X[:, None], T


def make_scene(glyph: np.ndarray, digit_class: int, crop_hw: tuple[int, int],
               extent: tuple[int, int],
               background: BackgroundSpec | None = None,
               seed: int = 0) -> CanvasScene:
    """Build a canvas sized so every crop in the shift grid stays inside and
    fully contains the glyph.  background=None gives an all-black canvas."""
    H, W = crop_hw
    ex, ey = extent
    gh, gw = glyph.shape
    if (H - gh) // 2 < ey or (W - gw) // 2 < ex:
        raise ValueError(
            f"extent ({ex}, {ey}) lets the {gh}x{gw} glyph escape a "
            f"{H}x{W} crop")
    ch, cw = H + 2 * ey, W + 2 * ex
    if background is None:
        canvas = np.zeros((ch, cw), dtype=np.float32)
    else:
        canvas = generate_background(background, (ch, cw),
                                     stream(seed, BACKGROUND))
    scene = composite_sample(glyph, digit_class, canvas, (0, 0))
    return CanvasScene(scene.input[0, 0], scene.target, crop_hw)


@dataclass(frozen=True)
class ShiftGrid:
    """Symmetric integer shift lattice: +-extent in steps of stride."""

    extent_x: int
    extent_y: int
    stride: int = 1

    def __post_init__(self):
        if self.extent_x < 0 or self.extent_y < 0:
            raise ValueError("extents must be >= 0")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.extent_x % self.stride or self.extent_y % self.stride:
            raise ValueError("extents must be multiples of the stride")

    @property
    def dxs(self) -> list[int]:
        return list(range(-self.extent_x, self.extent_x + 1, self.stride))

    @property
    def dys(self) -> list[int]:
        return list(range(-self.extent_y, self.extent_y + 1, self.stride))


@dataclass
class SaliencyShiftMap:
    values: np.ndarray        # dispersion-normalized unless flagged
    raw: np.ndarray           # mean |S0 - S| per shift, before normalization
    grid: ShiftGrid
    normalized: bool


def dispersion_normalize(matrix: np.ndarray) -> tuple[np.ndarray, bool]:
    """Divide by the population standard deviation.

    A constant matrix has zero dispersion; it is returned unchanged with a
    False flag instead of dividing by zero.
    """
    std = float(matrix.std())
    if std == 0.0:
        return matrix.copy(), False
    return matrix / std, True


def _overlap_mean_absdiff(s0: np.ndarray, s: np.ndarray,
                          dx: int, dy: int) -> float:
    """Mean |s0 - s| in object-centered coordinates over the overlap."""
    H, W = s0.shape
    r0 = slice(max(0, dy), H + min(0, dy))
    c0 = slice(max(0, dx), W + min(0, dx))
    r1 = slice(max(0, -dy), H - max(0, dy))
    c1 = slice(max(0, -dx), W - max(0, dx))
    return float(np.abs(s0[r0, c0] - s[r1, c1]).mean())


def saliency_shift_map(model: unet.Model, scene: CanvasScene,
                       grid: ShiftGrid) -> SaliencyShiftMap:
    """Raw and dispersion-normalized saliency differences over a shift grid.

    Entry (dy, dx) compares the centered crop's saliency with the saliency
    of the crop moved by (dx, dy), translated back so the object overlaps
    itself.  Entries are independent; the (0, 0) entry is exactly 0.
    """
    shifts = [(dx, dy) for dy in grid.dys for dx in grid.dxs]
    maps = np.concatenate([
        saliency_maps(model, *scene.crops(shifts[i:i + SHIFT_BATCH]))
        for i in range(0, len(shifts), SHIFT_BATCH)])
    s0 = maps[shifts.index((0, 0))]
    raw = np.array([_overlap_mean_absdiff(s0, s, dx, dy)
                    for s, (dx, dy) in zip(maps, shifts)])
    raw = raw.reshape(len(grid.dys), len(grid.dxs))
    values, normalized = dispersion_normalize(raw)
    return SaliencyShiftMap(values, raw, grid, normalized)


def ring_ratio(shift_map: SaliencyShiftMap) -> float:
    """Mean raw entry of the outer ring (r > 0.8) over the inner (r < 0.2).

    A shift's r is its placement edge distance (`data.edge_distance`)
    within the extents: the larger of |dx| / extent_x and |dy| / extent_y,
    an axis of zero extent counting as 0.  inf when the inner mean is 0;
    nan when both extents are 0, which leaves no outer ring.
    """
    grid = shift_map.grid
    r = edge_distance(np.abs(grid.dxs)[None, :], np.abs(grid.dys)[:, None],
                      grid.extent_x, grid.extent_y)
    outer = shift_map.raw[r > 0.8]
    if not outer.size:
        return float("nan")
    inner = shift_map.raw[r < 0.2].mean()
    return float(outer.mean() / inner) if inner > 0 else float("inf")


def export_shift_map(shift_map: SaliencyShiftMap, stem) -> None:
    """Write <stem>.csv (one row per dy) and <stem>.pgm (max-scaled)."""
    stem = str(stem)
    write_matrix_csv(stem + ".csv", shift_map.grid.dys, shift_map.grid.dxs,
                     shift_map.values, corner="dy\\dx")
    write_pgm(stem + ".pgm", to_u8(shift_map.values))

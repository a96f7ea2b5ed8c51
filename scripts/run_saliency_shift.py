#!/usr/bin/env python3
"""Saliency-shift maps for trained checkpoints, plus the outer/inner ring
summary that contrasts center-trained and edge-trained models."""

import argparse
import os
import sys

import numpy as np

from centerbias import data, saliency, unet


def ring_ratio(sm: saliency.SaliencyShiftMap) -> float:
    """Mean of outer-ring entries (r > 0.8) over inner entries (r < 0.2)."""
    grid = sm.grid
    dys, dxs = np.array(grid.dys), np.array(grid.dxs)
    ry = np.abs(dys) / (grid.extent_y or 1)
    rx = np.abs(dxs) / (grid.extent_x or 1)
    r = np.maximum(ry[:, None], rx[None, :])
    outer = sm.raw[r > 0.8].mean()
    inner = sm.raw[r < 0.2].mean()
    return float(outer / inner) if inner > 0 else float("inf")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("checkpoints", nargs="+",
                        help="one or more U-Net checkpoint files")
    parser.add_argument("--out", default="runs/saliency")
    parser.add_argument("--digit", type=int, default=5)
    parser.add_argument("--height", type=int, default=64)
    parser.add_argument("--width", type=int, default=96)
    parser.add_argument("--extent-x", type=int, default=16)
    parser.add_argument("--extent-y", type=int, default=16)
    parser.add_argument("--stride", type=int, default=2)
    parser.add_argument("--background", choices=["black", "noise"],
                        default="noise")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    glyph = data.builtin_glyphs().images[args.digit]
    background = None if args.background == "black" else data.NoisePool()
    scene = saliency.make_scene(glyph, args.digit,
                                (args.height, args.width),
                                (args.extent_x, args.extent_y),
                                background, seed=args.seed)
    grid = saliency.ShiftGrid(args.extent_x, args.extent_y, args.stride)
    os.makedirs(args.out, exist_ok=True)
    for path in args.checkpoints:
        model = unet.load_checkpoint(path)
        sm = saliency.saliency_shift_map(model, scene, grid)
        stem = f"{args.out}/{path.rsplit('/', 1)[-1].removesuffix('.ckpt')}"
        saliency.export_shift_map(sm, stem)
        print(f"{path}: outer/inner ring ratio {ring_ratio(sm):.2f} "
              f"-> {stem}.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Desk-scale regional-bias experiment: center-restricted vs edge-restricted
training, band-wise evaluation, and the cross-test asymmetry ratios.

The default settings train 2 x 3 small U-Nets on 64x96 composites (about
20 minutes on 2 CPU cores); --quick shrinks everything for a fast smoke run.
"""

import argparse
import sys

from centerbias import data, harness, unet
from centerbias import tensor_core as tc


def build_configs(args):
    dataset = data.DatasetConfig(
        height=args.height, width=args.width,
        background=data.NoisePool(smoothing=2),
        glyph_source=args.glyphs)
    common = dict(
        dataset=dataset,
        model=unet.UNetConfig(padding=tc.PaddingMode(args.padding)),
        eval_bands=(data.Band(0.0, 0.1), data.Band(0.8, 1.0)),
        epochs=args.epochs, batch_size=args.batch_size,
        train_count=args.train_count, eval_count=args.eval_count,
        repeats=args.repeats, master_seed=args.seed,
        learning_rate=1e-3)
    center = harness.ExperimentConfig(
        train_policies=(data.AllowedCentral(0.3),),
        output_dir=f"{args.out}/center", **common)
    edge = harness.ExperimentConfig(
        train_policies=(data.ForbiddenCentral(0.7),),
        output_dir=f"{args.out}/edge", **common)
    augmented = harness.ExperimentConfig(
        train_policies=(data.AllowedCentral(0.3),),
        augmentations=({"name": "random_periodic_shift", "max_frac": 0.25},),
        output_dir=f"{args.out}/center_shifted", **common)
    return center, edge, augmented


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/regional_bias")
    parser.add_argument("--height", type=int, default=64)
    parser.add_argument("--width", type=int, default=96)
    parser.add_argument("--epochs", type=int, default=4)
    parser.add_argument("--batch-size", type=int, default=16)
    parser.add_argument("--train-count", type=int, default=6000)
    parser.add_argument("--eval-count", type=int, default=512)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--padding", default="zero",
                        choices=["zero", "circular", "reflect", "random"])
    parser.add_argument("--glyphs", default="builtin",
                        help="'builtin' or a directory of MNIST IDX files")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--with-mitigation", action="store_true",
                        help="also train the random-shift-augmented variant")
    parser.add_argument("--quick", action="store_true",
                        help="tiny smoke-scale settings")
    args = parser.parse_args(argv)
    if args.quick:
        args.epochs, args.train_count, args.eval_count = 1, 256, 32
        args.repeats = 1

    center, edge, augmented = build_configs(args)
    print("training center-restricted models "
          f"({center.repeats} repeats)...")
    rec_center = harness.run_regional_training(center, workers=args.workers)
    harness.export_results(rec_center)
    print("training edge-restricted models...")
    rec_edge = harness.run_regional_training(edge, workers=args.workers)
    harness.export_results(rec_edge)

    bands = rec_center.eval_labels
    print(f"\nmean loss (eval bands {bands}):")
    print(f"  center-trained: {rec_center.raw[0]}")
    print(f"  edge-trained:   {rec_edge.raw[0]}")
    ratios = harness.summarize_asymmetry(rec_center, rec_edge)
    print(f"  center-trained edge/center ratio: "
          f"{ratios['center_to_edge_ratio']:.1f}")
    print(f"  edge-trained center/edge ratio:   "
          f"{ratios['edge_to_center_ratio']:.2f}")

    if args.with_mitigation:
        print("\ntraining center-restricted + random periodic shift...")
        rec_aug = harness.run_regional_training(augmented,
                                                workers=args.workers)
        harness.export_results(rec_aug)
        aug_ratio = harness.summarize_asymmetry(
            rec_aug, rec_edge)["center_to_edge_ratio"]
        print(f"  augmented edge/center ratio: {aug_ratio:.2f} "
              f"(unaugmented: {ratios['center_to_edge_ratio']:.1f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

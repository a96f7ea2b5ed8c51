"""Command-line entry point.

Subcommands cover the whole laboratory: annotation audits, dataset preview
generation, regional-bias training/evaluation, saliency-shift maps,
augmentation probes, gradient verification, and re-rendering persisted
results.  Every command writes only under its --out directory and exits 0
only if the operation completed with all internal validations passing.

Exit codes: 0 success; 2 usage error; 3 missing input file; 4 invalid
config or malformed input; 5 a validation or verification check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import augment, coco_audit, data, harness, netpbm, saliency, unet
from . import tensor_core as tc
from .config import from_dict, to_dict
from .rng import AUGMENT, stream

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING = 3
EXIT_INVALID = 4
EXIT_FAILED = 5

LABEL_SCALE = 23  # class index 0..11 -> gray 0..253 in label PGMs


def _set_dotted(d: dict, key: str, value: str) -> None:
    parts = key.split(".")
    node = d
    for p in parts[:-1]:
        if p not in node or not isinstance(node[p], dict):
            node[p] = {}
        node = node[p]
    try:
        node[parts[-1]] = json.loads(value)
    except json.JSONDecodeError:
        node[parts[-1]] = value


def _load_config(start, path: str | None, overrides: list[str], **fixed):
    """The record `start` with a JSON file's top-level keys over it, then
    --set overrides, then `fixed`."""
    doc = to_dict(start)
    if path:
        with open(path) as f:
            loaded = json.load(f)
        if not isinstance(loaded, dict):
            raise ValueError(f"{path} must hold a JSON object")
        doc.update(loaded)
    for item in overrides or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ValueError(f"override {item!r} is not KEY=VALUE")
        _set_dotted(doc, key, value)
    return from_dict(type(start), {**doc, **fixed})


def cmd_audit(args) -> int:
    if args.grid < 1:
        raise ValueError(f"--grid must be >= 1, got {args.grid}")
    with open(args.annotations, "rb") as f:
        payload = f.read()
    aset = coco_audit.parse_annotations(payload)
    os.makedirs(args.out, exist_ok=True)
    modes = ("centroid", "bbox") if args.mode == "both" else (args.mode,)
    category = int(args.category) if args.category.isdigit() else args.category
    for mode in modes:
        fn = (coco_audit.centroid_heatmap if mode == "centroid"
              else coco_audit.bbox_heatmap)
        hm = fn(aset, category, args.grid)
        stem = os.path.join(args.out, f"heatmap_{mode}_{hm.category}.pgm")
        coco_audit.write_heatmap_pgm(hm, stem)
        print(f"{mode} heatmap for {hm.category!r}: {hm.total_count} "
              f"annotations, grid {args.grid}, dropped {aset.dropped} -> {stem}")
    return EXIT_OK


def cmd_gen(args) -> int:
    cfg = _load_config(data.DatasetConfig(), args.config, args.set,
                       count=args.count)
    os.makedirs(args.out, exist_ok=True)
    for i, sample in enumerate(data.iter_samples(cfg)):
        img = np.round(sample.input[0, 0] * 255).astype(np.uint8)
        lab = sample.target * LABEL_SCALE
        netpbm.write_pgm(os.path.join(args.out, f"sample_{i:03d}.pgm"), img)
        netpbm.write_pgm(os.path.join(args.out, f"label_{i:03d}.pgm"), lab)
    print(f"wrote {cfg.count} sample/label PGM pairs to {args.out}")
    return EXIT_OK


# `asymmetry` is `train` started from the center/edge pair of train
# policies and a 0.8-1.0 edge band; --quick is a smoke-scale preset that
# --set overrides
ASYMMETRY_START = harness.ExperimentConfig(
    train_policies=(data.AllowedCentral(0.3), data.ForbiddenCentral(0.7)),
    eval_bands=(data.Band(0.0, 0.1), data.Band(0.8, 1.0)))
ASYMMETRY_QUICK = ["epochs=1", "train_count=256", "eval_count=32",
                   "repeats=1"]


def experiment_config(args) -> harness.ExperimentConfig:
    """The config `train` and `asymmetry` run: the subcommand's start
    config, then --config's keys, then --quick's and each --set's
    overrides, with output_dir fixed to --out if given."""
    fixed = {"output_dir": args.out} if args.out else {}
    return _load_config(args.start, args.config,
                        (ASYMMETRY_QUICK if args.quick else [])
                        + (args.set or []), **fixed)


def _run_experiment(config, workers) -> harness.RunRecord:
    """Train, export and print one experiment."""
    record = harness.run_regional_training(config, workers=workers)
    paths = harness.export_results(record)
    print(f"config {record.config_hash}: trained "
          f"{len(config.train_policies)} x {config.repeats} models in "
          f"{record.wall_clock['total_seconds']:.1f}s")
    for label, row in zip(record.train_labels, record.raw):
        cells = "  ".join(f"{l}={v:.5g}"
                          for l, v in zip(record.eval_labels, row))
        print(f"  {label}: {cells}")
    print(f"results -> {paths['results']}")
    return record


def cmd_train(args) -> int:
    _run_experiment(experiment_config(args), args.workers)
    return EXIT_OK


def mitigation_config(config, out: str) -> harness.ExperimentConfig:
    """`asymmetry --with-mitigation`'s second run: the first train policy
    with a random periodic shift as its only augmentation, under
    OUT/center_shifted."""
    return replace(config, train_policies=config.train_policies[:1],
                   augmentations=({"name": "random_periodic_shift",
                                   "max_frac": 0.25},),
                   output_dir=os.path.join(out, "center_shifted"))


def cmd_asymmetry(args) -> int:
    config = experiment_config(args)
    configs = [config]
    if args.with_mitigation:
        configs.append(mitigation_config(config, args.out))
    for cfg in configs:
        record = _run_experiment(cfg, args.workers)
        print(f"loss ratio {record.eval_labels[-1]} / "
              f"{record.eval_labels[0]}, mean over repeats:")
        for label, ratio in zip(record.train_labels,
                                harness.summarize_asymmetry(record)):
            print(f"  {label}: {ratio:.3f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = unet.load_checkpoint(args.checkpoint)
    try:
        policies = [data.parse_policy(tok) for tok in args.bands.split(",")]
    except ValueError as e:
        raise ValueError(f"--bands: {e}") from None
    template = _load_config(data.DatasetConfig(), args.dataset_config,
                            args.set)
    row = harness.evaluate_bands(model, policies, args.count, args.seed,
                                 template)
    for policy, loss in zip(policies, row):
        print(f"{data.policy_label(policy)}: {loss:.6g}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "eval.csv")
        harness.write_matrix_csv(path, [os.path.basename(args.checkpoint)],
                                 [data.policy_label(p) for p in policies],
                                 np.array([row]))
        print(f"row -> {path}")
    return EXIT_OK


def cmd_saliency(args) -> int:
    grid = saliency.ShiftGrid(args.extent_x, args.extent_y, args.stride)
    model = unet.load_checkpoint(args.checkpoint)
    glyphs = data.builtin_glyphs()
    glyph = glyphs.images[args.digit]
    background = None if args.background == "black" else data.NoisePool()
    scene = saliency.make_scene(glyph, args.digit, (args.height, args.width),
                                (args.extent_x, args.extent_y),
                                background, seed=args.seed)
    sm = saliency.saliency_shift_map(model, scene, grid)
    os.makedirs(args.out, exist_ok=True)
    saliency.export_shift_map(sm, os.path.join(args.out, "shift_map"))
    norm = "dispersion-normalized" if sm.normalized else "raw (flat matrix)"
    print(f"shift map {sm.values.shape[0]}x{sm.values.shape[1]} ({norm}); "
          f"origin raw value {sm.raw[len(grid.dys) // 2, len(grid.dxs) // 2]:g}"
          f" -> {args.out}/shift_map.csv")
    print(f"outer/inner ring ratio {saliency.ring_ratio(sm):.2f}")
    return EXIT_OK


def _load_sample_pair(image_path, label_path):
    """An (x, t) pair: a (1, H, W) float32 image in [0, 1] and its class
    map."""
    img = netpbm.read_pnm(image_path).astype(np.float32) / 255.0
    lab = netpbm.read_pnm(label_path)
    if lab.ndim != 2 or img.shape != lab.shape:
        raise ValueError("sample and label dims disagree")
    return img[None], lab // LABEL_SCALE


# `augment --transform` choice -> the augmentation record (the transform
# training runs) built from the command's flags
AUGMENT_SPECS = {
    "random-shift": lambda a: augment.RandomPeriodicShift(a.max_frac),
    "to-boundary": lambda a: augment.ShiftObjectToBoundary(),
    "edge-drop": lambda a: augment.EdgeDropSpec(1.0, a.band_width),
}


def cmd_augment(args) -> int:
    x, t = _load_sample_pair(args.input, args.label)
    H, W = t.shape
    if args.transform == "to-boundary" and not (t > 0).any():
        raise ValueError("label map has no object to shift")
    transform = AUGMENT_SPECS[args.transform](args)
    out_x, out_t = transform(x, t, stream(args.seed, AUGMENT))
    checks = []
    if args.transform == "random-shift":
        checks.append(("mask pixel count preserved",
                       int((out_t > 0).sum()) == int((t > 0).sum())))
    elif args.transform == "to-boundary":
        bx, by, bw, bh = data.mask_bbox(out_t > 0)
        dmin = min(bx, W - (bx + bw), by, H - (by + bh))
        checks.append(("selected box edge distance is exactly 0", dmin == 0))
    else:  # edge-drop
        b = args.band_width
        strips = {"left": (slice(None), slice(0, b)),
                  "right": (slice(None), slice(W - b, W)),
                  "top": (slice(0, b), slice(None)),
                  "bottom": (slice(H - b, H), slice(None))}
        side = next((s for s, ix in strips.items()
                     if not out_x[0][ix].any()), None)
        checks.append(("one full side band zeroed", side is not None))
        if side is not None:
            kept_cells = H * W - (b * H if side in ("left", "right")
                                  else b * W)
            survivors = np.ones((H, W), dtype=bool)
            survivors[strips[side]] = False
            checks.append((
                "survivors rescaled by total/kept",
                bool(np.allclose(out_x[0][survivors],
                                 x[0][survivors] * (H * W / kept_cells),
                                 rtol=1e-5))))
    os.makedirs(args.out, exist_ok=True)
    netpbm.write_pgm(os.path.join(args.out, "augmented.pgm"),
                     np.round(np.clip(out_x[0], 0, 1) * 255)
                     .astype(np.uint8))
    netpbm.write_pgm(os.path.join(args.out, "augmented_label.pgm"),
                     out_t * LABEL_SCALE)
    ok = True
    for name, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        ok &= passed
    return EXIT_OK if ok else EXIT_FAILED


def run_verification_suite(verbose: bool = True) -> bool:
    """Gradcheck every differentiable op plus the whole U-Net at f64."""
    rng = np.random.default_rng(0)
    checks = []

    for mode in (tc.ZERO, tc.CIRCULAR, tc.REFLECT):
        x = rng.standard_normal((2, 3, 6, 5))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        spec = tc.ConvSpec(3, 4, 3, mode)

        def op(x_, w_, b_, spec=spec):
            y, tape = tc.conv2d_forward(tc.to_frame(x_), w_, b_, spec)

            def vjp(g):
                gx, gw, gb = tc.conv2d_backward(tape, tc.to_frame(g))
                return tc.from_frame(gx), gw, gb
            return tc.from_frame(y), vjp

        checks.append((f"conv3x3 {mode.kind} padding",
                       tc.gradcheck(op, [x, w, b], 1e-4,
                                    np.random.default_rng(1))))

    x = rng.standard_normal((2, 4, 8, 8))

    def pool_op(x_):
        rec = tc.maxpool2x2_forward(tc.to_frame(x_))
        return tc.from_frame(rec.output), lambda g: (tc.from_frame(
            tc.maxpool2x2_backward(rec, tc.to_frame(g))),)

    checks.append(("maxpool2x2",
                   tc.gradcheck(pool_op, [x], 1e-4, np.random.default_rng(2))))

    x = rng.standard_normal((2, 3, 4, 4)) + 2.0

    def relu_op(x_):
        return tc.relu(x_), lambda g: (tc.relu_backward(x_, g),)

    checks.append(("relu",
                   tc.gradcheck(relu_op, [x], 1e-6, np.random.default_rng(3))))

    x = rng.standard_normal((1, 2, 3, 4))

    def up_op(x_):
        return (tc.from_frame(tc.upsample_nearest2x(tc.to_frame(x_))),
                lambda g: (tc.from_frame(
                    tc.upsample_nearest2x_backward(tc.to_frame(g))),))

    checks.append(("upsample_nearest2x",
                   tc.gradcheck(up_op, [x], 1e-8, np.random.default_rng(4))))

    logits = rng.standard_normal((1, 5, 3, 3))
    target = rng.integers(0, 5, (1, 3, 3))

    def ce_op(l_):
        loss, grad = tc.softmax_cross_entropy_pixelwise(tc.to_frame(l_),
                                                        target)
        return (np.array([[[[loss]]]]),
                lambda g: (tc.from_frame(grad) * g.item(),))

    checks.append(("softmax cross-entropy",
                   tc.gradcheck(ce_op, [logits], 1e-6,
                                np.random.default_rng(5))))

    # every padding mode fills and folds the ring at every level; depth 3
    # on 8x8 keeps reflect legal at the 2x2 level
    x = rng.standard_normal((1, 1, 8, 8))
    for mode in (tc.ZERO, tc.CIRCULAR, tc.REFLECT):
        cfg = unet.UNetConfig(depth=3, base_channels=2, padding=mode,
                              precision="f64", seed=3)
        model = unet.build_unet(cfg)
        params = model.parameters()

        def model_op(x_, *ps, model=model, params=params):
            for dst, src in zip(params, ps):
                dst[...] = src
            logits, tape = unet.forward(model, x_)

            def vjp(g):
                tape.grad_logits = tc.to_frame(g)
                grads, gx = unet.backward(model, tape)
                return (gx, *grads)
            return tc.from_frame(logits), vjp

        checks.append((f"whole U-Net (depth 3) {mode.kind}",
                       tc.gradcheck(model_op, [x] + [p.copy() for p in params],
                                    1e-3, np.random.default_rng(6))))

    all_ok = True
    for name, report in checks:
        status = "PASS" if report.passed else "FAIL"
        if verbose:
            print(f"{status}  {name:32s} max_rel_error={report.max_rel_error:.3e} "
                  f"(tol {report.tolerance:g})")
        all_ok &= report.passed
    return all_ok


def cmd_gradcheck(args) -> int:
    return EXIT_OK if run_verification_suite() else EXIT_FAILED


def cmd_report(args) -> int:
    record = harness.load_results(args.results)
    paths = harness.export_results(record, args.out)
    print(f"re-rendered {record.config_hash} -> {args.out}")
    for name, path in paths.items():
        print(f"  {name}: {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centerbias",
        description="Measure, reproduce, and mitigate the center-position "
                    "bias of convolutional networks.",
        epilog="Exit codes: 0 ok, 2 usage, 3 missing file, 4 invalid "
               "config/input, 5 validation failed.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("audit", help="object-position heatmaps from "
                                     "annotation JSON")
    p.add_argument("--annotations", required=True)
    p.add_argument("--category", required=True)
    p.add_argument("--grid", type=int, default=coco_audit.DEFAULT_GRID)
    p.add_argument("--mode", choices=("centroid", "bbox", "both"),
                   default="both")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("gen", help="write preview sample/label PGM pairs")
    p.add_argument("--config", help="DatasetConfig JSON")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--count", type=int, default=3)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="run a regional-bias experiment")
    p.add_argument("--config", help="ExperimentConfig JSON")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--out", help="override config output_dir")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(fn=cmd_train, start=harness.ExperimentConfig(),
                   quick=False)

    p = sub.add_parser(
        "asymmetry", help="center/edge cross-test: train center- and "
                          "edge-restricted models, print the loss ratios")
    p.add_argument("--config", help="ExperimentConfig JSON")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--out", default="runs/regional_bias",
                   help="output_dir of the run")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--quick", action="store_true",
                   help="smoke scale: " + ", ".join(ASYMMETRY_QUICK))
    p.add_argument("--with-mitigation", action="store_true",
                   help="also train the first train policy with random "
                        "periodic shifts, under OUT/center_shifted")
    p.set_defaults(fn=cmd_asymmetry, start=ASYMMETRY_START)

    p = sub.add_parser("eval", help="band-wise losses of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--bands", default="band:0-0.1,band:0.9-1")
    p.add_argument("--count", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dataset-config", help="DatasetConfig JSON template")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("saliency", help="saliency-shift map of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--digit", type=int, default=5, choices=range(10))
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--width", type=int, default=96)
    p.add_argument("--extent-x", type=int, default=16)
    p.add_argument("--extent-y", type=int, default=16)
    p.add_argument("--stride", type=int, default=2)
    p.add_argument("--background", choices=("black", "noise"),
                   default="noise")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_saliency)

    p = sub.add_parser("augment", help="transform a sample PGM pair and "
                                       "print postcondition checks")
    p.add_argument("--input", required=True, help="sample PGM")
    p.add_argument("--label", required=True, help="label PGM")
    p.add_argument("--transform", required=True,
                   choices=tuple(AUGMENT_SPECS))
    p.add_argument("--max-frac", type=float, default=0.25)
    p.add_argument("--band-width", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_augment)

    p = sub.add_parser("gradcheck", help="finite-difference verification of "
                                         "every backward op")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("report", help="re-render matrices/curves from "
                                      "results.json")
    p.add_argument("--results", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        if getattr(args, "seed", 0) < 0:  # seed-tree names are non-negative
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return args.fn(args)
    except FileNotFoundError as e:
        print(f"error: missing file: {e.filename or e}", file=sys.stderr)
        return EXIT_MISSING
    except (ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())

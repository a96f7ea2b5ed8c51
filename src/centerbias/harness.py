"""End-to-end regional-bias experiments.

A run trains `repeats` independently seeded U-Nets per training placement
policy, evaluates each on freshly generated samples under every evaluation
policy, and aggregates the arithmetic mean loss matrix.  Every random choice
is a stream of the seed tree (see rng), so identical configs reproduce
identical matrices bit for bit; training jobs are independent and may run in
parallel worker processes without changing any result.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import multiprocessing as mp

import numpy as np

from . import augment, data, tensor_core as tc, unet
from .config import from_dict, to_dict
from .rng import AUGMENT, EPOCH_ORDER, EVAL_SAMPLES, REPEAT, derive, stream

__all__ = [
    "ExperimentConfig", "RunRecord", "run_regional_training",
    "evaluate_bands", "normalize_matrix", "summarize_asymmetry",
    "export_results", "load_results", "write_matrix_csv", "read_matrix_csv",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 2

EVAL_BATCH = 32


# --------------------------------------------------------------------------
# configuration

# keys of an experiment's `dataset` and `model` that every job sets itself
# (see _train_job and evaluate_bands), and the fields they are set from
_SET_BY_JOBS = (("dataset", "policy", "train_policies / eval_bands"),
                ("dataset", "count", "train_count / eval_count"),
                ("dataset", "master_seed", "master_seed"),
                ("model", "seed", "master_seed"))


@dataclass(frozen=True)
class ExperimentConfig:
    schema_version: int = SCHEMA_VERSION
    dataset: data.DatasetConfig = data.DatasetConfig()
    model: unet.UNetConfig = unet.UNetConfig()
    train_policies: tuple[data.PlacementPolicy, ...] = (data.Unrestricted(),)
    eval_bands: tuple[data.PlacementPolicy, ...] = (data.Band(0.0, 0.1),
                                                    data.Band(0.9, 1.0))
    epochs: int = 4
    batch_size: int = 16
    train_count: int = 6000
    eval_count: int = 512
    repeats: int = 3
    master_seed: int = 0
    augmentations: tuple[dict, ...] = ()
    learning_rate: float = 1e-3
    output_dir: str = "runs/experiment"

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported schema_version {self.schema_version}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be a finite number > 0, "
                             f"got {self.learning_rate!r}")
        h, w = self.dataset.height, self.dataset.width
        div = 2 ** (self.model.depth - 1)
        if h % div or w % div:
            raise ValueError(f"dataset height and width ({h}x{w}) must be "
                             f"divisible by {div}, 2**(model.depth-1)")
        for name in ("epochs", "batch_size", "eval_count", "repeats"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.master_seed < 0:  # seed-tree names are non-negative
            raise ValueError("master_seed must be >= 0")
        if self.batch_size > self.train_count:
            raise ValueError("batch_size must not exceed train_count")
        for name in ("train_policies", "eval_bands"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        augment.build_augmentations(  # validate before any job starts
            self.augmentations, (h, w))
        for record, key, source in _SET_BY_JOBS:
            default = getattr(getattr(ExperimentConfig, record), key)
            if getattr(getattr(self, record), key) != default:
                raise ValueError(
                    f"{record}.{key} must keep its default "
                    f"{to_dict(default)!r}: an experiment sets it from "
                    f"{source}")


def config_hash(config: ExperimentConfig) -> str:
    payload = to_dict(config)
    payload.pop("output_dir")  # location does not affect results
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# --------------------------------------------------------------------------
# training and evaluation

def _materialize(ds_cfg: data.DatasetConfig, indices: range | None = None):
    """The samples at `indices` (default: the whole stream) as dense arrays:
    float32 inputs and the samples' own uint8 class maps, which the loss
    reads as they are (an eighth of the bytes of int64 maps)."""
    H, W = ds_cfg.height, ds_cfg.width
    if indices is None:
        n, samples = ds_cfg.count, data.iter_samples(ds_cfg)
    else:
        n = len(indices)
        samples = (data.sample_at(ds_cfg, i) for i in indices)
    X = np.empty((n, 1, H, W), dtype=np.float32)
    T = np.empty((n, H, W), dtype=np.uint8)
    for i, sample in enumerate(samples):
        X[i] = sample.input[0]
        T[i] = sample.target
    return X, T


def evaluate_bands(model: unet.Model, eval_policies, eval_count: int,
                   seed: int,
                   dataset_template: data.DatasetConfig | None = None
                   ) -> list[float]:
    """Mean per-pixel cross-entropy on fresh samples under each policy.

    A cell is the mean of its samples' mean pixel cross-entropies.  Samples
    are generated and scored one EVAL_BATCH at a time, so memory does not
    grow with `eval_count`, and a sample's loss does not depend on the batch
    size or the shard split, so neither does the cell.  Each cell's samples
    are named after the policy's label, so duplicate policies in the list
    produce identical cells.
    """
    template = dataset_template or data.DatasetConfig()
    row = []
    for policy in eval_policies:
        label = data.policy_label(policy)
        ds_cfg = replace(template, policy=policy, count=eval_count,
                         master_seed=derive(seed, EVAL_SAMPLES, label))
        losses = np.empty(eval_count)
        for start in range(0, eval_count, EVAL_BATCH):
            stop = min(start + EVAL_BATCH, eval_count)
            X, T = _materialize(ds_cfg, range(start, stop))
            losses[start:stop] = unet.sample_losses(model, X, T)
        row.append(float(losses.mean()))
    return row


def _train_job(config_dict: dict, ti: int, rep: int) -> dict:
    """Train one (policy, repeat) model and evaluate it on every band.

    Top-level and argument-picklable so it can run in a worker process;
    every stream is named under the repeat's seed, never `ti` (see rng).
    """
    config = from_dict(ExperimentConfig, config_dict)
    policy = config.train_policies[ti]
    seed = derive(config.master_seed, REPEAT, rep)

    ds_cfg = replace(config.dataset, policy=policy, count=config.train_count,
                     master_seed=seed)
    X, T = _materialize(ds_cfg)

    model = unet.build_unet(replace(config.model, seed=seed))
    adam = tc.AdamState.for_params([model.flat_params],
                                   lr=config.learning_rate)
    augmentations = augment.build_augmentations(
        config.augmentations, (config.dataset.height, config.dataset.width))

    trace = []
    for epoch in range(config.epochs):
        order = stream(seed, EPOCH_ORDER, epoch).permutation(
            config.train_count)
        losses = []
        for start in range(0, config.train_count, config.batch_size):
            idx = order[start:start + config.batch_size]
            xb = X[idx]
            tb = T[idx]
            if augmentations:
                for j, i_sample in enumerate(idx):
                    rng = stream(seed, AUGMENT, epoch, int(i_sample))
                    xj, tj = xb[j], tb[j]
                    for fn in augmentations:
                        xj, tj = fn(xj, tj, rng)
                    xb[j], tb[j] = xj, tj
            losses.append(unet.train_step(model, xb, tb, adam))
        trace.append(float(np.mean(losses)))

    ckpt_dir = os.path.join(config.output_dir, "checkpoints")
    os.makedirs(ckpt_dir, exist_ok=True)
    ckpt_path = os.path.join(ckpt_dir, f"train{ti}_rep{rep}.ckpt")
    unet.save_checkpoint(model, ckpt_path)

    row = evaluate_bands(model, list(config.eval_bands), config.eval_count,
                         seed, config.dataset)
    return {"row": row, "trace": trace, "checkpoint": ckpt_path}


# BLAS reads its thread count when numpy loads, so the limit has to be in a
# spawned worker's environment before the worker starts
_WORKER_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@contextlib.contextmanager
def _worker_pool(workers: int):
    """A spawned process pool whose workers run single-threaded BLAS.

    Each worker trains its own job, so BLAS threads or a shard thread (see
    unet) inside a worker would only contend with the other workers for the
    cores; workers run both shards of a batch on their one thread.  If the
    user has set either thread variable, both are passed on as they are:
    OpenBLAS lets OPENBLAS_NUM_THREADS override OMP_NUM_THREADS.
    """
    user_set = any(k in os.environ for k in _WORKER_THREAD_VARS)
    added = () if user_set else _WORKER_THREAD_VARS
    for k in added:
        os.environ[k] = "1"
    try:
        with ProcessPoolExecutor(
                max_workers=workers, mp_context=mp.get_context("spawn"),
                initializer=unet.disable_shard_thread) as pool:
            yield pool
    finally:
        for k in added:
            os.environ.pop(k, None)


def default_workers() -> int:
    return min(2, os.cpu_count() or 1)


# arrays of results.json, by dimension count
Matrix = np.ndarray[tuple[int, int], np.dtype[np.float64]]
Cube = np.ndarray[tuple[int, int, int], np.dtype[np.float64]]


@dataclass
class RunRecord:
    """An experiment's outcome; results.json is this record, written by
    export_results and read by load_results through the config codec."""

    schema_version: int = field(default=SCHEMA_VERSION, kw_only=True)
    config: ExperimentConfig
    config_hash: str
    train_labels: list[str]
    eval_labels: list[str]
    per_repeat: Cube                # (rows, repeats, bands)
    raw: Matrix                     # (rows, bands), mean over repeats
    normalized: dict[str, Matrix] = field(default_factory=dict)
    traces: list[list[list[float]]] = field(  # [row][repeat][epoch]
        default_factory=list)
    checkpoints: list[list[str]] = field(  # [row][repeat] paths
        default_factory=list)
    wall_clock: dict = field(default_factory=dict)


def run_regional_training(config: ExperimentConfig,
                          workers: int | None = None) -> RunRecord:
    """Train repeats x policies models, evaluate band-wise, aggregate means.

    Jobs are deterministic functions of their seeds, so `workers` changes
    only the wall time.  Every (policy, repeat) job goes to one pool of
    min(workers, jobs) processes, spawned fresh, with single-threaded BLAS
    unless the user set OPENBLAS_NUM_THREADS or OMP_NUM_THREADS, so the
    workers do not oversubscribe the cores; with one, the jobs train in
    this process.  `wall_clock["workers"]` records that count.
    """
    workers = default_workers() if workers is None else workers
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    jobs = [(ti, rep) for ti in range(len(config.train_policies))
            for rep in range(config.repeats)]
    workers = min(workers, len(jobs))
    os.makedirs(config.output_dir, exist_ok=True)
    started = time.time()
    if workers == 1:
        results = {job: _train_job(to_dict(config), *job) for job in jobs}
    else:
        with _worker_pool(workers) as pool:
            futures = {job: pool.submit(_train_job, to_dict(config), *job)
                       for job in jobs}
            results = {job: fut.result() for job, fut in futures.items()}

    grid = [[results[ti, rep] for rep in range(config.repeats)]
            for ti in range(len(config.train_policies))]
    per_repeat = np.array([[job["row"] for job in row] for row in grid],
                          dtype=np.float64)  # (rows, repeats, bands)
    raw = per_repeat.mean(axis=1)
    record = RunRecord(
        config=config,
        config_hash=config_hash(config),
        train_labels=[data.policy_label(p) for p in config.train_policies],
        eval_labels=[data.policy_label(p) for p in config.eval_bands],
        per_repeat=per_repeat,
        raw=raw,
        traces=[[job["trace"] for job in row] for row in grid],
        checkpoints=[[job["checkpoint"] for job in row] for row in grid],
        wall_clock={"total_seconds": time.time() - started,
                    "workers": workers},
    )
    for mode in ("by_central_band", "by_unrestricted"):
        try:
            record.normalized[mode] = normalize_matrix(
                raw, list(config.eval_bands), mode)
        except ValueError:
            pass
    return record


# --------------------------------------------------------------------------
# matrix post-processing

_REFERENCE = {
    "by_central_band": data.Band(0.0, 0.1),
    "by_unrestricted": data.Unrestricted(),
}


def normalize_matrix(raw: np.ndarray, eval_policies, mode: str) -> np.ndarray:
    """Divide each row by its reference cell (central band or unrestricted)."""
    if mode not in _REFERENCE:
        raise ValueError(f"unknown normalization mode {mode!r}")
    ref = _REFERENCE[mode]
    try:
        col = list(eval_policies).index(ref)
    except ValueError:
        raise ValueError(
            f"normalization {mode!r} needs eval column "
            f"{data.policy_label(ref)}") from None
    return raw / raw[:, col:col + 1]


def summarize_asymmetry(record: RunRecord) -> list[float]:
    """The cross-test ratio of each train row, in `train_labels` order: the
    mean over repeats of the last eval band's loss over the first band's
    (edge over center, for bands listed from the center out)."""
    pr = record.per_repeat
    return (pr[:, :, -1] / pr[:, :, 0]).mean(axis=1).tolist()


# --------------------------------------------------------------------------
# persistence

def write_matrix_csv(path, row_labels, col_labels, matrix,
                     corner: str = "train\\eval"):
    """One header row (`corner`, then the column labels), then each row's
    label and its values to 9 significant digits."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([corner] + list(col_labels))
        for label, row in zip(row_labels, matrix):
            writer.writerow([label] + [f"{v:.9g}" for v in row])


def read_matrix_csv(path) -> tuple[list[str], list[str], np.ndarray]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    col_labels = rows[0][1:]
    row_labels = [r[0] for r in rows[1:]]
    matrix = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    return row_labels, col_labels, matrix


def export_results(record: RunRecord, output_dir: str | None = None) -> dict:
    """Write results.json plus raw/normalized matrices and band curves.

    Idempotent: re-exporting the same record overwrites identical files.
    Returns the written paths.
    """
    out = output_dir or record.config.output_dir
    os.makedirs(out, exist_ok=True)
    paths = {"results": os.path.join(out, "results.json"),
             "matrix_raw": os.path.join(out, "matrix_raw.csv"),
             "curves": os.path.join(out, "curves.csv")}

    with open(paths["results"], "w") as f:
        json.dump(to_dict(record), f, indent=1)

    write_matrix_csv(paths["matrix_raw"], record.train_labels,
                     record.eval_labels, record.raw)
    for mode, matrix in record.normalized.items():
        p = os.path.join(out, "matrix_norm.csv")
        write_matrix_csv(p, record.train_labels, record.eval_labels, matrix)
        paths["matrix_norm"] = p
        break  # one canonical normalized matrix; JSON holds all modes

    # Fig-3-style curves: one column of raw mean loss per training policy
    write_matrix_csv(paths["curves"], record.eval_labels,
                     record.train_labels, record.raw.T, corner="eval_band")
    return paths


def _has_shape(value, shape) -> bool:
    return len(value) == shape[0] and (
        len(shape) == 1 or all(_has_shape(v, shape[1:]) for v in value))


def load_results(path) -> RunRecord:
    """Rebuild a RunRecord from results.json (inverse of export_results).

    The file is read by the config rule (see config): an unknown or missing
    key or a mistyped value raises a ValueError naming the key, and so does
    a matrix or trace whose shape disagrees with the labels, repeats and
    epochs.
    """
    with open(path) as f:
        payload = json.load(f)
    if not isinstance(payload, dict):
        raise ValueError(f"{path} must hold a JSON object")
    record = from_dict(RunRecord, payload)
    rows, bands = len(record.train_labels), len(record.eval_labels)
    repeats, epochs = record.config.repeats, record.config.epochs
    shapes = {"per_repeat": (record.per_repeat, (rows, repeats, bands)),
              "raw": (record.raw, (rows, bands)),
              "traces": (record.traces, (rows, repeats, epochs)),
              "checkpoints": (record.checkpoints, (rows, repeats))}
    for mode, matrix in record.normalized.items():
        key = f"normalized.{mode}"
        if mode not in _REFERENCE:
            raise ValueError(f"{key} is not one of {list(_REFERENCE)}")
        shapes[key] = (matrix, (rows, bands))
    for key, (value, shape) in shapes.items():
        if not _has_shape(value, shape):
            raise ValueError(f"{key} must have shape {shape}, from the "
                             f"labels, repeats and epochs")
    return record

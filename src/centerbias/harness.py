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
    "ExperimentConfig", "RunRecord", "WallClock", "config_hash",
    "run_regional_training", "evaluate_bands", "export_results",
    "load_results", "write_matrix_csv", "SCHEMA_VERSION",
]

SCHEMA_VERSION = 3

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
        self.model.check_input_hw((h, w), "dataset height and width")
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
            for i, policy in enumerate(getattr(self, name)):
                try:  # the dataset a job builds rejects an empty policy
                    replace(self.dataset, policy=policy)
                except ValueError as e:
                    raise ValueError(f"{name}[{i}]: {e}") from None
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

def _materialize(ds_cfg: data.DatasetConfig):
    """The whole stream as dense arrays, generated one data.BLOCK at a
    time: float32 inputs and the samples' own uint8 class maps, which the
    loss reads as they are (an eighth of the bytes of int64 maps)."""
    n, H, W = ds_cfg.count, ds_cfg.height, ds_cfg.width
    X = np.empty((n, 1, H, W), dtype=np.float32)
    T = np.empty((n, H, W), dtype=np.uint8)
    for start in range(0, n, data.BLOCK):
        block = slice(start, min(start + data.BLOCK, n))
        X[block], T[block] = data.sample_block(
            ds_cfg, range(n)[block]).composite(0)
    return X, T


def evaluate_bands(model: unet.Model, eval_policies, eval_count: int,
                   seed: int,
                   dataset_template: data.DatasetConfig | None = None
                   ) -> list[float]:
    """Mean per-pixel cross-entropy on fresh samples under each policy.

    A cell is the mean of its samples' mean pixel cross-entropies.  All
    bands share one dataset seed, so sample i has the same digit and
    background in every band; only its offset follows the band.  Every
    band's dataset is built before the first sample.  Samples come one
    block of EVAL_BATCH at a time: the block's digits and backgrounds are
    made once (see data.sample_block), and each band's inputs are placed
    and scored in turn, so one band's batch is alive at a time and memory
    does not grow with `eval_count`.  No cell depends on the batch size or
    the shard split.
    """
    template = dataset_template or data.DatasetConfig()
    model.config.check_input_hw((template.height, template.width),
                                "dataset height and width")
    ds_cfg = replace(template, count=eval_count,
                     master_seed=derive(seed, EVAL_SAMPLES))
    # each band's dataset checks that the band admits an offset
    policies = [replace(ds_cfg, policy=p).policy for p in eval_policies]
    losses = np.empty((len(policies), eval_count))
    for start in range(0, eval_count, EVAL_BATCH):
        stop = min(start + EVAL_BATCH, eval_count)
        block = data.sample_block(ds_cfg, range(start, stop), policies)
        for b in range(len(policies)):
            losses[b, start:stop] = unet.sample_losses(model,
                                                       *block.composite(b))
    return [float(cell.mean()) for cell in losses]


def _train_job(config: ExperimentConfig, ti: int, rep: int) -> dict:
    """Train one (policy, repeat) model and evaluate it on every band.

    Top-level and picklable with its validated config, for a worker process;
    every stream is named under the repeat's seed, never `ti` (see rng).
    """
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


# the array of results.json, typed by its dimension count for the codec
Cube = np.ndarray[tuple[int, int, int], np.dtype[np.float64]]


@dataclass(frozen=True)
class WallClock:
    """How long a run took, and in how many processes it trained."""

    total_seconds: float
    workers: int

    def __post_init__(self):
        if not (math.isfinite(self.total_seconds) and self.total_seconds >= 0):
            raise ValueError(f"total_seconds must be a finite number >= 0, "
                             f"got {self.total_seconds!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass
class RunRecord:
    """What an experiment measured; results.json is this record, written by
    export_results and read by load_results through the config codec.  The
    labels and matrices are derived from `config` and `per_repeat`, so they
    cannot disagree with them."""

    schema_version: int = field(default=SCHEMA_VERSION, kw_only=True)
    config: ExperimentConfig
    per_repeat: Cube                        # (rows, repeats, bands)
    traces: list[list[list[float]]]         # [row][repeat][epoch]
    checkpoints: list[list[str]]            # [row][repeat] paths
    wall_clock: WallClock

    @property
    def train_labels(self) -> list[str]:
        return [data.policy_label(p) for p in self.config.train_policies]

    @property
    def eval_labels(self) -> list[str]:
        return [data.policy_label(p) for p in self.config.eval_bands]

    @property
    def raw(self) -> np.ndarray:
        """(rows, bands): the mean over repeats."""
        return self.per_repeat.mean(axis=1)

    @property
    def normalized(self) -> np.ndarray:
        """Each row of `raw` over its first band's cell (the center, for
        bands listed from the center out): the last column is edge/center."""
        raw = self.raw
        return raw / raw[:, :1]


def run_regional_training(config: ExperimentConfig,
                          workers: int | None = None) -> RunRecord:
    """Train repeats x policies models, evaluate band-wise, aggregate means.

    Jobs are deterministic functions of their seeds, so `workers` changes
    only the wall time.  Every (policy, repeat) job goes to one pool of
    min(workers, jobs) processes, spawned fresh, with single-threaded BLAS
    unless the user set OPENBLAS_NUM_THREADS or OMP_NUM_THREADS, so the
    workers do not oversubscribe the cores; with one, the jobs train in
    this process.  `wall_clock.workers` records that count.
    """
    workers = default_workers() if workers is None else workers
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    jobs = [(ti, rep) for ti in range(len(config.train_policies))
            for rep in range(config.repeats)]
    workers = min(workers, len(jobs))
    os.makedirs(config.output_dir, exist_ok=True)
    started = time.perf_counter()
    if workers == 1:
        results = {job: _train_job(config, *job) for job in jobs}
    else:
        with _worker_pool(workers) as pool:
            futures = {job: pool.submit(_train_job, config, *job)
                       for job in jobs}
            results = {job: fut.result() for job, fut in futures.items()}

    grid = [[results[ti, rep] for rep in range(config.repeats)]
            for ti in range(len(config.train_policies))]
    return RunRecord(
        config=config,
        per_repeat=np.array([[job["row"] for job in row] for row in grid],
                            dtype=np.float64),
        traces=[[job["trace"] for job in row] for row in grid],
        checkpoints=[[job["checkpoint"] for job in row] for row in grid],
        wall_clock=WallClock(time.perf_counter() - started, workers),
    )


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


def export_results(record: RunRecord, output_dir: str | None = None) -> dict:
    """Write results.json and the raw and normalized matrices.

    Idempotent: re-exporting the same record overwrites identical files.
    Returns the written paths.
    """
    out = output_dir or record.config.output_dir
    os.makedirs(out, exist_ok=True)
    paths = {"results": os.path.join(out, "results.json"),
             "matrix_raw": os.path.join(out, "matrix_raw.csv"),
             "matrix_norm": os.path.join(out, "matrix_norm.csv")}
    with open(paths["results"], "w") as f:
        json.dump(to_dict(record), f, indent=1)
    for name, matrix in (("matrix_raw", record.raw),
                         ("matrix_norm", record.normalized)):
        write_matrix_csv(paths[name], record.train_labels,
                         record.eval_labels, matrix)
    return paths


def _has_shape(value, shape) -> bool:
    return len(value) == shape[0] and (
        len(shape) == 1 or all(_has_shape(v, shape[1:]) for v in value))


def load_results(path) -> RunRecord:
    """Rebuild a RunRecord from results.json (inverse of export_results).

    A file of another schema_version raises a ValueError naming both
    versions.  The rest is read by the config rule (see config): an unknown
    or missing key or a mistyped value raises a ValueError naming the key,
    and so does a measurement whose shape disagrees with the config's train
    policies, eval bands, repeats and epochs.
    """
    with open(path) as f:
        payload = json.load(f)
    if not isinstance(payload, dict):
        raise ValueError(f"{path} must hold a JSON object")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"results schema_version {version!r}: "
                         f"this build reads {SCHEMA_VERSION}")
    record = from_dict(RunRecord, payload)
    config = record.config
    rows, bands = len(config.train_policies), len(config.eval_bands)
    shapes = {"per_repeat": (rows, config.repeats, bands),
              "traces": (rows, config.repeats, config.epochs),
              "checkpoints": (rows, config.repeats)}
    for key, shape in shapes.items():
        if not _has_shape(getattr(record, key), shape):
            raise ValueError(f"{key} must have shape {shape}, from the "
                             f"config's policies, bands, repeats and epochs")
    return record

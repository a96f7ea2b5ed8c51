"""End-to-end regional-bias experiments.

A run trains `repeats` independently seeded U-Nets per training placement
policy, evaluates each on freshly generated samples under every evaluation
policy, and aggregates the arithmetic mean loss matrix.  Every random choice
derives from the experiment's master seed, so identical configs reproduce
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
from dataclasses import dataclass, field, fields, replace

import multiprocessing as mp

import numpy as np

from . import augment, data, tensor_core as tc, unet
from .rng import splitmix64, stream

__all__ = [
    "ExperimentConfig", "RunRecord", "run_regional_training",
    "evaluate_bands", "normalize_matrix", "summarize_asymmetry",
    "export_results", "load_results", "write_matrix_csv", "read_matrix_csv",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1

EVAL_BATCH = 32


# --------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class ExperimentConfig:
    dataset: data.DatasetConfig = data.DatasetConfig()
    model: unet.UNetConfig = unet.UNetConfig()
    train_policies: tuple = (data.Unrestricted(),)
    eval_bands: tuple = (data.Band(0.0, 0.1), data.Band(0.9, 1.0))
    epochs: int = 4
    batch_size: int = 16
    train_count: int = 6000
    eval_count: int = 512
    repeats: int = 3
    master_seed: int = 0
    augmentations: tuple = ()
    learning_rate: float = 1e-3
    output_dir: str = "runs/experiment"
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        for name in ("epochs", "batch_size", "train_count", "eval_count",
                     "repeats", "master_seed"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        lr = self.learning_rate
        if not (isinstance(lr, (int, float)) and not isinstance(lr, bool)
                and math.isfinite(lr) and lr > 0):
            raise ValueError(
                f"learning_rate must be a finite number > 0, got {lr!r}")
        div = 2 ** (self.model.depth - 1)
        if self.dataset.height % div or self.dataset.width % div:
            raise ValueError(
                f"dataset height and width ({self.dataset.height}x"
                f"{self.dataset.width}) must be divisible by {div}, "
                f"2**(model.depth-1)")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.batch_size > self.train_count:
            raise ValueError("batch_size must not exceed train_count")
        if self.schema_version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported schema_version {self.schema_version}")
        augment.build_augmentations(  # validate before any job starts
            self.augmentations, (self.dataset.height, self.dataset.width))

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "dataset": self.dataset.to_dict(),
            "model": self.model.to_dict(),
            "train_policies": [data.policy_to_dict(p)
                               for p in self.train_policies],
            "eval_bands": [data.policy_to_dict(p) for p in self.eval_bands],
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "train_count": self.train_count,
            "eval_count": self.eval_count,
            "repeats": self.repeats,
            "master_seed": self.master_seed,
            "augmentations": list(self.augmentations),
            "learning_rate": self.learning_rate,
            "output_dir": self.output_dir,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        lists = {"train_policies": d["train_policies"],
                 "eval_bands": d["eval_bands"],
                 "augmentations": d.get("augmentations", [])}
        for key, value in lists.items():
            if not isinstance(value, list):
                raise ValueError(f"{key} must be a list, got {value!r}")
        return cls(
            schema_version=d.get("schema_version", SCHEMA_VERSION),
            dataset=data.DatasetConfig.from_dict(d["dataset"]),
            model=unet.UNetConfig.from_dict(d["model"]),
            train_policies=tuple(data.policy_from_dict(p)
                                 for p in lists["train_policies"]),
            eval_bands=tuple(data.policy_from_dict(p)
                             for p in lists["eval_bands"]),
            epochs=d["epochs"],
            batch_size=d["batch_size"],
            train_count=d["train_count"],
            eval_count=d["eval_count"],
            repeats=d["repeats"],
            master_seed=d.get("master_seed", 0),
            augmentations=tuple(lists["augmentations"]),
            learning_rate=d.get("learning_rate", 1e-3),
            output_dir=d.get("output_dir", "runs/experiment"),
        )


def config_hash(config: ExperimentConfig) -> str:
    payload = config.to_dict()
    payload.pop("output_dir")  # location does not affect results
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# --------------------------------------------------------------------------
# training and evaluation

def _materialize(ds_cfg: data.DatasetConfig):
    """Dataset as dense arrays: float32 inputs, uint8 class maps."""
    H, W = ds_cfg.height, ds_cfg.width
    X = np.empty((ds_cfg.count, 1, H, W), dtype=np.float32)
    T = np.empty((ds_cfg.count, H, W), dtype=np.uint8)
    for i, sample in enumerate(data.iter_samples(ds_cfg)):
        X[i] = sample.input[0]
        T[i] = sample.target
    return X, T


def _policy_seed(policy) -> int:
    digest = hashlib.sha256(data.policy_label(policy).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def evaluate_bands(model: unet.Model, eval_policies, eval_count: int,
                   seed: int,
                   dataset_template: data.DatasetConfig | None = None
                   ) -> list[float]:
    """Mean per-pixel cross-entropy on fresh samples under each policy.

    Each cell's dataset seed derives from the policy itself, so duplicate
    policies in the list produce identical cells.
    """
    template = dataset_template or data.DatasetConfig()
    row = []
    for policy in eval_policies:
        ds_cfg = replace(template, policy=policy, count=eval_count,
                         master_seed=splitmix64(seed, _policy_seed(policy)))
        X, T = _materialize(ds_cfg)
        total = 0.0
        for start in range(0, eval_count, EVAL_BATCH):
            xb = X[start:start + EVAL_BATCH]
            tb = T[start:start + EVAL_BATCH].astype(np.int64)
            logits, _ = unet.forward(model, xb, keep_tape=False)
            loss, _ = tc.softmax_cross_entropy_pixelwise(logits, tb)
            total += loss * len(xb)
        row.append(total / eval_count)
    return row


def _repeat_seed(config: ExperimentConfig, ti: int, rep: int) -> int:
    return splitmix64(splitmix64(config.master_seed, ti), rep)


def _train_job(config_dict: dict, ti: int, rep: int) -> dict:
    """Train one (policy, repeat) model and evaluate it on every band.

    Top-level and argument-picklable so it can run in a worker process; all
    randomness derives from (master_seed, ti, rep).
    """
    config = ExperimentConfig.from_dict(config_dict)
    policy = config.train_policies[ti]
    rep_seed = _repeat_seed(config, ti, rep)
    model_seed = splitmix64(rep_seed, 1)
    data_seed = splitmix64(rep_seed, 2)
    eval_seed = splitmix64(rep_seed, 3)
    aug_seed = splitmix64(rep_seed, 4)

    started = time.time()
    ds_cfg = replace(config.dataset, policy=policy, count=config.train_count,
                     master_seed=data_seed)
    X, T = _materialize(ds_cfg)

    model = unet.build_unet(replace(config.model, seed=model_seed))
    adam = tc.AdamState.for_params([model.flat_params],
                                   lr=config.learning_rate)
    augmentations = augment.build_augmentations(
        config.augmentations, (config.dataset.height, config.dataset.width))

    trace = []
    for epoch in range(config.epochs):
        order = stream(rep_seed, 1000 + epoch).permutation(config.train_count)
        losses = []
        for start in range(0, config.train_count, config.batch_size):
            idx = order[start:start + config.batch_size]
            xb = X[idx]
            tb = T[idx].astype(np.int64)
            if augmentations:
                for j, i_sample in enumerate(idx):
                    rng = stream(aug_seed,
                                 epoch * config.train_count + int(i_sample))
                    xj, tj = xb[j], tb[j]
                    for fn in augmentations:
                        xj, tj = fn(xj, tj, rng)
                    xb[j], tb[j] = xj, tj
            fwd_rng = (stream(rep_seed, 5_000_000 + len(losses)
                              + epoch * 1_000_000)
                       if config.model.padding.kind == "random" else None)
            losses.append(unet.train_step(model, xb, tb, adam, fwd_rng))
        trace.append(float(np.mean(losses)))

    ckpt_dir = os.path.join(config.output_dir, "checkpoints")
    os.makedirs(ckpt_dir, exist_ok=True)
    ckpt_path = os.path.join(ckpt_dir, f"train{ti}_rep{rep}.ckpt")
    unet.save_checkpoint(model, ckpt_path)

    row = evaluate_bands(model, list(config.eval_bands), config.eval_count,
                         eval_seed, config.dataset)
    return {
        "ti": ti, "rep": rep, "seed": rep_seed, "row": row, "trace": trace,
        "checkpoint": ckpt_path, "seconds": time.time() - started,
    }


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
    env = os.environ.get("CENTERBIAS_WORKERS")
    if env:
        return max(1, int(env))
    return min(2, os.cpu_count() or 1)


@dataclass
class RunRecord:
    config: ExperimentConfig
    config_hash: str
    train_labels: list[str]
    eval_labels: list[str]
    per_repeat: np.ndarray          # (rows, repeats, bands)
    raw: np.ndarray                 # (rows, bands), mean over repeats
    normalized: dict[str, np.ndarray] = field(default_factory=dict)
    traces: list = field(default_factory=list)      # [row][repeat][epoch]
    checkpoints: list = field(default_factory=list)  # [row][repeat] paths
    repeat_seeds: list = field(default_factory=list)
    wall_clock: dict = field(default_factory=dict)


def run_regional_training(config: ExperimentConfig,
                          workers: int | None = None) -> RunRecord:
    """Train repeats x policies models, evaluate band-wise, aggregate means.

    Jobs are deterministic functions of their seeds, so `workers` changes
    only the wall time.  Worker processes are spawned fresh, with
    single-threaded BLAS unless the user set OPENBLAS_NUM_THREADS or
    OMP_NUM_THREADS, so the workers do not oversubscribe the cores.
    """
    workers = default_workers() if workers is None else workers
    os.makedirs(config.output_dir, exist_ok=True)
    jobs = [(ti, rep) for ti in range(len(config.train_policies))
            for rep in range(config.repeats)]
    started = time.time()
    results = {}
    if workers <= 1 or len(jobs) == 1:
        for ti, rep in jobs:
            results[(ti, rep)] = _train_job(config.to_dict(), ti, rep)
    else:
        with _worker_pool(workers) as pool:
            futures = {(ti, rep): pool.submit(_train_job, config.to_dict(),
                                              ti, rep)
                       for ti, rep in jobs}
            for key, fut in futures.items():
                results[key] = fut.result()

    rows = len(config.train_policies)
    per_repeat = np.zeros((rows, config.repeats, len(config.eval_bands)))
    traces = [[None] * config.repeats for _ in range(rows)]
    checkpoints = [[None] * config.repeats for _ in range(rows)]
    repeat_seeds = [[0] * config.repeats for _ in range(rows)]
    for (ti, rep), res in results.items():
        per_repeat[ti, rep] = res["row"]
        traces[ti][rep] = res["trace"]
        checkpoints[ti][rep] = res["checkpoint"]
        repeat_seeds[ti][rep] = res["seed"]

    raw = per_repeat.mean(axis=1)
    record = RunRecord(
        config=config,
        config_hash=config_hash(config),
        train_labels=[data.policy_label(p) for p in config.train_policies],
        eval_labels=[data.policy_label(p) for p in config.eval_bands],
        per_repeat=per_repeat,
        raw=raw,
        traces=traces,
        checkpoints=checkpoints,
        repeat_seeds=repeat_seeds,
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


def summarize_asymmetry(record_center: RunRecord, record_edge: RunRecord,
                        center_band: int = 0, edge_band: int = -1,
                        row: int = 0) -> dict:
    """Cross-test ratios, averaged per repeat.

    center_to_edge_ratio: the center-trained model's edge-band loss over its
    central-band loss; edge_to_center_ratio: the edge-trained model's
    central-band loss over its edge-band loss.
    """
    c = record_center.per_repeat[row]
    e = record_edge.per_repeat[row]
    return {
        "center_to_edge_ratio": float(
            np.mean(c[:, edge_band] / c[:, center_band])),
        "edge_to_center_ratio": float(
            np.mean(e[:, center_band] / e[:, edge_band])),
    }


# --------------------------------------------------------------------------
# persistence

def write_matrix_csv(path, row_labels, col_labels, matrix):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["train\\eval"] + list(col_labels))
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

    payload = {
        "schema_version": record.config.schema_version,
        "config": record.config.to_dict(),
        "config_hash": record.config_hash,
        "train_labels": record.train_labels,
        "eval_labels": record.eval_labels,
        "per_repeat": record.per_repeat.tolist(),
        "raw": record.raw.tolist(),
        "normalized": {k: v.tolist() for k, v in record.normalized.items()},
        "traces": record.traces,
        "checkpoints": record.checkpoints,
        "repeat_seeds": record.repeat_seeds,
        "wall_clock": record.wall_clock,
    }
    with open(paths["results"], "w") as f:
        json.dump(payload, f, indent=1)

    write_matrix_csv(paths["matrix_raw"], record.train_labels,
                     record.eval_labels, record.raw)
    for mode, matrix in record.normalized.items():
        p = os.path.join(out, "matrix_norm.csv")
        write_matrix_csv(p, record.train_labels, record.eval_labels, matrix)
        paths["matrix_norm"] = p
        break  # one canonical normalized matrix; JSON holds all modes

    # Fig-3-style curves: one column of raw mean loss per training policy
    with open(paths["curves"], "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["eval_band"] + record.train_labels)
        for j, band in enumerate(record.eval_labels):
            writer.writerow([band] + [f"{record.raw[i, j]:.9g}"
                                      for i in range(record.raw.shape[0])])
    return paths


def load_results(path) -> RunRecord:
    """Rebuild a RunRecord from results.json (inverse of export_results)."""
    with open(path) as f:
        payload = json.load(f)
    return RunRecord(
        config=ExperimentConfig.from_dict(payload["config"]),
        config_hash=payload["config_hash"],
        train_labels=payload["train_labels"],
        eval_labels=payload["eval_labels"],
        per_repeat=np.array(payload["per_repeat"]),
        raw=np.array(payload["raw"]),
        normalized={k: np.array(v)
                    for k, v in payload["normalized"].items()},
        traces=payload["traces"],
        checkpoints=payload["checkpoints"],
        repeat_seeds=payload["repeat_seeds"],
        wall_clock=payload["wall_clock"],
    )

"""Harness oracles at smoke scale: determinism, normalization arithmetic,
asymmetry ratios, and artifact round trips."""

import os
import threading

import numpy as np
import pytest

from centerbias import data, harness, unet
from centerbias import tensor_core as tc
from centerbias.config import from_dict, to_dict
from centerbias.data import Band, ForbiddenCentral, Unrestricted


def tiny_config(tmp_path, **kw):
    base = dict(
        dataset=data.DatasetConfig(height=32, width=32,
                                   background=data.NoisePool(smoothing=0),
                                   glyph_source="builtin:14"),
        model=unet.UNetConfig(depth=2, base_channels=2),
        train_policies=(Unrestricted(),),
        eval_bands=(Band(0.0, 0.1), Band(0.9, 1.0)),
        epochs=1,
        batch_size=8,
        train_count=32,
        eval_count=16,
        repeats=1,
        master_seed=11,
        output_dir=str(tmp_path / "run"),
    )
    base.update(kw)
    return harness.ExperimentConfig(**base)


class TestConfig:
    def test_json_roundtrip(self, tmp_path):
        cfg = tiny_config(tmp_path, augmentations=(
            {"name": "random_periodic_shift", "max_frac": 0.25},))
        assert from_dict(harness.ExperimentConfig, to_dict(cfg)) == cfg

    def test_batch_larger_than_count_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            tiny_config(tmp_path, batch_size=64, train_count=32)

    def test_unknown_augmentation_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            tiny_config(tmp_path, augmentations=({"name": "mystery"},))

    @pytest.mark.parametrize("spec", [
        {"name": "random_periodic_shift", "max_frac": -0.5},
        {"name": "random_periodic_shift", "max_fraq": 0.5},
        {"name": "edge_block_drop", "band_width": 32},  # the 32x32 images
    ])
    def test_augmentation_parameters_checked_at_build(self, tmp_path, spec):
        with pytest.raises(ValueError):
            tiny_config(tmp_path, augmentations=(spec,))

    def test_hash_ignores_output_dir(self, tmp_path):
        a = tiny_config(tmp_path, output_dir=str(tmp_path / "a"))
        b = tiny_config(tmp_path, output_dir=str(tmp_path / "b"))
        assert harness.config_hash(a) == harness.config_hash(b)


class TestEvaluateBands:
    def model(self):
        return unet.build_unet(unet.UNetConfig(depth=2, base_channels=2,
                                               seed=1))

    def template(self):
        return data.DatasetConfig(height=32, width=32,
                                  background=data.NoisePool(smoothing=0),
                                  glyph_source="builtin:14")

    def test_duplicate_policies_identical_cells(self):
        row = harness.evaluate_bands(
            self.model(), [Unrestricted(), Unrestricted()], 8, seed=3,
            dataset_template=self.template())
        assert row[0] == row[1]

    def test_eval_count_one_is_single_forward_loss(self):
        from centerbias import tensor_core as tc
        from dataclasses import replace
        from centerbias.rng import EVAL_SAMPLES, derive
        model = self.model()
        row = harness.evaluate_bands(model, [Unrestricted()], 1, seed=5,
                                     dataset_template=self.template())
        ds = replace(self.template(), policy=Unrestricted(), count=1,
                     master_seed=derive(5, EVAL_SAMPLES, "unrestricted"))
        s = data.sample_at(ds, 0)
        logits, _ = unet.forward(model, s.input)
        loss, _ = tc.softmax_cross_entropy_pixelwise(
            logits, s.target[None].astype(np.int64))
        assert row[0] == pytest.approx(loss, rel=1e-6)

    def test_deterministic_given_seed(self):
        a = harness.evaluate_bands(self.model(), [Band(0.9, 1.0)], 8, seed=7,
                                   dataset_template=self.template())
        b = harness.evaluate_bands(self.model(), [Band(0.9, 1.0)], 8, seed=7,
                                   dataset_template=self.template())
        assert a == b

    def test_tape_free_rows_equal_taped_rows(self, monkeypatch):
        # 40 samples: one full batch of 32 and a remainder of 8, each run
        # as two tape-free shards; then each batch scored by a taped
        # whole-batch forward and the same cross-entropy
        bands = [Band(0.0, 0.1), Band(0.8, 1.0)]
        asked, forward = [], unet.forward

        def asking(model, batch, keep_tape=True):
            asked.append((keep_tape, len(batch)))
            return forward(model, batch, keep_tape=keep_tape)

        monkeypatch.setattr(unet, "forward", asking)
        row = harness.evaluate_bands(self.model(), bands, 40, seed=9,
                                     dataset_template=self.template())
        monkeypatch.setattr(unet, "forward", forward)
        # the shards of a batch may record in either order
        assert sorted(asked) == [(False, 4)] * 4 + [(False, 16)] * 4
        sizes = []

        def taped(model, batch, targets):
            sizes.append(len(batch))
            logits, tape = unet.forward(model, batch)
            assert tape is not None
            return tc.softmax_cross_entropy_pixelwise(logits, targets,
                                                      need_grad=False)[0]

        monkeypatch.setattr(unet, "sample_losses", taped)
        again = harness.evaluate_bands(self.model(), bands, 40, seed=9,
                                       dataset_template=self.template())
        assert sizes == [32, 8] * 2
        assert np.array(again).tobytes() == np.array(row).tobytes()

    @pytest.mark.parametrize("padding", ["zero", "circular", "reflect"])
    def test_cells_do_not_depend_on_the_batch_size(self, monkeypatch,
                                                   padding):
        model = unet.build_unet(unet.UNetConfig(
            depth=2, base_channels=2, padding=tc.PaddingMode(padding),
            seed=1))
        bands = [Band(0.0, 0.1), Band(0.8, 1.0)]
        row = harness.evaluate_bands(model, bands, 40, seed=9,
                                     dataset_template=self.template())
        monkeypatch.setattr(harness, "EVAL_BATCH", 8)
        again = harness.evaluate_bands(model, bands, 40, seed=9,
                                       dataset_template=self.template())
        assert np.array(again).tobytes() == np.array(row).tobytes()

    @staticmethod
    def traced_memory(monkeypatch):
        """tracemalloc's peak while evaluating 32 samples, then 512, and the
        largest size still allocated after a batch is scored."""
        import tracemalloc
        model = unet.build_unet(unet.UNetConfig(seed=1))
        score = unet.sample_losses

        def scored(*args):
            losses = score(*args)
            after[-1] = max(after[-1], tracemalloc.get_traced_memory()[0])
            return losses

        monkeypatch.setattr(unet, "sample_losses", scored)
        peaks, after = [], []
        for count in (32, 512):
            after.append(0)
            tracemalloc.start()
            try:
                harness.evaluate_bands(model, [Band(0.8, 1.0)], count, 4)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks, after

    def test_memory_does_not_grow_with_the_count(self, monkeypatch):
        # samples are generated and scored one batch at a time.  With the
        # shard thread, a peak holds both shards' transient buffers only
        # when their peaks meet, which 16 batches do more often than one;
        # what a batch leaves allocated does not depend on that timing
        _, after = self.traced_memory(monkeypatch)
        assert after[1] - after[0] < 2e6, after

    def test_memory_does_not_grow_with_the_count_serial_shards(
            self, monkeypatch):
        # the same with both shards of each batch on the calling thread, as
        # in the experiment pool's workers, where the peaks are fixed too
        monkeypatch.setattr(unet, "_shard_thread", False)
        peaks, after = self.traced_memory(monkeypatch)
        assert after[1] - after[0] < 2e6, after
        assert peaks[1] - peaks[0] < 2e6, peaks


class TestRunRegionalTraining:
    def test_zero_head_matrix_is_log_k(self, tmp_path, monkeypatch):
        # models built with a zeroed head, trained one epoch at a negligible
        # rate: Adam moves each weight by about the rate per step, so every
        # logit stays within about 1e-8 of 0 and every cell is log 11 up to
        # f32 rounding, whatever the seed
        build = unet.build_unet

        def zero_head(config):
            model = build(config)
            model.head.weight[...] = 0
            model.head.bias[...] = 0
            return model

        monkeypatch.setattr(unet, "build_unet", zero_head)
        cfg = tiny_config(tmp_path, learning_rate=1e-9)
        record = harness.run_regional_training(cfg, workers=1)
        assert record.raw.shape == (1, 2)
        np.testing.assert_allclose(record.raw, np.log(11), rtol=1e-6)

    def test_smoke_run_full_matrix_and_artifacts(self, tmp_path):
        cfg = tiny_config(tmp_path, train_policies=(
            data.AllowedCentral(0.5), ForbiddenCentral(0.5)), repeats=2)
        record = harness.run_regional_training(cfg, workers=1)
        assert record.raw.shape == (2, 2)
        assert record.per_repeat.shape == (2, 2, 2)
        assert (record.per_repeat > 0).all()
        assert len(record.traces[0][0]) == cfg.epochs
        for row in record.checkpoints:
            for path in row:
                assert unet.load_checkpoint(path).config.depth == 2

    def test_bitwise_determinism_and_worker_invariance(self, tmp_path):
        # two jobs, so workers=2 really trains them in the spawned pool
        kw = dict(train_policies=(Unrestricted(), ForbiddenCentral(0.5)),
                  model=unet.UNetConfig(depth=2, base_channels=2,
                                        padding=tc.CIRCULAR))
        cfg1 = tiny_config(tmp_path, output_dir=str(tmp_path / "r1"), **kw)
        cfg2 = tiny_config(tmp_path, output_dir=str(tmp_path / "r2"), **kw)
        a = harness.run_regional_training(cfg1, workers=1)
        b = harness.run_regional_training(cfg2, workers=2)
        np.testing.assert_array_equal(a.per_repeat, b.per_repeat)
        assert a.traces == b.traces
        assert a.config_hash == b.config_hash

    @pytest.mark.parametrize("workers, policies, trained_by", [
        (2, 1, 1), (1, 2, 1), (8, 2, 2)])
    def test_wall_clock_counts_the_processes_that_trained(
            self, tmp_path, workers, policies, trained_by):
        # one job, or one worker, trains in this process; a pool has no
        # more processes than jobs
        cfg = tiny_config(tmp_path, train_count=8, eval_count=2,
                          train_policies=(Unrestricted(),
                                          ForbiddenCentral(0.5))[:policies])
        record = harness.run_regional_training(cfg, workers=workers)
        assert record.wall_clock["workers"] == trained_by

    def test_augmented_run_executes(self, tmp_path):
        cfg = tiny_config(tmp_path, augmentations=(
            {"name": "random_periodic_shift", "max_frac": 0.25},))
        record = harness.run_regional_training(cfg, workers=1)
        assert np.isfinite(record.raw).all()


class TestWorkerPool:
    def test_pool_workers_run_single_thread_blas(self, monkeypatch):
        for k in harness._WORKER_THREAD_VARS:
            monkeypatch.delenv(k, raising=False)
        with harness._worker_pool(2) as pool:
            seen = [pool.submit(os.getenv, k).result(timeout=120)
                    for k in harness._WORKER_THREAD_VARS]
        assert seen == ["1", "1"]
        assert not any(k in os.environ for k in harness._WORKER_THREAD_VARS)

    def test_pool_workers_start_no_shard_thread(self, tmp_path):
        cfg = tiny_config(tmp_path)  # batches of 8 images: two shards each
        with harness._worker_pool(1) as pool:
            job = pool.submit(harness._train_job, to_dict(cfg), 0, 0)
            assert len(job.result(timeout=120)["trace"]) == cfg.epochs
            assert pool.submit(threading.active_count).result(
                timeout=120) == 1

    def test_pool_keeps_user_thread_setting(self, monkeypatch):
        for k in harness._WORKER_THREAD_VARS:
            monkeypatch.delenv(k, raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        with harness._worker_pool(1) as pool:
            seen = [pool.submit(os.getenv, k).result(timeout=120)
                    for k in harness._WORKER_THREAD_VARS]
        assert seen == [None, "2"]


class TestNormalize:
    def test_reference_column_becomes_one(self):
        raw = np.array([[2.0, 6.0], [0.5, 4.0]])
        out = harness.normalize_matrix(
            raw, [Band(0.0, 0.1), Band(0.9, 1.0)], "by_central_band")
        np.testing.assert_allclose(out[:, 0], 1.0)
        np.testing.assert_allclose(out[:, 1], [3.0, 8.0])

    def test_by_unrestricted(self):
        raw = np.array([[2.0, 6.0]])
        out = harness.normalize_matrix(
            raw, [Unrestricted(), ForbiddenCentral(0.9)], "by_unrestricted")
        np.testing.assert_allclose(out, [[1.0, 3.0]])

    def test_missing_reference_column(self):
        with pytest.raises(ValueError):
            harness.normalize_matrix(
                np.ones((1, 2)), [Band(0.2, 0.4), Band(0.9, 1.0)],
                "by_central_band")


class TestAsymmetry:
    @staticmethod
    def fake_record(labels, per_repeat):
        per_repeat = np.array(per_repeat)
        return harness.RunRecord(
            config=None, config_hash="", train_labels=labels,
            eval_labels=["center", "middle", "edge"], per_repeat=per_repeat,
            raw=per_repeat.mean(axis=1))

    def test_equal_cells_ratio_one(self):
        rec = self.fake_record(["t"], [[[0.5, 2.0, 0.5], [0.5, 2.0, 0.5]]])
        assert harness.summarize_asymmetry(rec) == [1.0]

    def test_one_ratio_per_row_mean_over_repeats(self):
        # rows in train_labels order, two of them under one label; each is
        # the mean over repeats of last band / first band
        rec = self.fake_record(["a", "b", "a"], [
            [[1.0, 7.0, 10.0], [2.0, 7.0, 10.0]],
            [[3.0, 7.0, 1.0], [1.0, 7.0, 1.0]],
            [[4.0, 7.0, 2.0], [4.0, 7.0, 4.0]]])
        assert harness.summarize_asymmetry(rec) == pytest.approx(
            [(10 + 5) / 2, (1 / 3 + 1) / 2, (0.5 + 1) / 2])


class TestExport:
    def test_roundtrip_and_idempotence(self, tmp_path):
        cfg = tiny_config(tmp_path)
        record = harness.run_regional_training(cfg, workers=1)
        paths = harness.export_results(record)
        loaded = harness.load_results(paths["results"])
        np.testing.assert_array_equal(loaded.raw, record.raw)
        np.testing.assert_array_equal(loaded.per_repeat, record.per_repeat)
        assert loaded.config == record.config
        with open(paths["matrix_raw"]) as f:
            first = f.read()
        harness.export_results(record)
        with open(paths["matrix_raw"]) as f:
            assert f.read() == first

    def test_loaded_record_exports_the_same_bytes(self, tmp_path):
        config = harness.ExperimentConfig(repeats=2, epochs=2,
                                          output_dir=str(tmp_path))
        record = harness.RunRecord(
            config, harness.config_hash(config), ["unrestricted"],
            ["band:0-0.1", "band:0.9-1"],
            per_repeat=np.arange(4.0).reshape(1, 2, 2) / 3,
            raw=np.array([[0.1, 1 / 7]]),
            normalized={"by_central_band": np.ones((1, 2)) / 3},
            traces=[[[2.0, 1.5], [2.5, 1 / 3]]],
            checkpoints=[["a.ckpt", "b.ckpt"]],
            wall_clock={"total_seconds": 1.25, "workers": 2})
        first = harness.export_results(record)["results"]
        loaded = harness.load_results(first)
        assert loaded.traces == record.traces
        assert loaded.checkpoints == record.checkpoints
        again = harness.export_results(loaded, str(tmp_path / "again"))
        with open(first, "rb") as f, open(again["results"], "rb") as g:
            assert f.read() == g.read()

    def test_curves_csv_text_is_pinned(self, tmp_path):
        # one row per eval band, one column per train policy, 9 digits
        config = harness.ExperimentConfig(repeats=1, epochs=1,
                                          output_dir=str(tmp_path))
        raw = np.array([[0.1, 1 / 3], [2.5, 1e-10]])
        record = harness.RunRecord(
            config, harness.config_hash(config),
            ["allowed:0.3", "forbidden:0.7"], ["band:0-0.1", "band:0.8-1"],
            per_repeat=raw[:, None], raw=raw, traces=[[[2.0]], [[2.0]]],
            checkpoints=[["a.ckpt"], ["b.ckpt"]])
        path = harness.export_results(record)["curves"]
        with open(path, newline="") as f:
            assert f.read() == (
                "eval_band,allowed:0.3,forbidden:0.7\r\n"
                "band:0-0.1,0.1,2.5\r\n"
                "band:0.8-1,0.333333333,1e-10\r\n")

    def test_csv_matches_json_matrix(self, tmp_path):
        cfg = tiny_config(tmp_path)
        record = harness.run_regional_training(cfg, workers=1)
        paths = harness.export_results(record)
        labels_r, labels_c, matrix = harness.read_matrix_csv(
            paths["matrix_raw"])
        assert labels_r == record.train_labels
        assert labels_c == record.eval_labels
        np.testing.assert_allclose(matrix, record.raw, rtol=1e-8)


class TestPairing:
    """The arms of a repeat are paired: the same initial weights, glyph
    sequence, backgrounds and evaluation inputs; only placement (and
    augmentation) differs."""

    @staticmethod
    def jobs(monkeypatch, configs):
        """Per job, in order: initial weights, training (X, T) and each
        band's evaluation inputs."""
        jobs = []
        build, materialize = unet.build_unet, harness._materialize
        train_job = harness._train_job

        def job(*args):
            jobs.append({"eval": []})
            return train_job(*args)

        def building(cfg):
            model = build(cfg)
            jobs[-1]["init"] = model.flat_params.copy()
            return model

        def materializing(ds_cfg, *span):
            X, T = materialize(ds_cfg, *span)
            if "train" in jobs[-1]:
                jobs[-1]["eval"].append(X)
            else:
                jobs[-1]["train"] = (X, T)
            return X, T

        monkeypatch.setattr(harness, "_train_job", job)
        monkeypatch.setattr(unet, "build_unet", building)
        monkeypatch.setattr(harness, "_materialize", materializing)
        for cfg in configs:
            harness.run_regional_training(cfg, workers=1)
        return jobs

    @staticmethod
    def assert_paired(a, b):
        np.testing.assert_array_equal(a["init"], b["init"])
        assert len(a["eval"]) == len(b["eval"]) > 0
        for xa, xb in zip(a["eval"], b["eval"]):
            np.testing.assert_array_equal(xa, xb)
        (Xa, Ta), (Xb, Tb) = a["train"], b["train"]
        assert not np.array_equal(Ta, Tb)  # the placements differ
        # one digit class per sample: its target value is the class + 1
        np.testing.assert_array_equal(Ta.max(axis=(1, 2)),
                                      Tb.max(axis=(1, 2)))
        outside = ~((Ta > 0) | (Tb > 0))
        np.testing.assert_array_equal(Xa[:, 0][outside], Xb[:, 0][outside])

    def test_train_policies_of_one_config_are_paired(self, tmp_path,
                                                     monkeypatch):
        # the center/edge pair of `centerbias asymmetry`, at a tiny scale
        from centerbias import cli
        argv = ["asymmetry", "--out", str(tmp_path)]
        for item in ("dataset.height=32", "dataset.width=32",
                     "dataset.glyph_source=builtin:14", "model.depth=2",
                     "model.base_channels=2", "train_count=16",
                     "batch_size=8", "eval_count=4", "epochs=1",
                     "repeats=2"):
            argv += ["--set", item]
        cfg = cli.experiment_config(cli.build_parser().parse_args(argv))
        jobs = self.jobs(monkeypatch, [cfg])
        assert len(jobs) == 4  # (ti, rep) = (0, 0), (0, 1), (1, 0), (1, 1)
        self.assert_paired(jobs[0], jobs[2])
        self.assert_paired(jobs[1], jobs[3])
        assert not np.array_equal(jobs[0]["init"], jobs[1]["init"])

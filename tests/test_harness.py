"""Harness oracles at smoke scale: determinism, normalization arithmetic,
asymmetry ratios, and artifact round trips."""

import os
import threading

import numpy as np
import pytest

from centerbias import data, harness, unet
from centerbias import tensor_core as tc
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
        assert harness.ExperimentConfig.from_dict(cfg.to_dict()) == cfg

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
        from centerbias.rng import splitmix64
        model = self.model()
        row = harness.evaluate_bands(model, [Unrestricted()], 1, seed=5,
                                     dataset_template=self.template())
        ds = replace(self.template(), policy=Unrestricted(), count=1,
                     master_seed=splitmix64(
                         5, harness._policy_seed(Unrestricted())))
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
        # 40 samples: one full batch of 32 and a remainder of 8
        bands = [Band(0.0, 0.1), Band(0.8, 1.0)]
        row = harness.evaluate_bands(self.model(), bands, 40, seed=9,
                                     dataset_template=self.template())
        asked, forward = [], unet.forward

        def taped(model, batch, rng=None, keep_tape=True):
            asked.append(keep_tape)
            logits, tape = forward(model, batch, rng)
            assert tape is not None
            return logits, tape

        monkeypatch.setattr(unet, "forward", taped)
        again = harness.evaluate_bands(self.model(), bands, 40, seed=9,
                                       dataset_template=self.template())
        assert asked == [False] * 4
        assert np.array(again).tobytes() == np.array(row).tobytes()


class TestRunRegionalTraining:
    def test_untrained_matrix_near_log_k(self, tmp_path):
        cfg = tiny_config(tmp_path, epochs=0, repeats=1)
        record = harness.run_regional_training(cfg, workers=1)
        assert record.raw.shape == (1, 2)
        np.testing.assert_allclose(record.raw, np.log(11), atol=0.5)

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
            job = pool.submit(harness._train_job, cfg.to_dict(), 0, 0)
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
    def fake_record(self, cells):
        rec = harness.RunRecord(
            config=None, config_hash="", train_labels=["t"],
            eval_labels=["center", "edge"],
            per_repeat=np.array([cells]), raw=np.array(cells).mean(0)[None])
        return rec

    def test_equal_cells_both_ratios_one(self):
        rec = self.fake_record([[0.5, 0.5], [0.5, 0.5]])
        out = harness.summarize_asymmetry(rec, rec)
        assert out == {"center_to_edge_ratio": 1.0,
                       "edge_to_center_ratio": 1.0}

    def test_per_repeat_mean_of_ratios(self):
        center = self.fake_record([[1.0, 10.0], [2.0, 10.0]])
        edge = self.fake_record([[3.0, 1.0], [1.0, 1.0]])
        out = harness.summarize_asymmetry(center, edge)
        assert out["center_to_edge_ratio"] == pytest.approx((10 + 5) / 2)
        assert out["edge_to_center_ratio"] == pytest.approx((3 + 1) / 2)


class TestExport:
    def test_roundtrip_and_idempotence(self, tmp_path):
        cfg = tiny_config(tmp_path)
        record = harness.run_regional_training(cfg, workers=1)
        paths = harness.export_results(record)
        loaded = harness.load_results(paths["results"])
        np.testing.assert_array_equal(loaded.raw, record.raw)
        np.testing.assert_array_equal(loaded.per_repeat, record.per_repeat)
        assert loaded.config == record.config
        first = open(paths["matrix_raw"]).read()
        harness.export_results(record)
        assert open(paths["matrix_raw"]).read() == first

    def test_csv_matches_json_matrix(self, tmp_path):
        cfg = tiny_config(tmp_path, epochs=0)
        record = harness.run_regional_training(cfg, workers=1)
        paths = harness.export_results(record)
        labels_r, labels_c, matrix = harness.read_matrix_csv(
            paths["matrix_raw"])
        assert labels_r == record.train_labels
        assert labels_c == record.eval_labels
        np.testing.assert_allclose(matrix, record.raw, rtol=1e-8)

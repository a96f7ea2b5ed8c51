"""Harness oracles at smoke scale: determinism, the derived matrices,
asymmetry ratios, and artifact round trips."""

import csv
import json
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
                     master_seed=derive(5, EVAL_SAMPLES))
        s = data.sample_at(ds, 0)
        logits, _ = unet.forward(model, s.input)
        loss, _ = tc.softmax_cross_entropy_pixelwise(
            logits, s.target[None].astype(np.int64))
        assert row[0] == pytest.approx(loss, rel=1e-6)

    def test_bands_score_the_same_digits_on_the_same_backgrounds(
            self, monkeypatch):
        # each block of samples is generated once for every band, and its
        # bands are scored in turn; sample i of every band has one digit
        # and one background, and only the offset follows the band
        bands = [Band(0.0, 0.1), Band(0.4, 0.6), Band(0.9, 1.0)]
        blocks, scored = [], []
        sample_block, score = data.sample_block, unet.sample_losses

        def generating(ds_cfg, indices, policies):
            blocks.append((indices, list(policies)))
            return sample_block(ds_cfg, indices, policies)

        def scoring(model, X, T):
            scored.append((X[:, 0].copy(), T.copy()))
            return score(model, X, T)

        monkeypatch.setattr(data, "sample_block", generating)
        monkeypatch.setattr(unet, "sample_losses", scoring)
        harness.evaluate_bands(self.model(), bands, 40, seed=4,
                               dataset_template=self.template())
        assert blocks == [(range(0, 32), bands), (range(32, 40), bands)]
        assert [len(X) for X, _ in scored] == [32] * 3 + [8] * 3
        for k in range(len(blocks)):
            (X0, T0), *others = scored[3 * k:3 * k + 3]
            for X, T in others:
                assert not np.array_equal(T, T0)  # the placements differ
                np.testing.assert_array_equal(T.max(axis=(1, 2)),
                                              T0.max(axis=(1, 2)))
                outside = ~((T > 0) | (T0 > 0))
                np.testing.assert_array_equal(X[outside], X0[outside])

    def test_default_background_row_is_pinned(self):
        # the default background blurs its noise (smoothing 2); 40 samples
        # are a full block and a remainder.  Recorded when every band still
        # generated its own samples, one at a time
        template = data.DatasetConfig(height=32, width=32,
                                      glyph_source="builtin:14")
        assert template.background == data.NoisePool(smoothing=2)
        row = harness.evaluate_bands(
            self.model(), [Band(0.0, 0.1), Band(0.4, 0.6), Band(0.9, 1.0)],
            40, seed=9, dataset_template=template)
        assert row == [2.388164449902251, 2.3890014917735245,
                       2.3899803469597827]

    @pytest.mark.parametrize("others", [
        [], [Band(0.0, 0.1)], [Band(0.0, 0.1), Unrestricted()],
        [Unrestricted(), Band(0.9, 1.0), Band(0.0, 0.1)]])
    def test_cell_does_not_depend_on_the_other_bands(self, others):
        edge = Band(0.9, 1.0)
        alone = harness.evaluate_bands(self.model(), [edge], 8, seed=2,
                                       dataset_template=self.template())
        for listed in ([edge, *others], [*others, edge]):
            row = harness.evaluate_bands(self.model(), listed, 8, seed=2,
                                         dataset_template=self.template())
            assert row[listed.index(edge)] == alone[0]

    def test_band_admitting_no_offset_raises_before_any_sample(
            self, monkeypatch):
        # a 14x14 glyph on 32x32 moves at most 9 pixels; 0.95-0.99 admits
        # no r of k / 9
        def no_samples(*args):
            raise AssertionError("a sample was generated")

        monkeypatch.setattr(data, "sample_block", no_samples)
        with pytest.raises(ValueError, match="band:0.95-0.99 admits no"):
            harness.evaluate_bands(self.model(),
                                   [Band(0.0, 0.1), Band(0.95, 0.99)], 8,
                                   seed=0, dataset_template=self.template())

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
        assert sizes == [32] * 2 + [8] * 2  # blocks, then bands
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
        # two jobs, so workers=2 really trains them in the spawned pool,
        # each sent the validated config, augmentation and all
        kw = dict(train_policies=(Unrestricted(), ForbiddenCentral(0.5)),
                  model=unet.UNetConfig(depth=2, base_channels=2,
                                        padding=tc.CIRCULAR),
                  augmentations=({"name": "random_periodic_shift",
                                  "max_frac": 0.25},))
        cfg1 = tiny_config(tmp_path, output_dir=str(tmp_path / "r1"), **kw)
        cfg2 = tiny_config(tmp_path, output_dir=str(tmp_path / "r2"), **kw)
        a = harness.run_regional_training(cfg1, workers=1)
        b = harness.run_regional_training(cfg2, workers=2)
        np.testing.assert_array_equal(a.per_repeat, b.per_repeat)
        assert a.traces == b.traces
        assert harness.config_hash(a.config) == harness.config_hash(b.config)

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
        assert record.wall_clock.workers == trained_by

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
            job = pool.submit(harness._train_job, cfg, 0, 0)
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


def make_record(per_repeat, output_dir, train_policies=(Unrestricted(),),
                eval_bands=(Band(0.0, 0.1), Band(0.9, 1.0)), epochs=1):
    """A record of the given measurements, with a config of their shape."""
    per_repeat = np.array(per_repeat, dtype=np.float64)
    rows, repeats, _ = per_repeat.shape
    config = harness.ExperimentConfig(
        train_policies=train_policies, eval_bands=eval_bands,
        repeats=repeats, epochs=epochs, output_dir=str(output_dir))
    return harness.RunRecord(
        config, per_repeat,
        traces=[[[2.0] * epochs] * repeats] * rows,
        checkpoints=[[f"train{ti}_rep{rep}.ckpt" for rep in range(repeats)]
                     for ti in range(rows)],
        wall_clock=harness.WallClock(1.25, 2))


class TestNormalize:
    def test_reference_column_becomes_one(self, tmp_path):
        # the first band's cell is the reference of its row
        record = make_record([[[2.0, 6.0]], [[0.5, 4.0]]], tmp_path,
                             train_policies=(Unrestricted(),
                                             ForbiddenCentral(0.5)))
        np.testing.assert_allclose(record.normalized[:, 0], 1.0)
        np.testing.assert_allclose(record.normalized[:, 1], [3.0, 8.0])


class TestAsymmetry:
    """The edge/center ratio of a row is `normalized[:, -1]`: its last
    band's mean over repeats over its first band's."""

    @staticmethod
    def fake_record(per_repeat):
        return harness.RunRecord(config=None, per_repeat=np.array(per_repeat),
                                 traces=[], checkpoints=[], wall_clock=None)

    def test_equal_cells_ratio_one(self):
        rec = self.fake_record([[[0.5, 2.0, 0.5], [0.5, 2.0, 0.5]]])
        assert rec.normalized[:, -1].tolist() == [1.0]

    def test_one_ratio_per_row_ratio_of_repeat_means(self):
        # one ratio per row, in row order; the mean of the per-repeat
        # ratios differs (7.5 for row 0), and is infinite for row 3, whose
        # first repeat has a center cell of 0
        rec = self.fake_record([
            [[1.0, 7.0, 10.0], [2.0, 7.0, 10.0]],
            [[3.0, 7.0, 1.0], [1.0, 7.0, 1.0]],
            [[4.0, 7.0, 2.0], [4.0, 7.0, 4.0]],
            [[0.0, 7.0, 1.0], [2.0, 7.0, 3.0]]])
        np.testing.assert_allclose(rec.normalized[:, -1],
                                   [10 / 1.5, 1 / 2, 3 / 4, 2.0])


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
        record = make_record(np.arange(4.0).reshape(1, 2, 2) / 3, tmp_path,
                             epochs=2)
        record.traces = [[[2.0, 1.5], [2.5, 1 / 3]]]
        paths = harness.export_results(record)
        loaded = harness.load_results(paths["results"])
        assert loaded.traces == record.traces
        assert loaded.checkpoints == record.checkpoints
        assert loaded.wall_clock == record.wall_clock
        again = harness.export_results(loaded, str(tmp_path / "again"))
        for name, path in paths.items():
            with open(path, "rb") as f, open(again[name], "rb") as g:
                assert f.read() == g.read(), name

    def test_results_json_holds_the_measurements_only(self, tmp_path):
        record = make_record([[[1.0, 2.0]]], tmp_path)
        with open(harness.export_results(record)["results"]) as f:
            assert list(json.load(f)) == [
                "schema_version", "config", "per_repeat", "traces",
                "checkpoints", "wall_clock"]

    def test_matrix_csv_text_is_pinned(self, tmp_path):
        # one row per train policy, one column per eval band, 9 significant
        # digits, CRLF line ends
        record = make_record(
            [[[0.1, 1 / 3]], [[2.5, 1e-10]]], tmp_path,
            train_policies=(data.AllowedCentral(0.3), ForbiddenCentral(0.7)),
            eval_bands=(Band(0.0, 0.1), Band(0.8, 1.0)))
        paths = harness.export_results(record)
        texts = {}
        for name in ("matrix_raw", "matrix_norm"):
            with open(paths[name], newline="") as f:
                texts[name] = f.read()
        assert texts == {
            "matrix_raw": "train\\eval,band:0-0.1,band:0.8-1\r\n"
                          "allowed:0.3,0.1,0.333333333\r\n"
                          "forbidden:0.7,2.5,1e-10\r\n",
            "matrix_norm": "train\\eval,band:0-0.1,band:0.8-1\r\n"
                           "allowed:0.3,1,3.33333333\r\n"
                           "forbidden:0.7,1,4e-11\r\n"}

    def test_rerun_with_other_bands_rewrites_every_matrix(self, tmp_path):
        # no band is the central one: the normalized matrix is still
        # rewritten, so no file of the first run is left behind
        harness.export_results(make_record([[[1.0, 2.0]]], tmp_path))
        paths = harness.export_results(make_record(
            [[[2.0, 4.0]]], tmp_path,
            eval_bands=(Band(0.4, 0.6), Band(0.8, 1.0))))
        assert sorted(os.listdir(tmp_path)) == sorted(
            os.path.basename(p) for p in paths.values())
        with open(paths["matrix_norm"], newline="") as f:
            assert f.read() == ("train\\eval,band:0.4-0.6,band:0.8-1\r\n"
                                "unrestricted,1,2\r\n")

    def test_csv_matches_json_matrix(self, tmp_path):
        cfg = tiny_config(tmp_path)
        record = harness.run_regional_training(cfg, workers=1)
        paths = harness.export_results(record)
        with open(paths["matrix_raw"], newline="") as f:
            header, *rows = csv.reader(f)
        assert header[1:] == record.eval_labels
        assert [r[0] for r in rows] == record.train_labels
        np.testing.assert_allclose([[float(v) for v in r[1:]] for r in rows],
                                   record.raw, rtol=1e-8)


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
        train_job, score = harness._train_job, unet.sample_losses

        def job(*args):
            jobs.append({"eval": []})
            return train_job(*args)

        def building(cfg):
            model = build(cfg)
            jobs[-1]["init"] = model.flat_params.copy()
            return model

        def materializing(ds_cfg):
            jobs[-1]["train"] = materialize(ds_cfg)
            return jobs[-1]["train"]

        def scoring(model, X, T):
            jobs[-1]["eval"].append(X.copy())
            return score(model, X, T)

        monkeypatch.setattr(harness, "_train_job", job)
        monkeypatch.setattr(unet, "build_unet", building)
        monkeypatch.setattr(harness, "_materialize", materializing)
        monkeypatch.setattr(unet, "sample_losses", scoring)
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

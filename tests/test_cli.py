"""End-to-end CLI checks: exit codes, artifact emission, idempotence."""

import csv
import gc
import hashlib
import json
import os
import struct
import types
import warnings
from dataclasses import MISSING, fields, is_dataclass, replace
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np
import pytest

from centerbias import augment, cli, data, harness, netpbm, unet
from centerbias.config import to_dict


def run(argv):
    return cli.main(argv)


def wrong_typed_sets():
    """(`--set` argument, dotted key) pairs that put one wrong-typed value at
    each key of an experiment: every field of every nested record, of every
    variant of a union, and each augmentation kind's parameters.  The keys
    read before the wrong one hold valid values (defaults, or a value of
    the field's type)."""
    cases = []

    def wrong(tp):
        return 5 if tp in (str, dict) else "x"

    def walk(tp, key, place):
        # place(v) is the --set argument that puts v at `key`
        cases.append((place(wrong(tp)), key))
        if get_origin(tp) is tuple:
            walk(get_args(tp)[0], f"{key}[0]", lambda v: place([v]))
        elif get_origin(tp) in (Union, types.UnionType):
            for cls in get_args(tp):
                walk_fields(cls, key,
                            lambda d, cls=cls: place({"kind": cls.KIND, **d}))
        elif is_dataclass(tp):
            walk_fields(tp, key, place)

    def walk_fields(cls, key, place):
        hints = get_type_hints(cls)
        valid = {f.name: {int: 1, float: 0.5, str: "x"}[hints[f.name]]
                 if f.default is MISSING else to_dict(f.default)
                 for f in fields(cls)}
        for f in fields(cls):
            walk(hints[f.name], f"{key}.{f.name}",
                 lambda v, name=f.name: place({**valid, name: v}))

    hints = get_type_hints(harness.ExperimentConfig)
    for f in fields(harness.ExperimentConfig):
        walk(hints[f.name], f.name,
             lambda v, name=f.name: f"{name}={json.dumps(v)}")
    # augmentations are {"name": ..., <the kind's parameters>} dicts
    cases.append(('augmentations=[{"name": 5}]', "augmentations[0].name"))
    for name, cls in augment._AUGMENTS.items():
        walk_fields(cls, "augmentations[0]",
                    lambda d, name=name: "augmentations=" + json.dumps(
                        [{"name": name, **d}]))
    return cases


WRONG_TYPED_SETS = wrong_typed_sets()


class TestUsage:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert run(["gen", "--bogus"]) == 2

    def test_missing_file_exits_3(self, tmp_path, capsys):
        assert run(["audit", "--annotations", str(tmp_path / "nope.json"),
                    "--category", "x", "--out", str(tmp_path)]) == 3

    def test_missing_checkpoint_exits_3(self, tmp_path, capsys):
        assert run(["saliency", "--checkpoint", str(tmp_path / "no.ckpt"),
                    "--out", str(tmp_path / "sal")]) == 3
        assert capsys.readouterr().err.startswith("error: missing file")

    def test_invalid_config_exits_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"not\": \"a config\"}")
        assert run(["train", "--config", str(bad)]) == 4

    @pytest.mark.parametrize("argv, path", [
        (["eval", "--checkpoint", "d"], "d"),
        (["train", "--config", "d"], "d"),
        (["report", "--results", "d", "--out", "o"], "d"),
        (["gen", "--count", "1", "--out", "f"], "f"),
        (["gen", "--count", "1", "--out", "f/sub"], "f/sub"),
        (["gen", "--count", "1", "--out", "g", "--set", "glyph_source=f"],
         "f"),
        (["gen", "--count", "1", "--out", "g", "--set",
          'background={"kind": "image_dir", "path": "f"}'], "f"),
    ], ids=["checkpoint-dir", "config-dir", "results-dir", "out-file",
            "out-under-file", "glyph-source-file", "image-dir-file"])
    def test_a_path_of_the_wrong_kind_exits_4_naming_it(
            self, tmp_path, capsys, monkeypatch, argv, path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        (tmp_path / "f").write_text("")
        assert run(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert err.endswith(f": {path}\n") and "Traceback" not in err


class TestConfigErrors:
    """Bad config input exits 4 with a one-line error, not a traceback."""

    @pytest.fixture
    def no_samples(self, monkeypatch):
        def no_samples(*args):
            raise AssertionError("a sample was generated")

        monkeypatch.setattr(data, "sample_block", no_samples)

    def assert_one_line_error(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    @pytest.mark.parametrize("argv", [
        ["gen", "--count", "1"],
        ["train", "--set", "train_count=8", "--set", "batch_size=8",
         "--set", "repeats=1", "--workers", "1"]], ids=["gen", "train"])
    def test_no_samples_stops_the_first_sample(self, tmp_path, no_samples,
                                               argv):
        # the tests that use `no_samples` would pass vacuously if a command
        # generated its samples past it
        with pytest.raises(AssertionError, match="a sample was generated"):
            run([*argv, "--out", str(tmp_path)])

    @pytest.mark.parametrize("override, key", [
        ('dataset.background.smoothing="x"', "dataset.background.smoothing"),
        ("dataset.background.smoothing=2.5", "dataset.background.smoothing"),
        ('dataset.background.seed="x"', "dataset.background.seed"),
        ('dataset.policy.lo="a"', "dataset.policy.lo"),
        ('model.padding.amplitude="x"', "model.padding.amplitude"),
        ("dataset.glyph_source=5", "dataset.glyph_source"),
        ("output_dir=5", "output_dir"),
        ('train_policies=[{"kind": "allowed_central", "a": "x"}]',
         "train_policies[0].a"),
        ("model.padding={}", "model.padding.kind"),
        ('train_policies=[{"kind": "band"}]', "train_policies[0].lo"),
    ])
    def test_bad_value_exits_4_naming_the_key(self, tmp_path, capsys,
                                              monkeypatch, no_samples,
                                              override, key):
        monkeypatch.chdir(tmp_path)  # no --out, so output_dir is read
        assert run(["train", "--set", override, "--workers", "1"]) == 4
        assert key in self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("override, key", WRONG_TYPED_SETS,
                             ids=[key for _, key in WRONG_TYPED_SETS])
    def test_every_wrong_typed_key_exits_4_naming_it(
            self, tmp_path, capsys, monkeypatch, no_samples, override, key):
        monkeypatch.chdir(tmp_path)  # no --out, so output_dir is read
        assert run(["train", "--set", override, "--workers", "1"]) == 4
        err = self.assert_one_line_error(capsys)
        assert err.startswith(f"error: {key} must be "), (override, err)

    @pytest.mark.parametrize("override, key", [
        ("epochs=0", "epochs"), ("batch_size=0", "batch_size"),
        ("eval_count=0", "eval_count"),
        ("train_policies=[]", "train_policies"),
        ("eval_bands=[]", "eval_bands"),
        ("model.in_channels=3", "model.in_channels"),
        ("model.num_classes=10", "model.num_classes"),
        ("model.base_channels=0", "base_channels"),
        ("master_seed=-1", "master_seed must be >= 0"),
        ("dataset.height=16", "glyph 28x28 does not fit a 16x96 image"),
    ])
    def test_out_of_range_value_exits_4_before_generation(
            self, tmp_path, capsys, no_samples, override, key):
        assert run(["train", "--set", override, "--workers", "1",
                    "--out", str(tmp_path)]) == 4
        assert key in self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("override", ['model.depth="abc"',
                                          'batch_size="x"'])
    def test_non_integer_field_exits_4(self, tmp_path, capsys, override):
        assert run(["train", "--set", override, "--out",
                    str(tmp_path)]) == 4
        self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("sets, message", [
        (["height=16"], "glyph 28x28 does not fit a 16x96 image"),
        (["glyph_source=builtin:14", "width=12"],
         "glyph 14x14 does not fit a 64x12 image"),
    ])
    def test_glyph_larger_than_image_exits_4_before_generation(
            self, tmp_path, capsys, monkeypatch, no_samples, sets, message):
        def no_files(*args):
            raise AssertionError("a glyph file was read")

        monkeypatch.setattr(data, "load_glyph_dir", no_files)
        argv = ["gen", "--out", str(tmp_path)]
        for item in sets:
            argv += ["--set", item]
        assert run(argv) == 4
        assert message in self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("argv, message", [
        (["gen", "--set", "glyph_source=builtin:6"],
         "glyph_source: builtin glyph size must be >= 7, got 6"),
        (["gen", "--set", "glyph_source=builtin:0"],
         "glyph_source: builtin glyph size must be >= 7, got 0"),
        (["gen", "--set", 'background={"kind": "noise", "smoothing": -3}'],
         "background: smoothing must be >= 0"),
        (["train", "--workers", "1",
          "--set", "dataset.glyph_source=builtin:3"],
         "dataset: glyph_source: builtin glyph size must be >= 7, got 3"),
        (["train", "--workers", "1", "--set",
          'dataset.background={"kind": "noise", "smoothing": -3}'],
         "dataset.background: smoothing must be >= 0"),
    ], ids=["gen-glyph-6", "gen-glyph-0", "gen-smoothing", "train-glyph-3",
            "train-smoothing"])
    def test_a_dataset_that_would_measure_nothing_exits_4_naming_the_key(
            self, tmp_path, capsys, no_samples, argv, message):
        # glyphs under 7 px are blank; negative smoothing blurs nothing
        out = tmp_path / "out"
        assert run([*argv, "--out", str(out)]) == 4
        assert message in self.assert_one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("argv, code", [
        (["gen", "--set",
          'background={"kind": "image_dir", "path": "none"}'], 3),
        (["gen", "--set", 'background={"kind": "image_dir", "path": "f"}'],
         4),
        (["gen", "--set", 'background={"kind": "image_dir", "path": "d"}'],
         4),
        (["train", "--workers", "1", "--set",
          'dataset.background={"kind": "image_dir", "path": "f"}'], 4),
        (["train", "--workers", "1", "--set", "model.depth=7",
          "--set", "dataset.width=128",
          "--set", 'model.padding={"kind": "reflect"}'], 4),
    ], ids=["gen-missing-dir", "gen-dir-is-a-file", "gen-dir-without-images",
            "train-dir-is-a-file", "train-reflect-1px-bottom"])
    def test_input_found_bad_at_the_first_sample_leaves_no_out(
            self, tmp_path, capsys, monkeypatch, no_samples, argv, code):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f").write_text("")
        (tmp_path / "d").mkdir()
        (tmp_path / "d" / "notes.txt").write_text("")
        assert run([*argv, "--out", "o"]) == code
        self.assert_one_line_error(capsys)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["gen", "--set", 'background={"kind": "image_dir", "path": "m"}'],
        ["train", "--workers", "1", "--set",
         'dataset.background={"kind": "image_dir", "path": "m"}'],
    ], ids=["gen", "train"])
    def test_an_image_dir_sample_above_maxval_exits_4_naming_the_file(
            self, tmp_path, capsys, monkeypatch, no_samples, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m").mkdir()
        (tmp_path / "m" / "bad.pgm").write_bytes(b"P5 2 1 15\n" +
                                                 bytes([15, 200]))
        assert run([*argv, "--out", "o"]) == 4
        err = self.assert_one_line_error(capsys)
        assert "bad.pgm" in err and "above maxval 15" in err
        assert not (tmp_path / "o").exists()

    def test_asymmetry_bad_value_exits_4_before_generation(
            self, tmp_path, capsys, no_samples):
        assert run(["asymmetry", "--set", "train_count=0", "--workers", "1",
                    "--out", str(tmp_path)]) == 4
        assert "train_count" in self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("command", ["train", "asymmetry"])
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exit_4_before_any_output(
            self, tmp_path, capsys, no_samples, command, workers):
        out = tmp_path / "out"
        assert run([command, "--workers", workers, "--out", str(out)]) == 4
        assert "workers must be >= 1" in self.assert_one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("key", ["train_policies", "eval_bands"])
    def test_policy_admitting_no_offset_exits_4_before_any_output(
            self, tmp_path, capsys, no_samples, key):
        # a 28x28 glyph on 32x32 moves at most 2 pixels: r is 0, 0.5 or 1
        out = tmp_path / "out"
        band = json.dumps([{"kind": "band", "lo": 0.6, "hi": 0.9}])
        assert run(["train", "--set", "dataset.height=32",
                    "--set", "dataset.width=32", "--set", f"{key}={band}",
                    "--workers", "1", "--out", str(out)]) == 4
        assert self.assert_one_line_error(capsys) == (
            f"error: {key}[0]: band:0.6-0.9 admits no offset of a 28x28 "
            f"glyph on a 32x32 image\n")
        assert not out.exists()

    def test_indivisible_dims_exit_4_before_generation(self, tmp_path,
                                                       capsys, no_samples):
        assert run(["train", "--set", "dataset.width=90", "--workers", "1",
                    "--out", str(tmp_path)]) == 4
        self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("argv", [
        ["train", "--set", 'model.padding="circular"'],
        ["gen", "--set", 'policy="center"'],
        ["gen", "--set", 'background="noise"'],
    ], ids=["padding", "policy", "background"])
    def test_non_dict_nested_value_exits_4(self, tmp_path, capsys, argv):
        assert run(argv + ["--out", str(tmp_path)]) == 4
        self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("value", ['"x"', "0", "-1e-3", "NaN", "true"])
    def test_bad_learning_rate_exits_4_before_generation(
            self, tmp_path, capsys, no_samples, value):
        assert run(["train", "--set", f"learning_rate={value}", "--workers",
                    "1", "--out", str(tmp_path)]) == 4
        self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("override", [
        'augmentations=[{"name": "random_periodic_shift", "max_frac": -0.5}]',
        'augmentations=[{"name": "random_periodic_shift", "max_fraq": 0.5}]',
        'augmentations=[{"name": "edge_block_drop", "band_width": 100}]',
        'augmentations=[{"name": "edge_block_drop", "band_width": 64}]',
        'augmentations=["random_periodic_shift"]',
        'augmentations=5',
        'train_policy={"kind": "unrestricted"}',
    ], ids=["negative-max-frac", "typo-key", "band-100", "band-64",
            "bare-name", "not-a-list", "train-policy-alias"])
    def test_bad_augmentation_or_key_exits_4_before_generation(
            self, tmp_path, capsys, no_samples, override):
        assert run(["train", "--set", override, "--workers", "1",
                    "--out", str(tmp_path)]) == 4
        self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("key", ["train_policies", "eval_bands"])
    def test_non_list_policies_exit_4_naming_the_key(
            self, tmp_path, capsys, no_samples, key):
        assert run(["train", "--set", key + '={"kind": "unrestricted"}',
                    "--workers", "1", "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err == f"error: {key} must be a list, got " \
            "{'kind': 'unrestricted'}\n"

    def test_config_file_without_an_object_exits_4(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert run(["train", "--config", str(path), "--out",
                    str(tmp_path)]) == 4
        assert "JSON object" in self.assert_one_line_error(capsys)

    def test_checkpoint_with_unknown_config_key_exits_4(self, tmp_path,
                                                       capsys):
        path = tmp_path / "model.ckpt"
        unet.save_checkpoint(
            unet.build_unet(unet.UNetConfig(depth=1, base_channels=2)), path)
        header, payload = path.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        doc["config"]["mystery"] = 1
        path.write_bytes(json.dumps(doc).encode() + b"\n" + payload)
        assert run(["eval", "--checkpoint", str(path), "--count", "1"]) == 4
        self.assert_one_line_error(capsys)

    def test_checkpoint_of_another_version_exits_4(self, tmp_path, capsys):
        path = tmp_path / "model.ckpt"
        unet.save_checkpoint(
            unet.build_unet(unet.UNetConfig(depth=1, base_channels=2)), path)
        header, payload = path.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        doc["version"] = 1
        path.write_bytes(json.dumps(doc).encode() + b"\n" + payload)
        assert run(["eval", "--checkpoint", str(path), "--count", "1"]) == 4
        assert "checkpoint version 1: this build reads version 2" in \
            self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("override, key, source", [
        ("dataset.master_seed=99", "dataset.master_seed", "master_seed"),
        ("dataset.count=5", "dataset.count", "train_count / eval_count"),
        ('dataset.policy={"kind": "band", "lo": 0.0, "hi": 0.1}',
         "dataset.policy", "train_policies / eval_bands"),
        ("model.seed=4", "model.seed", "master_seed"),
    ])
    def test_key_an_experiment_sets_exits_4_before_generation(
            self, tmp_path, capsys, no_samples, override, key, source):
        # each job replaces these keys, so another value would only change
        # the config hash
        assert run(["train", "--set", override, "--workers", "1",
                    "--out", str(tmp_path)]) == 4
        err = self.assert_one_line_error(capsys)
        assert err.startswith(f"error: {key} must keep its default")
        assert err.endswith(f"an experiment sets it from {source}\n")

    @staticmethod
    def rewrite_checkpoint(tmp_path, edit):
        """A small checkpoint whose header dict is replaced by edit(dict)."""
        path = tmp_path / "model.ckpt"
        unet.save_checkpoint(
            unet.build_unet(unet.UNetConfig(depth=1, base_channels=2)), path)
        header, payload = path.read_bytes().split(b"\n", 1)
        doc = edit(json.loads(header))
        path.write_bytes(json.dumps(doc).encode() + b"\n" + payload)
        return path

    @pytest.mark.parametrize("key, value, message", [
        ("param_shapes", 5, "param_shapes must be a list"),
        ("param_shapes", [2, 1, 3], "param_shapes[0] must be a list"),
        ("param_shapes", [[2, 1, 3]], "param_shapes do not match config"),
        ("step", [1], "step must be an integer"),
        ("step", -1, "step must be >= 0"),
        ("precision", None, "precision is required"),
        ("config", None, "config is required"),
        ("mystery", 1, "['mystery']"),
    ])
    def test_malformed_checkpoint_header_exits_4_naming_the_key(
            self, tmp_path, capsys, key, value, message):
        def edit(doc):
            doc.pop(key, None)
            return doc if value is None else {**doc, key: value}

        path = self.rewrite_checkpoint(tmp_path, edit)
        assert run(["eval", "--checkpoint", str(path), "--count", "1"]) == 4
        assert message in self.assert_one_line_error(capsys)

    def test_checkpoint_header_list_exits_4(self, tmp_path, capsys):
        path = self.rewrite_checkpoint(tmp_path, lambda doc: [doc])
        assert run(["eval", "--checkpoint", str(path), "--count", "1"]) == 4
        assert "JSON object" in self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("bands, message", [
        ("band:x-1", "cannot parse placement policy 'band:x-1'"),
        ("band:0.5", "cannot parse placement policy 'band:0.5'"),
        ("band:0-0.1,band:0.5-0.2", "Band needs 0 <= lo < hi <= 1"),
    ], ids=["not-a-number", "one-bound", "out-of-range"])
    def test_malformed_bands_exit_4_naming_the_flag(self, tmp_path, capsys,
                                                    bands, message):
        path = self.rewrite_checkpoint(tmp_path, lambda doc: doc)
        assert run(["eval", "--checkpoint", str(path), "--bands", bands,
                    "--count", "1"]) == 4
        assert self.assert_one_line_error(capsys) == \
            f"error: --bands: {message}\n"

    @pytest.fixture
    def results_doc(self, tmp_path):
        """A well-formed results.json of one train policy, one repeat and
        one epoch, as a dict."""
        config = harness.ExperimentConfig(repeats=1, epochs=1,
                                          output_dir=str(tmp_path / "run"))
        record = harness.RunRecord(
            config, per_repeat=np.ones((1, 1, 2)), traces=[[[2.0]]],
            checkpoints=[["train0_rep0.ckpt"]],
            wall_clock=harness.WallClock(1.0, 1))
        path = harness.export_results(record)["results"]
        with open(path) as f:
            return json.load(f)

    def report(self, tmp_path, doc):
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        return run(["report", "--results", str(path), "--out",
                    str(tmp_path / "report")])

    def test_well_formed_results_render(self, tmp_path, capsys, results_doc):
        assert self.report(tmp_path, results_doc) == 0

    @pytest.mark.parametrize("key, value, message", [
        ("per_repeat", "x", "per_repeat must be a list, got 'x'"),
        ("per_repeat", [[1.0, 1.0]], "per_repeat[0][0] must be a list"),
        ("per_repeat", [[[1.0, 1.0]], [[1.0, 1.0]]],
         "per_repeat must have shape (1, 1, 2)"),
        ("per_repeat", [[["x", 1.0]]], "per_repeat[0][0][0] must be a number"),
        ("traces", None, "traces is required"),
        ("traces", [[[1.0, 2.0]]], "traces must have shape (1, 1, 1)"),
        ("checkpoints", [[3]], "checkpoints[0][0] must be a string"),
        ("checkpoints", [["a", "b"]], "checkpoints must have shape (1, 1)"),
        ("wall_clock", None, "wall_clock is required"),
        ("wall_clock", {"total_seconds": 1.0, "workers": "two"},
         "wall_clock.workers must be an integer, got 'two'"),
        ("wall_clock", {"total_seconds": 1.0, "workers": 1, "mystery": [1]},
         "['wall_clock.mystery']"),
        ("wall_clock", {"workers": 1}, "wall_clock.total_seconds is required"),
        ("wall_clock", {"total_seconds": -1.0, "workers": 1},
         "wall_clock: total_seconds must be a finite number >= 0"),
        ("wall_clock", {"total_seconds": 1.0, "workers": 0},
         "wall_clock: workers must be >= 1, got 0"),
        ("config", None, "config is required"),
        ("mystery", 1, "['mystery']"),
        # schema 2's derived keys, now properties of the record
        ("raw", [[9.0, 9.0]], "['raw']"),
        ("normalized", {"by_central_band": [[1.0, 42.0]]}, "['normalized']"),
        ("train_labels", ["band:0.5-0.6"], "['train_labels']"),
        ("eval_labels", ["band:0-0.1", "band:0.9-1"], "['eval_labels']"),
        ("config_hash", "deadbeef", "['config_hash']"),
    ])
    def test_malformed_results_exit_4_naming_the_key(
            self, tmp_path, capsys, results_doc, key, value, message):
        results_doc.pop(key, None)
        if value is not None:
            results_doc[key] = value
        assert self.report(tmp_path, results_doc) == 4
        assert message in self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("version", [2, 99, None])
    def test_other_schema_version_exits_4_naming_both(
            self, tmp_path, capsys, results_doc, version):
        # checked before any other key: a schema-2 file holds keys this
        # build rejects
        results_doc.update(schema_version=version, raw=[[9.0, 9.0]])
        assert self.report(tmp_path, results_doc) == 4
        assert self.assert_one_line_error(capsys) == (
            f"error: results schema_version {version!r}: this build reads "
            f"{harness.SCHEMA_VERSION}\n")
        assert not (tmp_path / "report").exists()

    def test_report_derives_both_matrices_from_the_repeats(
            self, tmp_path, capsys, results_doc):
        results_doc["config"]["repeats"] = 2
        results_doc["per_repeat"] = [[[1.0, 3.0], [2.0, 7.0]]]
        results_doc["traces"] = [[[2.0], [2.0]]]
        results_doc["checkpoints"] = [["a.ckpt", "b.ckpt"]]
        assert self.report(tmp_path, results_doc) == 0
        out = tmp_path / "report"
        header = "train\\eval,band:0-0.1,band:0.9-1\n"
        assert (out / "matrix_raw.csv").read_text() == \
            header + "unrestricted,1.5,5\n"
        assert (out / "matrix_norm.csv").read_text() == \
            header + "unrestricted,1,3.33333333\n"

    def test_results_list_exits_4(self, tmp_path, capsys):
        assert self.report(tmp_path, [1, 2]) == 4
        assert "JSON object" in self.assert_one_line_error(capsys)

    RANDOM_PADDING = {"kind": "random", "amplitude": 1.0}

    @pytest.mark.parametrize("command, key", [
        ("train", "model.padding"),
        ("asymmetry", "model.padding"),
        ("eval", "config.padding.amplitude"),
        ("saliency", "config.padding.amplitude"),
        ("report", "config.model.padding.amplitude"),
    ])
    def test_random_padding_exits_4_naming_the_key(
            self, tmp_path, capsys, request, command, key):
        # the padding kind that is gone, in a config, an old checkpoint's
        # header and an old results.json
        if command in ("train", "asymmetry"):
            request.getfixturevalue("no_samples")
            code = run([command, "--set", 'model.padding={"kind": "random"}',
                        "--workers", "1", "--out", str(tmp_path)])
        elif command in ("eval", "saliency"):
            def edit(doc):
                doc["config"]["padding"] = self.RANDOM_PADDING
                return doc

            path = self.rewrite_checkpoint(tmp_path, edit)
            rest = (["--count", "1"] if command == "eval"
                    else ["--out", str(tmp_path / "sal")])
            code = run([command, "--checkpoint", str(path), *rest])
        else:
            doc = request.getfixturevalue("results_doc")
            doc["config"]["model"]["padding"] = self.RANDOM_PADDING
            code = self.report(tmp_path, doc)
        assert code == 4
        assert key in self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("argv, name", [
        (["eval", "--checkpoint", "m.ckpt", "--seed", "-1"], "--seed"),
        (["saliency", "--checkpoint", "m.ckpt", "--out", "sal",
          "--seed", "-2"], "--seed"),
        (["augment", "--input", "a.pgm", "--label", "b.pgm", "--transform",
          "random-shift", "--out", "aug", "--seed", "-1"], "--seed"),
        (["gen", "--set", "master_seed=-1", "--out", "gen"], "master_seed"),
    ], ids=["eval", "saliency", "augment", "gen"])
    def test_negative_seed_exits_4_naming_the_flag(
            self, tmp_path, capsys, monkeypatch, no_samples, argv, name):
        # the checkpoint and input files do not exist: the seed is checked
        # before anything is read, loaded or generated
        def no_checkpoint(*args):
            raise AssertionError("a checkpoint was loaded")

        monkeypatch.setattr(unet, "load_checkpoint", no_checkpoint)
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 4
        assert name in self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("argv", [
        ["eval", "--count", "1"], ["saliency", "--out", "sal"]],
        ids=["eval", "saliency"])
    def test_checkpoint_with_negative_seed_exits_4_naming_it(
            self, tmp_path, capsys, monkeypatch, argv):
        path = tmp_path / "model.ckpt"
        unet.save_checkpoint(
            unet.build_unet(unet.UNetConfig(depth=1, base_channels=2)), path)
        header, payload = path.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        doc["config"]["seed"] = -1
        path.write_bytes(json.dumps(doc).encode() + b"\n" + payload)

        def no_model(*args):
            raise AssertionError("a model was built")

        monkeypatch.setattr(unet, "build_unet", no_model)
        monkeypatch.chdir(tmp_path)
        assert run([*argv, "--checkpoint", str(path)]) == 4
        assert "seed" in self.assert_one_line_error(capsys)

    def test_negative_saliency_extent_exits_4(self, tmp_path, capsys):
        path = tmp_path / "model.ckpt"
        unet.save_checkpoint(
            unet.build_unet(unet.UNetConfig(depth=1, base_channels=2)), path)
        assert run(["saliency", "--checkpoint", str(path), "--out",
                    str(tmp_path / "sal"), "--extent-x", "-2"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "extent" in err


class TestEval:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Calls of data.sample_block and unet.forward, by name."""
        calls = {"sample_block": 0, "forward": 0}
        for module, name in ((data, "sample_block"), (unet, "forward")):
            def counted(*args, fn=getattr(module, name), name=name,
                        **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("argv, depth, name", [
        (["eval", "--bands", "band:0-0.1,band:0.6-0.9",
          "--set", "height=32", "--set", "width=32"], 1, "--bands"),
        (["eval", "--count", "0"], 1, "--count"),
        (["eval", "--set", "height=30"], 3, "height"),
        (["saliency", "--height", "62", "--width", "94", "--out", "sal"],
         3, "--height"),
        (["saliency", "--extent-x", "40", "--out", "sal"], 1, "--extent-x"),
        (["saliency", "--stride", "3", "--out", "sal"], 1, "--stride"),
    ], ids=["bands", "count", "eval-height", "saliency-height",
            "saliency-extent", "saliency-stride"])
    def test_bad_input_exits_4_before_the_first_sample(
            self, tmp_path, capsys, monkeypatch, calls, argv, depth, name):
        path = tmp_path / "model.ckpt"
        unet.save_checkpoint(unet.build_unet(unet.UNetConfig(
            depth=depth, base_channels=2)), path)
        monkeypatch.chdir(tmp_path)
        assert run([*argv, "--checkpoint", str(path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert name in err
        assert calls == {"sample_block": 0, "forward": 0}
        assert not (tmp_path / "sal").exists()

    def test_eval_generates_each_block_once_for_every_band(
            self, tmp_path, capsys, calls):
        # 40 samples are two blocks; each block's two bands are scored as
        # two shards each
        path = tmp_path / "model.ckpt"
        unet.save_checkpoint(unet.build_unet(unet.UNetConfig(
            depth=1, base_channels=2)), path)
        assert run(["eval", "--checkpoint", str(path), "--count", "40",
                    "--bands", "band:0-0.1,band:0.8-1"]) == 0
        assert calls == {"sample_block": 2, "forward": 2 * 2 * 2}

    @pytest.mark.parametrize("key, value, flag", [
        ("count", 999, "--count"), ("master_seed", 5, "--seed"),
        ("policy", {"kind": "forbidden_central", "c": 0.9}, "--bands")])
    @pytest.mark.parametrize("source", ["set", "file"])
    def test_a_key_a_flag_sets_exits_4_naming_both(
            self, tmp_path, capsys, calls, source, key, value, flag):
        # the flag's value would be evaluated instead, silently
        path = tmp_path / "model.ckpt"
        unet.save_checkpoint(unet.build_unet(unet.UNetConfig(
            depth=1, base_channels=2)), path)
        if source == "set":
            given = ["--set", f"{key}={json.dumps(value)}"]
        else:
            (tmp_path / "ds.json").write_text(json.dumps({key: value}))
            given = ["--dataset-config", str(tmp_path / "ds.json")]
        assert run(["eval", "--checkpoint", str(path), *given]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert repr(key) in err and flag in err
        assert calls == {"sample_block": 0, "forward": 0}

    def test_a_written_default_config_is_accepted(self, tmp_path, capsys):
        # every key at its default, as to_dict writes the record
        path = tmp_path / "model.ckpt"
        unet.save_checkpoint(unet.build_unet(unet.UNetConfig(
            depth=1, base_channels=2)), path)
        (tmp_path / "ds.json").write_text(json.dumps(to_dict(
            data.DatasetConfig(height=32, width=32))))
        assert run(["eval", "--checkpoint", str(path), "--count", "2",
                    "--dataset-config", str(tmp_path / "ds.json")]) == 0

    @pytest.mark.parametrize("seed", ["0", "1", "2"])
    def test_narrow_band_evaluates_at_every_seed(self, tmp_path, capsys,
                                                 seed):
        # band:0-0.02 admits only the centered offset, 1 of 2553 at 64x96
        path = tmp_path / "model.ckpt"
        unet.save_checkpoint(unet.build_unet(unet.UNetConfig(
            depth=1, base_channels=2)), path)
        assert run(["eval", "--checkpoint", str(path), "--bands",
                    "band:0-0.02", "--count", "64", "--seed", seed]) == 0
        assert capsys.readouterr().out.startswith("band:0-0.02: ")


class TestGen:
    def test_count_below_one_exits_4_naming_the_flag(self, tmp_path, capsys):
        assert run(["gen", "--count", "0", "--out", str(tmp_path / "g")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: --count") and err.count("\n") == 1
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("source", ["set", "file"])
    def test_a_dataset_count_exits_4_naming_the_flag(self, tmp_path, capsys,
                                                     source):
        # --count would be written instead, silently
        if source == "set":
            given = ["--set", "count=7"]
        else:
            (tmp_path / "ds.json").write_text(json.dumps({"count": 7}))
            given = ["--config", str(tmp_path / "ds.json")]
        assert run(["gen", "--count", "2", *given,
                    "--out", str(tmp_path / "g")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "'count'" in err and "--count" in err
        assert not (tmp_path / "g").exists()

    def test_emits_exact_pairs(self, tmp_path, capsys):
        out = tmp_path / "previews"
        code = run(["gen", "--count", "3", "--out", str(out),
                    "--set", "height=32", "--set", "width=32",
                    "--set", "glyph_source=builtin:14"])
        assert code == 0
        names = sorted(os.listdir(out))
        assert names == ["label_000.pgm", "label_001.pgm", "label_002.pgm",
                         "sample_000.pgm", "sample_001.pgm", "sample_002.pgm"]
        img = netpbm.read_pnm(out / "sample_000.pgm")
        assert img.shape == (32, 32)
        lab = netpbm.read_pnm(out / "label_000.pgm")
        assert set(np.unique(lab)) <= {0} | {c * cli.LABEL_SCALE
                                             for c in range(1, 12)}

    def test_label_maps_keep_their_bytes(self, tmp_path, capsys):
        # digest of 16 label PGMs written from int64 class maps; uint8 maps
        # must not wrap in the LABEL_SCALE product (class 10 -> gray 230).
        # Re-recorded once placements were drawn from the admitted set.
        out = tmp_path / "previews"
        assert run(["gen", "--count", "16", "--out", str(out),
                    "--set", "height=32", "--set", "width=32",
                    "--set", "glyph_source=builtin:14"]) == 0
        digest = hashlib.sha256()
        grays = set()
        for i in range(16):
            path = out / f"label_{i:03d}.pgm"
            digest.update(path.read_bytes())
            grays.update(np.unique(netpbm.read_pnm(path)).tolist())
        assert 10 * cli.LABEL_SCALE in grays
        assert digest.hexdigest() == ("b46d6ffce16284cfe0efe59a739ffe58"
                                      "f4cd462e81d51b23e795fc4257a2051e")

    def test_idempotent(self, tmp_path, capsys):
        out = tmp_path / "previews"
        argv = ["gen", "--count", "2", "--out", str(out),
                "--set", "height=32", "--set", "width=32",
                "--set", "glyph_source=builtin:14"]
        assert run(argv) == 0
        first = (out / "sample_000.pgm").read_bytes()
        assert run(argv) == 0
        assert (out / "sample_000.pgm").read_bytes() == first


class TestAudit:
    DOC = {"images": [{"id": 1, "width": 100, "height": 100}],
           "annotations": [{"image_id": 1, "category_id": 7,
                            "bbox": [40, 40, 20, 20]}],
           "categories": [{"id": 7, "name": "widget"}]}

    def test_writes_heatmaps(self, tmp_path, capsys):
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps(self.DOC))
        out = tmp_path / "audit"
        assert run(["audit", "--annotations", str(ann), "--category",
                    "widget", "--grid", "8", "--mode", "both",
                    "--out", str(out)]) == 0
        assert (out / "heatmap_centroid_widget.pgm").exists()
        assert (out / "heatmap_bbox_widget.csv").exists()

    @pytest.mark.parametrize("mode", ["centroid", "bbox"])
    @pytest.mark.parametrize("grid", ["0", "-2"])
    def test_grid_below_one_exits_4_naming_it(self, tmp_path, capsys, mode,
                                              grid):
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps(self.DOC))
        assert run(["audit", "--annotations", str(ann), "--category",
                    "widget", "--grid", grid, "--mode", mode,
                    "--out", str(tmp_path / "audit")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "grid" in err

    @pytest.mark.parametrize("text", [
        "5", "null", json.dumps({**DOC, "images": 5}),
    ], ids=["number", "null", "images-not-a-list"])
    def test_a_document_of_the_wrong_shape_exits_4(self, tmp_path, capsys,
                                                   text):
        ann = tmp_path / "ann.json"
        ann.write_text(text)
        assert run(["audit", "--annotations", str(ann), "--category",
                    "widget", "--out", str(tmp_path / "audit")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: annotation JSON") and \
            err.count("\n") == 1, err
        assert not (tmp_path / "audit").exists()

    IMAGE = {"id": 1, "width": 10, "height": 10}
    BOX = {"image_id": 1, "category_id": 7, "bbox": [1, 1, 2, 2]}

    @pytest.mark.parametrize("key,value,where", [
        ("images", [5], "images[0]"),
        ("annotations", ["x"], "annotations[0]"),
        ("categories", [7], "categories[0]"),
        ("annotations", [{**BOX, "bbox": None}], "annotations[0].bbox"),
        ("annotations", [{**BOX, "bbox": [1, 1, 2]}], "annotations[0].bbox"),
        ("annotations", [{**BOX, "bbox": [1, 1, "2", 2]}],
         "annotations[0].bbox"),
        ("annotations", [{**BOX, "image_id": 1.0}], "annotations[0].image_id"),
        ("annotations", [{**BOX, "category_id": True}],
         "annotations[0].category_id"),
        ("annotations", [{**BOX, "image_id": 3}], "annotations[0].image_id"),
        ("images", [{**IMAGE, "id": 1.7}, {"id": 1, "width": 20,
                                           "height": 20}], "images[0].id"),
        ("images", [IMAGE, {"id": 1, "width": 20, "height": 20}],
         "images[1].id"),
        ("images", [{**IMAGE, "width": "10"}], "images[0].width"),
        ("images", [{**IMAGE, "height": None}], "images[0].height"),
        ("images", [{"width": 10, "height": 10}], "images[0]"),
        ("categories", [{"id": 7, "name": "widget"},
                        {"id": 7, "name": "gadget"}], "categories[1].id"),
        ("categories", [{"id": 7, "name": 7}], "categories[0].name"),
        ("images", [{**IMAGE, "width": 1e400}], "images[0].width"),
        ("images", [{**IMAGE, "height": 10 ** 400}], "images[0].height"),
        ("images", [{**IMAGE, "width": 0}], "images[0].width"),
    ], ids=["image-int", "annotation-str", "category-int", "bbox-null",
            "bbox-3-numbers", "bbox-str", "image_id-float",
            "category_id-bool", "unknown-image", "float-id-aliasing-1",
            "duplicate-image-id", "width-str", "height-null", "id-missing",
            "duplicate-category-id", "name-int", "width-inf",
            "height-huge-int", "width-0"])
    def test_a_malformed_element_exits_4_naming_it(self, tmp_path, capsys,
                                                   key, value, where):
        doc = {"images": [self.IMAGE], "annotations": [self.BOX],
               "categories": [{"id": 7, "name": "widget"}], key: value}
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps(doc))
        assert run(["audit", "--annotations", str(ann), "--category",
                    "widget", "--out", str(tmp_path / "audit")]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}") and err.count("\n") == 1, err
        assert not (tmp_path / "audit").exists()

    def test_coco_extra_keys_keep_the_heatmap_bytes(self, tmp_path, capsys):
        # COCO's segmentation / area / iscrowd / file_name / supercategory
        # and a top-level info block are ignored; one box is clipped and one
        # dropped.  Digests of the files written before elements were checked
        doc = {
            "info": {"description": "extra keys"},
            "images": [
                {"id": 1, "width": 100, "height": 100, "file_name": "a.jpg"},
                {"id": 2, "width": 200, "height": 50, "file_name": "b.jpg"},
                {"id": 3, "width": 64.5, "height": 80, "file_name": "c.jpg"}],
            "annotations": [
                {"id": 10, "image_id": 1, "category_id": 7,
                 "bbox": [40, 40, 20, 20], "area": 400.0, "iscrowd": 0,
                 "segmentation": [[40, 40, 60, 40, 60, 60]]},
                {"id": 11, "image_id": 2, "category_id": 7,
                 "bbox": [150, 10, 80, 30], "segmentation": [],
                 "area": 2400.0, "iscrowd": 0},
                {"id": 12, "image_id": 3, "category_id": 7,
                 "bbox": [1.5, 2, 3, 70.25], "segmentation": [],
                 "area": 210.75, "iscrowd": 1},
                {"id": 13, "image_id": 3, "category_id": 9,
                 "bbox": [0, 0, 10, 10], "segmentation": [], "area": 100.0,
                 "iscrowd": 0},
                {"id": 14, "image_id": 1, "category_id": 7,
                 "bbox": [120, 0, 5, 5], "segmentation": [], "area": 25.0,
                 "iscrowd": 0}],
            "categories": [
                {"id": 7, "name": "widget", "supercategory": "thing"},
                {"id": 9, "name": "gadget", "supercategory": "thing"}],
        }
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps(doc))
        out = tmp_path / "audit"
        assert run(["audit", "--annotations", str(ann), "--category",
                    "widget", "--grid", "8", "--mode", "both",
                    "--out", str(out)]) == 0
        assert "3 annotations, grid 8, dropped 1" in capsys.readouterr().out
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
                   for p in out.iterdir()}
        assert digests == {
            "heatmap_bbox_widget.csv": "c6d538da2b4f2eb1",
            "heatmap_bbox_widget.pgm": "a330bd3cf8d37a87",
            "heatmap_centroid_widget.csv": "af44f4ae5129d542",
            "heatmap_centroid_widget.pgm": "48553f726b56756d",
        }


class TestClosesFiles:
    """Every reader closes what it opens: no ResourceWarning."""

    def read_all(self, tmp_path):
        assert run(["gen", "--count", "1", "--out", str(tmp_path),
                    "--set", "height=32", "--set", "width=32",
                    "--set", "glyph_source=builtin:14"]) == 0
        netpbm.read_pnm(tmp_path / "sample_000.pgm")
        (tmp_path / "train-images-idx3-ubyte").write_bytes(
            b"\0\0\x08\x03" + struct.pack(">3I", 1, 2, 2) + bytes(4))
        (tmp_path / "train-labels-idx1-ubyte").write_bytes(
            b"\0\0\x08\x01" + struct.pack(">I", 1) + bytes(1))
        data.load_glyph_dir(tmp_path)
        doc = {"images": [{"id": 1, "width": 10, "height": 10}],
               "annotations": [{"image_id": 1, "category_id": 7,
                                "bbox": [4, 4, 2, 2]}],
               "categories": [{"id": 7, "name": "widget"}]}
        (tmp_path / "ann.json").write_text(json.dumps(doc))
        assert run(["audit", "--annotations", str(tmp_path / "ann.json"),
                    "--category", "widget", "--out",
                    str(tmp_path / "audit")]) == 0

    def test_no_unclosed_file(self, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            self.read_all(tmp_path)
            gc.collect()
        assert [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)] == []


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny trained experiment shared by train/eval/saliency/report."""
    root = tmp_path_factory.mktemp("cli_run")
    cfg = {
        "dataset": {"height": 32, "width": 32,
                    "policy": {"kind": "unrestricted"},
                    "background": {"kind": "noise", "smoothing": 0},
                    "glyph_source": "builtin:14"},
        "model": {"depth": 2, "base_channels": 2,
                  "padding": {"kind": "zero"}, "precision": "f32",
                  "seed": 0},
        "train_policies": [{"kind": "unrestricted"}],
        "eval_bands": [{"kind": "band", "lo": 0.0, "hi": 0.1},
                       {"kind": "band", "lo": 0.9, "hi": 1.0}],
        "epochs": 1, "batch_size": 8, "train_count": 16, "eval_count": 8,
        "repeats": 1, "master_seed": 3, "augmentations": [],
        "learning_rate": 0.001, "output_dir": str(root / "run"),
    }
    path = root / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["train", "--config", str(path), "--workers", "1"]) == 0
    return root


class TestTrainEvalReport:
    def test_artifacts_exist(self, trained, capsys):
        run_dir = trained / "run"
        for name in ("results.json", "matrix_raw.csv", "matrix_norm.csv"):
            assert (run_dir / name).exists(), name
        assert (run_dir / "checkpoints" / "train0_rep0.ckpt").exists()

    def test_eval_checkpoint(self, trained, capsys):
        ckpt = trained / "run" / "checkpoints" / "train0_rep0.ckpt"
        code = run(["eval", "--checkpoint", str(ckpt),
                    "--bands", "band:0-0.1,unrestricted", "--count", "4",
                    "--set", "height=32", "--set", "width=32",
                    "--set", "glyph_source=builtin:14",
                    "--out", str(trained / "eval")])
        assert code == 0
        assert (trained / "eval" / "eval.csv").exists()

    def test_report_rerenders(self, trained, capsys):
        out = trained / "rerender"
        assert run(["report", "--results",
                    str(trained / "run" / "results.json"),
                    "--out", str(out)]) == 0
        for name in ("matrix_raw.csv", "matrix_norm.csv"):
            assert (trained / "run" / name).read_text() == \
                (out / name).read_text(), name

    def test_labels_of_linspace_bands_read_back_through_eval(
            self, tmp_path, capsys):
        # 0.30000000000000004, 0.6000000000000001 and 0.7000000000000001
        # are bounds of np.linspace(0, 1, 11)
        edges = np.linspace(0, 1, 11).tolist()
        bands = [data.Band(lo, hi) for lo, hi in zip(edges, edges[1:])]
        size = ["--set", "dataset.height=32", "--set", "dataset.width=32",
                "--set", "dataset.glyph_source=builtin:14"]
        assert run(["train", *size, "--set", "model.depth=1",
                    "--set", "model.base_channels=2",
                    "--set", "train_count=8", "--set", "batch_size=8",
                    "--set", "eval_count=1", "--set", "repeats=1",
                    "--set", "train_policies=[{\"kind\": \"unrestricted\"}]",
                    "--set", "eval_bands=" + json.dumps(
                        [to_dict(b) for b in bands]),
                    "--workers", "1", "--out", str(tmp_path / "run")]) == 0
        header = (tmp_path / "run" / "matrix_raw.csv").read_text() \
            .splitlines()[0].split(",")[1:]
        assert [data.parse_policy(label) for label in header] == bands
        capsys.readouterr()
        assert run(["eval", "--checkpoint", str(
            tmp_path / "run" / "checkpoints" / "train0_rep0.ckpt"),
            "--bands", ",".join(header), "--count", "1",
            *[arg.replace("dataset.", "") for arg in size]]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert [line.split(": ")[0] for line in printed] == header

    def test_saliency_from_checkpoint(self, trained, capsys):
        ckpt = trained / "run" / "checkpoints" / "train0_rep0.ckpt"
        out = trained / "sal"
        code = run(["saliency", "--checkpoint", str(ckpt), "--out", str(out),
                    "--height", "32", "--width", "32", "--digit", "3",
                    "--extent-x", "2", "--extent-y", "2", "--stride", "2",
                    "--background", "black"])
        assert code == 0
        assert (out / "shift_map.csv").exists()
        assert (out / "shift_map.pgm").exists()


class TestAsymmetry:
    TINY = ["dataset.height=32", "dataset.width=32",
            "dataset.glyph_source=builtin:14", "model.depth=2",
            "model.base_channels=2", "train_count=8", "batch_size=8",
            "eval_count=2", "epochs=1", "repeats=1"]

    @staticmethod
    def config(*argv):
        args = cli.build_parser().parse_args(["asymmetry", *argv])
        return cli.experiment_config(args)

    @classmethod
    def tiny_argv(cls, out, *sets):
        argv = ["--out", str(out)]
        for item in (*cls.TINY, *sets):
            argv += ["--set", item]
        return argv

    @pytest.mark.parametrize("flags, hashes", [
        ([], ["ccf2e07fd4072938", "e031464d34c79c0a", "77acc6ab718259be",
              "8f82c4605a7d3535"]),
        (["--quick"], ["2a64792491a4f0a2", "78027d6a0a4b1930",
                       "3d71c84c34a0a7b6", "c76064054ad9aa16"]),
    ], ids=["default", "quick"])
    def test_arm_config_hashes_are_pinned(self, flags, hashes):
        # the preset, each of its train policies alone (the center and edge
        # runs of earlier versions) and the --with-mitigation run
        config = self.config(*flags)
        alone = [replace(config, train_policies=(p,))
                 for p in config.train_policies]
        runs = [config, *alone, cli.mitigation_config(config, "o")]
        assert [harness.config_hash(c) for c in runs] == hashes

    def test_preset_and_mitigation_set_only_their_fields(self):
        config = self.config("--out", "o", "--set", "epochs=2")
        assert config == replace(cli.ASYMMETRY_START, epochs=2,
                                 output_dir="o")
        assert config.train_policies == (data.AllowedCentral(0.3),
                                          data.ForbiddenCentral(0.7))
        shifted = cli.mitigation_config(config, "o")
        assert shifted.output_dir == os.path.join("o", "center_shifted")
        assert shifted.train_policies == (data.AllowedCentral(0.3),)
        assert shifted.augmentations == (
            {"name": "random_periodic_shift", "max_frac": 0.25},)
        assert replace(shifted, train_policies=config.train_policies,
                       augmentations=(), output_dir="o") == config

    def test_set_wins_over_quick_and_file_keeps_the_start(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"learning_rate": 0.01}))
        config = self.config("--quick", "--config", str(path),
                             "--set", "repeats=2")
        assert (config.epochs, config.train_count, config.repeats) == \
            (1, 256, 2)
        assert config.learning_rate == 0.01
        assert config.eval_bands == cli.ASYMMETRY_START.eval_bands
        assert config.train_policies == cli.ASYMMETRY_START.train_policies

    def test_pair_equals_the_one_policy_runs(self, tmp_path):
        # the preset's one run, in process and on a pool of two, gives
        # each row the matrix and traces of its policy trained alone
        config = self.config(*self.tiny_argv(tmp_path, "repeats=2"))
        alone = [harness.run_regional_training(
            replace(config, train_policies=(p,),
                    output_dir=str(tmp_path / f"alone{ti}")), workers=1)
            for ti, p in enumerate(config.train_policies)]
        for workers in (1, 2):
            pair = harness.run_regional_training(
                replace(config, output_dir=str(tmp_path / f"w{workers}")),
                workers=workers)
            assert pair.wall_clock.workers == workers
            for ti, record in enumerate(alone):
                np.testing.assert_array_equal(pair.per_repeat[ti],
                                              record.per_repeat[0])
                assert pair.traces[ti] == record.traces[0]
            assert [[os.path.basename(p) for p in row]
                    for row in pair.checkpoints] == \
                [["train0_rep0.ckpt", "train0_rep1.ckpt"],
                 ["train1_rep0.ckpt", "train1_rep1.ckpt"]]

    @staticmethod
    def printed_ratios(out, record):
        """The ratio lines printed for `record`, and the ones its record
        gives: each row's edge/center ratio, `normalized[:, -1]`."""
        header = (f"loss ratio {record.eval_labels[-1]} / "
                  f"{record.eval_labels[0]}:")
        lines = out.splitlines()
        at = lines.index(header) + 1
        printed = lines[at:at + len(record.train_labels)]
        expected = [f"  {label}: {ratio:.3f}" for label, ratio in zip(
            record.train_labels, record.normalized[:, -1])]
        return printed, expected

    def test_printed_ratios_are_the_last_column_of_matrix_norm(
            self, tmp_path, capsys):
        # two repeats whose mean of per-repeat ratios differs from the
        # ratio of their means at 3 decimals; `train` with the preset's
        # policies and bands prints the same matrix and ratio lines
        sets = ["train_count=32", "epochs=4", "learning_rate=0.02",
                "repeats=2"]
        assert run(["asymmetry", "--workers", "1",
                    *self.tiny_argv(tmp_path / "a", *sets)]) == 0
        out = capsys.readouterr().out.splitlines()
        at = next(i for i, line in enumerate(out)
                  if line.startswith("loss ratio ")) + 1
        with open(tmp_path / "a" / "matrix_norm.csv") as f:
            rows = list(csv.reader(f))[1:]
        assert out[at:] == [f"  {row[0]}: {float(row[-1]):.3f}"
                            for row in rows]
        record = harness.load_results(tmp_path / "a" / "results.json")
        pr = record.per_repeat
        assert [f"{r:.3f}" for r in (pr[:, :, -1] / pr[:, :, 0]).mean(1)] \
            != [line.split(": ")[1] for line in out[at:]]
        policies = [to_dict(p) for p in cli.ASYMMETRY_START.train_policies]
        bands = [to_dict(b) for b in cli.ASYMMETRY_START.eval_bands]
        assert run(["train", "--workers", "1",
                    "--set", f"train_policies={json.dumps(policies)}",
                    "--set", f"eval_bands={json.dumps(bands)}",
                    *self.tiny_argv(tmp_path / "t", *sets)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[1:] == [line.replace(str(tmp_path / "a"),
                                            str(tmp_path / "t"))
                               for line in out[1:]]

    def test_tiny_run_writes_one_record_and_the_shifted_run(self, tmp_path,
                                                             capsys):
        argv = ["asymmetry", "--with-mitigation", "--workers", "1",
                *self.tiny_argv(tmp_path)]
        assert run(argv) == 0
        out = capsys.readouterr().out
        pair = harness.load_results(tmp_path / "results.json")
        assert pair.train_labels == ["allowed:0.3", "forbidden:0.7"]
        for ti in (0, 1):
            assert (tmp_path / "checkpoints" /
                    f"train{ti}_rep0.ckpt").exists()
        shifted = harness.load_results(
            tmp_path / "center_shifted" / "results.json")
        assert shifted.train_labels == ["allowed:0.3"]
        assert shifted.config.augmentations
        for record in (pair, shifted):
            printed, expected = self.printed_ratios(out, record)
            assert printed == expected

    def test_three_train_policies_give_three_rows_and_ratios(self, tmp_path,
                                                            capsys):
        policies = ('train_policies=[{"kind": "allowed_central", "a": 0.3},'
                    ' {"kind": "unrestricted"},'
                    ' {"kind": "forbidden_central", "c": 0.7}]')
        argv = ["asymmetry", "--workers", "1",
                *self.tiny_argv(tmp_path, policies)]
        assert run(argv) == 0
        record = harness.load_results(tmp_path / "results.json")
        assert record.train_labels == ["allowed:0.3", "unrestricted",
                                       "forbidden:0.7"]
        printed, expected = self.printed_ratios(capsys.readouterr().out,
                                                record)
        assert printed == expected and len(printed) == 3
        assert not (tmp_path / "center_shifted").exists()


def drop_nothing(x, spec, rng):
    return x.copy()


def drop_left_unscaled(x, spec, rng):
    out = x.copy()
    out[..., :, :spec.band_width] = 0
    return out


class TestAugmentCommand:
    def make_pair(self, tmp_path):
        out = tmp_path / "pair"
        assert run(["gen", "--count", "1", "--out", str(out),
                    "--set", "height=32", "--set", "width=32",
                    "--set", "glyph_source=builtin:14",
                    "--set", "policy={\"kind\": \"allowed_central\", \"a\": 0.4}",
                    ]) == 0
        return out / "sample_000.pgm", out / "label_000.pgm"

    @pytest.mark.parametrize("transform", ["random-shift", "to-boundary",
                                           "edge-drop"])
    def test_transforms_pass_postconditions(self, tmp_path, transform,
                                            capsys):
        img, lab = self.make_pair(tmp_path)
        out = tmp_path / f"aug_{transform}"
        code = run(["augment", "--input", str(img), "--label", str(lab),
                    "--transform", transform, "--band-width", "4",
                    "--seed", "1", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0, captured.out
        assert "PASS" in captured.out and "FAIL" not in captured.out
        assert (out / "augmented.pgm").exists()
        assert (out / "augmented_label.pgm").exists()

    def test_input_scales_by_its_maxval(self, tmp_path):
        # a maxval-15 sample reads white as 1.0, as the maxval-255 one does
        img, lab = self.make_pair(tmp_path)
        x255, t = cli._load_sample_pair(img, lab)
        pixels = np.round(x255[0] * 15).astype(np.uint8)
        img15 = tmp_path / "sample15.pgm"
        img15.write_bytes(b"P5 32 32 15\n" + pixels.tobytes())
        x15, t15 = cli._load_sample_pair(img15, lab)
        assert x255.max() == x15.max() == 1.0
        np.testing.assert_array_equal(x15, pixels[None] / np.float32(15))
        np.testing.assert_array_equal(t15, t)

    def test_input_sample_above_maxval_exits_4_naming_the_file(
            self, tmp_path, capsys):
        img, lab = self.make_pair(tmp_path)
        bad = tmp_path / "bad.pgm"
        pixels = netpbm.read_pnm(img) // 17
        pixels[0, 1] = 200
        bad.write_bytes(b"P5 32 32 15\n" + pixels.tobytes())
        capsys.readouterr()
        assert run(["augment", "--input", str(bad), "--label", str(lab),
                    "--transform", "edge-drop", "--band-width", "4",
                    "--out", str(tmp_path / "aug")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(bad) in err and "above maxval 15" in err
        assert not (tmp_path / "aug").exists()

    @pytest.mark.parametrize("drop, failed", [
        (drop_nothing, "one full side band zeroed"),
        (drop_left_unscaled, "survivors rescaled by total/kept"),
    ], ids=["no-band", "no-rescale"])
    def test_a_broken_postcondition_prints_fail_and_exits_5(
            self, tmp_path, capsys, monkeypatch, drop, failed):
        img, lab = self.make_pair(tmp_path)
        monkeypatch.setattr(augment, "edge_block_drop", drop)
        capsys.readouterr()
        assert run(["augment", "--input", str(img), "--label", str(lab),
                    "--transform", "edge-drop", "--band-width", "4",
                    "--out", str(tmp_path / "aug")]) == 5
        assert f"FAIL  {failed}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("transform, flag, value", [
        ("random-shift", "--max-frac", "1.5"),
        ("random-shift", "--max-frac", "2"),
        ("edge-drop", "--band-width", "32"),
        ("edge-drop", "--band-width", "500"),
        ("edge-drop", "--band-width", "0"),
    ])
    def test_out_of_range_flag_exits_4(
            self, tmp_path, capsys, transform, flag, value):
        img, lab = self.make_pair(tmp_path)
        capsys.readouterr()
        assert run(["augment", "--input", str(img), "--label", str(lab),
                    "--out", str(tmp_path / "aug"), "--transform", transform,
                    flag, value]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: ") and err.count("\n") == 1
        assert not (tmp_path / "aug").exists()

    def test_every_registered_transform_has_a_choice(self):
        # each --transform choice builds a different registered kind and
        # every registered kind has a choice, so none skips its probe
        parser = cli.build_parser()
        kinds = []
        for choice, spec_of in cli.AUGMENT_SPECS.items():
            args = parser.parse_args(["augment", "--input", "a", "--label",
                                      "b", "--transform", choice,
                                      "--out", "o"])
            kinds.append(type(spec_of(args)))
        assert len(set(kinds)) == len(kinds)
        assert set(kinds) == set(augment._AUGMENTS.values())



# malformed netpbm files, each with a phrase of its error
MALFORMED_PNM = [
    pytest.param(b"P5 0 4 255\n", "width must be a positive integer, "
                 "got '0'", id="zero-width"),
    pytest.param(b"P5 -4 4 255\n" + bytes(32), "width must be a positive "
                 "integer, got '-4'", id="negative-width"),
    pytest.param(b"P5 four 4 255\n" + bytes(16), "width must be a positive "
                 "integer, got 'four'", id="word-width"),
    pytest.param(b"P5 4 4 255\n" + bytes(8),
                 "payload shorter than declared dims", id="short-payload"),
    pytest.param(b"P5 4 4 300\n" + bytes(16), "unsupported maxval 300",
                 id="maxval-300"),
    pytest.param(b"P2 4 4 255\n" + bytes(16), "unsupported netpbm magic",
                 id="bad-magic"),
    pytest.param(b"P5 4 4", "truncated netpbm header", id="short-header"),
]


class TestMalformedNetpbm:
    """A malformed input image is an error naming the file: a ValueError
    from the reader, exit 4 with one `error:` line from the CLI."""

    @pytest.mark.parametrize("blob, phrase", MALFORMED_PNM)
    def test_read_pnm_gray_names_the_file(self, tmp_path, blob, phrase):
        path = tmp_path / "bad.pgm"
        path.write_bytes(blob)
        with pytest.raises(ValueError) as e:
            netpbm.read_pnm_gray(path)
        assert str(e.value).startswith(f"{path}: ") and phrase in str(e.value)

    def assert_exits_4_naming(self, argv, path, phrase, capsys):
        capsys.readouterr()
        assert run(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"{path}: " in err and phrase in err, err

    @pytest.mark.parametrize("blob, phrase", MALFORMED_PNM)
    def test_gen_image_dir_exits_4(self, tmp_path, capsys, blob, phrase):
        (tmp_path / "m").mkdir()
        path = tmp_path / "m" / "bad.pgm"
        path.write_bytes(blob)
        background = json.dumps({"kind": "image_dir",
                                  "path": str(tmp_path / "m")})
        self.assert_exits_4_naming(
            ["gen", "--count", "1", "--set", f"background={background}",
             "--out", str(tmp_path / "o")], path, phrase, capsys)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("blob, phrase", MALFORMED_PNM)
    def test_augment_input_exits_4(self, tmp_path, capsys, blob, phrase):
        path = tmp_path / "bad.pgm"
        path.write_bytes(blob)
        label = tmp_path / "label.pgm"
        netpbm.write_pgm(label, np.zeros((4, 4), np.uint8))
        self.assert_exits_4_naming(
            ["augment", "--input", str(path), "--label", str(label),
             "--transform", "edge-drop", "--band-width", "1",
             "--out", str(tmp_path / "aug")], path, phrase, capsys)
        assert not (tmp_path / "aug").exists()

class TestGradcheckCommand:
    def test_clean_build_passes(self, capsys):
        assert run(["gradcheck"]) == 0
        lines = capsys.readouterr().out.splitlines()
        modes = ("zero", "circular", "reflect")
        assert [line[:38].rstrip() for line in lines] == [
            *(f"PASS  conv3x3 {m} padding" for m in modes),
            "PASS  maxpool2x2", "PASS  relu", "PASS  upsample_nearest2x",
            "PASS  softmax cross-entropy",
            *(f"PASS  whole U-Net (depth 3) {m}" for m in modes)]

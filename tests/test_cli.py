"""End-to-end CLI checks: exit codes, artifact emission, idempotence."""

import json
import os

import numpy as np
import pytest

from centerbias import augment, cli, data, netpbm, unet


def run(argv):
    return cli.main(argv)


class TestUsage:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert run(["gen", "--bogus"]) == 2

    def test_missing_file_exits_3(self, tmp_path, capsys):
        assert run(["audit", "--annotations", str(tmp_path / "nope.json"),
                    "--category", "x", "--out", str(tmp_path)]) == 3

    def test_invalid_config_exits_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"not\": \"a config\"}")
        assert run(["train", "--config", str(bad)]) == 4


class TestConfigErrors:
    """Bad config input exits 4 with a one-line error, not a traceback."""

    def assert_one_line_error(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("override", ['model.depth="abc"',
                                          'batch_size="x"'])
    def test_non_integer_field_exits_4(self, tmp_path, capsys, override):
        assert run(["train", "--set", override, "--out",
                    str(tmp_path)]) == 4
        self.assert_one_line_error(capsys)

    def test_indivisible_dims_exit_4_before_generation(self, tmp_path,
                                                       capsys, monkeypatch):
        def no_samples(*args):
            raise AssertionError("a sample was generated")

        monkeypatch.setattr(data, "sample_at", no_samples)
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
            self, tmp_path, capsys, monkeypatch, value):
        def no_samples(*args):
            raise AssertionError("a sample was generated")

        monkeypatch.setattr(data, "sample_at", no_samples)
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
            self, tmp_path, capsys, monkeypatch, override):
        def no_samples(*args):
            raise AssertionError("a sample was generated")

        monkeypatch.setattr(data, "sample_at", no_samples)
        assert run(["train", "--set", override, "--workers", "1",
                    "--out", str(tmp_path)]) == 4
        self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("key", ["train_policies", "eval_bands"])
    def test_non_list_policies_exit_4_naming_the_key(
            self, tmp_path, capsys, monkeypatch, key):
        def no_samples(*args):
            raise AssertionError("a sample was generated")

        monkeypatch.setattr(data, "sample_at", no_samples)
        assert run(["train", "--set", key + '={"kind": "unrestricted"}',
                    "--workers", "1", "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err == f"error: {key} must be a list, got " \
            "{'kind': 'unrestricted'}\n"

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

    def test_negative_saliency_extent_exits_4(self, tmp_path, capsys):
        path = tmp_path / "model.ckpt"
        unet.save_checkpoint(
            unet.build_unet(unet.UNetConfig(depth=1, base_channels=2)), path)
        assert run(["saliency", "--checkpoint", str(path), "--out",
                    str(tmp_path / "sal"), "--extent-x", "-2"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "extent" in err


class TestGen:
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
    def test_writes_heatmaps(self, tmp_path, capsys):
        doc = {"images": [{"id": 1, "width": 100, "height": 100}],
               "annotations": [{"image_id": 1, "category_id": 7,
                                "bbox": [40, 40, 20, 20]}],
               "categories": [{"id": 7, "name": "widget"}]}
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps(doc))
        out = tmp_path / "audit"
        assert run(["audit", "--annotations", str(ann), "--category",
                    "widget", "--grid", "8", "--mode", "both",
                    "--out", str(out)]) == 0
        assert (out / "heatmap_centroid_widget.pgm").exists()
        assert (out / "heatmap_bbox_widget.csv").exists()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny trained experiment shared by train/eval/saliency/report."""
    root = tmp_path_factory.mktemp("cli_run")
    cfg = {
        "dataset": {"height": 32, "width": 32,
                    "policy": {"kind": "unrestricted"},
                    "background": {"kind": "noise", "smoothing": 0},
                    "glyph_source": "builtin:14"},
        "model": {"depth": 2, "base_channels": 2, "in_channels": 1,
                  "num_classes": 11, "padding": {"kind": "zero"},
                  "precision": "f32", "seed": 0},
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
        for name in ("results.json", "matrix_raw.csv", "matrix_norm.csv",
                     "curves.csv"):
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
        a = (trained / "run" / "matrix_raw.csv").read_text()
        b = (out / "matrix_raw.csv").read_text()
        assert a == b

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

    @pytest.mark.parametrize("flags", [
        ["--transform", "random-shift", "--max-frac", "1.5"],
        ["--transform", "edge-drop", "--band-width", "32"],
    ])
    def test_out_of_range_flag_exits_4(self, tmp_path, flags, capsys):
        img, lab = self.make_pair(tmp_path)
        assert run(["augment", "--input", str(img), "--label", str(lab),
                    "--out", str(tmp_path / "aug")] + flags) == 4

    def test_every_registered_transform_has_a_choice(self):
        # each --transform choice builds a different registry transform and
        # every registered transform has a choice, so none skips its probe
        parser = cli.build_parser()
        names = []
        for choice, spec_of in cli.AUGMENT_SPECS.items():
            args = parser.parse_args(["augment", "--input", "a", "--label",
                                      "b", "--transform", choice,
                                      "--out", "o"])
            names.append(spec_of(args)["name"])
        assert sorted(names) == sorted(augment._AUGMENTS)


class TestGradcheckCommand:
    def test_clean_build_passes(self, capsys):
        assert run(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 8

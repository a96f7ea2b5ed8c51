"""Config codec: field checks at the dict boundary, and a dict form pinned
byte for byte so hashes, results.json files and checkpoints stay readable."""

import json
from dataclasses import dataclass

import numpy as np
import pytest

from centerbias import data, harness, unet
from centerbias import tensor_core as tc
from centerbias.config import from_dict, to_dict


@dataclass(frozen=True)
class Leaf:
    n: int
    x: float = 0.5


@dataclass(frozen=True)
class Tree:
    leaf: Leaf
    leaves: tuple[Leaf, ...] = ()


class TestCodec:
    def test_float_field_takes_int_but_not_bool(self):
        assert from_dict(Leaf, {"n": 1, "x": 2}) == Leaf(1, 2)
        with pytest.raises(ValueError, match="^x must be a number"):
            from_dict(Leaf, {"n": 1, "x": True})

    @pytest.mark.parametrize("value", [True, 1.0, "1", None, [1]])
    def test_int_field_takes_only_int(self, value):
        with pytest.raises(ValueError, match=r"^leaf\.n must be an integer"):
            from_dict(Tree, {"leaf": {"n": value}})

    def test_missing_key_takes_its_default(self):
        leaf = from_dict(Leaf, {"n": 3})
        assert leaf == Leaf(3)
        assert to_dict(leaf) == {"n": 3, "x": 0.5}

    def test_missing_key_without_default_names_the_dotted_key(self):
        with pytest.raises(ValueError, match=r"^leaves\[1\]\.n is required"):
            from_dict(Tree, {"leaf": {"n": 1}, "leaves": [{"n": 2}, {}]})

    def test_unknown_key_names_the_dotted_key(self):
        with pytest.raises(ValueError, match=r"\['leaf\.m'\]"):
            from_dict(Tree, {"leaf": {"n": 1, "m": 2}})

    def test_tuple_reads_a_list_and_writes_one(self):
        tree = from_dict(Tree, {"leaf": {"n": 1}, "leaves": [{"n": 2}]})
        assert tree == Tree(Leaf(1), (Leaf(2),))
        assert to_dict(tree) == {"leaf": {"n": 1, "x": 0.5},
                                 "leaves": [{"n": 2, "x": 0.5}]}
        with pytest.raises(ValueError, match="^leaves must be a list"):
            from_dict(Tree, {"leaf": {"n": 1}, "leaves": {"n": 2}})

    @pytest.mark.parametrize("value", [{}, {"kind": "circle"},
                                       {"kind": ["band"]}])
    def test_union_needs_a_known_kind(self, value):
        with pytest.raises(ValueError, match=r"^policy\.kind must be one of"):
            from_dict(data.PlacementPolicy, value, "policy")

    def test_range_error_names_the_record(self):
        with pytest.raises(ValueError, match=r"^policy: AllowedCentral"):
            from_dict(data.PlacementPolicy,
                      {"kind": "allowed_central", "a": 2}, "policy")


class TestPadding:
    @pytest.mark.parametrize("value, message", [
        ({"kind": "random"}, r"^padding: unknown padding kind 'random'"),
        ({"kind": "circular", "amplitude": 1.0},
         r"^unknown keys \['padding\.amplitude'\]"),
        ({"kind": "zero", "amplitude": 1.0},
         r"^unknown keys \['padding\.amplitude'\]"),
        ({"kind": "reflect", "amplitude": 0.0},
         r"^unknown keys \['padding\.amplitude'\]"),
        ({"kind": "random", "amplitude": 1.0},
         r"^unknown keys \['padding\.amplitude'\]")],
        ids=["random_kind", "amplitude_key", "zero_amplitude",
             "reflect_amplitude", "old_random_record"])
    def test_kinds_are_zero_circular_reflect(self, value, message):
        with pytest.raises(ValueError, match=message):
            from_dict(tc.PaddingMode, value, "padding")


VARIANTS = [
    (data.PlacementPolicy, data.AllowedCentral(0.3),
     {"kind": "allowed_central", "a": 0.3}),
    (data.PlacementPolicy, data.Band(0.2, 0.5),
     {"kind": "band", "lo": 0.2, "hi": 0.5}),
    (data.PlacementPolicy, data.ForbiddenCentral(0.7),
     {"kind": "forbidden_central", "c": 0.7}),
    (data.PlacementPolicy, data.Unrestricted(), {"kind": "unrestricted"}),
    (data.BackgroundSpec, data.NoisePool(smoothing=4),
     {"kind": "noise", "smoothing": 4}),
    (data.BackgroundSpec, data.ImageDir("backgrounds"),
     {"kind": "image_dir", "path": "backgrounds"}),
    (tc.PaddingMode, tc.ZERO, {"kind": "zero"}),
    (tc.PaddingMode, tc.CIRCULAR, {"kind": "circular"}),
    (tc.PaddingMode, tc.REFLECT, {"kind": "reflect"}),
]


class TestFormat:
    @pytest.mark.parametrize("tp, value, form", VARIANTS,
                             ids=[json.dumps(v[2]) for v in VARIANTS])
    def test_every_variant_round_trips_in_its_pinned_form(self, tp, value,
                                                          form):
        assert json.dumps(to_dict(value)) == json.dumps(form)
        assert from_dict(tp, form) == value

    def test_default_config_hash_is_pinned(self):
        assert harness.config_hash(harness.ExperimentConfig()) \
            == "f647f2cafec76900"

    def model(self):
        return unet.build_unet(unet.UNetConfig(
            depth=1, base_channels=2, padding=tc.CIRCULAR))

    def test_checkpoint_header_is_pinned_and_loads(self, tmp_path):
        header = (
            b'{"format": "centerbias-unet", "version": 2, "config": '
            b'{"depth": 1, "base_channels": 2, "padding": {"kind": '
            b'"circular"}, "precision": "f32", "seed": 0}, '
            b'"precision": "f32", "step": 0, "param_shapes": [[2, 1, 3, 3], '
            b'[2], [2, 2, 3, 3], [2], [11, 2, 1, 1], [11]]}\n')
        model = self.model()
        path = tmp_path / "model.ckpt"
        unet.save_checkpoint(model, path)
        assert path.read_bytes().startswith(header)
        loaded = unet.load_checkpoint(path)
        assert loaded.config == model.config
        np.testing.assert_array_equal(loaded.flat_params, model.flat_params)

    # the version-1 header of the same model, whose config still held
    # in_channels and num_classes
    V1_HEADER = (
        b'{"format": "centerbias-unet", "version": 1, "config": '
        b'{"depth": 1, "base_channels": 2, "in_channels": 1, '
        b'"num_classes": 11, "padding": {"kind": "circular"}, '
        b'"precision": "f32", "seed": 0}, '
        b'"precision": "f32", "step": 0, "param_shapes": [[2, 1, 3, 3], '
        b'[2], [2, 2, 3, 3], [2], [11, 2, 1, 1], [11]]}\n')

    @pytest.mark.parametrize("version", [1, 99])
    def test_other_checkpoint_versions_are_rejected(self, tmp_path, version):
        path = tmp_path / "model.ckpt"
        unet.save_checkpoint(self.model(), path)
        header, payload = path.read_bytes().split(b"\n", 1)
        if version == 1:
            header = self.V1_HEADER
        else:
            header = header.replace(b'"version": 2', b'"version": 99') + b"\n"
        path.write_bytes(header + payload)
        with pytest.raises(ValueError,
                           match=f"^checkpoint version {version}: this "
                                 "build reads version 2$"):
            unet.load_checkpoint(path)

"""Dataset synthesis oracles: IDX fixtures, placement geometry, compositing
invariants, and stream determinism."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centerbias import data


def idx_bytes(dims, payload: bytes, type_code=0x08) -> bytes:
    header = bytes([0, 0, type_code, len(dims)])
    header += struct.pack(f">{len(dims)}I", *dims)
    return header + payload


class TestIdx:
    def test_hand_built_fixture_bit_exact(self):
        payload = bytes([10, 20, 30, 40, 50, 60, 70, 80])
        arr = data.parse_idx(idx_bytes((2, 2, 2), payload))
        assert arr.shape == (2, 2, 2)
        np.testing.assert_array_equal(arr[0], [[10, 20], [30, 40]])
        np.testing.assert_array_equal(arr[1], [[50, 60], [70, 80]])

    def test_short_payload_rejected(self):
        with pytest.raises(ValueError):
            data.parse_idx(idx_bytes((2, 2, 2), bytes(7)))

    def test_long_payload_rejected(self):
        with pytest.raises(ValueError):
            data.parse_idx(idx_bytes((2, 2), bytes(5)))

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            data.parse_idx(b"\x01\x00\x08\x01" + bytes(4))

    def test_bad_type_code(self):
        with pytest.raises(ValueError):
            data.parse_idx(idx_bytes((1,), bytes(1), type_code=0x0D))

    def test_mnist_train_header_layout(self):
        # the canonical train file declares 60000x28x28 in big-endian u32s
        blob = idx_bytes((60000, 28, 28), bytes(60000 * 28 * 28))
        assert blob[:4] == b"\x00\x00\x08\x03"
        assert blob[4:16] == struct.pack(">III", 60000, 28, 28)
        arr = data.parse_idx(blob)
        assert arr.shape == (60000, 28, 28)

    def test_glyph_dir_roundtrip(self, tmp_path):
        imgs = np.arange(2 * 4 * 4, dtype=np.uint8).reshape(2, 4, 4)
        (tmp_path / "train-images-idx3-ubyte").write_bytes(
            idx_bytes((2, 4, 4), imgs.tobytes()))
        (tmp_path / "train-labels-idx1-ubyte").write_bytes(
            idx_bytes((2,), bytes([3, 7])))
        gs = data.load_glyph_dir(tmp_path)
        np.testing.assert_array_equal(gs.labels, [3, 7])
        np.testing.assert_allclose(gs.images, imgs / 255.0)


class TestBuiltinGlyphs:
    def test_ten_distinct_binary_glyphs(self):
        gs = data.builtin_glyphs()
        assert gs.images.shape == (10, 28, 28)
        np.testing.assert_array_equal(gs.labels, np.arange(10))
        assert set(np.unique(gs.images)) <= {0.0, 1.0}
        flat = {g.tobytes() for g in gs.images}
        assert len(flat) == 10


class TestNormalizedOffset:
    def test_centered(self):
        assert data.normalized_offset(0, 0, (64, 96), (28, 28)) == 0.0

    def test_touching_edge(self):
        max_dx = (96 - 28) // 2
        assert data.normalized_offset(max_dx, 0, (64, 96), (28, 28)) == 1.0

    def test_arithmetic_oracle(self):
        # max(17/34, 9/18) = 0.5
        assert data.normalized_offset(17, 9, (64, 96), (28, 28)) == 0.5

    def test_object_larger_than_image(self):
        with pytest.raises(ValueError):
            data.normalized_offset(0, 0, (20, 20), (28, 28))

    def test_band_partition(self):
        # every admissible r falls in exactly one decade band
        bands = [data.Band(k / 10, (k + 1) / 10) for k in range(10)]
        rng = np.random.default_rng(0)
        for r in list(rng.random(200)) + [0.0, 0.1, 0.5, 0.9, 1.0]:
            hits = [b for b in bands if data.admits(b, r)]
            assert len(hits) == 1, (r, hits)


class TestSamplePlacement:
    def test_unrestricted_r_range(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            dx, dy = data.sample_placement(
                data.Unrestricted(), (64, 96), (28, 28), rng)
            r = data.normalized_offset(dx, dy, (64, 96), (28, 28))
            assert 0.0 <= r <= 1.0

    def test_edge_band_postcondition_10k(self):
        rng = np.random.default_rng(2)
        policy = data.Band(0.9, 1.0)
        for _ in range(10_000):
            dx, dy = data.sample_placement(policy, (64, 96), (28, 28), rng)
            r = data.normalized_offset(dx, dy, (64, 96), (28, 28))
            assert 0.9 <= r <= 1.0

    def test_central_30_percent(self):
        rng = np.random.default_rng(3)
        policy = data.AllowedCentral(0.3)
        for _ in range(2_000):
            dx, dy = data.sample_placement(policy, (64, 96), (28, 28), rng)
            assert data.normalized_offset(dx, dy, (64, 96), (28, 28)) <= 0.3

    def test_degenerate_policy_errors(self):
        # 28x28 glyph on 30x30 image: max offset 1 pixel, so r is 0 or 1
        # and a thin interior band admits nothing
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            data.sample_placement(data.Band(0.4, 0.6), (30, 30), (28, 28), rng)


class TestBackgrounds:
    def test_smoothing_zero_is_raw_noise(self):
        from centerbias.rng import stream
        img = data.generate_background(
            data.NoisePool(seed=0, smoothing=0), (16, 16), stream(123))
        raw = stream(123).random((16, 16))
        np.testing.assert_allclose(img, np.clip(raw, 0, 0.95).astype(np.float32))

    def test_cap(self):
        img = data.generate_background(
            data.NoisePool(smoothing=1), (32, 32), np.random.default_rng(5))
        assert img.max() <= data.BACKGROUND_CAP
        assert img.min() >= 0.0

    def test_constant_source_constant_crop(self, tmp_path):
        from centerbias import netpbm
        netpbm.write_pgm(tmp_path / "flat.pgm",
                         np.full((50, 70), 128, dtype=np.uint8))
        img = data.generate_background(
            data.ImageDir(str(tmp_path)), (16, 24), np.random.default_rng(6))
        np.testing.assert_allclose(img, np.float32(128 / 255.0))

    def test_crop_bounds_exhaustive_tiny_pool(self, tmp_path):
        from centerbias import netpbm
        rng = np.random.default_rng(7)
        src = rng.integers(0, 200, (40, 33), dtype=np.int64).astype(np.uint8)
        netpbm.write_pgm(tmp_path / "a.pgm", src)
        pool_vals = set(np.clip(src / 255.0, 0, 0.95).astype(np.float32).ravel())
        for seed in range(50):
            img = data.generate_background(
                data.ImageDir(str(tmp_path)), (8, 8),
                np.random.default_rng(seed))
            assert img.shape == (8, 8)
            assert set(img.ravel()) <= pool_vals

    def test_box_blur_preserves_mean_region(self):
        img = np.ones((9, 9))
        np.testing.assert_allclose(data._box_blur(img, 2), 1.0)


class TestComposite:
    def test_empty_glyph_all_background(self):
        bg = np.full((32, 32), 0.25, dtype=np.float32)
        s = data.composite_sample(np.zeros((8, 8)), 4, bg, (0, 0))
        assert (s.target == 0).all()
        assert s.meta.bbox is None

    def test_full_square_glyph_center_block(self):
        bg = np.zeros((16, 16), dtype=np.float32)
        s = data.composite_sample(np.ones((4, 4)), 2, bg, (0, 0))
        assert (s.target[6:10, 6:10] == 3).all()
        assert s.target.sum() == 3 * 16
        assert s.meta.bbox == (6, 6, 4, 4)
        assert (s.input[0, 0, 6:10, 6:10] == 1.0).all()

    def test_mask_popcount_oracle(self):
        rng = np.random.default_rng(8)
        glyph = rng.random((12, 12))
        bg = rng.random((40, 40)).astype(np.float32) * 0.9
        s = data.composite_sample(glyph, 7, bg, (3, -2))
        assert (s.target == 8).sum() == (glyph > 0.5).sum()

    def test_offset_out_of_range(self):
        bg = np.zeros((32, 32), dtype=np.float32)
        with pytest.raises(ValueError):
            data.composite_sample(np.ones((8, 8)), 0, bg, (13, 0))


def config(**kw):
    base = dict(height=32, width=48, policy=data.Unrestricted(),
                background=data.NoisePool(smoothing=0), count=10,
                master_seed=42, glyph_source="builtin")
    base.update(kw)
    return data.DatasetConfig(**base)


def digest(samples):
    h = hashlib.sha256()
    for s in samples:
        h.update(s.input.tobytes())
        h.update(s.target.tobytes())
    return h.hexdigest()


class TestDatasetStream:
    def test_same_config_identical(self):
        cfg = config()
        assert digest(data.iter_samples(cfg)) == digest(data.iter_samples(cfg))

    def test_per_index_seeding(self):
        cfg = config()
        alone = data.sample_at(cfg, 7)
        streamed = list(data.iter_samples(cfg))[7]
        np.testing.assert_array_equal(alone.input, streamed.input)
        np.testing.assert_array_equal(alone.target, streamed.target)

    def test_class_histogram_uniform_4sigma(self):
        cfg = config(height=32, width=32, count=10_000, master_seed=9)
        counts = np.zeros(10, dtype=int)
        for i in range(cfg.count):
            counts[data.sample_at(cfg, i).meta.digit_class] += 1
        sigma = np.sqrt(10_000 * 0.1 * 0.9)
        assert np.abs(counts - 1_000).max() <= 4 * sigma, counts

    def test_config_json_roundtrip(self):
        cfg = config(policy=data.Band(0.2, 0.5),
                     background=data.NoisePool(seed=3, smoothing=4))
        assert data.DatasetConfig.from_dict(cfg.to_dict()) == cfg

    @given(st.sampled_from([
        data.Unrestricted(), data.AllowedCentral(0.3), data.Band(0.4, 0.8),
        data.Band(0.9, 1.0), data.ForbiddenCentral(0.7)]),
        st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_emitted_sample_invariants(self, policy, index):
        cfg = config(policy=policy, count=1)
        s = data.sample_at(cfg, index)
        assert s.input.min() >= 0.0 and s.input.max() <= 1.0
        mask = s.target > 0
        cls = s.meta.digit_class + 1
        assert set(np.unique(s.target[mask])) <= {cls}
        np.testing.assert_array_equal(
            s.input[0, 0][mask], np.ones(mask.sum(), dtype=np.float32))
        x, y, w, h = s.meta.bbox
        assert 0 <= x and 0 <= y and x + w <= 48 and y + h <= 32
        assert data.admits(policy, s.meta.r)


class TestPolicyParsing:
    @pytest.mark.parametrize("policy", [
        data.Unrestricted(), data.AllowedCentral(0.3), data.Band(0.0, 0.1),
        data.Band(0.9, 1.0), data.ForbiddenCentral(0.7)])
    def test_label_roundtrip(self, policy):
        assert data.parse_policy(data.policy_label(policy)) == policy
        assert data.policy_from_dict(data.policy_to_dict(policy)) == policy

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            data.Band(0.5, 0.5)
        with pytest.raises(ValueError):
            data.AllowedCentral(0.0)
        with pytest.raises(ValueError):
            data.ForbiddenCentral(1.0)
        with pytest.raises(ValueError):
            data.parse_policy("nonsense:1")

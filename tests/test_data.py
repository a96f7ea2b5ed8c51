"""Dataset synthesis oracles: IDX fixtures, placement geometry, compositing
invariants, and stream determinism."""

import hashlib
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centerbias import data, netpbm
from centerbias.config import from_dict, to_dict


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
        with pytest.raises(ValueError, match="glyph 4x4 does not fit"):
            data.DatasetConfig(height=3, glyph_source=str(tmp_path))


class TestBuiltinGlyphs:
    def test_ten_distinct_binary_glyphs(self):
        gs = data.builtin_glyphs()
        assert gs.images.shape == (10, 28, 28)
        np.testing.assert_array_equal(gs.labels, np.arange(10))
        assert set(np.unique(gs.images)) <= {0.0, 1.0}
        flat = {g.tobytes() for g in gs.images}
        assert len(flat) == 10

    def test_size_7_is_the_smallest_and_marks_every_glyph(self):
        # one image pixel per font pixel: below 7 the glyphs would be blank
        masks = data.builtin_glyphs(7).images > data.GLYPH_THRESHOLD
        assert masks.any(axis=(1, 2)).all()
        for size in (6, 1, 0, -3):
            with pytest.raises(ValueError, match="must be >= 7"):
                data.builtin_glyphs(size)
            with pytest.raises(ValueError, match="^glyph_source: builtin"):
                data.DatasetConfig(glyph_source=f"builtin:{size}")


def placed_r(dx, dy, image_hw=(64, 96), object_hw=(28, 28)):
    """Edge distance of an offset, which must lie in the frame."""
    H, W = image_hw
    h, w = object_hw
    max_dy, max_dx = (H - h) // 2, (W - w) // 2
    assert abs(dx) <= max_dx and abs(dy) <= max_dy, (dx, dy)
    return data.edge_distance(abs(dx), abs(dy), max_dx, max_dy)


class TestEdgeDistance:
    # a 28x28 glyph on a 64x96 image moves up to 34 pixels in x, 18 in y
    def test_centered(self):
        assert data.edge_distance(0, 0, 34, 18) == 0.0

    def test_touching_edge(self):
        assert data.edge_distance(34, 0, 34, 18) == 1.0
        assert data.edge_distance(0, 18, 34, 18) == 1.0

    def test_arithmetic_oracle(self):
        # max(17/34, 9/18) = 0.5
        assert data.edge_distance(17, 9, 34, 18) == 0.5

    def test_band_partition(self):
        # every admissible r falls in exactly one decade band
        bands = [data.Band(k / 10, (k + 1) / 10) for k in range(10)]
        rng = np.random.default_rng(0)
        for r in list(rng.random(200)) + [0.0, 0.1, 0.5, 0.9, 1.0]:
            hits = [b for b in bands if data.admits(b, r)]
            assert len(hits) == 1, (r, hits)

    def test_admits_an_array_elementwise(self):
        rs = np.concatenate([np.random.default_rng(0).random(200),
                             [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]])
        policies = [data.Band(k / 10, (k + 1) / 10) for k in range(10)] + [
            data.Band(0.45, 0.55), data.AllowedCentral(0.3),
            data.ForbiddenCentral(0.7), data.Unrestricted()]
        for policy in policies:
            got = data.admits(policy, rs)
            assert got.dtype == bool and got.shape == rs.shape
            assert got.tolist() == [bool(data.admits(policy, float(r)))
                                    for r in rs], policy


def brute_force_offsets(policy, image_hw, object_hw):
    """Every offset of the rectangle that the policy admits, tested one at
    a time through the scalar edge distance."""
    H, W = image_hw
    h, w = object_hw
    max_dy, max_dx = (H - h) // 2, (W - w) // 2
    return [(dx, dy) for dy in range(-max_dy, max_dy + 1)
            for dx in range(-max_dx, max_dx + 1)
            if data.admits(policy, placed_r(dx, dy, image_hw, object_hw))]


class TestSamplePlacement:
    @pytest.mark.parametrize("policy, image_hw", [
        (data.AllowedCentral(0.3), (64, 96)),
        (data.Band(0.45, 0.55), (64, 96)),
        (data.Band(0.9, 1.0), (64, 96)),
        (data.Band(0.0, 0.02), (64, 96)),
        (data.ForbiddenCentral(0.7), (64, 96)),
        (data.Unrestricted(), (64, 96)),
        (data.Band(0.5, 1.0), (64, 28)),  # max_dx == 0
    ], ids=["allowed", "interior-band", "edge-band", "narrow-band",
            "forbidden", "unrestricted", "no-x-room"])
    def test_admitted_set_is_the_brute_force_filter(self, policy, image_hw):
        offsets = data.admitted_offsets(policy, image_hw, (28, 28))
        assert offsets.shape[1:] == (2,)
        assert [tuple(o) for o in offsets.tolist()] == \
            brute_force_offsets(policy, image_hw, (28, 28))

    def test_narrow_band_admits_only_the_center(self):
        # 1 of the 2553 offsets at 64x96
        policy = data.Band(0.0, 0.02)
        assert data.admitted_offsets(policy, (64, 96), (28, 28)).tolist() \
            == [[0, 0]]
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert data.sample_placement(policy, (64, 96), (28, 28),
                                         rng) == (0, 0)

    def test_one_draw_per_placement(self):
        policy = data.Band(0.9, 1.0)
        n = len(data.admitted_offsets(policy, (64, 96), (28, 28)))
        rng, oracle = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(20):
            dx, dy = data.sample_placement(policy, (64, 96), (28, 28), rng)
            k = oracle.integers(n)
            assert [dx, dy] == data.admitted_offsets(
                policy, (64, 96), (28, 28))[k].tolist()
        assert rng.bit_generator.state == oracle.bit_generator.state

    @pytest.mark.parametrize("policy, seed", [
        (data.AllowedCentral(0.3), 3), (data.Band(0.9, 1.0), 2)])
    def test_draws_are_uniform_over_the_admitted_set(self, policy, seed):
        offsets = data.admitted_offsets(policy, (64, 96), (28, 28))
        index = {tuple(o): i for i, o in enumerate(offsets.tolist())}
        k = len(offsets)
        counts = np.zeros(k)
        rng = np.random.default_rng(seed)
        for _ in range(200 * k):
            counts[index[data.sample_placement(policy, (64, 96), (28, 28),
                                               rng)]] += 1
        # chi-square over k cells of expected count 200; the bound is the
        # mean plus 5 standard deviations of the statistic under uniformity
        chi2 = ((counts - 200) ** 2 / 200).sum()
        df = k - 1
        assert chi2 < df + 5 * np.sqrt(2 * df), (chi2, df)

    def test_unrestricted_r_range(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            dx, dy = data.sample_placement(
                data.Unrestricted(), (64, 96), (28, 28), rng)
            r = placed_r(dx, dy)
            assert 0.0 <= r <= 1.0

    def test_edge_band_postcondition_10k(self):
        rng = np.random.default_rng(2)
        policy = data.Band(0.9, 1.0)
        for _ in range(10_000):
            dx, dy = data.sample_placement(policy, (64, 96), (28, 28), rng)
            r = placed_r(dx, dy)
            assert 0.9 <= r <= 1.0

    def test_central_30_percent(self):
        rng = np.random.default_rng(3)
        policy = data.AllowedCentral(0.3)
        for _ in range(2_000):
            dx, dy = data.sample_placement(policy, (64, 96), (28, 28), rng)
            assert placed_r(dx, dy) <= 0.3

    def test_degenerate_policy_errors(self):
        # 28x28 glyph on 30x30 image: max offset 1 pixel, so r is 0 or 1
        # and a thin interior band admits nothing
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="band:0.4-0.6 admits no offset"):
            data.sample_placement(data.Band(0.4, 0.6), (30, 30), (28, 28), rng)
        assert rng.bit_generator.state == state
        with pytest.raises(ValueError, match="admits no offset of a 28x28 "
                                             "glyph on a 30x30 image"):
            data.admitted_offsets(data.Band(0.4, 0.6), (30, 30), (28, 28))
        with pytest.raises(ValueError, match="admits no offset"):
            data.DatasetConfig(height=30, width=30,
                               policy=data.Band(0.4, 0.6))


class TestReadPnm:
    @pytest.mark.parametrize("maxval", [15, 255])
    def test_gray_scales_by_maxval(self, tmp_path, maxval):
        raw = [0, maxval, maxval * 2 // 5]
        path = tmp_path / "a.pgm"
        path.write_bytes(f"P5 3 1 {maxval}\n".encode() + bytes(raw))
        np.testing.assert_array_equal(netpbm.read_pnm(path), [raw])
        np.testing.assert_allclose(netpbm.read_pnm_gray(path),
                                   [[0.0, 1.0, raw[2] / maxval]])

    @pytest.mark.parametrize("name, blob", [
        ("a.pgm", b"P5 2 1 15\n" + bytes([15, 200])),
        ("a.ppm", b"P6 2 1 100\n" + bytes([0, 0, 0, 100, 101, 100])),
    ], ids=["P5", "P6"])
    def test_a_sample_above_maxval_is_rejected_naming_the_file(
            self, tmp_path, name, blob):
        path = tmp_path / name
        path.write_bytes(blob)
        for read in (netpbm.read_pnm, netpbm.read_pnm_gray):
            with pytest.raises(ValueError, match=f"{name}: sample .* above "
                                                 f"maxval"):
                read(path)


class TestBackgrounds:
    def test_smoothing_zero_is_raw_noise(self):
        from centerbias.rng import BACKGROUND, stream
        img = data.generate_background(
            data.NoisePool(smoothing=0), (16, 16), stream(123, BACKGROUND))
        raw = stream(123, BACKGROUND).random((16, 16))
        np.testing.assert_allclose(img, np.clip(raw, 0, 0.95).astype(np.float32))

    def test_negative_smoothing_is_rejected(self):
        assert data.NoisePool(0).smoothing == 0
        with pytest.raises(ValueError, match="smoothing must be >= 0"):
            data.NoisePool(-3)

    @pytest.mark.parametrize("name, blob, value", [
        ("bg.pgm", b"P5\n# a comment line\n3 2\n15\n" + bytes([6] * 6),
         6 / 15),
        ("bg.ppm", b"P6 3 2 255\n" + bytes([30, 60, 90] * 6), 60 / 255),
    ], ids=["pgm-with-comment-maxval-15", "ppm"])
    def test_image_dir_reads_any_header_and_maxval(self, tmp_path, name,
                                                   blob, value):
        (tmp_path / name).write_bytes(blob)
        img = data.generate_background(
            data.ImageDir(str(tmp_path)), (4, 6), np.random.default_rng(0))
        np.testing.assert_allclose(img, np.float32(value))

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

    @staticmethod
    def box_blur_reference(img, radius):
        """One image: zero-led cumulative sums, each window the difference
        of two of them over its clamped pixel count, rows then columns."""
        out = img
        for axis in (0, 1):
            n = out.shape[axis]
            cs = np.cumsum(out, axis=axis)
            cs = np.concatenate([np.zeros_like(np.take(cs, [0], axis)), cs],
                                axis=axis)
            idx = np.arange(n)
            lo = np.clip(idx - radius, 0, n)
            hi = np.clip(idx + radius + 1, 0, n)
            sums = np.take(cs, hi, axis) - np.take(cs, lo, axis)
            out = sums / (hi - lo).reshape((-1, 1) if axis == 0 else (1, -1))
        return out

    @pytest.mark.parametrize("hw", [(1, 1), (2, 5), (7, 3), (12, 9)])
    def test_stacked_blur_equals_the_reference_per_image(self, hw):
        # radii past either side included
        stack = np.random.default_rng(9).random((3, *hw))
        for radius in range(1, 15):
            blurred = data._box_blur(stack, radius)
            for img, got in zip(stack, blurred):
                assert got.tobytes() == \
                    self.box_blur_reference(img, radius).tobytes(), radius


class TestComposite:
    def test_empty_glyph_all_background(self):
        bg = np.full((32, 32), 0.25, dtype=np.float32)
        s = data.composite_sample(np.zeros((8, 8)), 4, bg, (0, 0))
        assert (s.target == 0).all()
        assert data.mask_bbox(s.target > 0) is None

    def test_full_square_glyph_center_block(self):
        bg = np.zeros((16, 16), dtype=np.float32)
        s = data.composite_sample(np.ones((4, 4)), 2, bg, (0, 0))
        assert (s.target[6:10, 6:10] == 3).all()
        assert s.target.sum() == 3 * 16
        assert data.mask_bbox(s.target > 0) == (6, 6, 4, 4)
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

    def test_object_larger_than_image(self):
        bg = np.zeros((20, 20), dtype=np.float32)
        with pytest.raises(ValueError, match="outside the 20x20 image"):
            data.composite_sample(np.ones((28, 28)), 0, bg, (0, 0))


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

    def test_class_maps_are_uint8(self):
        assert data.sample_at(config(), 3).target.dtype == np.uint8

    def test_per_index_seeding(self):
        cfg = config(count=40)
        streamed = list(data.iter_samples(cfg))
        for index in (7, 35):  # in the first and the second block
            alone = data.sample_at(cfg, index)
            np.testing.assert_array_equal(alone.input, streamed[index].input)
            np.testing.assert_array_equal(alone.target,
                                          streamed[index].target)

    def test_class_histogram_uniform_4sigma(self):
        cfg = config(height=32, width=32, count=10_000, master_seed=9)
        counts = np.bincount(np.concatenate([
            data.sample_block(cfg, range(i, i + 1000)).classes
            for i in range(0, cfg.count, 1000)]), minlength=10)
        sigma = np.sqrt(10_000 * 0.1 * 0.9)
        assert np.abs(counts - 1_000).max() <= 4 * sigma, counts

    def test_config_json_roundtrip(self):
        cfg = config(policy=data.Band(0.2, 0.5),
                     background=data.NoisePool(smoothing=4))
        assert from_dict(data.DatasetConfig, to_dict(cfg)) == cfg

    @given(st.sampled_from([
        data.Unrestricted(), data.AllowedCentral(0.3), data.Band(0.4, 0.8),
        data.Band(0.9, 1.0), data.ForbiddenCentral(0.7)]),
        st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_emitted_sample_invariants(self, policy, index):
        cfg = config(policy=policy, count=1)
        s = data.sample_at(cfg, index)
        block = data.sample_block(cfg, range(index, index + 1))
        assert s.input.min() >= 0.0 and s.input.max() <= 1.0
        mask = s.target > 0
        cls = block.classes[0] + 1
        assert set(np.unique(s.target[mask])) <= {cls}
        np.testing.assert_array_equal(
            s.input[0, 0][mask], np.ones(mask.sum(), dtype=np.float32))
        # the mask is the glyph's, moved by the block's offset from the
        # centered position
        dx, dy = block.offsets[0, 0]
        gx, gy, gw, gh = data.mask_bbox(block.glyphs[0] > 0.5)
        assert data.mask_bbox(mask) == (10 + dx + gx, 2 + dy + gy, gw, gh)
        assert data.admits(policy, placed_r(dx, dy, (32, 48)))


class TestSampleBlock:
    """A block of samples under several policies equals sample_at of each
    policy's dataset, bit for bit: digits, offsets, inputs, class maps."""

    POLICIES = (data.Unrestricted(), data.AllowedCentral(0.3),
                data.Band(0.8, 1.0), data.ForbiddenCentral(0.7))

    @pytest.fixture(scope="class")
    def image_dir(self, tmp_path_factory):
        # one source larger than the 32x48 image (scaled crops), one not
        from centerbias import netpbm
        path = tmp_path_factory.mktemp("backgrounds")
        rng = np.random.default_rng(3)
        for name, hw in (("big.pgm", (90, 120)), ("small.pgm", (20, 30))):
            netpbm.write_pgm(path / name,
                             rng.integers(0, 256, hw).astype(np.uint8))
        return str(path)

    @pytest.mark.parametrize("indices", [
        range(5, 6), range(3, 10), range(0, 32), range(40, 73)],
        ids=["1", "7", "32", "33"])
    @pytest.mark.parametrize("background", ["noise0", "noise2", "images"])
    def test_block_equals_sample_at(self, image_dir, background, indices):
        spec = {"noise0": data.NoisePool(smoothing=0),
                "noise2": data.NoisePool(smoothing=2),
                "images": data.ImageDir(image_dir)}[background]
        cfg = config(background=spec, master_seed=5)
        block = data.sample_block(cfg, indices, self.POLICIES)
        for p, policy in enumerate(self.POLICIES):
            X, T = block.composite(p)
            for j, i in enumerate(indices):
                s = data.sample_at(config(background=spec, master_seed=5,
                                          policy=policy), i)
                assert X[j:j + 1].tobytes() == s.input.tobytes()
                assert T[j].tobytes() == s.target.tobytes()
                one = data.sample_block(config(background=spec,
                                               master_seed=5, policy=policy),
                                        range(i, i + 1))
                assert (block.classes[j], tuple(block.offsets[p, j])) == \
                    (one.classes[0], tuple(one.offsets[0, 0]))


class TestBorderIndependence:
    """The image border, where the position bias lives, must carry no trace
    of the object: its background stream is drawn apart from the stream
    that picks the glyph and its placement."""

    N = 3000
    # a null correlation has standard deviation 1/sqrt(N); 5 of them bound
    # all 3 x 124 object-variable, border-pixel pairs
    BOUND = 5 / np.sqrt(N)

    @pytest.mark.parametrize("smoothing", [0, 2])
    def test_border_pixels_do_not_correlate_with_the_object(self,
                                                            smoothing):
        cfg = data.DatasetConfig(
            height=32, width=32, policy=data.AllowedCentral(0.5),
            background=data.NoisePool(smoothing=smoothing), count=self.N,
            glyph_source="builtin:14")
        border = np.ones((32, 32), dtype=bool)
        border[1:-1, 1:-1] = False
        pixels, objects = [], []
        for start in range(0, self.N, data.BLOCK):
            block = data.sample_block(
                cfg, range(start, min(start + data.BLOCK, self.N)))
            X, T = block.composite(0)
            for img, t, cls, offset in zip(X[:, 0], T, block.classes,
                                           block.offsets[0]):
                x, y, w, h = data.mask_bbox(t > 0)
                # so every border pixel is background by construction
                assert min(x, y, 32 - (x + w), 32 - (y + h)) >= 5
                pixels.append(img[border])
                objects.append((cls, *offset))

        def z(a):
            a = np.asarray(a, dtype=np.float64)
            return (a - a.mean(axis=0)) / a.std(axis=0)

        corr = z(objects).T @ z(pixels) / self.N
        assert corr.shape == (3, 124)
        worst = np.unravel_index(np.abs(corr).argmax(), corr.shape)
        assert np.abs(corr).max() < self.BOUND, \
            (("digit_class", "dx", "dy")[worst[0]], worst[1], corr[worst])


# bounds of every precision, and bounds that f"{v:g}" prints exactly
LABEL_BOUNDS = st.one_of(st.floats(0, 1),
                         st.floats(0, 1).map(lambda v: float(f"{v:g}")))


class TestPolicyParsing:
    @pytest.mark.parametrize("policy, label", [
        (data.Band(0.0, 0.1), "band:0-0.1"),
        (data.Band(0.8, 1.0), "band:0.8-1"),
        (data.Band(0.9, 1.0), "band:0.9-1"),
        (data.AllowedCentral(0.3), "allowed:0.3"),
        (data.ForbiddenCentral(0.7), "forbidden:0.7"),
        (data.Unrestricted(), "unrestricted"),
        (data.Band(1e-5, 0.1), "band:1e-05-0.1"),
        # a one-pixel step at 64x96, and a bound of np.linspace(0, 1, 11)
        (data.Band(0.0, 1 / 34), "band:0-0.029411764705882353"),
        (data.Band(0.0, 0.30000000000000004), "band:0-0.30000000000000004"),
        # JSON's "lo": -0.0 passes 0 <= lo; its label prints 0, not -0
        (data.Band(-0.0, 0.1), "band:0-0.1"),
    ])
    def test_labels_keep_their_bytes(self, policy, label):
        # matrix CSV headers, stdout lines and --bands hold these labels
        assert data.policy_label(policy) == label
        assert data.parse_policy(label) == policy

    @given(st.one_of(
        st.just(data.Unrestricted()),
        LABEL_BOUNDS.filter(lambda a: a > 0).map(data.AllowedCentral),
        st.tuples(LABEL_BOUNDS, LABEL_BOUNDS).filter(
            lambda b: b[0] < b[1]).map(lambda b: data.Band(*b)),
        LABEL_BOUNDS.filter(lambda c: c < 1).map(data.ForbiddenCentral)))
    @settings(max_examples=300, deadline=None)
    def test_any_label_roundtrips(self, policy):
        label = data.policy_label(policy)
        assert data.parse_policy(label) == policy
        assert data.policy_label(data.parse_policy(label)) == label

    @given(LABEL_BOUNDS)
    @settings(max_examples=1000, deadline=None)
    def test_a_bound_reads_back_and_keeps_its_g_text(self, v):
        # a bound that f"{v:g}" carries exactly prints as f"{v:g}" does, so
        # such labels keep their bytes; any other bound prints every digit
        # it needs.  A subnormal bound prints shorter: 5e-324, not
        # 4.94066e-324
        policy = data.ForbiddenCentral(v) if v < 1 else data.AllowedCentral(v)
        label = data.policy_label(policy)
        assert data.parse_policy(label) == policy
        if float(f"{v:g}") == v and (v == 0 or v >= sys.float_info.min):
            assert label.partition(":")[2] == f"{v:g}"

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            data.Band(0.5, 0.5)
        with pytest.raises(ValueError):
            data.AllowedCentral(0.0)
        with pytest.raises(ValueError):
            data.ForbiddenCentral(1.0)
        with pytest.raises(ValueError):
            data.parse_policy("nonsense:1")

"""Mitigation-transform oracles: modular shifts, boundary placement, and
edge-drop mass preservation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centerbias import augment, data
from centerbias.augment import ShiftSpec


class TestPeriodicShift:
    def test_row_definition(self):
        row = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4)
        out = augment.periodic_shift(row, ShiftSpec(dx=1, dy=0))
        np.testing.assert_array_equal(out[0], [4, 1, 2, 3])

    def test_full_period_identity(self):
        img = np.random.default_rng(0).random((5, 7))
        out = augment.periodic_shift(img, ShiftSpec(dx=7, dy=5))
        np.testing.assert_array_equal(out, img)

    def test_roundtrip_identity(self):
        img = np.random.default_rng(1).random((2, 3, 8, 10))
        mid = augment.periodic_shift(img, ShiftSpec(dx=3, dy=-2))
        back = augment.periodic_shift(mid, ShiftSpec(dx=-3, dy=2))
        np.testing.assert_array_equal(back, img)

    @given(st.integers(-30, 30), st.integers(-30, 30),
           st.integers(-30, 30), st.integers(-30, 30))
    @settings(max_examples=50, deadline=None)
    def test_group_action(self, dx1, dy1, dx2, dy2):
        img = np.arange(48.0).reshape(6, 8)
        a = augment.periodic_shift(
            augment.periodic_shift(img, ShiftSpec(dx1, dy1)),
            ShiftSpec(dx2, dy2))
        b = augment.periodic_shift(img, ShiftSpec(dx1 + dx2, dy1 + dy2))
        np.testing.assert_array_equal(a, b)


def transform(hw, **spec):
    (fn,) = augment.build_augmentations([spec], hw)
    return fn


class TestRandomPeriodicShift:
    def make_sample(self):
        cfg = data.DatasetConfig(height=32, width=48, count=1,
                                 policy=data.AllowedCentral(0.4),
                                 background=data.NoisePool(smoothing=0))
        return data.sample_at(cfg, 0)

    def shift(self, s, rng, max_frac):
        fn = transform(s.target.shape, name="random_periodic_shift",
                       max_frac=max_frac)
        return fn(s.input[0], s.target, rng)

    def test_max_frac_zero_is_identity(self):
        s = self.make_sample()
        x, t = self.shift(s, np.random.default_rng(0), 0.0)
        np.testing.assert_array_equal(x, s.input[0])
        np.testing.assert_array_equal(t, s.target)

    def test_bound_check_10k(self):
        rng = np.random.default_rng(1)
        shifts = [augment.random_shift((64, 96), rng, 0.25)
                  for _ in range(10_000)]
        dxs = [s.dx for s in shifts]
        dys = [s.dy for s in shifts]
        # floor(0.25 * 96) = 24 and floor(0.25 * 64) = 16, both ends reached
        assert (min(dxs), max(dxs)) == (-24, 24)
        assert (min(dys), max(dys)) == (-16, 16)

    def test_dx_distribution_uniform_4sigma(self):
        # each of the 2*24+1 dx values within 4 sigma of its expected count
        rng = np.random.default_rng(2)
        draws = 10_000
        dxs = [augment.random_shift((64, 96), rng, 0.25).dx
               for _ in range(draws)]
        counts = np.bincount(np.asarray(dxs) + 24, minlength=49)
        assert counts.size == 49
        p = 1 / 49
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.abs(counts - draws * p).max() <= 4 * sigma

    def test_dx_drawn_before_dy(self):
        for seed in range(20):
            spec = augment.random_shift((64, 96), np.random.default_rng(seed))
            ref = np.random.default_rng(seed)
            dx = int(ref.integers(-24, 25))
            dy = int(ref.integers(-16, 17))
            assert (spec.dx, spec.dy) == (dx, dy)

    def test_labels_move_with_pixels(self):
        s = self.make_sample()
        x, t = self.shift(s, np.random.default_rng(4), 0.25)
        # mask pixels still carry intensity 1.0 and the same class count
        mask = t > 0
        assert mask.sum() == (s.target > 0).sum()
        assert data.mask_bbox(mask) != s.meta.bbox  # the pair did move
        np.testing.assert_array_equal(
            x[0][mask], np.ones(int(mask.sum()), dtype=np.float32))


def box_pair(hw, box, digit=5):
    """A (1, H, W) image and label map holding one filled box."""
    x0, y0, w, h = box
    x = np.zeros((1,) + hw)
    t = np.zeros(hw, dtype=np.int64)
    x[0, y0:y0 + h, x0:x0 + w] = 1.0
    t[y0:y0 + h, x0:x0 + w] = digit + 1
    return x, t


class TestShiftObjectToBoundary:
    def shift(self, x, t, rng=None):
        fn = transform(t.shape, name="shift_object_to_boundary")
        return fn(x, t, rng or np.random.default_rng(0))

    def test_left_distance_selected(self):
        x, t = self.shift(*box_pair((480, 640), (100, 200, 80, 60)))
        assert data.mask_bbox(t > 0) == (0, 200, 80, 60)
        assert set(np.unique(t)) == {0, 6}  # the label moves, unchanged

    def test_already_touching_zero_shift(self):
        x0, t0 = box_pair((100, 100), (0, 40, 10, 10))
        x, t = self.shift(x0, t0)
        np.testing.assert_array_equal(x, x0)
        np.testing.assert_array_equal(t, t0)

    def test_tie_picks_left(self):
        # all four distances equal 40
        _, t = self.shift(*box_pair((100, 100), (40, 40, 20, 20)))
        assert data.mask_bbox(t > 0) == (0, 40, 20, 20)

    def test_empty_mask_leaves_pair_unchanged(self):
        x0 = np.random.default_rng(0).random((1, 8, 8))
        t0 = np.zeros((8, 8), dtype=np.int64)
        x, t = self.shift(x0, t0)
        np.testing.assert_array_equal(x, x0)
        np.testing.assert_array_equal(t, t0)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_selected_box_lands_on_edge(self, seed):
        rng = np.random.default_rng(seed)
        W, H = 64, 48
        w = int(rng.integers(4, 16)); h = int(rng.integers(4, 16))
        box = (int(rng.integers(0, W - w + 1)),
               int(rng.integers(0, H - h + 1)), w, h)
        _, t = self.shift(*box_pair((H, W), box))
        # exact-integer postcondition: the moved box has min edge distance 0
        x, y, w, h = data.mask_bbox(t > 0)
        assert (w, h) == box[2:]
        assert min(x, W - (x + w), y, H - (y + h)) == 0

    def test_pixels_shift_with_boxes(self):
        x0, t0 = box_pair((32, 32), (20, 10, 4, 4))
        x0 += np.random.default_rng(3).random(x0.shape) * 0.5
        x, t = self.shift(x0, t0)
        (bx, by, bw, bh) = data.mask_bbox(t > 0)
        assert (bx, by) == (28, 10)  # right edge is nearest
        np.testing.assert_array_equal(x[0, by:by + bh, bx:bx + bw],
                                      x0[0, 10:14, 20:24])
        np.testing.assert_allclose(x.sum(), x0.sum())

    def test_draws_nothing_from_rng(self):
        cfg = data.DatasetConfig(height=32, width=48, count=20,
                                 policy=data.AllowedCentral(0.6),
                                 background=data.NoisePool(smoothing=0))
        for seed, s in enumerate(data.iter_samples(cfg)):
            rng = np.random.default_rng(seed)
            _, t = self.shift(s.input[0], s.target, rng)
            x, y, w, h = data.mask_bbox(t > 0)
            assert min(x, 48 - (x + w), y, 32 - (y + h)) == 0
            assert (rng.bit_generator.state
                    == np.random.default_rng(seed).bit_generator.state)


class TestEdgeBlockDrop:
    def test_probability_zero_identity(self):
        x = np.random.default_rng(0).random((1, 2, 6, 6))
        spec = augment.EdgeDropSpec(probability=0.0, band_width=1)
        out = augment.edge_block_drop(x, spec, np.random.default_rng(1))
        np.testing.assert_array_equal(out, x)

    def test_closed_form_left_drop(self):
        # p=1 on 2x2 ones: left band zeroed, survivors rescaled by 4/2
        x = np.ones((1, 1, 2, 2))
        spec = augment.EdgeDropSpec(probability=1.0, band_width=1)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            probe = np.random.default_rng(seed)
            probe.random()
            if probe.integers(4) == 0:  # left side drawn
                out = augment.edge_block_drop(x, spec, rng)
                np.testing.assert_allclose(out[0, 0], [[0, 2], [0, 2]])
                return
        pytest.fail("no seed drew the left side")

    def test_band_too_wide_rejected(self):
        spec = augment.EdgeDropSpec(probability=1.0, band_width=6)
        with pytest.raises(ValueError):
            augment.edge_block_drop(np.ones((1, 1, 6, 6)), spec,
                                    np.random.default_rng(0))

    def test_mass_preserved_in_expectation(self):
        # Monte Carlo oracle: fresh random input per trial, mean mass delta
        # within 3 sigma of zero
        spec = augment.EdgeDropSpec(probability=0.5, band_width=2)
        rng = np.random.default_rng(42)
        deltas = []
        for _ in range(10_000):
            x = rng.random((1, 1, 12, 12))
            out = augment.edge_block_drop(x, spec, rng)
            deltas.append(out.sum() - x.sum())
        deltas = np.asarray(deltas)
        se = deltas.std(ddof=1) / np.sqrt(len(deltas))
        assert abs(deltas.mean()) <= 3 * se, (deltas.mean(), se)

    def test_exact_mass_for_uniform_input(self):
        x = np.full((1, 3, 8, 8), 0.5)
        spec = augment.EdgeDropSpec(probability=1.0, band_width=2)
        out = augment.edge_block_drop(x, spec, np.random.default_rng(5))
        np.testing.assert_allclose(out.sum(), x.sum(), rtol=1e-12)

    def test_pair_transform_drops_input_only(self):
        # training hands the transform a (C, H, W) image; the drop equals the
        # one on the (1, C, H, W) batch and the label map is left as it is
        x0 = np.random.default_rng(6).random((2, 8, 12))
        t0 = np.ones((8, 12), dtype=np.int64)
        fn = transform((8, 12), name="edge_block_drop", probability=1.0,
                       band_width=3)
        x, t = fn(x0, t0, np.random.default_rng(7))
        ref = augment.edge_block_drop(
            x0[None], augment.EdgeDropSpec(1.0, 3), np.random.default_rng(7))
        np.testing.assert_array_equal(x, ref[0])
        assert t is t0
        assert (x == 0).sum() in (2 * 3 * 8, 2 * 3 * 12)


class TestBuildAugmentations:
    def test_defaults_build(self):
        fns = augment.build_augmentations(
            [{"name": "random_periodic_shift"},
             {"name": "shift_object_to_boundary"},
             {"name": "edge_block_drop"}], (64, 96))
        assert len(fns) == 3

    @pytest.mark.parametrize("spec", [
        {"name": "mystery"},
        "random_periodic_shift",
        {"max_frac": 0.25},
        {"name": "random_periodic_shift", "max_fraq": 0.25},
        {"name": "shift_object_to_boundary", "max_frac": 0.25},
        {"name": "random_periodic_shift", "max_frac": -0.5},
        {"name": "random_periodic_shift", "max_frac": 1.5},
        {"name": "random_periodic_shift", "max_frac": float("nan")},
        {"name": "random_periodic_shift", "max_frac": "0.25"},
        {"name": "random_periodic_shift", "max_frac": True},
        {"name": "edge_block_drop", "probability": 2.0},
        {"name": "edge_block_drop", "band_width": 0},
        {"name": "edge_block_drop", "band_width": 2.5},
        {"name": "edge_block_drop", "band_width": 32},
        {"name": "edge_block_drop", "band_width": 100},
    ])
    def test_bad_spec_rejected(self, spec):
        # the error names the spec, or its parameter, by its key
        with pytest.raises(ValueError, match=r"augmentations\[1\]"):
            augment.build_augmentations(
                [{"name": "shift_object_to_boundary"}, spec], (32, 48))

    def test_widest_band_accepted(self):
        augment.build_augmentations(
            [{"name": "edge_block_drop", "band_width": 31}], (32, 48))

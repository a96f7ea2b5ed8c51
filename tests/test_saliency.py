"""Saliency-map oracles: analytic linear model, shift-map contracts, and
dispersion normalization closed forms."""

import numpy as np
import pytest

from centerbias import data, saliency, tensor_core as tc, unet


def linear_model(seed=0, base=4, scale=1.0):
    """Depth-1 U-Net rigged to be linear: encoder convs are identity kernels,
    so logits_k = sum_c w_head[k,c] * x + b_k for non-negative inputs."""
    cfg = unet.UNetConfig(depth=1, base_channels=base, padding=tc.ZERO,
                          precision="f64", seed=seed)
    model = unet.build_unet(cfg)
    for layer in model.encoder[0]:
        layer.weight[...] = 0
        for o in range(layer.spec.out_channels):
            layer.weight[o, o % layer.spec.in_channels, 1, 1] = 1.0
        layer.bias[...] = 0
    model.head.weight[...] *= scale
    return model


def centered_sample(H=16, W=16, size=4, cls=2):
    bg = np.full((H, W), 0.25, dtype=np.float32)
    return data.composite_sample(np.ones((size, size)), cls, bg, (0, 0))


class TestSaliencyMap:
    def test_linear_model_analytic_oracle(self):
        model = linear_model()
        s = centered_sample()
        m = saliency.saliency_maps(model, [s])[0]
        mask = s.target > 0
        count = mask.sum()
        k = s.meta.digit_class + 1
        expected = abs(model.head.weight[k, :, 0, 0].sum()) / count
        np.testing.assert_allclose(m[mask], expected, rtol=1e-12)
        assert (m[~mask] == 0).all()

    def test_gradient_linearity_under_logit_scaling(self):
        s = centered_sample()
        m1 = saliency.saliency_maps(linear_model(), [s])[0]
        m2 = saliency.saliency_maps(linear_model(scale=2.0), [s])[0]
        np.testing.assert_allclose(m2, 2 * m1, rtol=1e-10)

    def test_map_dims_match_input(self):
        model = unet.build_unet(unet.UNetConfig(depth=2, base_channels=4))
        s = centered_sample(24, 32)
        assert saliency.saliency_maps(model, [s])[0].shape == (24, 32)

    def test_empty_mask_rejected(self):
        model = linear_model()
        s = centered_sample()
        s.target[...] = 0
        with pytest.raises(ValueError):
            saliency.saliency_maps(model, [s])[0]

    def test_nonnegative(self):
        model = unet.build_unet(unet.UNetConfig(depth=2, base_channels=4,
                                                seed=3))
        m = saliency.saliency_maps(model, [centered_sample(24, 32)])[0]
        assert (m >= 0).all()

    def test_batch_rows_equal_single_runs(self):
        model = unet.build_unet(unet.UNetConfig(depth=2, base_channels=4,
                                                seed=3))
        a = centered_sample(24, 32)
        b = centered_sample(24, 32, size=6, cls=7)
        maps = saliency.saliency_maps(model, [a, b, a])
        assert maps.shape == (3, 24, 32)
        alone = saliency.saliency_maps(model, [a])[0]
        assert maps[0].tobytes() == maps[2].tobytes() == alone.tobytes()
        assert not np.array_equal(maps[0], maps[1])

    @pytest.mark.parametrize("n", [1, 5])
    def test_shard_rows_equal_single_runs(self, n):
        model = unet.build_unet(unet.UNetConfig(depth=2, base_channels=4,
                                                padding=tc.REFLECT, seed=3))
        samples = [centered_sample(24, 32, size=2 + i, cls=i)
                   for i in range(n)]
        maps = saliency.saliency_maps(model, samples)
        assert maps.shape == (n, 24, 32)
        for s, m in zip(samples, maps):
            alone = saliency.saliency_maps(model, [s])[0]
            assert m.tobytes() == alone.tobytes()

    def test_empty_mask_named_before_any_forward(self, monkeypatch):
        def no_forward(*args, **kwargs):
            raise AssertionError("a forward pass ran")

        model = linear_model()
        empty = centered_sample()
        empty.target[...] = 0
        monkeypatch.setattr(unet, "forward", no_forward)
        with pytest.raises(ValueError, match="sample 1 "):
            saliency.saliency_maps(model, [centered_sample(), empty])


class TestDispersionNormalize:
    def test_closed_form_2x2(self):
        m = np.array([[0.0, 2.0], [4.0, 6.0]])
        out, flag = saliency.dispersion_normalize(m)
        assert flag
        np.testing.assert_allclose(
            out, np.array([[0.0, 0.894], [1.789, 2.683]]), atol=5e-4)

    def test_constant_matrix_flagged(self):
        m = np.full((3, 3), 1.5)
        out, flag = saliency.dispersion_normalize(m)
        assert not flag
        np.testing.assert_array_equal(out, m)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        m = rng.random((4, 5))
        a, _ = saliency.dispersion_normalize(m)
        b, _ = saliency.dispersion_normalize(3.7 * m)
        np.testing.assert_allclose(a, b, rtol=1e-12)


class TestScene:
    def test_crop_contains_glyph_everywhere(self):
        glyph = data.builtin_glyphs().images[3]
        scene = saliency.make_scene(glyph, 3, (64, 96), (16, 8))
        for dx, dy in ((0, 0), (16, 8), (-16, -8), (16, -8)):
            s = scene.crop(dx, dy)
            assert (s.target > 0).sum() == (glyph > 0.5).sum()
            assert s.input.shape == (1, 1, 64, 96)

    def test_class_maps_are_uint8(self):
        glyph = data.builtin_glyphs().images[9]
        scene = saliency.make_scene(glyph, 9, (64, 96), (4, 4))
        assert scene.target.dtype == np.uint8
        assert scene.crop(4, -4).target.dtype == np.uint8

    def test_shift_beyond_margin_rejected(self):
        glyph = data.builtin_glyphs().images[0]
        scene = saliency.make_scene(glyph, 0, (64, 96), (4, 4))
        with pytest.raises(ValueError):
            scene.crop(5, 0)

    def test_excessive_extent_rejected(self):
        glyph = data.builtin_glyphs().images[0]
        with pytest.raises(ValueError):
            saliency.make_scene(glyph, 0, (32, 32), (16, 16))

    def test_grid_requires_stride_alignment(self):
        with pytest.raises(ValueError):
            saliency.ShiftGrid(extent_x=6, extent_y=4, stride=4)

    @pytest.mark.parametrize("extents", [(-2, 4), (4, -2)])
    def test_negative_extent_rejected(self, extents):
        with pytest.raises(ValueError, match="extents must be >= 0"):
            saliency.ShiftGrid(*extents, stride=2)


class TestShiftMap:
    def make(self, padding, seed=0):
        cfg = unet.UNetConfig(depth=3, base_channels=4, padding=padding,
                              seed=seed)
        model = unet.build_unet(cfg)
        # non-zero biases matter: with all-zero biases a black region stays
        # exactly zero in every layer and zero padding becomes a no-op
        rng = np.random.default_rng(seed + 100)
        for layer in model.layers():
            layer.bias[...] = rng.uniform(-0.3, 0.3, layer.bias.shape)
        glyph = data.builtin_glyphs().images[5]
        scene = saliency.make_scene(glyph, 5, (64, 96), (8, 8))
        return model, scene

    def test_origin_entry_exactly_zero(self):
        model, scene = self.make(tc.ZERO)
        grid = saliency.ShiftGrid(4, 4, 4)
        sm = saliency.saliency_shift_map(model, scene, grid)
        assert sm.raw[1, 1] == 0.0

    @pytest.mark.parametrize("padding", [tc.ZERO, tc.CIRCULAR, tc.REFLECT],
                             ids=["zero", "circular", "reflect"])
    def test_batches_match_crop_by_crop(self, padding):
        model, scene = self.make(padding)
        grid = saliency.ShiftGrid(4, 4, 2)
        # three full batches and a last batch of one
        assert len(grid.dxs) * len(grid.dys) == 3 * saliency.SHIFT_BATCH + 1
        sm = saliency.saliency_shift_map(model, scene, grid)
        s0 = saliency.saliency_maps(model, [scene.crop(0, 0)])[0]
        ref = np.array([[saliency._overlap_mean_absdiff(
            s0, saliency.saliency_maps(model, [scene.crop(dx, dy)])[0],
            dx, dy) for dx in grid.dxs] for dy in grid.dys])
        assert sm.raw.tobytes() == ref.tobytes()
        assert sm.raw[2, 2] == 0.0

    def test_recompute_identical(self):
        model, scene = self.make(tc.ZERO)
        grid = saliency.ShiftGrid(4, 4, 4)
        a = saliency.saliency_shift_map(model, scene, grid)
        b = saliency.saliency_shift_map(model, scene, grid)
        np.testing.assert_array_equal(a.values, b.values)

    def test_circular_model_near_zero_at_aligned_shifts(self):
        # black canvas: crop translation equals a circular roll, which a
        # circular-padding net commutes with at pool-aligned shifts
        model, scene = self.make(tc.CIRCULAR, seed=4)
        grid = saliency.ShiftGrid(8, 8, 4)
        sm = saliency.saliency_shift_map(model, scene, grid)
        assert sm.raw.max() < 1e-4, sm.raw.max()

    @staticmethod
    def gated_model(padding):
        """Depth-1 net, every parameter set by hand: channel 0 is the
        constant 1 and channel 1 the input; the next conv gates the input
        by the 3x3 sum of the constant (9 where the padding fills it with
        1s, 6 on an edge and 4 at a corner under zero padding), so a lit
        pixel on the frame's edge is shut off under zero padding alone; the
        head passes the gated channel to the digit's class."""
        model = unet.build_unet(unet.UNetConfig(
            depth=1, base_channels=2, padding=padding, precision="f64"))
        model.flat_params[...] = 0
        a, b = model.encoder[0]
        a.bias[0] = 1.0
        a.weight[1, 0, 1, 1] = 1.0
        b.weight[0, 0] = 1.0
        b.weight[0, 1, 1, 1] = 1.0
        b.bias[0] = -9.0
        model.head.weight[5 + 1, 0] = 1.0
        return model

    def test_zero_padding_breaks_equivariance_in_closed_form(self):
        # a 4x4 object in 12x12 crops on a black canvas, shifted by up to 4:
        # each map is 1/16 on the object's pixels except, under zero
        # padding, those on the frame's edge: 4 at an edge shift and 7 at a
        # corner shift, over overlaps of 8x12 and 8x8 pixels
        scene = saliency.make_scene(np.ones((4, 4)), 5, (12, 12), (4, 4))
        grid = saliency.ShiftGrid(4, 4, 4)
        edge, corner = 4 / 16 / 96, 7 / 16 / 64
        expected = [[corner, edge, corner], [edge, 0, edge],
                    [corner, edge, corner]]
        raw_z = saliency.saliency_shift_map(self.gated_model(tc.ZERO), scene,
                                            grid).raw
        np.testing.assert_allclose(raw_z, expected, rtol=1e-12, atol=0)
        raw_c = saliency.saliency_shift_map(self.gated_model(tc.CIRCULAR),
                                            scene, grid).raw
        assert raw_c.max() <= 1e-12, raw_c

    def test_export_roundtrip(self, tmp_path):
        model, scene = self.make(tc.ZERO)
        grid = saliency.ShiftGrid(4, 4, 4)
        sm = saliency.saliency_shift_map(model, scene, grid)
        saliency.export_shift_map(sm, tmp_path / "probe")
        rows = (tmp_path / "probe.csv").read_text().strip().splitlines()
        assert rows[0].split(",")[1:] == ["-4", "0", "4"]
        assert len(rows) == 4
        back = np.array([[float(v) for v in r.split(",")[1:]]
                         for r in rows[1:]])
        np.testing.assert_allclose(back, sm.values, rtol=1e-6)
        assert (tmp_path / "probe.pgm").exists()

    def test_export_csv_text_is_pinned(self, tmp_path):
        # one row per dy, one column per dx, the normalized values to 9
        # digits
        grid = saliency.ShiftGrid(2, 1, 1)
        values = np.array([[0.0, 1 / 7, 2.0, -0.5, 12345678.9],
                           [1e-12, 0.25, 0.0, 3.0, 1.5],
                           [2 / 3, 1.0, 4.0, 0.125, 100.0]])
        saliency.export_shift_map(
            saliency.SaliencyShiftMap(values, 2 * values, grid, True),
            tmp_path / "shift_map")
        with open(tmp_path / "shift_map.csv", newline="") as f:
            assert f.read() == (
                "dy\\dx,-2,-1,0,1,2\r\n"
                "-1,0,0.142857143,2,-0.5,12345678.9\r\n"
                "0,1e-12,0.25,0,3,1.5\r\n"
                "1,0.666666667,1,4,0.125,100\r\n")


class TestRingRatio:
    def shift_map(self, grid, raw):
        raw = np.asarray(raw, dtype=float)
        return saliency.SaliencyShiftMap(raw, raw, grid, False)

    def test_closed_form(self):
        # r = max(|dy| / 2, |dx| / 4): the dy = +-2 rows and (dx, dy) =
        # (+-4, 0) are outer, the origin alone is inner, (+-2, 0) neither
        grid = saliency.ShiftGrid(4, 2, 2)
        raw = [[abs(dx) + abs(dy) + 1 for dx in grid.dxs] for dy in grid.dys]
        # outer: 2 rows of 7 5 3 5 7, plus two 5s -> 64 / 12; inner: 1
        assert saliency.ring_ratio(self.shift_map(grid, raw)) == \
            pytest.approx(64 / 12)

    def test_zero_extent_axis_counts_as_r_zero(self):
        grid = saliency.ShiftGrid(0, 2, 1)  # one column, r = |dy| / 2
        raw = [[5.0], [100.0], [2.0], [100.0], [3.0]]
        assert saliency.ring_ratio(self.shift_map(grid, raw)) == 2.0

    def test_zero_inner_mean_is_inf(self):
        grid = saliency.ShiftGrid(2, 2, 2)
        raw = np.ones((3, 3))
        raw[1, 1] = 0.0
        assert saliency.ring_ratio(self.shift_map(grid, raw)) == np.inf

    def test_zero_extent_grid_has_no_ratio(self):
        grid = saliency.ShiftGrid(0, 0)
        assert np.isnan(saliency.ring_ratio(self.shift_map(grid, [[0.0]])))

"""Tensor-engine oracles: hand-computed examples, finite differences, and
shift-equivariance properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centerbias import tensor_core as tc


def conv_nchw(x, w, b, spec):
    """conv2d_forward on an NCHW batch; returns (NCHW out, tape)."""
    y, tape = tc.conv2d_forward(tc.to_frame(x), w, b, spec)
    return tc.from_frame(y), tape


def conv_backward_nchw(tape, g):
    """conv2d_backward from an NCHW upstream; NCHW grad-input."""
    gx, gw, gb = tc.conv2d_backward(tape, tc.to_frame(g))
    return tc.from_frame(gx), gw, gb


def conv_op(spec):
    """Wrap conv2d as a gradcheck-able (out, vjp) callable."""
    def op(x, w, b):
        y, tape = conv_nchw(x, w, b, spec)
        return y, lambda g: conv_backward_nchw(tape, g)
    return op


def pool_backward_nchw(rec, g):
    return tc.from_frame(tc.maxpool2x2_backward(rec, tc.to_frame(g)))


def upsample_nchw(x):
    return tc.from_frame(tc.upsample_nearest2x(tc.to_frame(x)))


def upsample_backward_nchw(g):
    return tc.from_frame(tc.upsample_nearest2x_backward(tc.to_frame(g)))


def ce_nchw(logits, target, **kw):
    """softmax_cross_entropy_pixelwise on NCHW logits; NCHW gradient."""
    loss, grad = tc.softmax_cross_entropy_pixelwise(tc.to_frame(logits),
                                                    target, **kw)
    return loss, grad if grad is None else tc.from_frame(grad)


class TestPad:
    def test_zero_row(self):
        x = np.array([1.0, 2.0, 3.0]).reshape(1, 1, 1, 3)
        out = tc.pad(tc.to_frame(np.tile(x, (1, 1, 3, 1))), tc.ZERO)
        assert out.shape == (1, 1, 5, 5)
        np.testing.assert_array_equal(out[0, 0, 1], [0, 1, 2, 3, 0])

    def test_circular_row(self):
        x = np.tile(np.array([1.0, 2.0, 3.0]).reshape(1, 1, 1, 3), (1, 1, 3, 1))
        out = tc.pad(tc.to_frame(x), tc.CIRCULAR)
        np.testing.assert_array_equal(out[0, 0, 1], [3, 1, 2, 3, 1])

    def test_reflect_row(self):
        # mirror-index oracle: index -1 -> 1, index n -> n-2
        x = np.tile(np.array([1.0, 2.0, 3.0]).reshape(1, 1, 1, 3), (1, 1, 3, 1))
        out = tc.pad(tc.to_frame(x), tc.REFLECT)
        row = x[0, 0, 0]
        expected = [row[1], row[0], row[1], row[2], row[1]]
        np.testing.assert_array_equal(out[0, 0, 1], expected)

    def test_interior_exact_and_shape(self):
        rng = np.random.default_rng(0)
        x = rng.random((2, 3, 4, 5))
        for mode in (tc.ZERO, tc.CIRCULAR, tc.REFLECT):
            out = tc.pad(tc.to_frame(x), mode)
            assert out.shape == (3, 2, 6, 7)
            np.testing.assert_array_equal(tc.from_frame(out), x)

    def test_reflect_too_large_rejected(self):
        # a 1-pixel ring needs 2 pixels to mirror from
        x = tc.to_frame(np.zeros((1, 1, 1, 3)))
        with pytest.raises(ValueError):
            tc.pad(x, tc.REFLECT)


    @pytest.mark.parametrize("mode, np_mode", [
        (tc.ZERO, "constant"), (tc.CIRCULAR, "wrap"), (tc.REFLECT, "reflect")],
        ids=["zero", "circular", "reflect"])
    def test_ring_matches_numpy_pad(self, mode, np_mode):
        x = np.random.default_rng(2).random((2, 3, 4, 5))
        out = tc.pad(tc.to_frame(x), mode)
        ref = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), mode=np_mode)
        np.testing.assert_array_equal(out.transpose(1, 0, 2, 3), ref)

    @pytest.mark.parametrize("mode", [tc.ZERO, tc.CIRCULAR, tc.REFLECT],
                             ids=["zero", "circular", "reflect"])
    def test_ring_is_recomputed_from_the_interior(self, mode):
        # whatever the ring holds, a refill gives the same bits; the U-Net's
        # backward relies on it to rebuild a decoder's input frame
        x = np.random.default_rng(3).random((2, 3, 4, 5)).astype(np.float32)
        filled = tc.pad(tc.to_frame(x), mode)
        scribbled = filled.copy()
        scribbled[:, :, [0, -1]] = np.nan
        scribbled[:, :, :, [0, -1]] = -7.0
        assert tc.pad(scribbled, mode).tobytes() == filled.tobytes()


class TestConvForward:
    def test_scalar_product(self):
        x = np.array([[5.0]]).reshape(1, 1, 1, 1)
        w = np.array([[2.0]]).reshape(1, 1, 1, 1)
        y, _ = conv_nchw(x, w, np.zeros(1), tc.ConvSpec(1, 1, 1))
        assert y.item() == 10.0

    def test_identity_kernel(self):
        rng = np.random.default_rng(3)
        x = rng.random((2, 1, 5, 6))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        y, _ = conv_nchw(x, w, np.zeros(1), tc.ConvSpec(1, 1, 3, tc.ZERO))
        np.testing.assert_allclose(y, x, atol=1e-12)

    def test_channel_mismatch(self):
        x = np.zeros((1, 2, 4, 4))
        w = np.zeros((1, 3, 3, 3))
        with pytest.raises(ValueError):
            conv_nchw(x, w, np.zeros(1), tc.ConvSpec(3, 1, 3))

    @pytest.mark.parametrize("size", [0, -1, 2, 4, 5])
    def test_spec_rejects_even_and_nonpositive_sizes(self, size):
        with pytest.raises(ValueError):
            tc.ConvSpec(1, 1, size)

    def test_spec_is_stride_one_same_conv(self):
        spec = tc.ConvSpec(2, 3, 3)
        assert (spec.kernel, spec.pad, spec.stride) == ((3, 3), 1, 1)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 6, 7))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        widths = ((0, 0), (0, 0), (1, 1), (1, 1))
        for mode, np_mode in ((tc.ZERO, "constant"), (tc.CIRCULAR, "wrap"),
                              (tc.REFLECT, "reflect")):
            spec = tc.ConvSpec(3, 4, 3, mode)
            y, _ = conv_nchw(x, w, b, spec)
            xp = np.pad(x, widths, mode=np_mode)
            ref = np.zeros_like(y)
            for n in range(2):
                for o in range(4):
                    for i in range(6):
                        for j in range(7):
                            win = xp[n, :, i:i + 3, j:j + 3]
                            ref[n, o, i, j] = (win * w[o]).sum() + b[o]
            np.testing.assert_allclose(y, ref, rtol=1e-12, atol=1e-12,
                                       err_msg=mode.kind)


class TestConvBackward:
    def test_identity_jacobian(self):
        x = np.random.default_rng(0).random((1, 1, 4, 4))
        w = np.zeros((1, 1, 3, 3)); w[0, 0, 1, 1] = 1.0
        spec = tc.ConvSpec(1, 1, 3, tc.ZERO)
        _, tape = conv_nchw(x, w, np.zeros(1), spec)
        gx, _, _ = conv_backward_nchw(tape, np.ones_like(x))
        np.testing.assert_allclose(gx, np.ones_like(x), atol=1e-12)

    def test_grad_bias_is_channel_sum(self):
        rng = np.random.default_rng(1)
        x = rng.random((2, 2, 4, 4))
        w = rng.random((3, 2, 3, 3))
        spec = tc.ConvSpec(2, 3, 3, tc.ZERO)
        _, tape = conv_nchw(x, w, np.zeros(3), spec)
        g = rng.random((2, 3, 4, 4))
        _, _, gb = conv_backward_nchw(tape, g)
        np.testing.assert_allclose(gb, g.sum(axis=(0, 2, 3)), rtol=1e-6)

    @pytest.mark.parametrize("mode", [tc.ZERO, tc.CIRCULAR, tc.REFLECT])
    def test_finite_difference_all_modes(self, mode):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 6, 5))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        spec = tc.ConvSpec(3, 4, 3, mode)
        report = tc.gradcheck(conv_op(spec), [x, w, b], 1e-4,
                              np.random.default_rng(7))
        assert report.passed, report

    @pytest.mark.parametrize("mode", [tc.ZERO, tc.CIRCULAR, tc.REFLECT])
    def test_finite_difference_1x1(self, mode):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 3, 4, 5))
        w = rng.standard_normal((2, 3, 1, 1))
        b = rng.standard_normal(2)
        spec = tc.ConvSpec(3, 2, 1, mode)
        report = tc.gradcheck(conv_op(spec), [x, w, b], 1e-4,
                              np.random.default_rng(11))
        assert report.passed, report

    @pytest.mark.parametrize("cin,cout", [(1, 3), (3, 3), (4, 2)])
    def test_finite_difference_circular_one_pixel_high(self, cin, cout):
        # on a 1-row image both ring rows copy the same row, so the wrap
        # folds three output rows onto one input row
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, cin, 1, 3))
        w = rng.standard_normal((cout, cin, 3, 3))
        b = rng.standard_normal(cout)
        spec = tc.ConvSpec(cin, cout, 3, tc.CIRCULAR)
        report = tc.gradcheck(conv_op(spec), [x, w, b], 1e-4,
                              np.random.default_rng(13))
        assert report.passed, report

    @pytest.mark.parametrize("mode", [tc.ZERO, tc.CIRCULAR, tc.REFLECT])
    @pytest.mark.parametrize("cin,cout", [(1, 4), (4, 1)])
    def test_finite_difference_both_stacking_sides(self, mode, cin, cout):
        # thin input stacks the input slices, thin output the GEMM output
        rng = np.random.default_rng(14)
        x = rng.standard_normal((3, cin, 4, 3))
        w = rng.standard_normal((cout, cin, 3, 3))
        b = rng.standard_normal(cout)
        spec = tc.ConvSpec(cin, cout, 3, mode)
        report = tc.gradcheck(conv_op(spec), [x, w, b], 1e-4,
                              np.random.default_rng(15))
        assert report.passed, report

    def test_upstream_ring_is_ignored(self):
        # only interior outputs exist, whatever the upstream's ring holds
        rng = np.random.default_rng(16)
        x = rng.standard_normal((2, 3, 4, 5))
        w = rng.standard_normal((2, 3, 3, 3))
        g = rng.standard_normal((2, 2, 4, 5))
        for mode in (tc.ZERO, tc.CIRCULAR, tc.REFLECT):
            spec = tc.ConvSpec(3, 2, 3, mode)
            _, tape = tc.conv2d_forward(tc.to_frame(x), w, np.zeros(2), spec)
            gx, gw, gb = tc.conv2d_backward(tape, tc.to_frame(g))
            dirty = tc.to_frame(g)
            dirty[:, :, 0] = 1e3
            dirty[:, :, :, -1] = -1e3
            gx2, gw2, gb2 = tc.conv2d_backward(tape, dirty)
            np.testing.assert_array_equal(tc.from_frame(gx),
                                          tc.from_frame(gx2), mode.kind)
            np.testing.assert_array_equal(gw, gw2, mode.kind)
            np.testing.assert_array_equal(gb, gb2, mode.kind)

    @pytest.mark.parametrize("mode", [tc.ZERO, tc.CIRCULAR, tc.REFLECT],
                             ids=["zero", "circular", "reflect"])
    @pytest.mark.parametrize("cin,cout,size", [(2, 8, 3), (8, 2, 3),
                                               (3, 2, 1)])
    def test_partial_backward_keeps_the_full_bits(self, mode, cin, cout,
                                                  size):
        # a gradient not asked for is None; 64x96 images make the column
        # loops run over more than one chunk
        rng = np.random.default_rng(18)
        x = rng.standard_normal((3, cin, 64, 96)).astype(np.float32)
        w = rng.standard_normal((cout, cin, size, size)).astype(np.float32)
        g = rng.standard_normal((3, cout, 64, 96)).astype(np.float32)
        spec = tc.ConvSpec(cin, cout, size, mode)
        _, tape = tc.conv2d_forward(tc.to_frame(x), w,
                                    np.zeros(cout, np.float32), spec)
        gx, gw, gb = tc.conv2d_backward(tape, tc.to_frame(g))
        gx_only, no_gw, no_gb = tc.conv2d_backward(tape, tc.to_frame(g),
                                                   need_params=False)
        no_gx, gw_only, gb_only = tc.conv2d_backward(tape, tc.to_frame(g),
                                                     need_input=False)
        assert no_gw is None and no_gb is None and no_gx is None
        assert tc.from_frame(gx_only).tobytes() == tc.from_frame(gx).tobytes()
        assert gw_only.tobytes() == gw.tobytes()
        assert gb_only.tobytes() == gb.tobytes()

    @pytest.mark.parametrize("mode", [tc.ZERO, tc.CIRCULAR, tc.REFLECT],
                             ids=["zero", "circular", "reflect"])
    @pytest.mark.parametrize("cin,cout,size", [(2, 8, 3), (8, 2, 3),
                                               (3, 2, 1)])
    @pytest.mark.parametrize("need_input,need_params", [
        (True, True), (True, False), (False, True), (False, False)])
    def test_grad_input_over_the_input_frame_keeps_the_bits(
            self, mode, cin, cout, size, need_input, need_params):
        # out= the tape's own input frame, which grad-input overwrites; the
        # whole buffer of grad-input, guards and tail included, keeps the
        # bits of a new frame
        rng = np.random.default_rng(19)
        x = rng.standard_normal((3, cin, 64, 96)).astype(np.float32)
        w = rng.standard_normal((cout, cin, size, size)).astype(np.float32)
        g = rng.standard_normal((3, cout, 64, 96)).astype(np.float32)
        spec = tc.ConvSpec(cin, cout, size, mode)

        def backward(in_place):
            _, tape = tc.conv2d_forward(tc.to_frame(x), w,
                                        np.zeros(cout, np.float32), spec)
            out = tape.padded if in_place else None
            return out, tc.conv2d_backward(
                tape, tc.to_frame(g), need_input=need_input,
                need_params=need_params, out=out)

        _, (gx, gw, gb) = backward(False)
        frame, (gx2, gw2, gb2) = backward(True)
        if need_input:
            assert gx2 is frame and gx2.base.tobytes() == gx.base.tobytes()
        else:
            assert gx is None and gx2 is None
        if need_params:
            assert gw2.tobytes() == gw.tobytes()
            assert gb2.tobytes() == gb.tobytes()
        else:
            assert gw is gw2 is gb is gb2 is None

    def test_out_must_be_a_frame_of_the_input_shape(self):
        _, tape = tc.conv2d_forward(tc.to_frame(np.zeros((1, 2, 4, 4))),
                                    np.zeros((3, 2, 3, 3)), np.zeros(3),
                                    tc.ConvSpec(2, 3, 3))
        for out in (tc.new_frame(3, 1, 4, 4, np.float64),
                    tc.new_frame(2, 1, 4, 6, np.float64),
                    np.zeros((2, 1, 6, 6))):
            with pytest.raises(ValueError, match="out"):
                tc.conv2d_backward(tape, tc.to_frame(np.zeros((1, 3, 4, 4))),
                                   out=out)

    def test_upstream_shape_mismatch(self):
        x = np.zeros((1, 1, 4, 4))
        w = np.zeros((1, 1, 3, 3))
        _, tape = conv_nchw(x, w, np.zeros(1), tc.ConvSpec(1, 1, 3))
        with pytest.raises(ValueError):
            conv_backward_nchw(tape, np.zeros((1, 1, 2, 2)))


def _pad_adjoint_scatter(gxp, a, h, w):
    """Reference adjoint of reflect `pad`: scatter-add every padded pixel onto
    the source pixel it copies, rows then columns, in ascending padded
    order."""
    hp, wp = gxp.shape[2], gxp.shape[3]

    def mirror(padded_len, size):
        i = np.abs(np.arange(padded_len) - a)
        return np.where(i >= size, 2 * size - 2 - i, i)

    ih, iw = mirror(hp, h), mirror(wp, w)
    tmp = np.zeros(gxp.shape[:2] + (h, wp), dtype=gxp.dtype)
    np.add.at(tmp.transpose(2, 0, 1, 3), ih, gxp.transpose(2, 0, 1, 3))
    out = np.zeros(gxp.shape[:2] + (h, w), dtype=gxp.dtype)
    np.add.at(out.transpose(3, 0, 1, 2), iw, tmp.transpose(3, 0, 1, 2))
    return out


class TestPadAdjoint:
    @pytest.mark.parametrize("a,h,w", [(1, 6, 9), (1, 2, 2)])
    def test_matches_scatter_reference_exactly(self, a, h, w):
        rng = np.random.default_rng(a * 100 + h * 10 + w)
        for dtype in (np.float32, np.float64):
            gxp = rng.standard_normal((2, 3, h + 2 * a, w + 2 * a)).astype(
                dtype)
            frame = tc.to_frame(np.zeros((2, 3, h, w), dtype=dtype))
            frame[...] = gxp.transpose(1, 0, 2, 3)
            tc._fold_reflect(frame)
            out = tc.from_frame(frame)
            assert out.dtype == dtype
            np.testing.assert_array_equal(
                out, _pad_adjoint_scatter(gxp, a, h, w))


class TestMaxPool:
    def test_single_window(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        rec = tc.maxpool2x2_forward(tc.to_frame(x))
        assert tc.from_frame(rec.output).item() == 4.0
        assert rec.argmax.item() == 3

    def test_tie_breaks_to_lowest_index(self):
        x = np.full((1, 1, 2, 2), 7.0)
        rec = tc.maxpool2x2_forward(tc.to_frame(x))
        assert tc.from_frame(rec.output).item() == 7.0
        assert rec.argmax.item() == 0

    def test_matches_window_oracle(self):
        x = np.random.default_rng(2).standard_normal((1, 1, 4, 4))
        out = tc.from_frame(tc.maxpool2x2_forward(tc.to_frame(x)).output)
        for i in range(2):
            for j in range(2):
                assert out[0, 0, i, j] == \
                    x[0, 0, 2 * i:2 * i + 2, 2 * j:2 * j + 2].max()

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError):
            tc.maxpool2x2_forward(tc.to_frame(np.zeros((1, 1, 3, 4))))

    def test_backward_routes_to_argmax(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        rec = tc.maxpool2x2_forward(tc.to_frame(x))
        gx = pool_backward_nchw(rec, np.array([[[[5.0]]]]))
        np.testing.assert_array_equal(gx[0, 0], [[0, 0], [0, 5]])

    def test_backward_tie_routes_single_cell(self):
        x = np.full((1, 1, 2, 2), 1.0)
        rec = tc.maxpool2x2_forward(tc.to_frame(x))
        gx = pool_backward_nchw(rec, np.array([[[[2.0]]]]))
        assert gx.sum() == 2.0
        assert (gx != 0).sum() == 1

    def test_gradcheck_away_from_ties(self):
        x = np.random.default_rng(12).standard_normal((1, 2, 4, 4))

        def op(x_):
            rec = tc.maxpool2x2_forward(tc.to_frame(x_))
            return (tc.from_frame(rec.output),
                    lambda g: (pool_backward_nchw(rec, g),))

        assert tc.gradcheck(op, [x], 1e-4, np.random.default_rng(1)).passed

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_mass_conservation_property(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 3, 6, 8))
        rec = tc.maxpool2x2_forward(tc.to_frame(x))
        g = rng.standard_normal((2, 3, 3, 4))
        gx = pool_backward_nchw(rec, g)
        # routing moves values verbatim: exact multiset + exact rounded sum
        assert sorted(gx[gx != 0]) == sorted(g[g != 0])
        assert math.fsum(gx.reshape(-1)) == math.fsum(g.reshape(-1))


class TestReluAndUpsample:
    def test_relu_values(self):
        x = np.array([-1.0, 0.0, 2.0]).reshape(1, 1, 1, 3)
        np.testing.assert_array_equal(tc.relu(x)[0, 0, 0], [0, 0, 2])

    def test_relu_backward_masks_nonpositive(self):
        x = np.array([-1.0, 0.0, 2.0]).reshape(1, 1, 1, 3)
        g = np.ones_like(x)
        np.testing.assert_array_equal(
            tc.relu_backward(x, g)[0, 0, 0], [0, 0, 1])

    def test_relu_gradcheck_away_from_zero(self):
        x = np.random.default_rng(3).standard_normal((2, 2, 3, 3)) + 3.0

        def op(x_):
            return tc.relu(x_), lambda g: (tc.relu_backward(x_, g),)

        assert tc.gradcheck(op, [x], 1e-6, np.random.default_rng(0)).passed

    def test_upsample_block(self):
        x = np.array([[5.0]]).reshape(1, 1, 1, 1)
        np.testing.assert_array_equal(
            upsample_nchw(x)[0, 0], [[5, 5], [5, 5]])

    def test_upsample_backward_block_sum(self):
        g = np.ones((1, 1, 2, 2))
        assert upsample_backward_nchw(g).item() == 4.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_upsample_backward_matches_reshape_sum(self, dtype):
        g = np.random.default_rng(15).standard_normal((3, 4, 8, 10)).astype(
            dtype)
        ref = g.reshape(3, 4, 4, 2, 5, 2).sum(axis=(3, 5))
        np.testing.assert_array_equal(upsample_backward_nchw(g), ref)

    def test_up_then_avgpool_roundtrip(self):
        # compositional oracle: nearest-2x then 2x2 mean recovers the input
        x = np.random.default_rng(4).random((2, 3, 4, 5))
        up = upsample_nchw(x)
        down = up.reshape(2, 3, 4, 2, 5, 2).mean(axis=(3, 5))
        np.testing.assert_allclose(down, x, rtol=1e-12)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_loss_is_log_k(self):
        logits = np.zeros((1, 11, 2, 2))
        target = np.zeros((1, 2, 2), dtype=np.int64)
        loss, _ = ce_nchw(logits, target)
        assert abs(loss - np.log(11)) < 1e-12

    def test_confident_limit(self):
        logits = np.zeros((1, 3, 1, 1))
        logits[0, 1] = 50.0
        target = np.ones((1, 1, 1), dtype=np.int64)
        loss, _ = ce_nchw(logits, target)
        assert loss < 1e-12

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(8)
        logits = rng.standard_normal((1, 4, 1, 2))
        target = np.array([[[2, 0]]], dtype=np.int64)
        loss, grad = ce_nchw(logits, target)
        ref = 0.0
        for p, t in ((0, 2), (1, 0)):
            z = logits[0, :, 0, p]
            ref -= np.log(np.exp(z[t]) / np.exp(z).sum())
        assert abs(loss - ref / 2) < 1e-12
        # gradient against finite differences of the loss
        h = 1e-6
        for k in range(4):
            lp = logits.copy(); lp[0, k, 0, 0] += h
            lm = logits.copy(); lm[0, k, 0, 0] -= h
            num = (ce_nchw(lp, target)[0] - ce_nchw(lm, target)[0]) / (2 * h)
            assert abs(grad[0, k, 0, 0] - num) < 1e-8

    def test_out_of_range_class(self):
        with pytest.raises(ValueError):
            ce_nchw(np.zeros((1, 3, 1, 1)), np.array([[[3]]], dtype=np.int64))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_grad_sums_to_zero_over_classes(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((2, 5, 3, 4))
        target = rng.integers(0, 5, (2, 3, 4))
        _, grad = ce_nchw(logits, target)
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-6)

    @pytest.mark.parametrize("need_grad", [True, False])
    def test_uint8_and_int64_targets_give_the_same_bits(self, need_grad):
        rng = np.random.default_rng(11)
        logits = (4 * rng.standard_normal((3, 11, 8, 12))).astype(np.float32)
        target = rng.integers(0, 11, (3, 8, 12)).astype(np.uint8)
        runs = [tc.softmax_cross_entropy_pixelwise(
                    tc.to_frame(logits), t, need_grad=need_grad)
                for t in (target, target.astype(np.int64))]
        (loss8, grad8), (loss64, grad64) = runs
        assert np.asarray(loss8).tobytes() == np.asarray(loss64).tobytes()
        if need_grad:
            assert grad8.base.tobytes() == grad64.base.tobytes()
        else:
            assert grad8 is None and grad64 is None

    def test_gradient_lands_in_the_logits_frame(self):
        rng = np.random.default_rng(9)
        frame = tc.to_frame(rng.standard_normal((2, 4, 3, 5)))
        target = rng.integers(0, 4, (2, 3, 5))
        _, grad = tc.softmax_cross_entropy_pixelwise(frame, target)
        assert grad is frame

    def test_non_frame_logits_rejected(self):
        with pytest.raises(ValueError, match="frame"):
            tc.softmax_cross_entropy_pixelwise(
                np.zeros((3, 1, 3, 3)), np.zeros((1, 1, 1), dtype=np.int64))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_frame_loss_and_gradient_keep_the_nchw_bits(self, dtype):
        # the NCHW formula the frame version replaced: the same elementwise
        # steps and a class-order denominator sum give the same bits
        rng = np.random.default_rng(10)
        logits = (4 * rng.standard_normal((3, 11, 8, 12))).astype(dtype)
        target = rng.integers(0, 11, (3, 8, 12))
        npix = 2 * target.size
        t = target[:, None]
        z = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(z)
        denom = e.sum(axis=1, keepdims=True)
        logp_t = np.take_along_axis(z, t, axis=1) - np.log(denom)
        ref_loss = float(-logp_t.sum() / npix)
        ref_grad = e / denom
        np.put_along_axis(ref_grad, t,
                          np.take_along_axis(ref_grad, t, axis=1) - 1, axis=1)
        ref_grad /= npix
        loss, grad = ce_nchw(logits, target, npix=npix)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert grad.dtype == dtype and grad.tobytes() == ref_grad.tobytes()

    def test_confident_gradient_holds_no_subnormals(self):
        # logits tens apart put probabilities far below f32's normal range:
        # entries under tiny / eps are 0, the others match the f64 gradient
        rng = np.random.default_rng(12)
        logits = (30 * rng.standard_normal((2, 11, 6, 8))).astype(np.float32)
        target = logits.argmax(axis=1)
        ref_loss, ref_grad = ce_nchw(logits.astype(np.float64), target)
        loss, grad = ce_nchw(logits, target)
        fi = np.finfo(np.float32)
        thr = fi.tiny / fi.eps
        other = np.arange(11)[None, :, None, None] != target[:, None]
        small = other & (ref_grad < thr / 2)
        large = other & (ref_grad >= 2 * thr)
        assert loss == pytest.approx(ref_loss, rel=1e-5)
        assert small.any() and (grad[small] == 0).all()
        np.testing.assert_allclose(grad[large], ref_grad[large], rtol=1e-4)
        assert np.abs(grad[grad != 0]).min() >= thr

    def test_per_sample_losses_without_gradient(self):
        rng = np.random.default_rng(11)
        logits = rng.standard_normal((3, 5, 4, 6))
        target = rng.integers(0, 5, (3, 4, 6))
        losses, grad = ce_nchw(logits, target, need_grad=False)
        assert grad is None and losses.shape == (3,)
        z = logits - logits.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        ref = -np.take_along_axis(logp, target[:, None], axis=1)
        np.testing.assert_allclose(losses, ref.mean(axis=(1, 2, 3)),
                                   rtol=1e-13)
        for i in range(3):
            alone, _ = ce_nchw(logits[i:i + 1], target[i:i + 1])
            assert losses[i] == pytest.approx(alone, rel=1e-13)


class TestAdam:
    def test_first_step_closed_form(self):
        p = np.array([1.0, -2.0])
        g = np.array([0.3, -0.1])
        state = tc.AdamState.for_params([p], lr=0.01)
        tc.adam_step([p], [g], state)
        expected = np.array([1.0, -2.0]) - 0.01 * g / (np.abs(g) + tc.ADAM_EPS)
        np.testing.assert_allclose(p, expected, rtol=1e-9)

    def test_zero_grad_no_change(self):
        p = np.array([1.0, 2.0])
        state = tc.AdamState.for_params([p])
        tc.adam_step([p], [np.zeros(2)], state)
        np.testing.assert_array_equal(p, [1.0, 2.0])
        assert state.step_count == 1

    def test_quadratic_descent_trace(self):
        # scalar trace oracle: f(x) = x^2, gradient 2x
        x = np.array([1.0])
        state = tc.AdamState.for_params([x], lr=0.1)
        seen = [x.item()]
        for _ in range(3):
            tc.adam_step([x], [2 * x], state)
            seen.append(x.item())
        assert all(abs(b) < abs(a) for a, b in zip(seen, seen[1:]))


class TestGradcheckHarness:
    def test_linear_op_tiny_error(self):
        x = np.random.default_rng(1).random((1, 1, 4, 4))
        w = np.zeros((1, 1, 3, 3)); w[0, 0, 1, 1] = 1.0
        spec = tc.ConvSpec(1, 1, 3, tc.ZERO)

        def op(x_):
            y, tape = conv_nchw(x_, w, np.zeros(1), spec)
            return y, lambda g: (conv_backward_nchw(tape, g)[0],)

        report = tc.gradcheck(op, [x], 1e-8, np.random.default_rng(2))
        assert report.passed
        assert report.max_rel_error < 1e-8

    def test_corrupted_backward_fails(self):
        x = np.random.default_rng(1).standard_normal((1, 2, 4, 4))
        w = np.random.default_rng(2).standard_normal((2, 2, 3, 3))
        spec = tc.ConvSpec(2, 2, 3, tc.ZERO)

        def op(x_):
            y, tape = conv_nchw(x_, w, np.zeros(2), spec)
            return y, lambda g: (conv_backward_nchw(tape, g)[0] * 1.01,)

        assert not tc.gradcheck(op, [x], 1e-4, np.random.default_rng(3)).passed


def _toy_circular_net(x, weights):
    """pad(circular)+conv stride 1, relu, then one maxpool."""
    y = tc.to_frame(x)
    for w in weights:
        spec = tc.ConvSpec(w.shape[1], w.shape[0], 3, tc.CIRCULAR)
        y, _ = tc.conv2d_forward(y, w, np.zeros(w.shape[0], dtype=y.dtype),
                                 spec)
        y = tc.relu(y, out=y)
    return tc.from_frame(tc.maxpool2x2_forward(y).output)


class TestEquivariance:
    def test_circular_net_is_shift_equivariant(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((1, 2, 8, 12))
        weights = [rng.standard_normal((3, 2, 3, 3)),
                   rng.standard_normal((2, 3, 3, 3))]
        base = _toy_circular_net(x, weights)
        for dy, dx in ((2, 4), (4, 2), (6, 6)):  # multiples of 2^P, P=1
            shifted = _toy_circular_net(np.roll(x, (dy, dx), (2, 3)), weights)
            expected = np.roll(base, (dy // 2, dx // 2), (2, 3))
            np.testing.assert_allclose(shifted, expected, atol=1e-10)

    def test_zero_padding_breaks_equivariance(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((1, 2, 8, 12))
        weights = [rng.standard_normal((3, 2, 3, 3)),
                   rng.standard_normal((2, 3, 3, 3))]

        def net(v):
            y = tc.to_frame(v)
            for w in weights:
                spec = tc.ConvSpec(w.shape[1], w.shape[0], 3, tc.ZERO)
                y, _ = tc.conv2d_forward(
                    y, w, np.zeros(w.shape[0], dtype=y.dtype), spec)
                y = tc.relu(y, out=y)
            return tc.from_frame(tc.maxpool2x2_forward(y).output)

        base = net(x)
        shifted = net(np.roll(x, (4, 4), (2, 3)))
        expected = np.roll(base, (2, 2), (2, 3))
        assert np.abs(shifted - expected).max() > 1e-3


class TestFiniteness:
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_ops_emit_finite_values(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((1, 2, 4, 6))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        for mode in (tc.ZERO, tc.CIRCULAR, tc.REFLECT):
            y, tape = conv_nchw(x, w, b, tc.ConvSpec(2, 3, 3, mode))
            assert np.isfinite(y).all()
            gx, gw, gb = conv_backward_nchw(tape, np.ones_like(y))
            assert np.isfinite(gx).all()
            assert np.isfinite(gw).all()
            assert np.isfinite(gb).all()

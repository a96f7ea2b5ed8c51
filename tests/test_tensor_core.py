"""Tensor-engine oracles: hand-computed examples, finite differences, and
shift-equivariance properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centerbias import tensor_core as tc


def conv_op(spec, seed=None):
    """Wrap conv2d as a gradcheck-able (out, vjp) callable."""
    def op(x, w, b):
        rng = np.random.default_rng(seed) if seed is not None else None
        y, tape = tc.conv2d_forward(x, w, b, spec, rng)
        return y, lambda g: tc.conv2d_backward(tape, g)
    return op


class TestPad:
    def test_zero_row(self):
        x = np.array([1.0, 2.0, 3.0]).reshape(1, 1, 1, 3)
        out = tc.pad(np.tile(x, (1, 1, 3, 1)), 1, tc.ZERO)
        assert out.shape == (1, 1, 5, 5)
        np.testing.assert_array_equal(out[0, 0, 1], [0, 1, 2, 3, 0])

    def test_circular_row(self):
        x = np.tile(np.array([1.0, 2.0, 3.0]).reshape(1, 1, 1, 3), (1, 1, 3, 1))
        out = tc.pad(x, 1, tc.CIRCULAR)
        np.testing.assert_array_equal(out[0, 0, 1], [3, 1, 2, 3, 1])

    def test_reflect_row(self):
        # mirror-index oracle: index -1 -> 1, index n -> n-2
        x = np.tile(np.array([1.0, 2.0, 3.0]).reshape(1, 1, 1, 3), (1, 1, 3, 1))
        out = tc.pad(x, 1, tc.REFLECT)
        row = x[0, 0, 0]
        expected = [row[1], row[0], row[1], row[2], row[1]]
        np.testing.assert_array_equal(out[0, 0, 1], expected)

    def test_interior_exact_and_shape(self):
        rng = np.random.default_rng(0)
        x = rng.random((2, 3, 4, 5))
        for mode in (tc.ZERO, tc.CIRCULAR, tc.REFLECT, tc.random_pad(2.0)):
            out = tc.pad(x, 2, mode, np.random.default_rng(1))
            assert out.shape == (2, 3, 8, 9)
            np.testing.assert_array_equal(out[:, :, 2:6, 2:7], x)

    def test_reflect_too_large_rejected(self):
        x = np.zeros((1, 1, 3, 3))
        with pytest.raises(ValueError):
            tc.pad(x, 3, tc.REFLECT)

    def test_random_border_in_range_and_seeded(self):
        x = np.zeros((1, 1, 4, 4), dtype=np.float32)
        a = tc.pad(x, 1, tc.random_pad(0.5), np.random.default_rng(7))
        b = tc.pad(x, 1, tc.random_pad(0.5), np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)
        border = a[a != 0]
        assert border.size > 0
        assert border.min() >= 0.0 and border.max() <= 0.5

    def test_random_requires_rng(self):
        with pytest.raises(ValueError):
            tc.pad(np.zeros((1, 1, 2, 2)), 1, tc.random_pad())


class TestConvForward:
    def test_scalar_product(self):
        x = np.array([[5.0]]).reshape(1, 1, 1, 1)
        w = np.array([[2.0]]).reshape(1, 1, 1, 1)
        y, _ = tc.conv2d_forward(x, w, np.zeros(1), tc.ConvSpec(1, 1, (1, 1)))
        assert y.item() == 10.0

    def test_direct_summation_oracle(self):
        x = np.arange(1.0, 10.0).reshape(1, 1, 3, 3)
        w = np.ones((1, 1, 2, 2))
        y, _ = tc.conv2d_forward(x, w, np.zeros(1), tc.ConvSpec(1, 1, (2, 2)))
        np.testing.assert_array_equal(y[0, 0], [[12, 16], [24, 28]])

    def test_identity_kernel(self):
        rng = np.random.default_rng(3)
        x = rng.random((2, 1, 5, 6))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        y, _ = tc.conv2d_forward(
            x, w, np.zeros(1), tc.ConvSpec(1, 1, (3, 3), pad=1, mode=tc.ZERO))
        np.testing.assert_allclose(y, x, atol=1e-12)

    def test_channel_mismatch(self):
        x = np.zeros((1, 2, 4, 4))
        w = np.zeros((1, 3, 3, 3))
        with pytest.raises(ValueError):
            tc.conv2d_forward(x, w, np.zeros(1), tc.ConvSpec(3, 1, (3, 3)))

    def test_nonpositive_output_dims(self):
        with pytest.raises(ValueError):
            tc.ConvSpec(1, 1, (5, 5)).out_hw(3, 3)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 6, 7))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        spec = tc.ConvSpec(3, 4, (3, 3), stride=2, pad=1, mode=tc.ZERO)
        y, _ = tc.conv2d_forward(x, w, b, spec)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        oh, ow = y.shape[2:]
        ref = np.zeros_like(y)
        for n in range(2):
            for o in range(4):
                for i in range(oh):
                    for j in range(ow):
                        win = xp[n, :, 2 * i:2 * i + 3, 2 * j:2 * j + 3]
                        ref[n, o, i, j] = (win * w[o]).sum() + b[o]
        np.testing.assert_allclose(y, ref, rtol=1e-12)


class TestConvBackward:
    def test_identity_jacobian(self):
        x = np.random.default_rng(0).random((1, 1, 4, 4))
        w = np.zeros((1, 1, 3, 3)); w[0, 0, 1, 1] = 1.0
        spec = tc.ConvSpec(1, 1, (3, 3), pad=1, mode=tc.ZERO)
        _, tape = tc.conv2d_forward(x, w, np.zeros(1), spec)
        gx, _, _ = tc.conv2d_backward(tape, np.ones_like(x))
        np.testing.assert_allclose(gx, np.ones_like(x), atol=1e-12)

    def test_grad_bias_is_channel_sum(self):
        rng = np.random.default_rng(1)
        x = rng.random((2, 2, 4, 4))
        w = rng.random((3, 2, 3, 3))
        spec = tc.ConvSpec(2, 3, (3, 3), pad=1, mode=tc.ZERO)
        _, tape = tc.conv2d_forward(x, w, np.zeros(3), spec)
        g = rng.random((2, 3, 4, 4))
        _, _, gb = tc.conv2d_backward(tape, g)
        np.testing.assert_allclose(gb, g.sum(axis=(0, 2, 3)), rtol=1e-6)

    @pytest.mark.parametrize("mode", [tc.ZERO, tc.CIRCULAR, tc.REFLECT])
    def test_finite_difference_all_modes(self, mode):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 6, 5))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        spec = tc.ConvSpec(3, 4, (3, 3), pad=1, mode=mode)
        report = tc.gradcheck(conv_op(spec), [x, w, b], 1e-4,
                              np.random.default_rng(7))
        assert report.passed, report

    def test_finite_difference_random_mode(self):
        # frozen rng per call makes the random-border conv a pure function
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 2, 5, 5))
        w = rng.standard_normal((2, 2, 3, 3))
        b = rng.standard_normal(2)
        spec = tc.ConvSpec(2, 2, (3, 3), pad=1, mode=tc.random_pad(0.7))
        report = tc.gradcheck(conv_op(spec, seed=42), [x, w, b], 1e-4,
                              np.random.default_rng(8))
        assert report.passed, report

    def test_finite_difference_strided(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 2, 7, 9))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        spec = tc.ConvSpec(2, 3, (3, 3), stride=2, pad=1, mode=tc.ZERO)
        assert tc.gradcheck(conv_op(spec), [x, w, b], 1e-4,
                            np.random.default_rng(3)).passed

    @pytest.mark.parametrize("mode,kernel,pad,hw", [
        (tc.ZERO, (2, 2), 0, (5, 5)), (tc.REFLECT, (3, 3), 1, (6, 5))])
    def test_finite_difference_stride_skips_last_rows(self, mode, kernel,
                                                      pad, hw):
        # stride 2 does not divide hp - kh: the last padded row and column
        # fall in no window and must get exactly zero gradient
        rng = np.random.default_rng(16)
        x = rng.standard_normal((2, 2) + hw)
        w = rng.standard_normal((2, 2) + kernel)
        b = rng.standard_normal(2)
        spec = tc.ConvSpec(2, 2, kernel, stride=2, pad=pad, mode=mode)
        assert tc.gradcheck(conv_op(spec), [x, w, b], 1e-4,
                            np.random.default_rng(17)).passed

    @pytest.mark.parametrize("mode", [tc.ZERO, tc.CIRCULAR, tc.REFLECT,
                                      tc.random_pad(0.7)])
    def test_finite_difference_5x5_pad2(self, mode):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 2, 6, 5))
        w = rng.standard_normal((3, 2, 5, 5))
        b = rng.standard_normal(3)
        spec = tc.ConvSpec(2, 3, (5, 5), pad=2, mode=mode)
        report = tc.gradcheck(conv_op(spec, seed=42), [x, w, b], 1e-4,
                              np.random.default_rng(11))
        assert report.passed, report

    @pytest.mark.parametrize("kernel,stride", [((7, 7), 1), ((5, 5), 1),
                                               ((3, 3), 2)])
    def test_finite_difference_circular_wider_than_image(self, kernel,
                                                         stride):
        # a 3-pixel wrap on a 2x3 image wraps the border more than once
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 2, 2, 3))
        w = rng.standard_normal((2, 2) + kernel)
        b = rng.standard_normal(2)
        spec = tc.ConvSpec(2, 2, kernel, stride=stride, pad=3,
                           mode=tc.CIRCULAR)
        report = tc.gradcheck(conv_op(spec), [x, w, b], 1e-4,
                              np.random.default_rng(13))
        assert report.passed, report

    def test_upstream_shape_mismatch(self):
        x = np.zeros((1, 1, 4, 4))
        w = np.zeros((1, 1, 3, 3))
        _, tape = tc.conv2d_forward(x, w, np.zeros(1),
                                    tc.ConvSpec(1, 1, (3, 3), pad=1))
        with pytest.raises(ValueError):
            tc.conv2d_backward(tape, np.zeros((1, 1, 2, 2)))


def _pad_adjoint_scatter(gxp, a, mode, h, w):
    """Reference adjoint of `pad`: scatter-add every padded pixel onto the
    source pixel it copies, rows then columns, in ascending padded order."""
    hp, wp = gxp.shape[2], gxp.shape[3]
    if mode.kind == "circular":
        ih, iw = (np.arange(hp) - a) % h, (np.arange(wp) - a) % w
    else:
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
    @pytest.mark.parametrize("mode,a,h,w", [
        (tc.CIRCULAR, 1, 6, 9), (tc.CIRCULAR, 2, 5, 3),
        (tc.CIRCULAR, 5, 2, 3), (tc.CIRCULAR, 7, 1, 4),
        (tc.REFLECT, 1, 6, 9), (tc.REFLECT, 2, 3, 5), (tc.REFLECT, 4, 5, 7)])
    def test_matches_scatter_reference_exactly(self, mode, a, h, w):
        rng = np.random.default_rng(a * 100 + h * 10 + w)
        for dtype in (np.float32, np.float64):
            gxp = rng.standard_normal((2, 3, h + 2 * a, w + 2 * a)).astype(
                dtype)
            out = tc._pad_adjoint(gxp, a, mode, h, w)
            assert out.dtype == dtype and out.flags.c_contiguous
            np.testing.assert_array_equal(
                out, _pad_adjoint_scatter(gxp, a, mode, h, w))


class TestMaxPool:
    def test_single_window(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        rec = tc.maxpool2x2_forward(x)
        assert rec.output.item() == 4.0
        assert rec.argmax.item() == 3

    def test_tie_breaks_to_lowest_index(self):
        x = np.full((1, 1, 2, 2), 7.0)
        rec = tc.maxpool2x2_forward(x)
        assert rec.output.item() == 7.0
        assert rec.argmax.item() == 0

    def test_matches_window_oracle(self):
        x = np.random.default_rng(2).standard_normal((1, 1, 4, 4))
        rec = tc.maxpool2x2_forward(x)
        for i in range(2):
            for j in range(2):
                assert rec.output[0, 0, i, j] == \
                    x[0, 0, 2 * i:2 * i + 2, 2 * j:2 * j + 2].max()

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError):
            tc.maxpool2x2_forward(np.zeros((1, 1, 3, 4)))

    def test_backward_routes_to_argmax(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        rec = tc.maxpool2x2_forward(x)
        gx = tc.maxpool2x2_backward(rec, np.array([[[[5.0]]]]))
        np.testing.assert_array_equal(gx[0, 0], [[0, 0], [0, 5]])

    def test_backward_tie_routes_single_cell(self):
        x = np.full((1, 1, 2, 2), 1.0)
        rec = tc.maxpool2x2_forward(x)
        gx = tc.maxpool2x2_backward(rec, np.array([[[[2.0]]]]))
        assert gx.sum() == 2.0
        assert (gx != 0).sum() == 1

    def test_gradcheck_away_from_ties(self):
        x = np.random.default_rng(12).standard_normal((1, 2, 4, 4))

        def op(x_):
            rec = tc.maxpool2x2_forward(x_)
            return rec.output, lambda g: (tc.maxpool2x2_backward(rec, g),)

        assert tc.gradcheck(op, [x], 1e-4, np.random.default_rng(1)).passed

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_mass_conservation_property(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 3, 6, 8))
        rec = tc.maxpool2x2_forward(x)
        g = rng.standard_normal(rec.output.shape)
        gx = tc.maxpool2x2_backward(rec, g)
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
            tc.upsample_nearest2x(x)[0, 0], [[5, 5], [5, 5]])

    def test_upsample_backward_block_sum(self):
        g = np.ones((1, 1, 2, 2))
        assert tc.upsample_nearest2x_backward(g).item() == 4.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_upsample_backward_matches_reshape_sum(self, dtype):
        g = np.random.default_rng(15).standard_normal((3, 4, 8, 10)).astype(
            dtype)
        ref = g.reshape(3, 4, 4, 2, 5, 2).sum(axis=(3, 5))
        np.testing.assert_array_equal(tc.upsample_nearest2x_backward(g), ref)

    def test_up_then_avgpool_roundtrip(self):
        # compositional oracle: nearest-2x then 2x2 mean recovers the input
        x = np.random.default_rng(4).random((2, 3, 4, 5))
        up = tc.upsample_nearest2x(x)
        down = up.reshape(2, 3, 4, 2, 5, 2).mean(axis=(3, 5))
        np.testing.assert_allclose(down, x, rtol=1e-12)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_loss_is_log_k(self):
        logits = np.zeros((1, 11, 2, 2))
        target = np.zeros((1, 2, 2), dtype=np.int64)
        loss, _ = tc.softmax_cross_entropy_pixelwise(logits, target)
        assert abs(loss - np.log(11)) < 1e-12

    def test_confident_limit(self):
        logits = np.zeros((1, 3, 1, 1))
        logits[0, 1] = 50.0
        target = np.ones((1, 1, 1), dtype=np.int64)
        loss, _ = tc.softmax_cross_entropy_pixelwise(logits, target)
        assert loss < 1e-12

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(8)
        logits = rng.standard_normal((1, 4, 1, 2))
        target = np.array([[[2, 0]]], dtype=np.int64)
        loss, grad = tc.softmax_cross_entropy_pixelwise(logits, target)
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
            num = (tc.softmax_cross_entropy_pixelwise(lp, target)[0]
                   - tc.softmax_cross_entropy_pixelwise(lm, target)[0]) / (2 * h)
            assert abs(grad[0, k, 0, 0] - num) < 1e-8

    def test_out_of_range_class(self):
        with pytest.raises(ValueError):
            tc.softmax_cross_entropy_pixelwise(
                np.zeros((1, 3, 1, 1)), np.array([[[3]]], dtype=np.int64))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_grad_sums_to_zero_over_classes(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((2, 5, 3, 4))
        target = rng.integers(0, 5, (2, 3, 4))
        _, grad = tc.softmax_cross_entropy_pixelwise(logits, target)
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-6)


class TestAdam:
    def test_first_step_closed_form(self):
        p = np.array([1.0, -2.0])
        g = np.array([0.3, -0.1])
        state = tc.AdamState.for_params([p], lr=0.01)
        tc.adam_step([p], [g], state)
        expected = np.array([1.0, -2.0]) - 0.01 * g / (np.abs(g) + state.eps)
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
        spec = tc.ConvSpec(1, 1, (3, 3), pad=1, mode=tc.ZERO)

        def op(x_):
            y, tape = tc.conv2d_forward(x_, w, np.zeros(1), spec)
            return y, lambda g: (tc.conv2d_backward(tape, g)[0],)

        report = tc.gradcheck(op, [x], 1e-8, np.random.default_rng(2))
        assert report.passed
        assert report.max_rel_error < 1e-8

    def test_corrupted_backward_fails(self):
        x = np.random.default_rng(1).standard_normal((1, 2, 4, 4))
        w = np.random.default_rng(2).standard_normal((2, 2, 3, 3))
        spec = tc.ConvSpec(2, 2, (3, 3), pad=1, mode=tc.ZERO)

        def op(x_):
            y, tape = tc.conv2d_forward(x_, w, np.zeros(2), spec)
            return y, lambda g: (tc.conv2d_backward(tape, g)[0] * 1.01,)

        assert not tc.gradcheck(op, [x], 1e-4, np.random.default_rng(3)).passed


def _toy_circular_net(x, weights):
    """pad(circular)+conv stride 1, relu, then one maxpool."""
    y = x
    for w in weights:
        spec = tc.ConvSpec(w.shape[1], w.shape[0], (3, 3), pad=1,
                           mode=tc.CIRCULAR)
        y, _ = tc.conv2d_forward(y, w, np.zeros(w.shape[0], dtype=y.dtype),
                                 spec)
        y = tc.relu(y)
    return tc.maxpool2x2_forward(y).output


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
            y = v
            for w in weights:
                spec = tc.ConvSpec(w.shape[1], w.shape[0], (3, 3), pad=1,
                                   mode=tc.ZERO)
                y, _ = tc.conv2d_forward(
                    y, w, np.zeros(w.shape[0], dtype=y.dtype), spec)
                y = tc.relu(y)
            return tc.maxpool2x2_forward(y).output

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
            y, tape = tc.conv2d_forward(
                x, w, b, tc.ConvSpec(2, 3, (3, 3), pad=1, mode=mode))
            assert np.isfinite(y).all()
            gx, gw, gb = tc.conv2d_backward(tape, np.ones_like(y))
            assert np.isfinite(gx).all()
            assert np.isfinite(gw).all()
            assert np.isfinite(gb).all()

import re

import numpy as np
import pytest

from relprop import ops

from helpers import conv1x1_im2col_reference, maxpool_argmax_reference


def rnd(seed):
    return np.random.default_rng(seed)


class TestConv2d:
    def test_identity_kernel(self):
        x = np.array([[[2.0]]], dtype=np.float32)
        w = np.array([[[[1.0]]]], dtype=np.float32)
        out = ops.conv2d_forward(x, w)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 2.0

    def test_zero_input_gives_bias_planes(self):
        x = np.zeros((2, 4, 4), dtype=np.float32)
        w = rnd(0).normal(size=(3, 2, 3, 3)).astype(np.float32)
        b = np.array([1.5, -2.0, 0.25], dtype=np.float32)
        out = ops.conv2d_forward(x, w, b, stride=1, padding=1)
        for c in range(3):
            assert np.all(out[c] == b[c])

    def test_all_ones_kernel_sums_window(self):
        x = np.arange(1, 10, dtype=np.float32).reshape(1, 3, 3)
        w = np.ones((1, 1, 3, 3), dtype=np.float32)
        out = ops.conv2d_forward(x, w)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 45.0

    def test_matches_direct_summation(self):
        # hand-rolled sliding-window sum as the oracle
        rng = rnd(1)
        x = rng.normal(size=(2, 5, 5)).astype(np.float32)
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        out = ops.conv2d_forward(x, w, stride=2, padding=1)
        xp = np.zeros((2, 7, 7))
        xp[:, 1:6, 1:6] = x
        for co in range(3):
            for oi in range(out.shape[1]):
                for oj in range(out.shape[2]):
                    patch = xp[:, 2 * oi:2 * oi + 3, 2 * oj:2 * oj + 3]
                    want = float((patch * w[co].astype(np.float64)).sum())
                    assert out[co, oi, oj] == pytest.approx(want, rel=1e-6)

    def test_channel_mismatch_names_dimension(self):
        x = np.zeros((2, 4, 4), dtype=np.float32)
        w = np.zeros((3, 5, 3, 3), dtype=np.float32)
        with pytest.raises(ops.ShapeMismatch, match="input channels"):
            ops.conv2d_forward(x, w)

    def test_non_integral_extent_rejected(self):
        x = np.zeros((1, 5, 5), dtype=np.float32)
        w = np.zeros((1, 1, 2, 2), dtype=np.float32)
        with pytest.raises(ops.ShapeMismatch, match="non-integral"):
            ops.conv2d_forward(x, w, stride=2)

    def test_linearity_without_bias(self):
        rng = rnd(2)
        x = rng.normal(size=(2, 6, 6)).astype(np.float32)
        w = rng.normal(size=(4, 2, 3, 3)).astype(np.float32)
        a = np.float32(3.25)
        lhs = ops.conv2d_forward(a * x, w, padding=1)
        rhs = a * ops.conv2d_forward(x, w, padding=1)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("signed_zeros", [False, True])
    def test_pointwise_matches_im2col_reference(self, signed_zeros):
        rng = rnd(9)
        x = rng.normal(size=(8, 6, 5)).astype(np.float32)
        w = rng.normal(size=(4, 8, 1, 1)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        if signed_zeros:
            x = np.where(x < 0, np.float32(-0.0), np.float32(0.0))
            b = None
        out = ops.conv2d_forward(x, w, b)
        want = conv1x1_im2col_reference(x, w, b)
        assert np.array_equal(out, want)
        assert np.array_equal(np.signbit(out), np.signbit(want))

    def test_deterministic(self):
        rng = rnd(3)
        x = rng.normal(size=(3, 8, 8)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        first = ops.conv2d_forward(x, w, padding=1)
        second = ops.conv2d_forward(x, w, padding=1)
        assert np.array_equal(first, second)


class TestMaxPool:
    def test_single_window(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]], dtype=np.float32)
        out, idx = ops.maxpool_forward(x, k=2, stride=2)
        assert out.reshape(-1).tolist() == [4.0]
        assert idx.reshape(-1).tolist() == [3]

    def test_tie_break_lowest_offset(self):
        x = np.full((1, 4, 4), 7.0, dtype=np.float32)
        out, idx = ops.maxpool_forward(x, k=2, stride=2)
        assert np.all(out == 7.0)
        assert idx.reshape(-1).tolist() == [0, 2, 8, 10]

    def test_matches_window_scan(self):
        rng = rnd(4)
        x = rng.normal(size=(1, 4, 4)).astype(np.float32)
        out, _ = ops.maxpool_forward(x, k=2, stride=2)
        for oi in range(2):
            for oj in range(2):
                window = x[0, 2 * oi:2 * oi + 2, 2 * oj:2 * oj + 2]
                assert out[0, oi, oj] == window.max()

    def test_output_is_gather_of_indices(self):
        rng = rnd(5)
        x = rng.normal(size=(3, 6, 6)).astype(np.float32)
        out, idx = ops.maxpool_forward(x, k=3, stride=1, padding=1)
        assert np.array_equal(out.ravel(), x.ravel()[idx.ravel()])

    def test_indices_stay_inside_windows(self):
        rng = rnd(6)
        x = rng.normal(size=(2, 5, 5)).astype(np.float32)
        _, idx = ops.maxpool_forward(x, k=3, stride=2, padding=1)
        c, h, w = x.shape
        for ci in range(idx.shape[0]):
            for oi in range(idx.shape[1]):
                for oj in range(idx.shape[2]):
                    flat = int(idx[ci, oi, oj])
                    assert flat // (h * w) == ci
                    ii, jj = (flat % (h * w)) // w, flat % w
                    assert oi * 2 - 1 <= ii <= oi * 2 + 1
                    assert oj * 2 - 1 <= jj <= oj * 2 + 1

    def test_padding_never_wins(self):
        x = np.full((1, 2, 2), -5.0, dtype=np.float32)
        out, idx = ops.maxpool_forward(x, k=2, stride=2, padding=1)
        # every window contains exactly one real cell; it must win
        assert np.all(out == -5.0)
        assert sorted(idx.ravel().tolist()) == [0, 1, 2, 3]

    def test_all_padding_window_rejected(self):
        x = np.ones((1, 2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="padding"):
            ops.maxpool_forward(x, k=2, stride=2, padding=2)

    @pytest.mark.parametrize("fill,k,padding,message", [
        (1.0, 1, 1, "maxpool window lies entirely in padding"),
        (-np.inf, 2, 0, "maxpool window holds only -inf values"),
        (-np.inf, 2, 1, "maxpool window holds only -inf values")])
    def test_empty_window_message(self, fill, k, padding, message):
        x = np.full((2, 1, 4, 4), fill, dtype=np.float32)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ops.maxpool_forward(x, k=k, stride=2 if k == 2 else 1, padding=padding)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("data", ["normal", "ties", "nan", "signed_zeros", "inf"])
    def test_matches_argmax_reference(self, k, stride, padding, data):
        rng = rnd(40 + k + 3 * stride + 7 * padding)
        h = 6 + k % stride          # (h + 2p - k) must be a multiple of stride
        x = rng.normal(size=(3, h, h + 2 * stride)).astype(np.float32)
        if data == "ties":
            x = np.round(x).astype(np.float32)
        elif data == "nan":
            x[rng.random(x.shape) < 0.2] = np.nan
        elif data == "signed_zeros":
            x = np.where(rng.random(x.shape) < 0.5, np.float32(-0.0), np.float32(0.0))
        elif data == "inf":
            x[rng.random(x.shape) < 0.3] = -np.inf
            x[rng.random(x.shape) < 0.1] = np.inf
        try:
            want, want_idx = maxpool_argmax_reference(x, k, stride, padding)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                ops.maxpool_forward(x, k, stride, padding)
            return
        out, idx = ops.maxpool_forward(x, k, stride, padding)
        assert out.dtype == want.dtype and idx.dtype == want_idx.dtype == np.int64
        assert np.array_equal(out, want, equal_nan=True)
        assert np.array_equal(np.signbit(out), np.signbit(want))
        assert np.array_equal(idx, want_idx)

    def test_nan_wins_at_lowest_offset(self):
        x = np.array([[[1.0, np.nan], [np.nan, 5.0]]], dtype=np.float32)
        out, idx = ops.maxpool_forward(x, k=2, stride=2)
        assert np.isnan(out[0, 0, 0])
        assert idx.reshape(-1).tolist() == [1]


class TestGap:
    def test_small_plane(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]], dtype=np.float32)
        assert ops.gap_forward(x).tolist() == [2.5]

    def test_constant_channels(self):
        x = np.stack([np.full((3, 3), c, dtype=np.float32) for c in (1.0, -2.0)])
        assert ops.gap_forward(x).tolist() == [1.0, -2.0]

    def test_matches_mean_oracle(self):
        rng = rnd(7)
        x = rng.normal(size=(3, 5, 5)).astype(np.float32)
        out = ops.gap_forward(x)
        for c in range(3):
            assert out[c] == pytest.approx(float(x[c].sum(dtype=np.float64)) / 25, rel=1e-6)


class TestFc:
    def test_identity_weight(self):
        x = np.array([1.5, -2.0, 3.0], dtype=np.float32)
        out = ops.fc_forward(x, np.eye(3, dtype=np.float32))
        assert np.array_equal(out, x)

    def test_zero_input_yields_bias(self):
        w = rnd(8).normal(size=(2, 3)).astype(np.float32)
        b = np.array([0.5, -1.0], dtype=np.float32)
        assert np.array_equal(ops.fc_forward(np.zeros(3, dtype=np.float32), w, b), b)

    def test_matches_dot_product(self):
        rng = rnd(9)
        x = rng.normal(size=3).astype(np.float32)
        w = rng.normal(size=(2, 3)).astype(np.float32)
        out = ops.fc_forward(x, w)
        for e in range(2):
            want = sum(float(w[e, i]) * float(x[i]) for i in range(3))
            assert out[e] == pytest.approx(want, rel=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ops.ShapeMismatch, match="expects 4 inputs"):
            ops.fc_forward(np.zeros(3, dtype=np.float32),
                           np.zeros((2, 4), dtype=np.float32))

    def test_linearity_without_bias(self):
        rng = rnd(17)
        x = rng.normal(size=5).astype(np.float32)
        w = rng.normal(size=(3, 5)).astype(np.float32)
        a = np.float32(-1.75)
        np.testing.assert_allclose(ops.fc_forward(a * x, w),
                                   a * ops.fc_forward(x, w), rtol=1e-5, atol=1e-6)


class TestBn:
    def test_identity_params(self):
        x = rnd(10).normal(size=(2, 3, 3)).astype(np.float32)
        ones, zeros = np.ones(2, np.float32), np.zeros(2, np.float32)
        out = ops.bn_forward(x, ones, zeros, zeros, ones, eps=0.0)
        assert np.array_equal(out, x)

    def test_input_at_mean_gives_beta(self):
        mean = np.array([1.0, -2.0], dtype=np.float32)
        beta = np.array([5.0, 7.0], dtype=np.float32)
        x = np.stack([np.full((2, 2), m, dtype=np.float32) for m in mean])
        out = ops.bn_forward(x, np.ones(2, np.float32), beta, mean,
                             np.ones(2, np.float32), eps=1e-5)
        for c in range(2):
            assert np.all(out[c] == beta[c])

    def test_matches_elementwise_oracle(self):
        rng = rnd(11)
        x = rng.normal(size=(3, 4, 4)).astype(np.float32)
        gamma = rng.normal(size=3).astype(np.float32)
        beta = rng.normal(size=3).astype(np.float32)
        mean = rng.normal(size=3).astype(np.float32)
        var = rng.uniform(0.1, 2.0, size=3).astype(np.float32)
        out = ops.bn_forward(x, gamma, beta, mean, var, eps=1e-5)
        want = (x - mean[:, None, None]) / np.sqrt(var + 1e-5)[:, None, None] \
            * gamma[:, None, None] + beta[:, None, None]
        np.testing.assert_allclose(out, want, atol=1e-6)

    def test_negative_var_rejected(self):
        x = np.zeros((1, 2, 2), dtype=np.float32)
        one, zero = np.ones(1, np.float32), np.zeros(1, np.float32)
        with pytest.raises(ValueError, match="non-negative"):
            ops.bn_forward(x, one, zero, zero, -one, eps=1e-5)


class TestReluSoftmax:
    def test_relu_values(self):
        out = ops.relu_forward(np.array([-1.0, 0.0, 2.0], dtype=np.float32))
        assert out.tolist() == [0.0, 0.0, 2.0]

    def test_relu_all_negative(self):
        assert np.all(ops.relu_forward(-np.ones((2, 2), np.float32)) == 0.0)

    def test_relu_idempotent(self):
        x = rnd(12).normal(size=(4, 4)).astype(np.float32)
        once = ops.relu_forward(x)
        assert np.array_equal(ops.relu_forward(once), once)

    def test_softmax_uniform(self):
        assert ops.softmax(np.zeros(2, np.float32)).tolist() == [0.5, 0.5]

    def test_softmax_shift_invariant(self):
        rng = rnd(13)
        logits = rng.normal(size=6).astype(np.float32)
        shifted = ops.softmax(logits + np.float32(37.0))
        np.testing.assert_allclose(ops.softmax(logits), shifted, atol=1e-6)

    def test_softmax_matches_normalized_exponential(self):
        logits = np.log(np.array([1.0, 2.0, 3.0], dtype=np.float32))
        np.testing.assert_allclose(ops.softmax(logits), [1 / 6, 2 / 6, 3 / 6], atol=1e-6)

    def test_softmax_sums_to_one_for_large_logits(self):
        rng = rnd(14)
        for _ in range(25):
            logits = rng.uniform(-100, 100, size=rng.integers(2, 12)).astype(np.float32)
            probs = ops.softmax(logits)
            assert np.all(probs >= 0) and np.all(probs <= 1)
            assert abs(float(probs.sum(dtype=np.float64)) - 1.0) < 1e-6

    def test_softmax_open_interval_for_moderate_logits(self):
        rng = rnd(16)
        for _ in range(25):
            logits = rng.uniform(-5, 5, size=rng.integers(2, 12)).astype(np.float32)
            probs = ops.softmax(logits)
            assert np.all(probs > 0) and np.all(probs < 1)

    def test_outputs_stay_finite(self):
        rng = rnd(15)
        x = rng.normal(size=(3, 6, 6)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        assert np.isfinite(ops.conv2d_forward(x, w, padding=1)).all()
        assert np.isfinite(ops.softmax(rng.normal(size=9).astype(np.float32))).all()


class TestDeterminism:
    def test_every_forward_op_bit_stable(self):
        rng = rnd(18)
        x = rng.normal(size=(2, 4, 4)).astype(np.float32)
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        gamma, beta = np.ones(2, np.float32), np.zeros(2, np.float32)
        mean, var = np.zeros(2, np.float32), np.ones(2, np.float32)
        v = rng.normal(size=4).astype(np.float32)
        fw = rng.normal(size=(3, 4)).astype(np.float32)

        runs = []
        for _ in range(2):
            pooled, idx = ops.maxpool_forward(x, 2, 2)
            runs.append((
                ops.conv2d_forward(x, w, padding=1),
                pooled, idx,
                ops.gap_forward(x),
                ops.fc_forward(v, fw),
                ops.bn_forward(x, gamma, beta, mean, var, 1e-5),
                ops.relu_forward(x),
                ops.softmax(v),
            ))
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfonn_kit import ops
from selfonn_kit.model import ModelConfig, build_model, model_forward, power_stack
from reference import (conv2d_valid_loops, conv2d_backward_input_loops,
                       conv2d_backward_weights_loops, elementwise_pow,
                       maxpool2x2_loops, central_difference, relative_error)


def rng(seed=0):
    return np.random.default_rng(seed)


# Shared strategy for small convolution cases.
conv_cases = st.tuples(
    st.integers(1, 3),   # cin
    st.integers(1, 3),   # cout
    st.integers(1, 3),   # kh
    st.integers(1, 3),   # kw
    st.integers(0, 4),   # extra rows beyond kh
    st.integers(0, 4),   # extra cols beyond kw
    st.integers(0, 2 ** 31 - 1),
)


class TestConvForward:
    def test_identity_kernel(self):
        x = rng(1).standard_normal((1, 4, 5))
        k = np.ones((1, 1, 1, 1))
        assert np.array_equal(ops.conv2d_valid(x, k), x)

    def test_hand_case(self):
        # 2x2 mean kernel over a 3x3 ramp
        x = np.arange(9, dtype=np.float64).reshape(1, 3, 3)
        k = np.full((1, 1, 2, 2), 0.25)
        out = ops.conv2d_valid(x, k)
        assert out.shape == (1, 2, 2)
        assert np.allclose(out[0], [[2.0, 3.0], [5.0, 6.0]])

    def test_bias_broadcast(self):
        x = rng(2).standard_normal((2, 5, 5))
        k = rng(3).standard_normal((3, 2, 2, 2))
        b = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(ops.conv2d_valid(x, k, b),
                              ops.conv2d_valid(x, k) + b[:, None, None])

    @settings(max_examples=40, deadline=None)
    @given(conv_cases)
    def test_matches_loop_oracle(self, case):
        cin, cout, kh, kw, eh, ew, seed = case
        r = rng(seed)
        x = r.standard_normal((cin, kh + eh, kw + ew))
        k = r.standard_normal((cout, cin, kh, kw))
        b = r.standard_normal(cout)
        got = ops.conv2d_valid(x, k, b)
        want = conv2d_valid_loops(x, k, b)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    # A Q=3 power-stack input whose output rows span several bands plus a
    # remainder band, and one whose output fits in a single band.
    @pytest.mark.parametrize("h,w,several_bands", [(21, 121, True),
                                                   (9, 12, False)])
    def test_bands_match_loop_oracle(self, h, w, several_bands):
        r = rng(21)
        x = power_stack(r.random((1, h, w)), 3)
        k = r.standard_normal((2, 3, 5, 5))
        b = r.standard_normal(2)
        rows = ops._band_rows(3 * 5 * 5, w - 4)
        if several_bands:
            assert rows < h - 4 and (h - 4) % rows
        else:
            assert rows >= h - 4
        got = ops.conv2d_valid(x, k, b)
        assert np.allclose(got, conv2d_valid_loops(x, k, b),
                           rtol=1e-12, atol=1e-12)
        # Band widths keep whole GEMM column blocks, so banding moves no bit.
        whole = (k.reshape(2, -1) @ ops._im2col(x, 5, 5)).reshape(got.shape)
        assert np.array_equal(got, whole + b[:, None, None])


class TestConvBackward:
    @settings(max_examples=40, deadline=None)
    @given(conv_cases)
    def test_weights_matches_loop_oracle(self, case):
        cin, cout, kh, kw, eh, ew, seed = case
        r = rng(seed)
        x = r.standard_normal((cin, kh + eh, kw + ew))
        g = r.standard_normal((cout, eh + 1, ew + 1))
        got = ops.conv2d_backward_weights(x, g)
        assert got.shape == (cout, cin, kh, kw)
        assert np.allclose(got, conv2d_backward_weights_loops(x, g),
                           rtol=1e-12, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(conv_cases)
    def test_input_matches_loop_oracle(self, case):
        cin, cout, kh, kw, eh, ew, seed = case
        r = rng(seed)
        k = r.standard_normal((cout, cin, kh, kw))
        g = r.standard_normal((cout, eh + 1, ew + 1))
        got = ops.conv2d_backward_input(k, g)
        assert got.shape == (cin, kh + eh, kw + ew)
        assert np.allclose(got, conv2d_backward_input_loops(k, g),
                           rtol=1e-12, atol=1e-12)

    def test_adjoint_identity(self):
        # <conv(x), g> == <x, conv_input_adjoint(g)> for random tensors
        r = rng(17)
        x = r.standard_normal((2, 6, 7))
        k = r.standard_normal((3, 2, 3, 2))
        g = r.standard_normal((3, 4, 6))
        lhs = np.sum(ops.conv2d_valid(x, k) * g)
        rhs = np.sum(x * ops.conv2d_backward_input(k, g))
        assert np.isclose(lhs, rhs, rtol=1e-12)
        mid = np.sum(k * ops.conv2d_backward_weights(x, g))
        assert np.isclose(lhs, mid, rtol=1e-12)


class TestElementwisePow:
    """The power-stack oracle in reference.py that test_model compares against."""

    def test_first_power_is_copy(self):
        t = rng(0).standard_normal((2, 3))
        out = elementwise_pow(t, 1)
        assert np.array_equal(out, t)
        out[0, 0] = 99.0
        assert t[0, 0] != 99.0

    def test_cube(self):
        t = np.array([-2.0, 0.5, 3.0])
        assert np.array_equal(elementwise_pow(t, 3), t * t * t)

    @pytest.mark.parametrize("q", [0, -1, -5])
    def test_rejects_non_positive(self, q):
        with pytest.raises(ValueError, match="positive integer"):
            elementwise_pow(np.ones(3), q)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
    def test_matches_numpy_power(self, q, seed):
        t = rng(seed).uniform(-2, 2, size=(3, 4))
        assert np.allclose(elementwise_pow(t, q), np.power(t, q), rtol=1e-14)


class TestTanh:
    def test_range_and_odd_symmetry(self):
        t = rng(3).standard_normal((4, 4)) * 5
        a = ops.tanh_forward(t)
        assert np.all(np.abs(a) < 1.0)
        assert np.allclose(ops.tanh_forward(-t), -a)

    def test_backward_matches_finite_difference(self):
        t = rng(4).standard_normal(20)
        a = ops.tanh_forward(t)
        g = rng(5).standard_normal(20)
        got = ops.tanh_backward(a, g)
        for i in range(20):
            num = central_difference(lambda: float(np.sum(np.tanh(t) * g)), t, i)
            assert relative_error(got[i], num) < 1e-7


def scatter_through_oracle(grad_out, x):
    """Pool gradient routed through maxpool2x2_loops' argmax index map."""
    _, indices = maxpool2x2_loops(x)
    flat = np.zeros(x.size)
    flat[indices.ravel()] = grad_out.ravel()
    return flat.reshape(x.shape)


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestMaxPool:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(2, 9), st.integers(2, 9),
           st.integers(0, 2 ** 31 - 1), st.sampled_from(["random", "ties", "inf"]))
    def test_matches_loop_oracle(self, c, h, w, seed, kind):
        r = rng(seed)
        x = r.standard_normal((c, h, w))
        if kind == "ties":
            x = np.round(x)  # plenty of ties, including +0.0 against -0.0
        elif kind == "inf":  # +-inf cells, tied +inf among them
            x = np.where(r.random(x.shape) < 0.4, np.copysign(np.inf, x), np.round(x))
            x[:, :2, :2] = -np.inf  # one window with no cell above -inf
        want_pooled, _ = maxpool2x2_loops(x)
        assert_same_bits(ops.maxpool2x2(x), want_pooled)
        g = r.standard_normal(want_pooled.shape)
        g.flat[0] = -0.0  # a signed-zero gradient must arrive as is
        assert_same_bits(ops.maxpool2x2_backward(g, x),
                         scatter_through_oracle(g, x))

    def test_odd_edges_dropped(self):
        x = np.arange(15, dtype=np.float64).reshape(1, 3, 5)
        pooled = ops.maxpool2x2(x)
        assert pooled.shape == (1, 1, 2)
        assert np.array_equal(pooled[0], [[6.0, 8.0]])
        back = ops.maxpool2x2_backward(np.array([[[2.0, 3.0]]]), x)
        want = np.zeros((1, 3, 5))
        want[0, 1, 1], want[0, 1, 3] = 2.0, 3.0
        assert_same_bits(back, want)

    def test_backward_scatters_to_argmax(self):
        # Three channels, odd height and width, quantized values full of ties.
        r = rng(8)
        x = np.round(r.standard_normal((3, 7, 9)) * 0.7)
        g = r.standard_normal((3, 3, 4))
        assert_same_bits(ops.maxpool2x2_backward(g, x),
                         scatter_through_oracle(g, x))

    def test_constant_window_routes_to_top_left(self):
        x = np.full((2, 4, 4), 0.25)
        g = rng(9).standard_normal((2, 2, 2))
        back = ops.maxpool2x2_backward(g, x)
        assert_same_bits(back[:, 0::2, 0::2], g)
        for a, b in ((0, 1), (1, 0), (1, 1)):
            assert_same_bits(back[:, a::2, b::2], np.zeros((2, 2, 2)))


class TestPoolBeforeTanh:
    """A block pools its pre-activation and then applies tanh, which is
    bitwise the tanh-then-pool order wherever np.tanh is monotone."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([(), (1,), (3,)]), st.integers(1, 3), st.integers(2, 9),
           st.integers(2, 9), st.sampled_from(["random", "ties", "saturated"]),
           st.integers(0, 2 ** 31 - 1))
    def test_forward_matches_tanh_then_pool(self, lead, c, h, w, kind, seed):
        r = rng(seed)
        a = r.standard_normal((*lead, c, h, w))
        if kind == "ties":
            a = np.round(a)  # exact ties, including +0.0 against -0.0
        elif kind == "saturated":  # |a| > 20: every tanh is +-1.0
            a = np.sign(a) * r.uniform(20.0, 40.0, a.shape)
        pooled = ops.maxpool2x2(a)
        got = ops.tanh_forward(pooled, out=pooled)
        assert_same_bits(got, ops.maxpool2x2(ops.tanh_forward(a)))
        for ai, gi in zip(a.reshape(-1, c, h, w), got.reshape(-1, c, h // 2, w // 2)):
            assert_same_bits(gi, maxpool2x2_loops(np.tanh(ai))[0])

    def test_one_ulp_tanh_inversion(self):
        # np.tanh is not monotone on this neighbour pair: tanh(x) > tanh(y)
        # although x < y. Pooling first gives the tanh of the true max, one
        # ulp below tanh-then-pool.
        x = -0.12472553287111468
        y = np.nextafter(x, np.inf)
        a = np.array([[[x, y], [x, x]]])
        t = np.tanh(a)
        assert t[0, 0, 0] > t[0, 0, 1]
        got = ops.tanh_forward(ops.maxpool2x2(a))
        assert_same_bits(got, np.tanh(np.array([[[y]]])))
        assert got[0, 0, 0] == np.nextafter(ops.maxpool2x2(t)[0, 0, 0], -np.inf)


class TestDense:
    def test_forward_is_affine(self):
        r = rng(11)
        w = r.standard_normal((3, 5))
        b = r.standard_normal(3)
        x = r.standard_normal(5)
        assert np.allclose(ops.dense_forward(x, w, b), w @ x + b)

    def test_backward_finite_difference(self):
        r = rng(12)
        w = r.standard_normal((3, 4))
        b = r.standard_normal(3)
        x = r.standard_normal(4)
        g = r.standard_normal(3)
        gx, gw, gb = ops.dense_backward(x, w, g)

        def loss():
            return float(np.sum(ops.dense_forward(x, w, b) * g))

        for i in range(4):
            assert relative_error(gx[i], central_difference(loss, x, i)) < 1e-7
        flat_w = w.reshape(-1)
        for i in range(flat_w.size):
            assert relative_error(gw.reshape(-1)[i],
                                  central_difference(loss, flat_w, i)) < 1e-7
        for i in range(3):
            assert relative_error(gb[i], central_difference(loss, b, i)) < 1e-7


class TestSoftmaxCrossEntropy:
    @staticmethod
    def softmax(logits):
        """softmax(logits), read off the loss gradient: grad + onehot(0)."""
        _, grad = ops.cross_entropy_with_softmax(logits, 0)
        grad[0] += 1.0
        return grad

    def test_frozen_softmax_values(self):
        got = self.softmax(np.array([1.0, 2.0, 3.0]))
        want = np.array([0.09003057317038046,
                         0.24472847105479764,
                         0.6652409557748219])
        assert np.allclose(got, want, atol=1e-15)

    def test_shift_invariance_and_sum(self):
        r = rng(13)
        z = r.standard_normal(5) * 10
        p = self.softmax(z)
        assert np.isclose(p.sum(), 1.0)
        assert np.allclose(self.softmax(z + 123.0), p, atol=1e-15)

    def test_extreme_logits_stay_finite(self):
        z = np.array([1e4, -1e4, 0.0])
        p = self.softmax(z)
        assert np.all(np.isfinite(p))
        assert np.isclose(p[0], 1.0)
        for target in range(3):
            loss, grad = ops.cross_entropy_with_softmax(z, target)
            assert np.isfinite(loss) and np.all(np.isfinite(grad))

    def test_uniform_logits_loss_is_log_k(self):
        loss, grad = ops.cross_entropy_with_softmax(np.zeros(3), 1)
        assert np.isclose(loss, 1.0986122886681098, atol=1e-15)
        assert np.allclose(grad, [1 / 3, -2 / 3, 1 / 3])

    def test_gradient_matches_finite_difference(self):
        z = rng(14).standard_normal(4)
        _, grad = ops.cross_entropy_with_softmax(z, 2)
        for i in range(4):
            num = central_difference(
                lambda: ops.cross_entropy_with_softmax(z, 2)[0], z, i)
            assert relative_error(grad[i], num) < 1e-7

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            ops.cross_entropy_with_softmax(np.zeros(3), 3)
        with pytest.raises(ValueError):
            ops.cross_entropy_with_softmax(np.zeros(3), -1)


class TestBatchedOps:
    """[N, C, H, W] inputs: every sample as its loop oracle and as its own call."""

    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("h,w", [(9, 12), (8, 11), (21, 121)])
    def test_conv_on_power_stacks(self, n, h, w):
        r = rng(31)
        x = power_stack(r.random((n, 1, h, w)), 3)
        rows = ops._band_rows(n * 3 * 5 * 5, w - 4)
        if h == 21:  # several bands plus a remainder band
            assert rows < h - 4 and (h - 4) % rows
        k = r.standard_normal((2, 3, 5, 5))
        b = r.standard_normal(2)
        got = ops.conv2d_valid(x, k, b)
        assert got.shape == (n, 2, h - 4, w - 4)
        for xi, gi in zip(x, got):
            assert np.allclose(gi, conv2d_valid_loops(xi, k, b),
                               rtol=1e-12, atol=1e-12)
            assert np.array_equal(gi, ops.conv2d_valid(xi, k, b))

    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("h,w", [(9, 12), (8, 11), (21, 121)])
    def test_conv_adjoints_on_power_stacks(self, n, h, w):
        r = rng(38)
        x = power_stack(r.random((n, 1, h, w)), 3)
        k = r.standard_normal((2, 3, 5, 5))
        g = r.standard_normal((n, 2, h - 4, w - 4))
        rows = ops._band_step(w - 4)
        if h == 21:  # several weight-adjoint bands plus a remainder band
            assert rows < h - 4 and (h - 4) % rows
        grad_k = ops.conv2d_backward_weights(x, g)
        grad_x = ops.conv2d_backward_input(k, g)
        assert grad_k.shape == (n, 2, 3, 5, 5) and grad_x.shape == x.shape
        for xi, gi, gki, gxi in zip(x, g, grad_k, grad_x):
            assert np.allclose(gki, conv2d_backward_weights_loops(xi, gi),
                               rtol=1e-12, atol=1e-12)
            assert np.allclose(gxi, conv2d_backward_input_loops(k, gi),
                               rtol=1e-12, atol=1e-12)
            assert np.array_equal(gki, ops.conv2d_backward_weights(xi, gi))
            assert np.array_equal(gxi, ops.conv2d_backward_input(k, gi))

    def test_power_stack(self):
        x = rng(32).uniform(-2, 2, size=(5, 2, 7, 9))
        stack = power_stack(x, 3)
        assert stack.shape == (5, 6, 7, 9)
        for xi, si in zip(x, stack):
            assert np.array_equal(si, power_stack(xi, 3))
            assert np.array_equal(si[:2], xi)
            assert np.array_equal(si[2:4], xi * xi)
            assert np.array_equal(si[4:], xi * xi * xi)

    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("h,w", [(7, 9), (6, 8)])
    def test_pool_forward_and_backward(self, n, h, w):
        r = rng(33)
        x = np.round(r.standard_normal((n, 3, h, w)))  # ties, +0.0 and -0.0
        pooled = ops.maxpool2x2(x)
        g = r.standard_normal(pooled.shape)
        back = ops.maxpool2x2_backward(g, x)
        for xi, pi, gi, bi in zip(x, pooled, g, back):
            assert_same_bits(pi, maxpool2x2_loops(xi)[0])
            assert_same_bits(bi, scatter_through_oracle(gi, xi))

    @pytest.mark.parametrize("n", [1, 5])
    def test_dense_head(self, n):
        r = rng(34)
        w = r.standard_normal((4, 7))
        b = r.standard_normal(4)
        x = r.standard_normal((n, 7))
        g = r.standard_normal((n, 4))
        out = ops.dense_forward(x, w, b)
        gx, gw, gb = ops.dense_backward(x, w, g)
        assert gw.shape == (n, 4, 7) and gb.shape == (n, 4)
        for i in range(n):
            assert np.array_equal(out[i], ops.dense_forward(x[i], w, b))
            assert np.allclose(out[i], w @ x[i] + b, rtol=1e-14)
            single = ops.dense_backward(x[i], w, g[i])
            for batched, alone in zip((gx[i], gw[i], gb[i]), single):
                assert np.array_equal(batched, alone)
            assert np.array_equal(gw[i], np.outer(g[i], x[i]))
            assert np.allclose(gx[i], w.T @ g[i], rtol=1e-14)

    def test_tanh_in_place(self):
        t = rng(35).standard_normal((5, 2, 3, 4))
        a = ops.tanh_forward(t)
        g = rng(36).standard_normal(t.shape)
        want = g * (1.0 - a * a)
        assert np.array_equal(ops.tanh_backward(a, g), want)
        assert ops.tanh_forward(t, out=t) is t and np.array_equal(t, a)
        assert ops.tanh_backward(a, g, out=a) is a and np.array_equal(a, want)

    def test_cross_entropy(self):
        r = rng(37)
        logits = r.standard_normal((6, 3)) * 4
        targets = r.integers(0, 3, 6)
        losses, grads = ops.cross_entropy_with_softmax(logits, targets)
        assert losses.shape == (6,) and grads.shape == (6, 3)
        for i in range(6):
            loss, grad = ops.cross_entropy_with_softmax(logits[i], int(targets[i]))
            assert isinstance(loss, float) and loss == losses[i]
            assert np.array_equal(grad, grads[i])
        with pytest.raises(ValueError):
            ops.cross_entropy_with_softmax(logits, np.full(6, 3))
        with pytest.raises(ops.DimensionError):
            ops.cross_entropy_with_softmax(logits, 1)

    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 5])
    def test_logits_do_not_depend_on_the_batch(self, q, n):
        cfg = ModelConfig(q_order=q, input_shape=(1, 27, 33), block_filters=(3, 2),
                          kernel_sizes=(5, 3), dense_units=6, classes=3)
        net = build_model(cfg, 40 + q)
        x = rng(41).random((n, *cfg.input_shape))
        logits, _ = model_forward(net, x)
        assert logits.shape == (n, 3)
        for xi, li in zip(x, logits):
            alone, _ = model_forward(net, xi)
            assert alone.shape == (3,)
            assert np.array_equal(li, alone)

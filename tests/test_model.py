import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfonn_kit import model as sm
from selfonn_kit import ops
from reference import central_difference, elementwise_pow, relative_error

FULL = sm.ModelConfig()
REDUCED = sm.ModelConfig(q_order=2, input_shape=(1, 16, 16),
                         block_filters=(2, 2, 2), kernel_sizes=(3, 2, 2),
                         dense_units=4)


def reduced(q):
    return sm.ModelConfig(q_order=q, input_shape=(1, 16, 16),
                          block_filters=(2, 2, 2), kernel_sizes=(3, 2, 2),
                          dense_units=4)


class TestConfig:
    def test_default_feature_chain(self):
        chain = sm.feature_map_chain(FULL)
        assert chain == [(8, 126, 158), (8, 62, 78), (8, 30, 38)]

    def test_flatten_width(self):
        c, h, w = sm.feature_map_chain(FULL)[-1]
        assert c * h * w == 9120

    @pytest.mark.parametrize("q,count", [(1, 293027), (2, 294083),
                                         (3, 295139), (4, 296195),
                                         (5, 297251)])
    def test_param_count_at_full_scale(self, q, count):
        assert sm.param_count(sm.ModelConfig(q_order=q)) == count

    @pytest.mark.parametrize("q,count", [(1, 83), (2, 139), (3, 195)])
    def test_param_count_reduced_hand_tally(self, q, count):
        # 16x16 -> 14 -> 7 -> 6 -> 3 -> 2 -> 1, flatten 2, dense 4, out 3:
        # per q: 2*9 + 2 + 2*2*4 + 2 + 2*2*4 + 2 = 56; fixed: 8+4+12+3 = 27.
        assert sm.param_count(reduced(q)) == count

    def test_chain_death_raises(self):
        with pytest.raises(sm.ConfigError):
            sm.ModelConfig(input_shape=(1, 16, 16), block_filters=(2, 2, 2),
                           kernel_sizes=(5, 3, 2), dense_units=4)

    # The ops do not check shapes; the config must name the block that dies.
    @pytest.mark.parametrize("shape,kernels,message", [
        ((1, 2, 9), (3,), "2x9 map too small for a 3x3 kernel"),
        ((1, 12, 12), (5, 4), "1x1 map too small to 2x2-pool"),
    ])
    def test_chain_death_names_the_stage(self, shape, kernels, message):
        with pytest.raises(sm.ConfigError, match=message):
            sm.ModelConfig(input_shape=shape, block_filters=(2,) * len(kernels),
                           kernel_sizes=kernels, dense_units=4)

    @pytest.mark.parametrize("kwargs", [
        dict(q_order=0),
        dict(block_filters=(8, 8), kernel_sizes=(5, 3, 2)),
        dict(dense_units=0),
        dict(classes=1),
        dict(input_shape=(0, 4, 4)),
    ])
    def test_invalid_configs(self, kwargs):
        with pytest.raises(sm.ConfigError):
            sm.ModelConfig(**kwargs)

    def test_view_sizes_sum_to_count(self):
        m = sm.build_model(REDUCED, 0)
        total = sum(b.kernels.size + b.biases.size for b in m.blocks)
        total += m.hidden.weights.size + m.hidden.bias.size
        total += m.output.weights.size + m.output.bias.size
        assert total == m.n_params == sm.param_count(REDUCED)


class TestModelBuffer:
    def test_views_alias_flat(self):
        m = sm.build_model(REDUCED, 1)
        m.flat[:] = 0.0
        m.blocks[0].kernels[0, 0, 0, 0, 0] = 7.5
        assert m.flat[0] == 7.5
        m.hidden.bias[:] = 2.0
        assert np.count_nonzero(m.flat == 2.0) >= 4

    def test_flatten_is_a_copy(self):
        m = sm.build_model(REDUCED, 1)
        snap = m.flatten()
        m.flat += 1.0
        assert not np.array_equal(snap, m.flat)
        m.load_flat(snap)
        assert np.array_equal(snap, m.flat)

    def test_load_flat_shape_check(self):
        m = sm.build_model(REDUCED, 1)
        with pytest.raises(ops.DimensionError):
            m.load_flat(np.zeros(m.n_params + 1))

    def test_from_flat_rejects_wrong_length(self):
        with pytest.raises(ops.DimensionError):
            sm.Model.from_flat(REDUCED, np.zeros(10))

    def test_build_deterministic(self):
        a = sm.build_model(REDUCED, 42)
        b = sm.build_model(REDUCED, 42)
        c = sm.build_model(REDUCED, 43)
        assert np.array_equal(a.flat, b.flat)
        assert not np.array_equal(a.flat, c.flat)

    def test_biases_start_at_zero(self):
        m = sm.build_model(REDUCED, 5)
        for blk in m.blocks:
            assert np.all(blk.biases == 0.0)
        assert np.all(m.hidden.bias == 0.0)
        assert np.all(m.output.bias == 0.0)


class TestGenerativeLayer:
    def test_power_stack_contents(self):
        x = np.array([[[2.0, -1.0], [0.5, 3.0]]])
        stack = sm.power_stack(x, 3)
        assert stack.shape == (3, 2, 2)
        assert np.array_equal(stack[0], x[0])
        assert np.array_equal(stack[1], x[0] * x[0])
        assert np.array_equal(stack[2], x[0] * x[0] * x[0])

    def test_q1_forward_is_plain_convolution_bitwise(self):
        r = np.random.default_rng(6)
        for _ in range(20):
            cin, cout, k = r.integers(1, 4), r.integers(1, 4), r.integers(1, 3)
            h, w = k + r.integers(0, 5), k + r.integers(0, 5)
            layer = sm.SelfOnnLayerParams(
                r.standard_normal((1, cout, cin, k, k)),
                r.standard_normal((1, cout)))
            x = r.standard_normal((cin, h, w))
            got = sm.selfonn_forward(layer, x)
            want = ops.conv2d_valid(x, layer.kernels[0], layer.biases[0])
            assert np.array_equal(got, want)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 2 ** 31 - 1))
    def test_forward_matches_per_term_sum(self, q, seed):
        r = np.random.default_rng(seed)
        layer = sm.SelfOnnLayerParams(r.standard_normal((q, 2, 2, 2, 2)),
                                      r.standard_normal((q, 2)))
        x = r.uniform(-1, 1, size=(2, 5, 6))
        got = sm.selfonn_forward(layer, x)
        want = sum(ops.conv2d_valid(elementwise_pow(x, qi + 1),
                                    layer.kernels[qi], layer.biases[qi])
                   for qi in range(q))
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_backward_rejects_stale_stack(self):
        r = np.random.default_rng(0)
        layer = sm.SelfOnnLayerParams(r.standard_normal((2, 1, 1, 2, 2)),
                                      np.zeros((2, 1)))
        with pytest.raises(ops.ConsistencyError):
            sm.selfonn_backward(layer, np.zeros((3, 4, 4)), np.zeros((1, 3, 3)))

    def test_layer_param_validation(self):
        with pytest.raises(ops.DimensionError):
            sm.SelfOnnLayerParams(np.zeros((2, 3, 1, 2, 2)), np.zeros((2, 4)))
        with pytest.raises(ops.DimensionError):
            sm.SelfOnnLayerParams(np.zeros((2, 3, 2, 2)), np.zeros((2, 3)))


class TestFullModel:
    def test_forward_shapes_and_cache(self):
        m = sm.build_model(REDUCED, 3)
        x = np.random.default_rng(0).random(REDUCED.input_shape)
        logits, cache = sm.model_forward(m, x, train_mode=True)
        assert logits.shape == (3,)
        assert len(cache.blocks) == 3
        logits2, no_cache = sm.model_forward(m, x)
        assert no_cache is None
        assert np.array_equal(logits, logits2)

    def test_input_shape_gate(self):
        m = sm.build_model(REDUCED, 3)
        with pytest.raises(ops.DimensionError):
            sm.model_forward(m, np.zeros((1, 16, 17)))

    def test_backward_needs_matching_cache(self):
        m = sm.build_model(REDUCED, 3)
        with pytest.raises(ops.ConsistencyError):
            sm.model_backward(m, None, np.zeros(3))

    def test_backward_consumes_the_cache(self):
        m = sm.build_model(REDUCED, 3)
        x = np.random.default_rng(0).random(REDUCED.input_shape)
        logits, cache = sm.model_forward(m, x, train_mode=True)
        _, g = ops.cross_entropy_with_softmax(logits, 1)
        sm.model_backward(m, cache, g)
        with pytest.raises(ops.ConsistencyError, match="already used"):
            sm.model_backward(m, cache, g)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_batch_backward_matches_single_images(self, q):
        cfg = reduced(q)
        m = sm.build_model(cfg, 30 + q)
        r = np.random.default_rng(6)
        x = r.uniform(-1, 1, size=(3, *cfg.input_shape))
        y = np.array([0, 2, 1])
        total = np.zeros_like(m.flat)
        singles = []
        for xi, yi in zip(x, y):
            logits, cache = sm.model_forward(m, xi, train_mode=True)
            _, g = ops.cross_entropy_with_softmax(logits, int(yi))
            grads, grad_in = sm.model_backward(m, cache, g)
            total += grads
            singles.append(grad_in)
        for input_grad in (True, False):
            logits, cache = sm.model_forward(m, x, train_mode=True)
            _, g = ops.cross_entropy_with_softmax(logits, y)
            grads, grad_in = sm.model_backward(m, cache, g, input_grad=input_grad)
            assert np.array_equal(grads, total)
            if input_grad:
                assert grad_in.shape == x.shape
                for got, want in zip(grad_in, singles):
                    assert np.array_equal(got, want)
            else:
                assert grad_in is None

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_gradients_match_finite_differences(self, q):
        cfg = reduced(q)
        m = sm.build_model(cfg, 11 + q)
        r = np.random.default_rng(5)
        x = r.uniform(-1, 1, size=cfg.input_shape)

        def loss_now():
            logits, _ = sm.model_forward(m, x)
            return ops.cross_entropy_with_softmax(logits, 1)[0]

        logits, cache = sm.model_forward(m, x, train_mode=True)
        _, g = ops.cross_entropy_with_softmax(logits, 1)
        grads, grad_in = sm.model_backward(m, cache, g)
        picks = r.choice(m.n_params, size=50, replace=False)
        for i in picks:
            num = central_difference(loss_now, m.flat, int(i))
            assert relative_error(grads[i], num) < 1e-4
        flat_x = x.reshape(-1)
        flat_g = grad_in.reshape(-1)
        for i in r.choice(flat_x.size, size=25, replace=False):
            num = central_difference(loss_now, flat_x, int(i))
            assert relative_error(flat_g[i], num) < 1e-4


class TestWeightFiles:
    def roundtrip(self, m):
        buf = io.BytesIO()
        sm.save_weights(m, buf)
        buf.seek(0)
        return buf

    def test_roundtrip_bitwise(self, tmp_path):
        m = sm.build_model(REDUCED, 21)
        path = tmp_path / "w.sonn"
        sm.save_weights(m, path)
        loaded = sm.load_weights(path, REDUCED)
        assert loaded.config == REDUCED
        assert np.array_equal(loaded.flat, m.flat)

    def test_golden_file_bytes(self):
        # Pins the header, the flat layout order and the init draw order.
        raw = self.roundtrip(sm.build_model(REDUCED, 21)).getvalue()
        assert len(raw) == 1152
        assert hashlib.sha256(raw).hexdigest() == (
            "45747747cea069dd4dcb253599c95d3ee0751f491d9afaaa4dc172dfe64a7a94")

    def test_load_without_expected_config(self):
        m = sm.build_model(reduced(3), 2)
        loaded = sm.load_weights(self.roundtrip(m))
        assert loaded.config == reduced(3)
        assert np.array_equal(loaded.flat, m.flat)

    def test_bad_magic(self):
        m = sm.build_model(REDUCED, 2)
        raw = bytearray(self.roundtrip(m).getvalue())
        raw[:4] = b"JUNK"
        with pytest.raises(sm.WeightHeaderError, match="magic"):
            sm.load_weights(io.BytesIO(bytes(raw)))

    def test_bad_version(self):
        m = sm.build_model(REDUCED, 2)
        raw = bytearray(self.roundtrip(m).getvalue())
        raw[4] = 9
        with pytest.raises(sm.WeightHeaderError, match="version"):
            sm.load_weights(io.BytesIO(bytes(raw)))

    @pytest.mark.parametrize("cut", [0, 3, 10, 20])
    def test_truncation_detected(self, cut):
        m = sm.build_model(REDUCED, 2)
        raw = self.roundtrip(m).getvalue()
        for upto in (cut, len(raw) - 8):
            with pytest.raises(sm.WeightTruncatedError):
                sm.load_weights(io.BytesIO(raw[:upto]))

    def test_config_mismatch(self):
        m = sm.build_model(REDUCED, 2)
        with pytest.raises(sm.WeightConfigMismatch):
            sm.load_weights(self.roundtrip(m), reduced(3))

    def test_non_finite_payload_rejected(self):
        m = sm.build_model(REDUCED, 2)
        m.flat[5] = np.inf
        with pytest.raises(sm.WeightFileError, match="non-finite"):
            sm.load_weights(self.roundtrip(m))

    def test_declared_count_must_match_config(self):
        m = sm.build_model(REDUCED, 2)
        raw = bytearray(self.roundtrip(m).getvalue())
        # parameter count lives in the 8 bytes before the payload
        header_len = len(raw) - 8 * m.n_params
        raw[header_len - 8:header_len] = (m.n_params + 1).to_bytes(8, "little")
        with pytest.raises(sm.WeightHeaderError, match="declares"):
            sm.load_weights(io.BytesIO(bytes(raw)))

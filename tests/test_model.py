import dataclasses
import hashlib
import io
import tracemalloc

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
        # a .sonn header stores each of these sizes in 16 bits
        dict(q_order=65536),
        dict(input_shape=(1, 256, 65536)),
        dict(block_filters=(8, 8, 65536)),
        dict(dense_units=70000),
        dict(classes=65536),
        dict(block_filters=(), kernel_sizes=()),
        dict(block_filters=(0,), kernel_sizes=(3,)),
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
        got = sm.selfonn_forward(layer, sm.power_stack(x, q))
        want = sum(ops.conv2d_valid(elementwise_pow(x, qi + 1),
                                    layer.kernels[qi], layer.biases[qi])
                   for qi in range(q))
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


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

    @pytest.mark.parametrize("other", [None, reduced(3),
                                       dataclasses.replace(REDUCED, dense_units=5)],
                             ids=["none", "other-order", "other-dense"])
    def test_backward_needs_matching_cache(self, other):
        # the check runs before the pass writes into the cache
        cache = None
        if other is not None:
            x = np.random.default_rng(0).random(other.input_shape)
            _, cache = sm.model_forward(sm.build_model(other, 4), x,
                                        train_mode=True)
            kept = [a.copy() for bc in cache.blocks for a in bc]
            kept += [cache.flat_input.copy(), cache.hidden_activated.copy()]
        m = sm.build_model(REDUCED, 3)
        with pytest.raises(sm.ConsistencyError, match="does not match this model"):
            sm.model_backward(m, cache, np.zeros(3))
        if cache is not None:
            now = [a for bc in cache.blocks for a in bc]
            now += [cache.flat_input, cache.hidden_activated]
            assert len(now) == len(kept) == 3 * 3 + 2
            assert all(np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
                       for a, b in zip(now, kept))

    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["image", "batch"])
    @pytest.mark.parametrize("kind", ["random", "ties", "saturated"])
    def test_forward_matches_tanh_then_pool(self, q, lead, kind):
        # Odd maps: the pre-activations are 15x17, 6x7 and 2x2.
        cfg = dataclasses.replace(reduced(q), input_shape=(1, 17, 19))
        m = sm.build_model(cfg, 20 + q)
        r = np.random.default_rng(q)
        x = r.uniform(-1, 1, size=(*lead, *cfg.input_shape))
        if kind == "ties":  # integer weights and inputs: many exact ties
            m.flat[:] = np.round(m.flat * 4)
            x = np.round(x * 2)
        elif kind == "saturated":  # block pre-activations reach |a| > 20
            m.flat[:] *= 60
        logits, cache = sm.model_forward(m, x, train_mode=True)
        cur = x
        for layer, bc in zip(m.blocks, cache.blocks, strict=True):
            stack = sm.power_stack(cur, q)
            pre = sm.selfonn_forward(layer, stack)
            cur = ops.maxpool2x2(np.tanh(pre))  # the tanh-then-pool order
            for got, want in zip(bc, (stack, pre, cur)):
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
        if kind == "saturated":
            assert np.mean(np.abs(cache.blocks[0].activated) == 1.0) > 0.5
        flat = cur.reshape(*lead, -1)
        hidden = np.tanh(ops.dense_forward(flat, m.hidden.weights, m.hidden.bias))
        want = ops.dense_forward(hidden, m.output.weights, m.output.bias)
        assert np.array_equal(logits, want)
        assert np.array_equal(sm.model_forward(m, x)[0], logits)

    def test_tanh_tie_routes_to_larger_pre_activation(self):
        # One block with a 1x1 unit kernel: the pre-activation is the input.
        # Its window holds 0.9 and the next float up, whose tanh values tie;
        # tanh-then-pool would send the gradient to the first cell.
        cfg = sm.ModelConfig(input_shape=(1, 2, 2), block_filters=(1,),
                             kernel_sizes=(1,), dense_units=2)
        m = sm.build_model(cfg, 0)
        m.blocks[0].kernels[...] = 1.0
        lo = 0.9
        hi = np.nextafter(lo, 1.0)
        x = np.array([[[lo, hi], [-0.5, 0.25]]])
        assert np.tanh(lo) == np.tanh(hi)
        logits, cache = sm.model_forward(m, x, train_mode=True)
        t = cache.blocks[0].activated.copy()
        hidden = cache.hidden_activated.copy()
        _, g_logits = ops.cross_entropy_with_softmax(logits, 1)
        _, grad_in = sm.model_backward(m, cache, g_logits)
        g_hidden = ops.dense_backward(hidden, m.output.weights, g_logits)[0]
        g_pooled = ops.dense_backward(t.reshape(-1), m.hidden.weights,
                                      ops.tanh_backward(hidden, g_hidden))[0]
        want = np.zeros_like(x)
        want[0, 0, 1] = g_pooled[0] * (1.0 - t[0, 0, 0] * t[0, 0, 0])
        assert want[0, 0, 1] != 0.0
        assert np.array_equal(grad_in, want)
        assert np.array_equal(np.signbit(grad_in), np.signbit(want))

    def test_backward_does_not_pool_again(self, monkeypatch):
        # The pool backward routes from the forward's picks alone; it does not
        # pool the cached pre-activation a second time.
        m = sm.build_model(REDUCED, 3)
        x = np.random.default_rng(0).random((2, *REDUCED.input_shape))
        logits, cache = sm.model_forward(m, x, train_mode=True)
        _, g = ops.cross_entropy_with_softmax(logits, np.array([0, 2]))
        calls = []
        pool = ops.maxpool2x2
        monkeypatch.setattr(ops, "maxpool2x2", lambda a: calls.append(a) or pool(a))
        sm.model_backward(m, cache, g, input_grad=False)
        assert calls == []

    @pytest.mark.parametrize("q", [1, 3])
    def test_inference_holds_one_block_of_maps(self, q):
        # An inference pass frees each power stack once convolved and each
        # pre-activation once pooled, so its peak is the first block's
        # pre-activation, column-pair maxima and pooled map. Holding the
        # stack or the previous block's maps as well put a full-scale pass
        # at the size where glibc hands its freed heap top back, and then
        # every pass faulted its maps in again.
        m = sm.build_model(dataclasses.replace(FULL, q_order=q), 0)
        x = np.random.default_rng(0).random(FULL.input_shape)
        tracemalloc.start()
        try:
            sm.model_forward(m, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (_, h, w), k = FULL.input_shape, FULL.kernel_sizes[0]
        pre = FULL.block_filters[0] * (h - k + 1) * (w - k + 1) * 8  # bytes
        assert peak < pre * (1 + 1 / 2 + 1 / 4) + 2**18

    def test_backward_consumes_the_cache(self):
        m = sm.build_model(REDUCED, 3)
        x = np.random.default_rng(0).random(REDUCED.input_shape)
        logits, cache = sm.model_forward(m, x, train_mode=True)
        _, g = ops.cross_entropy_with_softmax(logits, 1)
        sm.model_backward(m, cache, g)
        with pytest.raises(sm.ConsistencyError, match="already used"):
            sm.model_backward(m, cache, g)

    # Q=2, 16x20 inputs, two blocks: the shapes that showed a stale cache's
    # backward returning another pass's gradient without a word.
    STALE = sm.ModelConfig(q_order=2, input_shape=(1, 16, 20), block_filters=(2, 2),
                           kernel_sizes=(3, 2), dense_units=4)

    @pytest.mark.parametrize("between", ["train-same-shape", "train-other-batch",
                                         "inference"])
    def test_stale_cache_rejected(self, between):
        # A training cache is valid until its backward pass or the model's
        # next pass; the check runs before the pass writes anything.
        m = sm.build_model(self.STALE, 3)
        r = np.random.default_rng(0)
        logits, cache = sm.model_forward(m, r.random((2, *self.STALE.input_shape)),
                                         train_mode=True)
        _, g = ops.cross_entropy_with_softmax(logits, np.array([0, 2]))
        lead = (3,) if between == "train-other-batch" else (2,)
        sm.model_forward(m, r.random((*lead, *self.STALE.input_shape)),
                         train_mode=between != "inference")
        kept = [a.copy() for bc in cache.blocks for a in bc]
        kept += [cache.flat_input.copy(), cache.hidden_activated.copy()]
        grads = np.zeros_like(m.flat)
        with pytest.raises(sm.ConsistencyError, match="already used"):
            sm.model_backward(m, cache, g, grads=grads)
        now = [a for bc in cache.blocks for a in bc]
        now += [cache.flat_input, cache.hidden_activated]
        assert len(now) == len(kept) == 2 * 3 + 2
        assert all(np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
                   for a, b in zip(now, kept))
        assert not grads.any()

    def test_passes_in_turn_match_fresh_models(self):
        # forward, backward, forward, backward on one model: the second pass
        # writes into the first pass's kept maps and paddings, and each pass
        # gets the bits a fresh model gets.
        r = np.random.default_rng(1)
        xs = [r.random((2, *self.STALE.input_shape)) for _ in range(2)]
        y = np.array([1, 0])

        def step(m, x):
            logits, cache = sm.model_forward(m, x, train_mode=True)
            _, g = ops.cross_entropy_with_softmax(logits, y)
            return (logits, *sm.model_backward(m, cache, g))

        m = sm.build_model(self.STALE, 4)
        for x in xs:
            got, want = step(m, x), step(sm.build_model(self.STALE, 4), x)
            for a, b in zip(got, want, strict=True):
                assert np.array_equal(a, b)
                assert np.array_equal(np.signbit(a), np.signbit(b))

    @pytest.mark.parametrize("infer_between,shared", [(False, True), (True, False)],
                             ids=["train-only", "inference-between"])
    def test_inference_pass_drops_kept_maps(self, infer_between, shared):
        # A training pass writes into the maps of the model's previous
        # training pass of the same shape, unless an inference pass ran
        # since: that pass dropped them, as validation does in `fit`.
        m = sm.build_model(self.STALE, 5)
        x = np.random.default_rng(2).random((2, *self.STALE.input_shape))
        logits, cache = sm.model_forward(m, x, train_mode=True)
        first = [a for bc in cache.blocks for a in bc]
        _, g = ops.cross_entropy_with_softmax(logits, np.array([2, 1]))
        sm.model_backward(m, cache, g)
        if infer_between:
            sm.model_forward(m, x)
        _, cache = sm.model_forward(m, x, train_mode=True)
        second = [a for bc in cache.blocks for a in bc]
        assert len(first) == len(second) == 2 * 3
        assert all(np.shares_memory(a, b) == shared for a, b in zip(first, second))

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
    @pytest.fixture(autouse=True)
    def _tmp(self, tmp_path):
        self.tmp = tmp_path

    def roundtrip(self, m):
        """The bytes `save_weights` writes for `m`, as a buffer."""
        path = self.tmp / "saved.sonn"
        sm.save_weights(m, path)
        return io.BytesIO(path.read_bytes())

    def load_bytes(self, raw):
        path = self.tmp / "edited.sonn"
        path.write_bytes(bytes(raw))
        return sm.load_weights(path)

    def test_roundtrip_bitwise(self, tmp_path):
        m = sm.build_model(REDUCED, 21)
        path = tmp_path / "w.sonn"
        sm.save_weights(m, path)
        loaded = sm.load_weights(path)
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
        loaded = self.load_bytes(self.roundtrip(m).getvalue())
        assert loaded.config == reduced(3)
        assert np.array_equal(loaded.flat, m.flat)

    def test_bad_magic(self):
        m = sm.build_model(REDUCED, 2)
        raw = bytearray(self.roundtrip(m).getvalue())
        raw[:4] = b"JUNK"
        with pytest.raises(sm.WeightFileError, match="magic"):
            self.load_bytes(raw)

    def test_bad_version(self):
        m = sm.build_model(REDUCED, 2)
        raw = bytearray(self.roundtrip(m).getvalue())
        raw[4] = 9
        with pytest.raises(sm.WeightFileError, match="version"):
            self.load_bytes(raw)

    # u16 header fields set to zero: the block count, then q_order
    @pytest.mark.parametrize("offset,message", [
        (14, "stored configuration is invalid: need at least one block"),
        (6, "stored configuration is invalid: q_order must be >= 1, got 0")],
        ids=["blocks", "q_order"])
    def test_zero_header_field_rejected(self, offset, message):
        raw = bytearray(self.roundtrip(sm.build_model(REDUCED, 2)).getvalue())
        raw[offset:offset + 2] = bytes(2)
        with pytest.raises(sm.WeightFileError, match=message):
            self.load_bytes(raw)

    # Together the cases load every proper prefix of the file.
    @pytest.mark.parametrize("start,stop", [(0, 3), (3, 10), (10, 20), (20, None)],
                             ids=["0", "3", "10", "20"])
    def test_truncation_detected(self, start, stop):
        raw = self.roundtrip(sm.build_model(REDUCED, 2)).getvalue()
        for upto in range(start, stop or len(raw)):
            with pytest.raises(sm.WeightFileError, match="ends inside"):
                self.load_bytes(raw[:upto])

    def test_appended_bytes_rejected(self):
        raw = self.roundtrip(sm.build_model(REDUCED, 2)).getvalue()
        for extra in range(1, 17):
            with pytest.raises(sm.WeightFileError, match="trailing bytes"):
                self.load_bytes(raw + bytes(extra))

    def test_non_finite_payload_rejected(self):
        m = sm.build_model(REDUCED, 2)
        m.flat[5] = np.inf
        with pytest.raises(sm.WeightFileError, match="non-finite"):
            self.load_bytes(self.roundtrip(m).getvalue())

    def test_declared_count_must_match_config(self):
        m = sm.build_model(REDUCED, 2)
        raw = bytearray(self.roundtrip(m).getvalue())
        # parameter count lives in the 8 bytes before the payload
        header_len = len(raw) - 8 * m.n_params
        raw[header_len - 8:header_len] = (m.n_params + 1).to_bytes(8, "little")
        with pytest.raises(sm.WeightFileError, match="declares"):
            self.load_bytes(raw)

import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import reference as ref
from selfonn_kit import ops, training
from selfonn_kit.model import (Model, ModelConfig, build_model, model_backward,
                               model_forward, param_count)
from selfonn_kit.training import (AdamState, DivergenceError, EarlyStopper,
                                  LrSchedule, TrainConfig, adam_step, evaluate,
                                  fit)

TINY = ModelConfig(q_order=1, input_shape=(1, 6, 6), block_filters=(2,),
                   kernel_sizes=(3,), dense_units=4, classes=2)


def two_band_samples(n_per_class, seed, noise=0.1):
    """Class 0 lights up the top rows, class 1 the bottom rows."""
    r = np.random.default_rng(seed)
    images, labels = [], []
    for label in (0, 1):
        for _ in range(n_per_class):
            img = noise * r.random((1, 6, 6))
            rows = slice(0, 3) if label == 0 else slice(3, 6)
            img[0, rows, :] += 1.0
            images.append(img)
            labels.append(label)
    return images, np.array(labels)


class TestAdam:
    def test_matches_reference_formulas(self):
        r = np.random.default_rng(0)
        params = r.standard_normal(12)
        state = AdamState.for_params(12)
        p_ref = params.copy()
        m_ref = np.zeros(12)
        v_ref = np.zeros(12)
        for t in range(1, 4):
            g = r.standard_normal(12)
            adam_step(params, g, state, 0.01)
            m_ref = 0.9 * m_ref + (1 - 0.9) * g
            v_ref = 0.999 * v_ref + (1 - 0.999) * g * g
            m_hat = m_ref / (1 - 0.9 ** t)
            v_hat = v_ref / (1 - 0.999 ** t)
            p_ref = p_ref - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert np.array_equal(params, p_ref)
            assert state.t == t

    def test_first_step_is_signed_learning_rate(self):
        params = np.zeros(4)
        g = np.array([3.0, -0.5, 1e-3, 0.0])
        adam_step(params, g, AdamState.for_params(4), 0.001)
        # bias correction makes m_hat = g, v_hat = g^2, so the move is
        # lr * g / (|g| + eps) which is roughly -lr * sign(g)
        assert np.allclose(params[:3], -0.001 * np.sign(g[:3]), rtol=1e-4)
        assert params[3] == 0.0

    def test_buffer_shape_check(self):
        with pytest.raises(ops.DimensionError):
            adam_step(np.zeros(3), np.zeros(4), AdamState.for_params(3), 0.1)


class TestPlateauSchedule:
    def test_four_flat_epochs_halve_the_rate(self):
        sched = LrSchedule(learning_rate=1e-3)
        reductions = [sched.update(1.0) for _ in range(4)]
        assert reductions == [False, False, False, True]
        assert sched.learning_rate == 5e-4

    def test_improvement_resets_the_counter(self):
        sched = LrSchedule(learning_rate=1e-3)
        for loss in (1.0, 1.0, 1.0, 0.5, 0.5, 0.5):
            assert not sched.update(loss)
        assert sched.update(0.5)
        assert sched.learning_rate == 5e-4

    def test_counter_resets_after_each_reduction(self):
        sched = LrSchedule(learning_rate=1e-3)
        flags = [sched.update(1.0) for _ in range(10)]
        assert flags == [False, False, False, True,
                         False, False, True, False, False, True]
        assert sched.learning_rate == 1.25e-4

    def test_floor_is_exactly_five_e_minus_five(self):
        sched = LrSchedule(learning_rate=1e-3)
        for _ in range(40):
            sched.update(1.0)
        assert sched.learning_rate == 5e-5
        # 6.25e-5 would halve to 3.125e-5; the floor clips it exactly
        clipped = LrSchedule(learning_rate=8e-5)
        for _ in range(4):
            clipped.update(1.0)
        assert clipped.learning_rate == 5e-5

    def test_no_reduction_below_floor(self):
        sched = LrSchedule(learning_rate=5e-5)
        assert not any(sched.update(1.0) for _ in range(10))
        assert sched.learning_rate == 5e-5


class TestEarlyStopper:
    def test_constant_loss_stops_after_patience(self):
        m = build_model(TINY, 0)
        stop = EarlyStopper()
        decisions = [stop.update(1.0, m, e) for e in range(6)]
        assert decisions == [False, False, False, False, False, True]
        assert stop.best_epoch == 0

    def test_improvements_postpone_stopping(self):
        m = build_model(TINY, 0)
        stop = EarlyStopper()
        for e, loss in enumerate((3.0, 2.0, 2.5, 1.5)):
            assert not stop.update(loss, m, e)
        assert stop.best_epoch == 3
        assert stop.best == 1.5

    def test_restore_brings_back_best_weights(self):
        m = build_model(TINY, 1)
        stop = EarlyStopper()
        stop.update(1.0, m, 0)
        best = m.flatten()
        m.flat += 5.0
        stop.update(2.0, m, 1)
        stop.restore(m)
        assert np.array_equal(m.flat, best)


class TestEvaluate:
    def test_counts_and_loss(self):
        images, labels = two_band_samples(3, seed=2)
        m = build_model(TINY, 3)
        loss, acc, preds = evaluate(m, images, labels)
        assert preds.shape == (6,)
        assert 0.0 <= acc <= 1.0
        assert loss > 0.0

    def test_overflow_does_not_warn(self):
        # the hidden layer overflows to inf and tanh saturates it to +-1:
        # the logits stay finite, so this is a result, not a divergence
        cfg = ModelConfig(q_order=2, input_shape=(1, 12, 14), block_filters=(2,),
                          kernel_sizes=(3,), dense_units=4, classes=3)
        m = build_model(cfg, 0)
        m.hidden.weights[...] = 1e308
        r = np.random.default_rng(1)
        images = [r.random((1, 12, 14)) for _ in range(4)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, acc, preds = evaluate(m, images, np.array([0, 1, 2, 0]))
        assert np.isfinite(loss)
        assert acc == 0.5 and preds.tolist() == [0, 0, 0, 0]

    def test_rejects_mismatch_and_empty(self):
        m = build_model(TINY, 3)
        with pytest.raises(ops.DimensionError):
            evaluate(m, [np.zeros((1, 6, 6))], np.array([0, 1]))
        with pytest.raises(ValueError):
            evaluate(m, [], np.array([], dtype=int))

    @pytest.mark.parametrize("images,labels,error", [
        ([np.zeros((1, 6, 6))], np.array([2]), ValueError),  # TINY has 2 classes
        ([np.zeros((1, 6, 6))], np.array([[0]]), ValueError),
        ([np.zeros((1, 6, 6)), np.zeros((1, 6, 7))], np.array([0, 1]),
         ops.DimensionError)],
        ids=["label", "label_matrix", "shape"])
    def test_rejects_labels_and_shapes_the_model_cannot_take(self, images, labels,
                                                             error):
        with pytest.raises(error):
            evaluate(build_model(TINY, 3), images, labels)


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(learning_rate=0.0),
        dict(batch_size=0),
        dict(max_epochs=0),
        dict(learning_rate=float("nan")),
        dict(learning_rate=float("inf")),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestFit:
    def test_learns_the_band_task(self):
        train_x, train_y = two_band_samples(8, seed=4)
        val_x, val_y = two_band_samples(3, seed=5)
        m = build_model(TINY, 6)
        res = fit(m, train_x, train_y, val_x, val_y,
                  TrainConfig(max_epochs=15, batch_size=4, seed=7))
        assert res.history[-1].train_loss < res.history[0].train_loss
        _, acc, _ = evaluate(m, val_x, val_y)
        assert acc == 1.0

    def test_deterministic_rerun(self):
        train_x, train_y = two_band_samples(6, seed=8)
        val_x, val_y = two_band_samples(2, seed=9)
        results = []
        for _ in range(2):
            m = build_model(TINY, 10)
            res = fit(m, train_x, train_y, val_x, val_y,
                      TrainConfig(max_epochs=6, batch_size=4, seed=11))
            results.append((m.flatten(), [(r.train_loss, r.val_loss)
                                          for r in res.history]))
        assert np.array_equal(results[0][0], results[1][0])
        assert results[0][1] == results[1][1]

    def test_final_weights_are_best_epoch_weights(self):
        train_x, train_y = two_band_samples(6, seed=12)
        val_x, val_y = two_band_samples(2, seed=13)
        m = build_model(TINY, 14)
        snapshots = []
        res = fit(m, train_x, train_y, val_x, val_y,
                  TrainConfig(max_epochs=8, batch_size=4, seed=15),
                  on_epoch=lambda r: snapshots.append(m.flatten()))
        assert np.array_equal(m.flat, snapshots[res.best_epoch])

    # A budget that ends before the stopper fires is not an early stop; one
    # whose last epoch is the stopping epoch is.
    @pytest.mark.parametrize("max_epochs,epochs,stopped", [
        (5, 5, False), (6, 6, True), (50, 6, True)])
    def test_stalled_run_stops_early(self, max_epochs, epochs, stopped):
        train_x, train_y = two_band_samples(4, seed=16)
        val_x, val_y = two_band_samples(2, seed=17)
        m = build_model(TINY, 18)
        # at this learning rate Adam's steps vanish next to the weights, so
        # the validation loss never improves and the stopper fires exactly
        # patience epochs after the first
        res = fit(m, train_x, train_y, val_x, val_y,
                  TrainConfig(max_epochs=max_epochs, batch_size=4, seed=19,
                              learning_rate=1e-30))
        assert (len(res.history), res.stopped_early) == (epochs, stopped)

    def test_divergence_names_epoch_and_batch(self):
        cfg = ModelConfig(q_order=2, input_shape=(1, 6, 6), block_filters=(2,),
                          kernel_sizes=(3,), dense_units=4, classes=2)
        m = build_model(cfg, 20)
        bad = [np.full((1, 6, 6), 1e200)]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="epoch 0, batch 0"):
                fit(m, bad, np.array([0]), bad, np.array([0]),
                    TrainConfig(max_epochs=3, batch_size=1, seed=21))

    def test_empty_training_set_rejected(self):
        m = build_model(TINY, 22)
        with pytest.raises(ValueError):
            fit(m, [], np.array([], dtype=int), [np.zeros((1, 6, 6))],
                np.array([0]), TrainConfig())

    @staticmethod
    def fit_rejects(error, train_y, val_x, val_y):
        """`fit` raises `error` and leaves the weights as they were."""
        cfg = ModelConfig(q_order=1, input_shape=(1, 12, 14), block_filters=(2,),
                          kernel_sizes=(3,), dense_units=4, classes=3)
        m = build_model(cfg, 23)
        before = m.flatten()
        r = np.random.default_rng(24)
        train_x = [r.random(cfg.input_shape) for _ in range(8)]
        with pytest.raises(error):
            fit(m, train_x, train_y, val_x, val_y,
                TrainConfig(max_epochs=3, batch_size=4, seed=25))
        assert np.array_equal(m.flat, before)

    @pytest.mark.parametrize("val_x,val_y,error", [
        ([], np.array([], dtype=int), ValueError),
        ([np.zeros((1, 12, 14))], np.array([], dtype=int), ops.DimensionError),
        ([np.zeros((1, 12, 14))], np.array([3]), ValueError),
        ([np.zeros((1, 12, 14))], np.array([-1]), ValueError),
        ([np.zeros((1, 12, 15))], np.array([0]), ops.DimensionError)],
        ids=["empty", "count", "label_high", "label_negative", "shape"])
    def test_bad_validation_set_rejected_before_training(self, val_x, val_y, error):
        self.fit_rejects(error, np.arange(8) % 3, val_x, val_y)

    def test_bad_training_label_rejected_before_training(self):
        train_y = np.arange(8) % 3
        train_y[5] = 3
        self.fit_rejects(ValueError, train_y, [np.zeros((1, 12, 14))], np.array([0]))


def plain_params(model):
    return ref.PlainCnnParams(
        kernels=[b.kernels[0] for b in model.blocks],
        conv_biases=[b.biases[0] for b in model.blocks],
        hidden_w=model.hidden.weights, hidden_b=model.hidden.bias,
        out_w=model.output.weights, out_b=model.output.bias)


def plain_cnn_sample(model):
    """(forward, step) of one image through the reference plain CNN (Q=1)."""
    params = plain_params(model)

    def forward(x):
        return ref.plain_cnn_forward(params, x)[0]

    def step(x, y):
        logits, cache = ref.plain_cnn_forward(params, x)
        loss, grad_logits = ops.cross_entropy_with_softmax(logits, y)
        got = ref.plain_cnn_backward(params, cache, grad_logits)
        grads = np.zeros_like(model.flat)
        view = Model.from_flat(model.config, grads)
        for block, gk, gb in zip(view.blocks, got["kernels"], got["conv_biases"]):
            block.kernels[0] = gk
            block.biases[0] = gb
        view.hidden.weights[...] = got["hidden_w"]
        view.hidden.bias[...] = got["hidden_b"]
        view.output.weights[...] = got["out_w"]
        view.output.bias[...] = got["out_b"]
        return loss, grads

    return forward, step


def single_image_sample(model):
    """(forward, step) of one [C,H,W] image through model_forward/backward."""

    def forward(x):
        return model_forward(model, x)[0]

    def step(x, y):
        logits, cache = model_forward(model, x, train_mode=True)
        loss, grad_logits = ops.cross_entropy_with_softmax(logits, y)
        return loss, model_backward(model, cache, grad_logits)[0]

    return forward, step


def sample_loop_fit(model, sample, train_x, train_y, val_x, val_y, config):
    """fit() written out one image at a time, for runs without LR cuts.

    Returns the parameters after each epoch and each epoch's record.
    """
    forward, step = sample(model)
    rng = np.random.default_rng(config.seed)
    adam = AdamState.for_params(model.n_params)
    snapshots, records = [], []
    for epoch in range(config.max_epochs):
        order = rng.permutation(len(train_x))
        total = 0.0
        for lo in range(0, len(order), config.batch_size):
            batch = order[lo:lo + config.batch_size]
            grads = np.zeros_like(model.flat)
            batch_loss = 0.0
            for i in batch:
                loss, g = step(train_x[i], int(train_y[i]))
                grads += g
                batch_loss += loss
            grads /= len(batch)
            adam_step(model.flat, grads, adam, config.learning_rate)
            total += batch_loss
        val_total = 0.0
        preds = []
        for x, y in zip(val_x, val_y):
            logits = forward(x)
            val_total += ops.cross_entropy_with_softmax(logits, int(y))[0]
            preds.append(int(np.argmax(logits)))
        accuracy = float(np.mean(np.array(preds) == val_y))
        snapshots.append(model.flatten())
        records.append((epoch, total / len(order), val_total / len(val_y),
                        accuracy, config.learning_rate, False))
    return snapshots, records


class TestBatchMajorEquivalence:
    """Batch-major fit/evaluate give the bits of a loop over single images."""

    @staticmethod
    def samples(n, shape, seed):
        r = np.random.default_rng(seed)
        return [r.random(shape) for _ in range(n)], r.integers(0, 3, n)

    # Images per pass: the whole batch, or fewer, so a batch of 4 takes two
    # passes (2+2 or 3+1) that share one gradient buffer.
    @pytest.mark.parametrize("per_pass", [None, 2, 3])
    @pytest.mark.parametrize("q,sample", [(1, plain_cnn_sample),
                                          (3, single_image_sample)])
    def test_fit_matches_sample_loop(self, q, sample, per_pass, monkeypatch):
        cfg = ModelConfig(q_order=q, input_shape=(1, 12, 14), block_filters=(3, 2),
                          kernel_sizes=(3, 2), dense_units=5, classes=3)
        if per_pass is not None:
            monkeypatch.setattr(training, "_PASS_PIXELS", per_pass * 12 * 14)
        train_x, train_y = self.samples(10, cfg.input_shape, 50)
        val_x, val_y = self.samples(7, cfg.input_shape, 51)
        config = TrainConfig(max_epochs=2, batch_size=4, seed=52)

        loop_model = build_model(cfg, 53)
        want_params, want_records = sample_loop_fit(
            loop_model, sample, train_x, train_y, val_x, val_y, config)

        model = build_model(cfg, 53)
        params = []
        res = fit(model, train_x, train_y, val_x, val_y, config,
                  on_epoch=lambda r: params.append(model.flatten()))
        assert [astuple(r) for r in res.history] == want_records
        for got, want in zip(params, want_params, strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("per_pass", [1, 3, None])
    def test_evaluate_does_not_depend_on_chunking(self, per_pass, monkeypatch):
        cfg = ModelConfig(q_order=2, input_shape=(1, 12, 14), block_filters=(3, 2),
                          kernel_sizes=(3, 2), dense_units=5, classes=3)
        model = build_model(cfg, 54)
        images, labels = self.samples(11, cfg.input_shape, 55)
        if per_pass is not None:
            monkeypatch.setattr(training, "_PASS_PIXELS", per_pass * 12 * 14)
        loss, acc, preds = evaluate(model, images, labels)
        # One image per call: each call's mean loss is that image's loss.
        singles = [evaluate(model, [x], [y]) for x, y in zip(images, labels)]
        total = 0.0
        for one_loss, _, _ in singles:
            total += one_loss
        assert loss == total / 11
        assert np.array_equal(preds, np.concatenate([p for _, _, p in singles]))
        chunks = [evaluate(model, images[lo:lo + 4], labels[lo:lo + 4])[2]
                  for lo in range(0, 11, 4)]
        assert np.array_equal(preds, np.concatenate(chunks))
        assert acc == float(np.mean(preds == labels))
        # `eval` on a whole manifest passes the [N, C, H, W] array itself
        stacked = evaluate(model, np.stack(images), labels)
        assert stacked[:2] == (loss, acc)
        assert np.array_equal(stacked[2], preds)


class TestKeptPassMaps:
    """fit keeps each training pass's maps for the next pass of the same size
    and holds none of them once it returns."""

    CONFIG = ModelConfig(q_order=2, input_shape=(1, 32, 40), block_filters=(4, 4),
                         kernel_sizes=(5, 3), dense_units=8, classes=3)

    def samples(self, n, seed):
        r = np.random.default_rng(seed)
        return list(r.random((n, *self.CONFIG.input_shape))), r.integers(0, 3, n)

    # Batches of 4 run as 2+2 passes (one pass shape) or 3+1 (two shapes).
    @pytest.mark.parametrize("per_pass,shared", [(2, True), (3, False)])
    def test_equal_passes_share_maps(self, per_pass, shared, monkeypatch):
        monkeypatch.setattr(training, "_PASS_PIXELS", per_pass * 32 * 40)
        passes = []
        backward = training.model_backward

        def recording(model, cache, *args, **kwargs):
            passes.append([a for block in cache.blocks for a in block])
            return backward(model, cache, *args, **kwargs)

        monkeypatch.setattr(training, "model_backward", recording)
        x, y = self.samples(8, 80)
        fit(build_model(self.CONFIG, 81), x, y, x[:3], y[:3],
            TrainConfig(max_epochs=1, batch_size=4, seed=82))
        assert len(passes) == 4 and len(passes[0]) == 2 * 3
        for before, after in zip(passes, passes[1:]):
            for a, b in zip(before, after, strict=True):
                assert np.shares_memory(a, b) == shared

    def test_nothing_outlives_fit(self):
        x, y = self.samples(12, 83)
        config = TrainConfig(max_epochs=2, batch_size=4, seed=84)

        def run():
            model = build_model(self.CONFIG, 85)
            fit(model, x[:8], y[:8], x[8:], y[8:], config)
            return model

        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            first = run()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        first_eval = evaluate(first, x, y)
        second = run()
        assert first.flat.tobytes() == second.flat.tobytes()
        second_eval = evaluate(second, x, y)
        assert first_eval[:2] == second_eval[:2]
        assert np.array_equal(first_eval[2], second_eval[2])
        # Only the trained model remains: no pass map, such as one pass's
        # block-0 power stack, is held once fit returns.
        stack = 4 * 2 * 32 * 40 * 8
        assert held < first.flat.nbytes + stack // 2


THREAD_CONFIG = dict(q_order=3, input_shape=(1, 64, 80), block_filters=(4, 4, 4),
                     kernel_sizes=(5, 3, 2), dense_units=16)
# Trains THREAD_CONFIG for one epoch and writes the raw parameter bytes to stdout.
THREAD_RUN = f"""
import sys
import numpy as np
from selfonn_kit.model import ModelConfig, build_model
from selfonn_kit.training import TrainConfig, fit
config = ModelConfig(**{THREAD_CONFIG!r})
r = np.random.default_rng(60)
x = [r.random(config.input_shape) for _ in range(12)]
y = np.arange(12) % 3
model = build_model(config, 61)
fit(model, x[:8], y[:8], x[8:], y[8:], TrainConfig(max_epochs=1, batch_size=4, seed=62))
sys.stdout.buffer.write(model.flat.tobytes())
"""


def test_trained_bytes_do_not_depend_on_blas_threads():
    src = str(Path(training.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", THREAD_RUN], env=env,
                              capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        runs.append(proc.stdout)
    assert len(runs[0]) == 8 * param_count(ModelConfig(**THREAD_CONFIG))
    assert runs[0] == runs[1]

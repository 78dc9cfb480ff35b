import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfonn_kit import metrics as m
from selfonn_kit.model import ModelConfig, build_model

# Pooled five-fold confusion counts for the second-order model on the motor
# task, kept as a frozen regression target: 5325 correct of 5653.
REFERENCE_MATRIX = np.array([
    [1936, 203, 105],
    [20, 1779, 0],
    [0, 0, 1610],
], dtype=np.int64)


def cm(rows):
    return m.ConfusionMatrix(np.asarray(rows, dtype=np.int64))


random_confusions = st.lists(
    st.lists(st.integers(0, 500), min_size=3, max_size=3),
    min_size=3, max_size=3,
).map(lambda rows: np.asarray(rows, dtype=np.int64)).filter(
    lambda c: c.sum() > 0)


class TestConfusion:
    def test_counts_match_brute_force(self):
        r = np.random.default_rng(3)
        true = r.integers(0, 4, size=200)
        pred = r.integers(0, 4, size=200)
        mat = m.confusion(true, pred, 4)
        for i in range(4):
            for j in range(4):
                expected = int(np.sum((true == i) & (pred == j)))
                assert mat.counts[i, j] == expected
        assert mat.total == 200
        assert mat.support == tuple(int(np.sum(true == i)) for i in range(4))


class TestMetricReport:
    def test_hand_worked_binary_case(self):
        # [[2, 1], [0, 3]]: class 0 precision 1, recall 2/3; class 1
        # precision 3/4, recall 1
        report = m.metric_report(cm([[2, 1], [0, 3]]))
        assert report.accuracy == 5 / 6
        assert report.precision == (1.0, 0.75)
        assert report.recall == (2 / 3, 1.0)
        assert report.f1[0] == pytest.approx(0.8)
        assert report.f1[1] == pytest.approx(6 / 7)
        assert report.macro_recall == pytest.approx((2 / 3 + 1.0) / 2)
        assert report.weighted_precision == pytest.approx(
            (3 * 1.0 + 3 * 0.75) / 6)

    def test_reference_matrix_accuracy_exact(self):
        report = m.metric_report(cm(REFERENCE_MATRIX))
        assert report.matrix.total == 5653
        assert report.accuracy == 5325 / 5653
        assert report.weighted_recall == 5325 / 5653
        assert abs(report.accuracy - 0.942) < 5e-4

    @settings(max_examples=200, deadline=None)
    @given(random_confusions)
    def test_weighted_recall_is_accuracy_exactly(self, counts):
        report = m.metric_report(m.ConfusionMatrix(counts))
        assert report.weighted_recall == report.accuracy

    @settings(max_examples=100, deadline=None)
    @given(random_confusions)
    def test_weighted_recall_matches_per_class_formula(self, counts):
        report = m.metric_report(m.ConfusionMatrix(counts))
        support = np.asarray(report.matrix.support, dtype=np.float64)
        live = support > 0
        manual = float(np.dot(support[live] / support.sum(),
                              np.asarray(report.recall)[live]))
        assert report.weighted_recall == pytest.approx(manual, rel=1e-12)

    def test_never_predicted_class_flags_precision(self):
        report = m.metric_report(cm([[2, 0, 1], [1, 0, 2], [0, 0, 3]]))
        assert report.precision[1] == 0.0

    def test_zero_support_class_flags_recall(self):
        report = m.metric_report(cm([[3, 0], [0, 0]]))
        assert report.recall[1] == 0.0
        assert report.f1[1] == 0.0

    def test_perfect_prediction(self):
        report = m.metric_report(cm(np.diag([5, 7, 9])))
        assert report.accuracy == 1.0
        assert report.precision == (1.0, 1.0, 1.0)
        assert report.macro_f1 == 1.0

    def test_reports_compare_by_counts(self):
        # equal accuracy, different cells: only the counts tell them apart
        a = m.metric_report(cm([[3, 1], [0, 4]]))
        assert a == m.metric_report(cm([[3, 1], [0, 4]]))
        assert a != m.metric_report(cm([[3, 0], [1, 4]]))
        assert a.matrix != cm([[3, 0], [1, 4]]) and a.matrix != a.matrix.counts


class TestBench:
    def tiny_model(self, seed=0):
        config = ModelConfig(q_order=1, input_shape=(1, 12, 12),
                             block_filters=(2,), kernel_sizes=(3,),
                             dense_units=3, classes=2)
        return build_model(config, rng_seed=seed)

    def test_report_fields_consistent(self):
        models = [self.tiny_model(0), self.tiny_model(1)]
        images = [np.zeros((1, 12, 12)) for _ in range(3)]
        per_image = m.bench_inference(models, images, warmup=1, repeats=4)
        assert per_image.shape == (2, 4)
        assert np.all(per_image > 0)

    def test_rounds_interleave_models(self, monkeypatch):
        models = [self.tiny_model(0), self.tiny_model(1), self.tiny_model(2)]
        images = [np.zeros((1, 12, 12)) for _ in range(2)]
        slot = {id(model): i for i, model in enumerate(models)}
        calls = []
        monkeypatch.setattr(m, "model_forward",
                            lambda model, x: calls.append(slot[id(model)]))
        m.bench_inference(models, images, warmup=1, repeats=2)
        # the warmup pass, then two rounds of one pass per model in turn
        assert calls == [0, 0, 1, 1, 2, 2] * 3

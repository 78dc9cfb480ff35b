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

    def test_label_range_checked(self):
        with pytest.raises(ValueError, match="outside 0..2"):
            m.confusion([0, 3], [0, 1], 3)
        with pytest.raises(ValueError, match="predicted"):
            m.confusion([0, 1], [0, -1], 3)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            m.confusion([0, 1, 2], [0, 1], 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            m.confusion([], [], 3)

    def test_matrix_validation(self):
        with pytest.raises(ValueError, match="square"):
            cm([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError, match="non-negative"):
            cm([[1, -1], [0, 2]])
        with pytest.raises(ValueError):
            m.ConfusionMatrix(np.zeros((2, 2), dtype=np.float64))


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
        assert report.undefined_precision == ()
        assert report.undefined_recall == ()

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
        assert report.undefined_precision == (1,)
        assert report.precision[1] == 0.0
        assert report.undefined_recall == ()

    def test_zero_support_class_flags_recall(self):
        report = m.metric_report(cm([[3, 0], [0, 0]]))
        assert report.undefined_recall == (1,)
        assert report.recall[1] == 0.0
        assert report.f1[1] == 0.0

    def test_perfect_prediction(self):
        report = m.metric_report(cm(np.diag([5, 7, 9])))
        assert report.accuracy == 1.0
        assert report.precision == (1.0, 1.0, 1.0)
        assert report.macro_f1 == 1.0


class TestAggregate:
    def make_reports(self):
        return [m.metric_report(cm([[4, 1], [0, 5]])),
                m.metric_report(cm([[5, 0], [1, 4]])),
                m.metric_report(cm([[3, 2], [0, 5]]))]

    def test_mean_and_population_std(self):
        agg = m.aggregate_folds(self.make_reports())
        accs = [9 / 10, 9 / 10, 8 / 10]
        assert agg.n_folds == 3
        assert agg.accuracy_mean == pytest.approx(np.mean(accs))
        assert agg.accuracy_std == pytest.approx(np.std(accs))

    def test_single_fold_spread_is_zero(self):
        agg = m.aggregate_folds([m.metric_report(cm([[4, 1], [0, 5]]))])
        assert agg.accuracy_std == 0.0
        assert agg.macro_f1_std == 0.0

    def test_pooled_matrix_sums_counts(self):
        reports = self.make_reports()
        agg = m.aggregate_folds(reports)
        expected = sum(r.matrix.counts for r in reports)
        assert np.array_equal(agg.pooled.counts, expected)
        assert agg.pooled_accuracy == 26 / 30

    def test_rejects_mixed_class_counts(self):
        bad = [m.metric_report(cm([[1, 0], [0, 1]])),
               m.metric_report(cm(np.diag([1, 1, 1])))]
        with pytest.raises(ValueError, match="class count"):
            m.aggregate_folds(bad)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            m.aggregate_folds([])


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

    def test_argument_validation(self):
        model = self.tiny_model()
        images = [np.zeros((1, 12, 12))]
        with pytest.raises(ValueError):
            m.bench_inference([model], [], repeats=1)
        with pytest.raises(ValueError):
            m.bench_inference([], images, repeats=1)
        with pytest.raises(ValueError):
            m.bench_inference([model], images, repeats=0)
        with pytest.raises(ValueError):
            m.bench_inference([model], images, warmup=-1)


class TestFormatting:
    def test_confusion_table_contents(self):
        text = m.format_confusion(cm([[10, 2], [3, 85]]), ("neg", "pos"))
        lines = text.splitlines()
        assert len(lines) == 3
        assert "neg" in lines[0] and "pos" in lines[0]
        assert lines[1].split() == ["neg", "10", "2"]
        assert lines[2].split() == ["pos", "3", "85"]

    def test_metric_table_contents(self):
        report = m.metric_report(cm([[2, 1], [0, 3]]))
        text = m.format_metric_table(report, ("a", "b"))
        assert "accuracy 0.833333" in text
        rows = [line.split() for line in text.splitlines()]
        assert rows[1][0] == "a" and rows[1][1] == "1.0000"
        assert rows[3][0] == "macro"
        assert rows[4][0] == "weighted"

    def test_name_count_checked(self):
        with pytest.raises(ValueError):
            m.format_confusion(cm([[1, 0], [0, 1]]), ("only",))
        with pytest.raises(ValueError):
            m.format_metric_table(m.metric_report(cm([[1, 0], [0, 1]])),
                                  ("a", "b", "c"))

"""Classification metrics and inference timing.

The confusion matrix is the single source of truth: every rate is derived
from its integer counts. Support-weighted recall in particular is computed
as trace over total (the two are algebraically identical, and the integer
route keeps the equality exact instead of accumulating float error through
the per-class detour).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .model import Model, model_forward


@dataclass(frozen=True)
class ConfusionMatrix:
    """Integer counts, rows indexed by true class, columns by prediction."""

    counts: np.ndarray

    def __post_init__(self):
        c = self.counts
        if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] < 2:
            raise ValueError(f"confusion counts must be square, got {tuple(c.shape)}")
        if c.dtype != np.int64 or (c < 0).any():
            raise ValueError("confusion counts must be non-negative int64")

    def __eq__(self, other):
        return isinstance(other, ConfusionMatrix) and np.array_equal(
            self.counts, other.counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(int(s) for s in self.counts.sum(axis=1))


def confusion(true_labels, predicted_labels, n_classes: int) -> ConfusionMatrix:
    true_labels = np.asarray(true_labels)
    predicted_labels = np.asarray(predicted_labels)
    if true_labels.shape != predicted_labels.shape or true_labels.ndim != 1:
        raise ValueError(
            f"label vectors disagree: {true_labels.shape} vs {predicted_labels.shape}")
    if len(true_labels) == 0:
        raise ValueError("cannot build a confusion matrix from zero samples")
    for name, vec in (("true", true_labels), ("predicted", predicted_labels)):
        if vec.min() < 0 or vec.max() >= n_classes:
            raise ValueError(
                f"{name} labels fall outside 0..{n_classes - 1}: "
                f"range [{vec.min()}, {vec.max()}]")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (true_labels, predicted_labels), 1)
    return ConfusionMatrix(counts)


@dataclass(frozen=True)
class MetricReport:
    matrix: ConfusionMatrix
    accuracy: float
    precision: tuple[float, ...]       # per class
    recall: tuple[float, ...]
    f1: tuple[float, ...]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float


def metric_report(matrix: ConfusionMatrix) -> MetricReport:
    """Derive all rates from one confusion matrix.

    Zero-denominator rates are reported as 0.0.
    """
    counts = matrix.counts
    diag = np.diag(counts)
    row = counts.sum(axis=1)   # support per true class
    col = counts.sum(axis=0)   # predictions per class
    total = matrix.total

    def ratio(num, den):
        return np.divide(num, den, out=np.zeros(len(num)), where=den != 0)

    precision = ratio(diag, col)
    recall = ratio(diag, row)
    f1 = ratio(2 * precision * recall, precision + recall)

    accuracy = int(diag.sum()) / total
    weights = row / total
    return MetricReport(
        matrix=matrix,
        accuracy=accuracy,
        precision=tuple(precision.tolist()),
        recall=tuple(recall.tolist()),
        f1=tuple(f1.tolist()),
        macro_precision=float(np.mean(precision)),
        macro_recall=float(np.mean(recall)),
        macro_f1=float(np.mean(f1)),
        weighted_precision=float(np.dot(weights, precision)),
        # Identical to accuracy by construction; the integer path keeps the
        # equality bit-exact.
        weighted_recall=accuracy,
        weighted_f1=float(np.dot(weights, f1)),
    )


def bench_inference(models: list[Model], images, warmup: int = 1,
                    repeats: int = 24) -> np.ndarray:
    """Per-image forward seconds of each model, timed round-robin.

    Each model first runs `warmup` untimed passes over `images`. Then each
    of `repeats` rounds times one pass of every model in turn, so a slow
    system phase slows every model alike instead of whichever happened to
    be running. Returns a (models, repeats) array: seconds per image of each
    timed pass. The defaults are `selfonn-kit bench`'s protocol.
    """
    if len(models) == 0 or len(images) == 0:
        raise ValueError("nothing to benchmark")
    if repeats < 1 or warmup < 0:
        raise ValueError(f"bad warmup={warmup} repeats={repeats}")
    for model in models:
        for _ in range(warmup):
            for x in images:
                model_forward(model, x)
    seconds = np.empty((len(models), repeats))
    for r in range(repeats):
        for m, model in enumerate(models):
            start = time.perf_counter()
            for x in images:
                model_forward(model, x)
            seconds[m, r] = time.perf_counter() - start
    return seconds / len(images)

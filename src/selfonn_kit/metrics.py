"""Classification metrics, fold aggregation, and inference timing.

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

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]

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
    undefined_precision: tuple[int, ...]   # classes never predicted
    undefined_recall: tuple[int, ...]      # classes with zero support


def metric_report(matrix: ConfusionMatrix) -> MetricReport:
    """Derive all rates from one confusion matrix.

    Zero-denominator rates are reported as 0.0 and the affected classes are
    listed so callers can tell a genuine zero from an undefined one.
    """
    counts = matrix.counts
    n = matrix.n_classes
    diag = np.diag(counts)
    row = counts.sum(axis=1)   # support per true class
    col = counts.sum(axis=0)   # predictions per class
    total = matrix.total

    precision, recall, f1 = [], [], []
    undef_p, undef_r = [], []
    for c in range(n):
        if col[c] == 0:
            undef_p.append(c)
            p = 0.0
        else:
            p = diag[c] / col[c]
        if row[c] == 0:
            undef_r.append(c)
            r = 0.0
        else:
            r = diag[c] / row[c]
        precision.append(float(p))
        recall.append(float(r))
        f1.append(0.0 if p + r == 0 else float(2 * p * r / (p + r)))

    accuracy = int(diag.sum()) / total
    weights = row / total
    return MetricReport(
        matrix=matrix,
        accuracy=accuracy,
        precision=tuple(precision),
        recall=tuple(recall),
        f1=tuple(f1),
        macro_precision=float(np.mean(precision)),
        macro_recall=float(np.mean(recall)),
        macro_f1=float(np.mean(f1)),
        weighted_precision=float(np.dot(weights, precision)),
        # Identical to accuracy by construction; the integer path keeps the
        # equality bit-exact.
        weighted_recall=accuracy,
        weighted_f1=float(np.dot(weights, f1)),
        undefined_precision=tuple(undef_p),
        undefined_recall=tuple(undef_r),
    )


@dataclass(frozen=True)
class FoldAggregate:
    """Cross-fold summary: per-fold spread plus the pooled matrix."""

    n_folds: int
    accuracy_mean: float
    accuracy_std: float
    macro_f1_mean: float
    macro_f1_std: float
    pooled: ConfusionMatrix
    pooled_accuracy: float


def aggregate_folds(reports: list[MetricReport]) -> FoldAggregate:
    """Combine per-fold reports; the spreads are population std."""
    if not reports:
        raise ValueError("no fold reports to aggregate")
    sizes = {r.matrix.n_classes for r in reports}
    if len(sizes) != 1:
        raise ValueError(f"fold reports disagree on class count: {sorted(sizes)}")
    accs = [r.accuracy for r in reports]
    f1s = [r.macro_f1 for r in reports]
    pooled = ConfusionMatrix(sum(r.matrix.counts for r in reports))
    return FoldAggregate(
        n_folds=len(reports),
        accuracy_mean=float(np.mean(accs)),
        accuracy_std=float(np.std(accs)),
        macro_f1_mean=float(np.mean(f1s)),
        macro_f1_std=float(np.std(f1s)),
        pooled=pooled,
        pooled_accuracy=int(np.trace(pooled.counts)) / pooled.total,
    )


def bench_inference(models: list[Model], images, warmup: int = 1,
                    repeats: int = 3) -> np.ndarray:
    """Per-image forward seconds of each model, timed round-robin.

    Each model first runs `warmup` untimed passes over `images`. Then each
    of `repeats` rounds times one pass of every model in turn, so a slow
    system phase slows every model alike instead of whichever happened to
    be running. Returns a (models, repeats) array: seconds per image of each
    timed pass.
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


def format_confusion(matrix: ConfusionMatrix,
                     class_names: tuple[str, ...]) -> str:
    """Fixed-width table, true classes down the side, predictions across."""
    if len(class_names) != matrix.n_classes:
        raise ValueError(
            f"{len(class_names)} names for {matrix.n_classes} classes")
    width = max(len(n) for n in class_names)
    width = max(width, len(str(int(matrix.counts.max()))), 5)
    head = " " * (width + 2) + " ".join(f"{n:>{width}}" for n in class_names)
    lines = [head]
    for i, name in enumerate(class_names):
        cells = " ".join(f"{int(v):>{width}}" for v in matrix.counts[i])
        lines.append(f"{name:>{width}}  {cells}")
    return "\n".join(lines)


def format_metric_table(report: MetricReport,
                        class_names: tuple[str, ...]) -> str:
    """Per-class precision/recall/F1/support plus the summary rows."""
    if len(class_names) != report.matrix.n_classes:
        raise ValueError(
            f"{len(class_names)} names for {report.matrix.n_classes} classes")
    width = max(max(len(n) for n in class_names), len("weighted"))
    header = f"{'':{width}}  precision  recall      f1     support"
    lines = [header]
    support = report.matrix.support
    for i, name in enumerate(class_names):
        lines.append(f"{name:>{width}}     {report.precision[i]:.4f}  "
                     f"{report.recall[i]:.4f}  {report.f1[i]:.4f}  {support[i]:10d}")
    lines.append(f"{'macro':>{width}}     {report.macro_precision:.4f}  "
                 f"{report.macro_recall:.4f}  {report.macro_f1:.4f}  "
                 f"{report.matrix.total:10d}")
    lines.append(f"{'weighted':>{width}}     {report.weighted_precision:.4f}  "
                 f"{report.weighted_recall:.4f}  {report.weighted_f1:.4f}  "
                 f"{report.matrix.total:10d}")
    lines.append(f"accuracy {report.accuracy:.6f}")
    return "\n".join(lines)

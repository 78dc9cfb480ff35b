"""Optimization loop: Adam, plateau LR decay, early stopping.

The paper's protocol is fixed by the module constants: Adam (ADAM_*), the
plateau schedule (LR_*) and early stopping (STOP_PATIENCE).

The loop is single-threaded and fully deterministic for a given seed: the
per-epoch shuffle comes from one seeded generator, and both callbacks see
the validation loss in a fixed order (schedule first, then the stopper).
Training batches and evaluation sets run through one pass loop, _passes,
as batch-major passes over [N, C, H, W]. Per-sample gradients and losses
are still added in sample order, so every result is bitwise that of a loop
over single samples. `fit` keeps each training pass's maps for the next
pass; it drops them to validate and on return.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .model import Model, add_in_order, model_backward, model_forward
from .ops import Tensor

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
LR_FACTOR = 0.5
LR_PATIENCE = 3
LR_FLOOR = 5e-5
STOP_PATIENCE = 5


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient."""


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 16
    max_epochs: int = 300
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf or self.batch_size < 1 \
                or self.max_epochs < 1:
            raise ValueError("learning_rate, batch_size and max_epochs must be "
                             "finite and positive")


@dataclass
class AdamState:
    """First/second moment buffers plus the shared step counter."""

    m: Tensor
    v: Tensor
    t: int = 0

    @classmethod
    def for_params(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n))


def adam_step(params: Tensor, grads: Tensor, state: AdamState,
              learning_rate: float) -> None:
    """One in-place Adam update with bias-corrected moments."""
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ops.DimensionError(
            f"adam buffers disagree: params {tuple(params.shape)}, "
            f"grads {tuple(grads.shape)}, moments {tuple(state.m.shape)}")
    state.t += 1
    state.m *= ADAM_BETA1
    state.m += (1 - ADAM_BETA1) * grads
    state.v *= ADAM_BETA2
    state.v += (1 - ADAM_BETA2) * grads * grads
    m_hat = state.m / (1 - ADAM_BETA1 ** state.t)
    v_hat = state.v / (1 - ADAM_BETA2 ** state.t)
    params -= learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


@dataclass
class LrSchedule:
    """Reduce-on-plateau state machine; feed it one validation loss per epoch."""

    learning_rate: float
    best: float = np.inf
    stalled: int = 0

    def update(self, val_loss: float) -> bool:
        """Record an epoch; returns True when the rate was just reduced."""
        if val_loss < self.best:
            self.best = val_loss
            self.stalled = 0
            return False
        self.stalled += 1
        if self.stalled >= LR_PATIENCE and self.learning_rate > LR_FLOOR:
            self.learning_rate = max(self.learning_rate * LR_FACTOR, LR_FLOOR)
            self.stalled = 0
            return True
        return False


@dataclass
class EarlyStopper:
    """Tracks the best validation loss and the weights that produced it."""

    best: float = np.inf
    stalled: int = 0
    best_weights: Tensor | None = None
    best_epoch: int = -1

    def update(self, val_loss: float, model: Model, epoch: int) -> bool:
        """Record an epoch; returns True when training should stop."""
        if val_loss < self.best:
            self.best = val_loss
            self.stalled = 0
            self.best_weights = model.flatten()
            self.best_epoch = epoch
            return False
        self.stalled += 1
        return self.stalled >= STOP_PATIENCE

    def restore(self, model: Model) -> None:
        if self.best_weights is not None:
            model.load_flat(self.best_weights)


@dataclass
class EpochRecord:
    """One epoch of `fit`. Its fields, in order, are the columns of the
    epoch log that `cli.write_epoch_log` writes. Criterion 8 checks that
    two same-seed runs write the same log bytes, which is what keeps a
    wall-clock field (ROADMAP item 6) out of this record."""

    epoch: int
    train_loss: float
    val_loss: float
    val_accuracy: float
    learning_rate: float
    lr_reduced: bool


@dataclass
class FitResult:
    history: list[EpochRecord]
    best_epoch: int
    stopped_early: bool


# Input pixels per batch-major pass: one 256x320 frame. At 64x80 a pass then
# holds 16 images, and a 16-image training pass measured 1.2-1.4x cheaper per
# sample than one-image passes at Q=1..3; at 256x320 it holds one image,
# because there 16-image passes measured 14 % (Q=1) to 34 % (Q=3) slower per
# sample and kept ~20 MB of activations per sample (one pinned BLAS thread,
# 2-vCPU Xeon).
_PASS_PIXELS = 256 * 320


def _check_set(model: Model, images, labels, name: str) -> np.ndarray:
    """`labels` as an array, once the set is known to fit `model`: as many
    labels as images, at least one, each a class of the model, and every
    image of the model's input shape."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"{name} labels must be a vector, got shape {labels.shape}")
    if len(images) != len(labels):
        raise ops.DimensionError(f"{len(images)} {name} images vs {len(labels)} labels")
    if len(images) == 0:
        raise ValueError(f"the {name} set is empty")
    classes, shape = model.config.classes, model.config.input_shape
    if labels.min() < 0 or labels.max() >= classes:
        raise ValueError(f"{name} labels fall outside 0..{classes - 1}")
    if (shapes := {np.shape(x) for x in images}) != {shape}:
        raise ops.DimensionError(
            f"{name} images have shapes {sorted(shapes)}, the model takes {shape}")
    return labels


def _passes(model: Model, images, labels: np.ndarray, order: np.ndarray,
            maps=None, grads=None) -> tuple[float, np.ndarray]:
    """Summed loss and argmax predictions of the images at `order`.

    Passes of _PASS_PIXELS input pixels (at least one image) are gathered,
    run and scored, their losses added in sample order. Given `grads`, they
    are training passes: each keeps its maps in `maps` (see model_forward)
    and backpropagates, adding its per-sample gradients to `grads`.
    """
    step = max(1, _PASS_PIXELS // int(np.prod(model.config.input_shape)))
    total = 0.0
    preds = np.empty(len(order), dtype=np.int64)
    for lo in range(0, len(order), step):
        part = order[lo:lo + step]
        logits, cache = model_forward(model, np.stack([images[i] for i in part]),
                                      train_mode=grads is not None, maps=maps)
        losses, grad_logits = ops.cross_entropy_with_softmax(logits, labels[part])
        if grads is not None:
            model_backward(model, cache, grad_logits, input_grad=False,
                           grads=grads, maps=maps)
        total = add_in_order(total, losses)
        preds[lo:lo + step] = np.argmax(logits, axis=-1)
    return total, preds


def evaluate(model: Model, images: list[Tensor] | np.ndarray,
             labels: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Mean loss, accuracy, and per-sample argmax predictions."""
    labels = _check_set(model, images, labels, "evaluation")
    with np.errstate(over="ignore", invalid="ignore"):
        total, preds = _passes(model, images, labels, np.arange(len(labels)))
    return total / len(labels), float(np.mean(preds == labels)), preds


def fit(model: Model, train_images, train_labels, val_images, val_labels,
        config: TrainConfig, on_epoch=None) -> FitResult:
    """Train in place; returns the epoch history with best weights restored.

    Each epoch: shuffle (seeded), accumulate mean gradients per batch, one
    Adam step per batch, then a full validation pass. The plateau schedule
    sees the validation loss first, the early stopper second, so an epoch
    that triggers both still records its LR cut. The rate is multiplied by
    LR_FACTOR after LR_PATIENCE stalled epochs, down to LR_FLOOR; training
    stops after STOP_PATIENCE epochs without a new best, restoring the best
    weights. `on_epoch`, if given, is called with each EpochRecord as it is
    produced.
    """
    train_labels = _check_set(model, train_images, train_labels, "training")
    _check_set(model, val_images, val_labels, "validation")
    rng = np.random.default_rng(config.seed)
    adam = AdamState.for_params(model.n_params)
    schedule = LrSchedule(learning_rate=config.learning_rate)
    stopper = EarlyStopper()
    history: list[EpochRecord] = []
    maps: dict = {}  # training-pass maps kept from pass to pass
    for epoch in range(config.max_epochs):
        order = rng.permutation(len(train_images))
        train_total = 0.0
        # overflow need not warn: the finiteness checks catch divergence
        with np.errstate(over="ignore", invalid="ignore"):
            for b, lo in enumerate(range(0, len(order), config.batch_size)):
                batch = order[lo:lo + config.batch_size]
                grads = np.zeros_like(model.flat)
                batch_loss, _ = _passes(model, train_images, train_labels, batch,
                                        maps, grads)
                grads /= len(batch)
                if not np.isfinite(batch_loss) or not np.all(np.isfinite(grads)):
                    raise DivergenceError(
                        f"non-finite loss or gradient at epoch {epoch}, batch {b}")
                adam_step(model.flat, grads, adam, schedule.learning_rate)
                train_total += batch_loss
        maps.clear()  # validation passes reuse the memory, not fault in more
        val_loss, val_acc, _ = evaluate(model, val_images, val_labels)
        if not np.isfinite(val_loss):
            raise DivergenceError(f"non-finite validation loss at epoch {epoch}")
        reduced = schedule.update(val_loss)
        should_stop = stopper.update(val_loss, model, epoch)
        record = EpochRecord(epoch, train_total / len(order), val_loss, val_acc,
                             schedule.learning_rate, reduced)
        history.append(record)
        if on_epoch is not None:
            on_epoch(record)
        if should_stop:
            break
    stopper.restore(model)
    return FitResult(history, stopper.best_epoch, should_stop)

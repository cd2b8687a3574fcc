"""Accuracy, confusion matrices, relative accuracy, inference benchmarks."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .training import _test_metrics


def _check_classes(stack, test_set):
    if test_set.num_classes != stack.num_classes:
        raise ShapeError(
            f"stack has {stack.num_classes} classes, test set has "
            f"{test_set.num_classes}"
        )


def evaluate(stack, test_set, batch_size=256):
    """(accuracy, mean loss) on a labeled set.

    Accuracy is exact argmax agreement (ties break to the lowest class
    index, numpy argmax semantics); loss is mean cross-entropy against the
    one-hot truth. Batch size does not affect either number.
    """
    _check_classes(stack, test_set)
    return _test_metrics(stack, test_set, batch_size)


@dataclass
class ConfusionMatrix:
    """counts[i, j] = test rows of true class i predicted as class j."""

    counts: np.ndarray

    @property
    def num_classes(self):
        return self.counts.shape[0]

    @property
    def total(self):
        return int(self.counts.sum())

    def accuracy(self):
        return float(np.trace(self.counts)) / self.total

    def off_diagonal(self):
        """Off-diagonal entries, row-major (used for error-pattern comparison)."""
        k = self.num_classes
        mask = ~np.eye(k, dtype=bool)
        return self.counts[mask]


def confusion_matrix(stack, test_set, batch_size=256):
    labels = test_set.labels
    if np.any(labels < 0):
        raise ValidationError("confusion matrix needs real labels on every row")
    _check_classes(stack, test_set)
    k = stack.num_classes
    preds = stack.predict(test_set.images, batch_size).argmax(axis=1)
    counts = np.bincount(labels * k + preds, minlength=k * k).reshape(k, k)
    return ConfusionMatrix(counts.astype(np.int64))


def relative_accuracy(student_accuracy, mentor_accuracy):
    """100 * student / mentor. Units cancel, so fractions and percentages
    both work as long as the two arguments agree."""
    if mentor_accuracy <= 0:
        raise ValidationError(
            f"mentor accuracy must be positive, got {mentor_accuracy}"
        )
    return 100.0 * student_accuracy / mentor_accuracy


def format_percent(value):
    """Render a percentage with 2 decimals, truncating toward zero.

    Truncation (not rounding) is what reported relative accuracies follow:
    100 * 97.38 / 97.46 = 99.9179...% renders as "99.91". The 1e-6 nudge
    keeps exact decimals like 97.38 from landing one ulp below the floor
    boundary.
    """
    return f"{math.floor(value * 100 + 1e-6) / 100:.2f}"


@dataclass
class BenchResult:
    model_id: str
    reps: int
    per_rep_s: list
    mean_s: float
    std_s: float


def bench_inference(stack, test_set, reps=100, warmup=3, batch_size=256, model_id=None):
    """Time full-test-set eval-mode forward passes.

    Runs ``warmup`` untimed passes, then ``reps`` timed ones on the
    monotonic clock. std is the population standard deviation, so reps=1
    gives exactly 0.
    """
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    if warmup < 0:
        raise ValidationError(f"warmup must be >= 0, got {warmup}")
    for _ in range(warmup):
        stack.predict(test_set.images, batch_size)
    per_rep = []
    for _ in range(reps):
        t0 = time.perf_counter()
        stack.predict(test_set.images, batch_size)
        per_rep.append(time.perf_counter() - t0)
    return BenchResult(
        model_id=model_id if model_id is not None else stack.arch,
        reps=reps,
        per_rep_s=per_rep,
        mean_s=float(np.mean(per_rep)),
        std_s=float(np.std(per_rep)),
    )

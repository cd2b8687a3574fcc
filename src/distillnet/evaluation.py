"""Accuracy, loss and confusion counts, relative accuracy, inference benchmarks.

Every labeled score is a view of ``training._test_metrics``, the one scorer.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .training import _test_metrics


def evaluate(stack, test_set):
    """(accuracy, mean one-hot cross-entropy) on a labeled set; argmax ties
    break to the lowest class index."""
    return _test_metrics(stack, test_set)[:2]


def confusion_matrix(stack, test_set):
    """(K, K) int64 counts: [i, j] counts test rows of true class i predicted as j."""
    return _test_metrics(stack, test_set)[2]


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


def bench_inference(stack, test_set, reps=100, warmup=3, model_id=None):
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
        stack.predict(test_set.images)
    per_rep = []
    for _ in range(reps):
        t0 = time.perf_counter()
        stack.predict(test_set.images)
        per_rep.append(time.perf_counter() - t0)
    return BenchResult(
        model_id=model_id if model_id is not None else stack.arch,
        reps=reps,
        per_rep_s=per_rep,
        mean_s=float(np.mean(per_rep)),
        std_s=float(np.std(per_rep)),
    )

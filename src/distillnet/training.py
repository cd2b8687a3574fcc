"""Cross-entropy loss, SGD with momentum, and the training loop."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import Ruled, ShapeError, ValidationError, at_least, ruled


@dataclass
class TrainConfig(Ruled):
    """Hyperparameters for one training run.

    lr_decay multiplies the learning rate once per epoch, so epoch e
    (1-based) trains at learning_rate * lr_decay**(e-1).
    """

    learning_rate: float = ruled(0.01, (lambda v: 0 <= v < math.inf, "must be finite and >= 0"))
    momentum: float = ruled(0.9, (lambda v: 0 <= v < 1, "must be in [0, 1)"))
    batch_size: int = ruled(64, at_least(1))
    epochs: int = ruled(20, at_least(1))
    seed: int = ruled(0, at_least(0))
    shuffle: bool = True
    lr_decay: float = ruled(0.98, (lambda v: 0 < v <= 1, "must be in (0, 1]"))


@dataclass
class EpochLog:
    """Per-epoch record; epoch is 1-based."""

    epoch: int
    train_loss: float
    test_loss: float
    test_accuracy: float
    wall_time_s: float


def invalid_distribution_row(rows):
    """Describe the first row of a 2-d array that is not a probability
    distribution, or return None when every row is one.

    A row must be non-negative and sum to 1 within 1e-6. A NaN or -inf entry
    makes the row minimum fail the sign test and +inf fails the sum, so
    every accepted row is finite.
    """
    sums = rows.sum(axis=1, dtype=np.float64)  # wide: checked to 1e-6
    # written so that NaN entries and sums fail the test too
    ok = (rows.min(axis=1) >= 0) & (np.abs(sums - 1.0) <= 1e-6)
    if ok.all():
        return None
    bad = int(np.argmin(ok))
    return (f"row {bad} is not a probability distribution"
            f" (sum {sums[bad]!r}, min {rows[bad].min()!r})")


def cross_entropy(pred, target, check_target=True):
    """Mean over rows of sum_k -target_k * ln(pred_k).

    Both arrays are (N, K); every target row must be a probability
    distribution (see invalid_distribution_row); ``check_target=False`` is for
    rows checked already, as ``train`` does once per call. Entries of target
    that are exactly 0 contribute nothing even if the matching pred entry
    underflowed to 0.
    """
    pred = np.asarray(pred, dtype=np.float64)  # wide: the loss sums the whole batch
    target = np.asarray(target, dtype=np.float64)
    if pred.ndim != 2 or pred.shape != target.shape:
        raise ShapeError(f"pred {pred.shape} and target {target.shape} must be equal 2-d shapes")
    invalid = check_target and invalid_distribution_row(target)
    if invalid:
        raise ValidationError(f"target {invalid}")
    active = target > 0
    logp = np.log(np.where(active, pred, 1.0))
    return float(-(target * logp).sum() / pred.shape[0])


def sgd_step(params, grads, velocity, cfg):
    """In-place SGD-with-momentum update: v <- m*v + g; p <- p - lr*v."""
    if not (len(params) == len(grads) == len(velocity)):
        raise ShapeError("params, grads and velocity must have equal lengths")
    for p, g, v in zip(params, grads, velocity):
        if p.shape != g.shape or p.shape != v.shape:
            raise ShapeError(f"mismatched shapes {p.shape}/{g.shape}/{v.shape}")
        v *= cfg.momentum
        v += g
        p -= cfg.learning_rate * v
    return params, velocity


def _test_metrics(stack, test_set):
    """(accuracy, mean one-hot cross-entropy, (K, K) confusion counts) of a
    stack on a labeled set, from one eval pass; accuracy is trace(counts) / n.
    counts[i, j] is the number of rows of true class i predicted as class j."""
    labels = test_set.labels
    if np.any(labels < 0):
        raise ValidationError("metrics need real labels; set contains sentinel rows")
    k = stack.num_classes
    if test_set.num_classes != k:
        raise ShapeError(f"stack has {k} classes, test set has {test_set.num_classes}")
    probs = stack.predict(test_set.images)
    counts = np.bincount(labels * k + probs.argmax(axis=1), minlength=k * k).reshape(k, k)
    loss = float(-np.log(probs[np.arange(test_set.n), labels]).sum())
    return int(np.trace(counts)) / test_set.n, loss / test_set.n, counts


def train(stack, images, targets, test_set, cfg, progress=None):
    """Train a stack on (images, target distributions) with SGD momentum.

    targets may be one-hot or soft rows, checked once; the loop never looks
    at hard labels. Each epoch shuffles with the config RNG (which also feeds
    dropout), runs minibatches (final partial batch included), applies
    lr_decay, and evaluates on test_set. A batch whose loss is not finite
    stops training with a ValidationError naming the epoch and the batch.
    Returns (stack, [EpochLog...]);
    the stack is left in eval mode. Same config + same data => identical
    parameters and logs (wall time aside).
    """
    n = images.shape[0]
    if n == 0:
        raise ValidationError("empty training set")
    if targets.ndim != 2 or targets.shape[0] != n:
        raise ShapeError(f"targets shape {targets.shape} does not match {n} images")
    if cfg.batch_size > n:
        raise ValidationError(f"batch_size {cfg.batch_size} exceeds dataset size {n}")
    invalid = invalid_distribution_row(targets)
    if invalid:
        raise ValidationError(f"target {invalid}")

    rng = np.random.default_rng(cfg.seed)
    stack.rng = rng
    params = stack.parameters()
    velocity = [np.zeros_like(p) for p in params]
    lr = cfg.learning_rate
    logs = []
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        stack.set_mode("train")
        order = rng.permutation(n) if cfg.shuffle else np.arange(n)
        epoch_cfg = replace(cfg, learning_rate=lr)
        loss_sum = 0.0
        for batch, start in enumerate(range(0, n, cfg.batch_size), 1):
            sel = order[start : start + cfg.batch_size]
            batch_targets = targets[sel]
            loss = cross_entropy(stack.train_step(images[sel], batch_targets), batch_targets,
                                 check_target=False)
            if not np.isfinite(loss):
                raise ValidationError(
                    f"{stack.arch}: training loss is {loss!r} at epoch {epoch}, "
                    f"batch {batch}; training diverged"
                )
            loss_sum += loss * sel.size
            sgd_step(params, stack.gradients(), velocity, epoch_cfg)
        test_accuracy, test_loss, _ = _test_metrics(stack, test_set)
        log = EpochLog(epoch, loss_sum / n, test_loss, test_accuracy,
                       time.perf_counter() - t0)
        logs.append(log)
        if progress is not None:
            progress(log)
        lr *= cfg.lr_decay
    stack.set_mode("eval")
    return stack, logs

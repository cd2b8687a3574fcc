import math
import re

import numpy as np
import pytest

from distillnet.data import gen_synthetic_split, one_hot_rows
from distillnet.errors import ShapeError, ValidationError
from distillnet.network import parse_arch
from distillnet.training import EpochLog, TrainConfig, cross_entropy, sgd_step, train


def small_task(seed=0, difficulty=0.5, classes=4, per_class=30, test_per_class=15):
    return gen_synthetic_split(classes, per_class, test_per_class, (1, 6, 6), seed, difficulty)


# ---------------------------------------------------------------------------
# cross-entropy


def test_cross_entropy_uniform_oracle():
    # -sum(0.1 * ln 0.1) over 10 classes = ln 10
    pred = np.full((3, 10), 0.1)
    target = np.full((3, 10), 0.1)
    assert cross_entropy(pred, target) == pytest.approx(math.log(10), abs=1e-12)
    assert cross_entropy(pred, target) == pytest.approx(2.302585092994046, abs=1e-12)


def test_cross_entropy_two_class_oracle():
    # -(0.7 ln 0.6 + 0.3 ln 0.4) = 0.63246515619844
    value = cross_entropy(np.array([[0.6, 0.4]]), np.array([[0.7, 0.3]]))
    assert value == pytest.approx(0.63247, abs=1e-4)
    assert value == pytest.approx(
        -(0.7 * math.log(0.6) + 0.3 * math.log(0.4)), abs=1e-12
    )


def test_cross_entropy_one_hot_is_negative_log_likelihood():
    pred = np.array([[0.2, 0.5, 0.3]])
    target = np.array([[0.0, 1.0, 0.0]])
    assert cross_entropy(pred, target) == pytest.approx(-math.log(0.5), abs=1e-12)


def test_cross_entropy_zero_target_entries_are_inert():
    # pred prob 0 where target is 0 must not produce inf/nan
    pred = np.array([[1.0, 0.0]])
    target = np.array([[1.0, 0.0]])
    assert cross_entropy(pred, target) == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_is_mean_over_rows():
    pred = np.array([[0.5, 0.5], [0.9, 0.1]])
    target = np.array([[1.0, 0.0], [1.0, 0.0]])
    expect = (-math.log(0.5) - math.log(0.9)) / 2
    assert cross_entropy(pred, target) == pytest.approx(expect, abs=1e-12)


def test_cross_entropy_exceeds_entropy_of_target():
    # CE(t, p) = H(t) + KL(t||p) >= H(t), equality iff p = t
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = rng.random(6)
        t /= t.sum()
        p = rng.random(6)
        p /= p.sum()
        h = float(-(t * np.log(t)).sum())
        assert cross_entropy(p[None], t[None]) >= h - 1e-12
    t = rng.random(6)
    t /= t.sum()
    assert cross_entropy(t[None], t[None]) == pytest.approx(
        float(-(t * np.log(t)).sum()), abs=1e-12
    )


def test_cross_entropy_validation():
    with pytest.raises(ShapeError):
        cross_entropy(np.zeros((2, 3)), np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        cross_entropy(np.zeros(3), np.zeros(3))
    with pytest.raises(ValidationError) as err:
        cross_entropy(np.full((2, 2), 0.5), np.array([[0.5, 0.5], [0.9, 0.5]]))
    assert "row 1" in str(err.value)


def test_cross_entropy_rejects_nan_target_row():
    # abs(nan - 1) > 1e-6 is False, so the check must be phrased as a pass test
    target = np.array([[0.5, 0.5], [np.nan, 0.5], [0.25, 0.75]])
    with pytest.raises(ValidationError) as err:
        cross_entropy(np.full((3, 2), 0.5), target)
    assert "row 1" in str(err.value)


def test_cross_entropy_rejects_negative_target_row():
    # the row sums to 1; the loss would skip its negative entry, but the
    # gradient (probs - targets) would still be driven by it
    target = np.array([[0.5, 0.5, 0.0], [1.5, -0.5, 0.0]])
    with pytest.raises(ValidationError) as err:
        cross_entropy(np.full((2, 3), 1 / 3), target)
    assert "row 1" in str(err.value)


# ---------------------------------------------------------------------------
# SGD with momentum


def test_sgd_momentum_two_step_oracle():
    # m=0.9, lr=0.1, constant gradient 1, starting at 0:
    # step 1: v=1,   theta=-0.1
    # step 2: v=1.9, theta=-0.29
    cfg = TrainConfig(learning_rate=0.1, momentum=0.9)
    p = [np.zeros(1)]
    v = [np.zeros(1)]
    g = [np.ones(1)]
    sgd_step(p, g, v, cfg)
    assert v[0][0] == pytest.approx(1.0, abs=1e-15)
    assert p[0][0] == pytest.approx(-0.1, abs=1e-15)
    sgd_step(p, g, v, cfg)
    assert v[0][0] == pytest.approx(1.9, abs=1e-15)
    assert p[0][0] == pytest.approx(-0.29, abs=1e-15)


def test_sgd_zero_momentum_is_plain_gradient_descent():
    cfg = TrainConfig(learning_rate=0.5, momentum=0.0)
    p = [np.array([2.0])]
    v = [np.zeros(1)]
    sgd_step(p, [np.array([1.0])], v, cfg)
    assert p[0][0] == pytest.approx(1.5, abs=1e-15)
    sgd_step(p, [np.array([-2.0])], v, cfg)
    assert p[0][0] == pytest.approx(2.5, abs=1e-15)


def test_sgd_updates_in_place():
    cfg = TrainConfig(learning_rate=0.1, momentum=0.9)
    p = [np.zeros(3)]
    v = [np.zeros(3)]
    p_out, v_out = sgd_step(p, [np.ones(3)], v, cfg)
    assert p_out[0] is p[0]
    assert v_out[0] is v[0]


def test_sgd_shape_validation():
    cfg = TrainConfig()
    with pytest.raises(ShapeError):
        sgd_step([np.zeros(2)], [np.zeros(2)], [], cfg)
    with pytest.raises(ShapeError):
        sgd_step([np.zeros(2)], [np.zeros(3)], [np.zeros(2)], cfg)


# ---------------------------------------------------------------------------
# TrainConfig validation


def test_train_config_defaults():
    cfg = TrainConfig()
    assert cfg.learning_rate == 0.01
    assert cfg.momentum == 0.9
    assert cfg.batch_size == 64
    assert cfg.epochs == 20
    assert cfg.shuffle is True
    assert cfg.lr_decay == 0.98


def test_train_config_rejects_bad_values():
    with pytest.raises(ValidationError):
        TrainConfig(learning_rate=-0.1)
    with pytest.raises(ValidationError):
        TrainConfig(learning_rate=float("nan"))
    with pytest.raises(ValidationError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ValidationError):
        TrainConfig(momentum=-0.1)
    with pytest.raises(ValidationError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValidationError):
        TrainConfig(epochs=0)
    with pytest.raises(ValidationError):
        TrainConfig(lr_decay=0.0)
    with pytest.raises(ValidationError):
        TrainConfig(lr_decay=1.5)


# ---------------------------------------------------------------------------
# the training loop


def test_train_is_deterministic_for_fixed_seed():
    train_set, test_set = small_task()
    targets = one_hot_rows(train_set.labels, 4)
    cfg = TrainConfig(epochs=3, batch_size=16, seed=9)
    runs = []
    for _ in range(2):
        stack = parse_arch("c(3,4)-mp-fc(16)-d(0.2)-fc-s", (1, 6, 6), 4, seed=1)
        stack, logs = train(stack, train_set.images, targets, test_set, cfg)
        runs.append((stack, logs))
    a, b = runs
    for (_, pa), (_, pb) in zip(a[0].state_items(), b[0].state_items()):
        assert np.array_equal(pa, pb)
    for la, lb in zip(a[1], b[1]):
        assert la.epoch == lb.epoch
        assert la.train_loss == lb.train_loss
        assert la.test_loss == lb.test_loss
        assert la.test_accuracy == lb.test_accuracy  # wall time may differ


def test_train_seed_changes_trajectory():
    train_set, test_set = small_task()
    targets = one_hot_rows(train_set.labels, 4)
    outs = []
    for seed in (0, 1):
        stack = parse_arch("fc(16)-fc-s", (1, 6, 6), 4, seed=1)
        cfg = TrainConfig(epochs=2, batch_size=16, seed=seed)
        _, logs = train(stack, train_set.images, targets, test_set, cfg)
        outs.append(logs[-1].train_loss)
    assert outs[0] != outs[1]


def test_train_zero_lr_is_a_no_op_on_parameters():
    train_set, test_set = small_task()
    targets = one_hot_rows(train_set.labels, 4)
    stack = parse_arch("fc(16)-fc-s", (1, 6, 6), 4, seed=3)
    before = [arr.copy() for _, arr in stack.state_items()]
    cfg = TrainConfig(learning_rate=0.0, epochs=2, batch_size=20)
    stack, _ = train(stack, train_set.images, targets, test_set, cfg)
    for (name, arr), prev in zip(stack.state_items(), before):
        assert np.array_equal(arr, prev), name


def test_train_loss_decreases_on_easy_task():
    train_set, test_set = small_task(difficulty=0.3)
    targets = one_hot_rows(train_set.labels, 4)
    stack = parse_arch("fc(32)-fc-s", (1, 6, 6), 4, seed=0)
    # full batch + no decay: the first epochs should be monotone downhill
    cfg = TrainConfig(
        learning_rate=0.05, momentum=0.0, batch_size=120, epochs=5,
        shuffle=False, lr_decay=1.0,
    )
    _, logs = train(stack, train_set.images, targets, test_set, cfg)
    losses = [log.train_loss for log in logs]
    assert all(b < a for a, b in zip(losses, losses[1:]))
    assert logs[-1].test_accuracy > 0.5


def test_train_reaches_high_accuracy_on_easy_synthetic():
    train_set, test_set = small_task(difficulty=0.1, per_class=25, test_per_class=25)
    targets = one_hot_rows(train_set.labels, 4)
    stack = parse_arch("fc-s", (1, 6, 6), 4, seed=0)
    cfg = TrainConfig(epochs=20, batch_size=20, seed=0)
    _, logs = train(stack, train_set.images, targets, test_set, cfg)
    assert logs[-1].test_accuracy == 1.0


def test_train_accepts_soft_targets():
    train_set, test_set = small_task()
    n = train_set.n
    rng = np.random.default_rng(0)
    soft = rng.random((n, 4))
    soft /= soft.sum(axis=1, keepdims=True)
    stack = parse_arch("fc(8)-fc-s", (1, 6, 6), 4, seed=0)
    _, logs = train(stack, train_set.images, soft, test_set,
                    TrainConfig(epochs=1, batch_size=30))
    assert len(logs) == 1 and np.isfinite(logs[0].train_loss)


def test_train_epoch_logs_are_1_based_and_complete():
    train_set, test_set = small_task()
    targets = one_hot_rows(train_set.labels, 4)
    stack = parse_arch("fc-s", (1, 6, 6), 4, seed=0)
    _, logs = train(stack, train_set.images, targets, test_set,
                    TrainConfig(epochs=4, batch_size=30))
    assert [log.epoch for log in logs] == [1, 2, 3, 4]
    for log in logs:
        assert isinstance(log, EpochLog)
        assert log.wall_time_s >= 0.0
        assert 0.0 <= log.test_accuracy <= 1.0


def test_train_leaves_stack_in_eval_mode():
    train_set, test_set = small_task()
    targets = one_hot_rows(train_set.labels, 4)
    stack = parse_arch("fc-s", (1, 6, 6), 4, seed=0)
    stack, _ = train(stack, train_set.images, targets, test_set,
                     TrainConfig(epochs=1, batch_size=30))
    assert stack.mode == "eval"


def test_train_gradient_is_batch_order_invariant():
    # one full-batch step must not depend on row order inside the batch
    train_set, test_set = small_task()
    targets = one_hot_rows(train_set.labels, 4)
    perm = np.random.default_rng(5).permutation(train_set.n)
    results = []
    for images, t in (
        (train_set.images, targets),
        (train_set.images[perm], targets[perm]),
    ):
        stack = parse_arch("fc(16)-fc-s", (1, 6, 6), 4, seed=2)
        cfg = TrainConfig(learning_rate=0.1, momentum=0.0,
                          batch_size=train_set.n, epochs=1,
                          shuffle=False, lr_decay=1.0)
        stack, _ = train(stack, images, t, test_set, cfg)
        results.append([arr.copy() for _, arr in stack.state_items()])
    for a, b in zip(*results):
        assert np.allclose(a, b, atol=1e-12)


def test_train_validation_errors():
    train_set, test_set = small_task()
    targets = one_hot_rows(train_set.labels, 4)
    stack = parse_arch("fc-s", (1, 6, 6), 4, seed=0)
    with pytest.raises(ValidationError):
        train(stack, train_set.images[:0], targets[:0], test_set, TrainConfig())
    with pytest.raises(ShapeError):
        train(stack, train_set.images, targets[:-1], test_set, TrainConfig())
    with pytest.raises(ValidationError):
        train(stack, train_set.images, targets, test_set,
              TrainConfig(batch_size=train_set.n + 1))


def test_train_checks_the_targets_once_before_any_batch(monkeypatch):
    from distillnet import training

    calls = []
    check = training.invalid_distribution_row
    monkeypatch.setattr(training, "invalid_distribution_row",
                        lambda rows: calls.append(len(rows)) or check(rows))
    train_set, test_set = small_task()
    targets = one_hot_rows(train_set.labels, 4)
    stack = parse_arch("fc(8)-fc-s", (1, 6, 6), 4, seed=0)
    train(stack, train_set.images, targets, test_set, TrainConfig(epochs=2, batch_size=16))
    assert calls == [train_set.n]  # 2 epochs of 8 batches, one check
    # a bad row is refused by its index in the whole set, before a step is taken
    targets[37] = [0.5, 0.5, 0.5, 0.0]
    stack = parse_arch("fc(8)-fc-s", (1, 6, 6), 4, seed=0)
    before = [p.copy() for p in stack.parameters()]
    with pytest.raises(ValidationError, match="^target row 37 is not a probability"):
        train(stack, train_set.images, targets, test_set, TrainConfig(batch_size=16))
    assert all(np.array_equal(a, b) for a, b in zip(before, stack.parameters()))


@pytest.mark.parametrize("stack_classes, test_classes", [(10, 4), (4, 10)])
def test_train_refuses_a_test_set_of_another_class_count(stack_classes, test_classes):
    # the first epoch's test pass checks the class count, before any epoch is
    # logged: fewer test classes than the stack's must not score silently, and
    # more must not die in numpy indexing
    train_set, _ = small_task()
    _, test_set = small_task(classes=test_classes)
    stack = parse_arch("fc-s", (1, 6, 6), stack_classes, seed=0)
    targets = one_hot_rows(train_set.labels, stack_classes)
    logs = []
    with pytest.raises(ShapeError, match=f"stack has {stack_classes} classes, "
                                         f"test set has {test_classes}"):
        train(stack, train_set.images, targets, test_set,
              TrainConfig(epochs=2, batch_size=16), progress=logs.append)
    assert logs == []


def test_train_non_finite_loss_names_epoch_and_batch():
    train_set, test_set = small_task(seed=4)
    stack = parse_arch("fc(16)-fc-s", (1, 6, 6), 4, seed=0)
    cfg = TrainConfig(learning_rate=1e6, epochs=2, batch_size=16, seed=0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        with pytest.raises(ValidationError) as err:
            train(stack, train_set.images, one_hot_rows(train_set.labels, 4), test_set, cfg)
    msg = str(err.value)
    assert "fc(16)-fc-s" in msg and re.search(r"at epoch 1, batch \d+;", msg)


def test_train_lr_decay_schedule_observable():
    # with decay 0.5 the second epoch moves parameters half as far as it
    # would undecayed; verify via two runs differing only in lr_decay
    train_set, test_set = small_task()
    targets = one_hot_rows(train_set.labels, 4)

    def run(decay):
        stack = parse_arch("fc-s", (1, 6, 6), 4, seed=6)
        cfg = TrainConfig(learning_rate=0.01, momentum=0.0, batch_size=120,
                          epochs=1, shuffle=False, lr_decay=decay)
        stack, _ = train(stack, train_set.images, targets, test_set, cfg)
        return stack

    # decay applies after each epoch, so 1-epoch runs agree regardless of decay
    a = run(1.0)
    b = run(0.5)
    for (_, pa), (_, pb) in zip(a.state_items(), b.state_items()):
        assert np.array_equal(pa, pb)

import math

import numpy as np
import pytest

from distillnet.data import LabeledImageSet, gen_synthetic, gen_synthetic_split, one_hot_rows
from distillnet.errors import ShapeError, ValidationError
from distillnet.evaluation import (
    BenchResult,
    bench_inference,
    confusion_matrix,
    evaluate,
    format_percent,
    relative_accuracy,
)
from distillnet import network
from distillnet.network import parse_arch
from distillnet.training import TrainConfig, train


def zero_stack(num_classes=10, shape=(1, 4, 4)):
    """fc-s stack with zeroed weights: every row comes out uniform."""
    stack = parse_arch("fc-s", shape, num_classes, seed=0)
    stack.layers[0].params["weight"][...] = 0.0
    stack.layers[0].params["bias"][...] = 0.0
    stack.set_mode("eval")
    return stack


def test_evaluate_uniform_model_on_balanced_set():
    # uniform probabilities: argmax is class 0 everywhere, so accuracy is
    # exactly 1/K on a balanced set and the loss is exactly ln K
    ds = gen_synthetic(10, 10, (1, 4, 4), 0, 0.5)
    stack = zero_stack()
    acc, loss = evaluate(stack, ds)
    assert acc == pytest.approx(0.1, abs=1e-15)
    assert loss == pytest.approx(math.log(10), abs=1e-12)


def test_evaluate_perfect_model():
    train_set, test_set = gen_synthetic_split(3, 30, 15, (1, 5, 5), 0, 0.1)
    stack = parse_arch("fc-s", (1, 5, 5), 3, seed=0)
    stack, _ = train(stack, train_set.images, one_hot_rows(train_set.labels, 3),
                     test_set,
                     TrainConfig(learning_rate=0.05, epochs=20, batch_size=15))
    acc, loss = evaluate(stack, test_set)
    assert acc == 1.0
    assert loss < 0.5


def test_evaluate_batch_size_invariant(monkeypatch):
    ds = gen_synthetic(4, 30, (1, 5, 5), 1, 0.8)
    stack = parse_arch("fc(16)-fc-s", (1, 5, 5), 4, seed=2)
    monkeypatch.setattr(network, "EVAL_BATCH", 7)
    a = evaluate(stack, ds)
    monkeypatch.setattr(network, "EVAL_BATCH", 1000)
    b = evaluate(stack, ds)
    assert a[0] == b[0]
    assert a[1] == pytest.approx(b[1], abs=1e-12)


def test_evaluate_class_count_mismatch():
    ds = gen_synthetic(4, 5, (1, 4, 4), 0, 0.5)
    stack = zero_stack(num_classes=10, shape=(1, 4, 4))
    with pytest.raises(ShapeError):
        evaluate(stack, ds)


def test_evaluate_rejects_sentinel_labels():
    ds = LabeledImageSet(np.zeros((4, 1, 4, 4)), np.array([0, 1, -1, 1]), num_classes=10)
    with pytest.raises(ValidationError):
        evaluate(zero_stack(), ds)


def test_evaluate_restores_mode():
    ds = gen_synthetic(10, 3, (1, 4, 4), 0, 0.5)
    stack = zero_stack()
    stack.set_mode("train")
    evaluate(stack, ds)
    assert stack.mode == "train"


# ---------------------------------------------------------------------------
# confusion matrix


def test_confusion_matrix_hand_built_case():
    # craft a 2-class model: weight pushes prob to class 0 for dark images,
    # class 1 for bright images
    stack = parse_arch("fc-s", (1, 2, 2), 2, seed=0)
    stack.layers[0].params["weight"][...] = 0.0
    stack.layers[0].params["weight"][:, 1] = 10.0  # bright -> class 1
    stack.layers[0].params["bias"][...] = np.array([5.0, 0.0])
    stack.set_mode("eval")
    images = np.zeros((4, 1, 2, 2))
    images[2:] = 1.0  # two dark rows, two bright rows
    labels = np.array([0, 1, 1, 1])
    ds = LabeledImageSet(images, labels, num_classes=2)
    m = confusion_matrix(stack, ds)
    # dark rows -> class 0 (bias wins), bright rows -> class 1 (40 > 5)
    assert m.tolist() == [[1, 0], [1, 2]]
    assert m.dtype == np.int64
    assert m.sum() == 4
    assert np.trace(m) / m.sum() == pytest.approx(0.75, abs=1e-15)


def test_confusion_matrix_trace_equals_accuracy():
    ds = gen_synthetic(5, 20, (1, 5, 5), 3, 0.9)
    stack = parse_arch("fc(16)-fc-s", (1, 5, 5), 5, seed=1)
    m = confusion_matrix(stack, ds)
    acc, _ = evaluate(stack, ds)
    assert np.trace(m) / ds.n == pytest.approx(acc, abs=1e-15)
    assert m.shape == (5, 5)
    assert m.sum() == ds.n
    # row sums are the class counts
    for k in range(5):
        assert m[k].sum() == ds.class_counts[k]


def test_confusion_matrix_batch_invariant(monkeypatch):
    ds = gen_synthetic(3, 25, (1, 5, 5), 0, 0.8)
    stack = parse_arch("fc-s", (1, 5, 5), 3, seed=5)
    monkeypatch.setattr(network, "EVAL_BATCH", 4)
    a = confusion_matrix(stack, ds)
    monkeypatch.setattr(network, "EVAL_BATCH", 500)
    b = confusion_matrix(stack, ds)
    assert np.array_equal(a, b)


def test_confusion_matrix_rejects_sentinels():
    ds = LabeledImageSet(np.zeros((2, 1, 4, 4)), np.array([0, -1]), num_classes=10)
    with pytest.raises(ValidationError):
        confusion_matrix(zero_stack(), ds)


# ---------------------------------------------------------------------------
# relative accuracy and rendering


def test_relative_accuracy():
    assert relative_accuracy(97.38, 97.46) == pytest.approx(99.91791, abs=1e-4)
    assert relative_accuracy(50.0, 100.0) == 50.0
    assert relative_accuracy(1.0, 1.0) == 100.0
    assert relative_accuracy(73.58, 73.14) > 100.0  # students can beat mentors
    with pytest.raises(ValidationError):
        relative_accuracy(50.0, 0.0)
    with pytest.raises(ValidationError):
        relative_accuracy(50.0, -1.0)


def test_format_percent_truncates_not_rounds():
    # 97.38/97.46 = 99.9179...%, which renders as 99.91 (not 99.92)
    assert format_percent(relative_accuracy(97.38, 97.46)) == "99.91"
    assert format_percent(99.9199) == "99.91"
    assert format_percent(99.916) == "99.91"


def test_format_percent_known_quintet():
    pairs = [
        (97.38, 97.46, "99.91"),
        (97.17, 97.46, "99.70"),
        (73.58, 73.14, "100.60"),
        (72.38, 73.14, "98.96"),
        (69.63, 73.14, "95.20"),
    ]
    for student, mentor, expected in pairs:
        assert format_percent(relative_accuracy(student, mentor)) == expected


def test_format_percent_edge_values():
    assert format_percent(100.0) == "100.00"
    assert format_percent(0.0) == "0.00"
    assert format_percent(12.5) == "12.50"
    # exact two-decimal values survive the floor (the tiny nudge guards
    # against 12.34 arriving as 12.339999...)
    assert format_percent(12.34) == "12.34"
    # truncation is strict: anything genuinely below the next hundredth stays
    assert format_percent(99.9989) == "99.99"


# ---------------------------------------------------------------------------
# benchmarking


def test_bench_inference_basic():
    ds = gen_synthetic(3, 20, (1, 5, 5), 0, 0.5)
    stack = parse_arch("fc-s", (1, 5, 5), 3, seed=0)
    result = bench_inference(stack, ds, reps=5, warmup=1)
    assert isinstance(result, BenchResult)
    assert result.reps == 5
    assert len(result.per_rep_s) == 5
    assert result.mean_s > 0
    assert result.mean_s == pytest.approx(np.mean(result.per_rep_s), rel=1e-12)
    assert result.std_s == pytest.approx(np.std(result.per_rep_s), rel=1e-9)
    assert result.model_id == stack.arch  # default id


def test_bench_single_rep_has_zero_std():
    ds = gen_synthetic(3, 10, (1, 5, 5), 0, 0.5)
    stack = parse_arch("fc-s", (1, 5, 5), 3, seed=0)
    result = bench_inference(stack, ds, reps=1, warmup=0, model_id="m")
    assert result.std_s == 0.0
    assert result.model_id == "m"


def test_bench_validation_and_mode_restore():
    ds = gen_synthetic(3, 10, (1, 5, 5), 0, 0.5)
    stack = parse_arch("fc-s", (1, 5, 5), 3, seed=0)
    with pytest.raises(ValidationError):
        bench_inference(stack, ds, reps=0)
    with pytest.raises(ValidationError):
        bench_inference(stack, ds, reps=2, warmup=-1)
    stack.set_mode("train")
    bench_inference(stack, ds, reps=1, warmup=0)
    assert stack.mode == "train"


def test_bench_scales_with_model_cost():
    # a much bigger model should take measurably longer per pass
    ds = gen_synthetic(3, 60, (1, 8, 8), 0, 0.5)
    small = parse_arch("fc-s", (1, 8, 8), 3, seed=0)
    big = parse_arch("c(3,32)-c(3,32)-fc(256)-fc-s", (1, 8, 8), 3, seed=0)
    t_small = bench_inference(small, ds, reps=3, warmup=1).mean_s
    t_big = bench_inference(big, ds, reps=3, warmup=1).mean_s
    assert t_big > t_small


import struct
import tracemalloc

import numpy as np
import pytest

from distillnet import data
from distillnet.data import (
    LabeledImageSet,
    gen_synthetic,
    gen_synthetic_split,
    load_cifar,
    load_idx,
    one_hot_rows,
    standardize_per_channel,
    subset_classes,
)
from distillnet.errors import FormatError, ValidationError


def write_idx_pair(tmp_path, pixels, labels, rows=2, cols=2):
    """Build a tiny IDX image/label file pair and return their paths."""
    count = len(labels)
    images = tmp_path / "imgs.idx"
    images.write_bytes(
        struct.pack(">IIII", 0x00000803, count, rows, cols) + bytes(pixels)
    )
    lab = tmp_path / "labs.idx"
    lab.write_bytes(struct.pack(">II", 0x00000801, count) + bytes(labels))
    return str(images), str(lab)


def test_load_idx_round_trip(tmp_path):
    pixels = [0, 255, 128, 64, 10, 20, 30, 40]
    imgs, labs = write_idx_pair(tmp_path, pixels, [3, 1])
    ds = load_idx(imgs, labs)
    assert ds.images.shape == (2, 1, 2, 2)
    assert ds.images.dtype == np.float64
    assert ds.images[0, 0, 0, 0] == 0.0
    assert ds.images[0, 0, 0, 1] == 1.0
    assert ds.images[0, 0, 1, 0] == pytest.approx(128 / 255)
    assert ds.labels.tolist() == [3, 1]
    assert ds.num_classes == 4  # inferred from max label


def test_load_idx_explicit_num_classes(tmp_path):
    imgs, labs = write_idx_pair(tmp_path, [0] * 8, [3, 1])
    ds = load_idx(imgs, labs, num_classes=10)
    assert ds.num_classes == 10


def test_load_idx_bad_magic(tmp_path):
    imgs, labs = write_idx_pair(tmp_path, [0] * 8, [0, 1])
    bad = tmp_path / "bad.idx"
    bad.write_bytes(struct.pack(">IIII", 0x00000801, 2, 2, 2) + bytes(8))
    with pytest.raises(FormatError) as err:
        load_idx(str(bad), labs)
    assert "magic" in str(err.value)


def test_load_idx_truncated_payload(tmp_path):
    imgs = tmp_path / "short.idx"
    imgs.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes(7))
    _, labs = write_idx_pair(tmp_path, [0] * 8, [0, 1])
    with pytest.raises(FormatError):
        load_idx(str(imgs), labs)


def test_load_idx_truncated_header(tmp_path):
    imgs = tmp_path / "hdr.idx"
    imgs.write_bytes(b"\x00\x00\x08")
    _, labs = write_idx_pair(tmp_path, [0] * 8, [0, 1])
    with pytest.raises(FormatError):
        load_idx(str(imgs), labs)


def test_load_idx_count_mismatch(tmp_path):
    imgs, _ = write_idx_pair(tmp_path, [0] * 8, [0, 1])
    labs = tmp_path / "three.idx"
    labs.write_bytes(struct.pack(">II", 0x00000801, 3) + bytes([0, 1, 2]))
    with pytest.raises(FormatError):
        load_idx(imgs, str(labs))


def test_load_idx_truncated_labels(tmp_path):
    imgs, _ = write_idx_pair(tmp_path, [0] * 8, [0, 1])
    labs = tmp_path / "shortlab.idx"
    labs.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes([0]))
    with pytest.raises(FormatError):
        load_idx(imgs, str(labs))


def cifar10_batch(records):
    """records: list of (label, fill_byte). 3072 pixel bytes per record."""
    return b"".join(bytes([lab]) + bytes([fill]) * 3072 for lab, fill in records)


def test_load_cifar10(tmp_path):
    path = tmp_path / "batch.bin"
    path.write_bytes(cifar10_batch([(7, 255), (2, 0)]))
    ds = load_cifar([str(path)])
    assert ds.images.shape == (2, 3, 32, 32)
    assert ds.labels.tolist() == [7, 2]
    assert ds.images[0].min() == ds.images[0].max() == 1.0
    assert ds.images[1].max() == 0.0
    assert ds.num_classes == 10


def test_load_cifar10_concatenates_batches(tmp_path):
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    a.write_bytes(cifar10_batch([(1, 0)]))
    b.write_bytes(cifar10_batch([(2, 0), (3, 0)]))
    ds = load_cifar([str(a), str(b)])
    assert ds.labels.tolist() == [1, 2, 3]


def test_load_cifar100_uses_fine_label(tmp_path):
    path = tmp_path / "train.bin"
    # coarse byte 5, fine byte 42
    path.write_bytes(bytes([5, 42]) + bytes(3072))
    ds = load_cifar([str(path)], num_classes=100)
    assert ds.labels.tolist() == [42]
    assert ds.images.shape == (1, 3, 32, 32)


def test_load_cifar_plane_order(tmp_path):
    # R plane 10s, G plane 20s, B plane 30s
    payload = bytes([0]) + bytes([10] * 1024) + bytes([20] * 1024) + bytes([30] * 1024)
    path = tmp_path / "rgb.bin"
    path.write_bytes(payload)
    ds = load_cifar([str(path)])
    assert ds.images[0, 0].mean() == pytest.approx(10 / 255)
    assert ds.images[0, 1].mean() == pytest.approx(20 / 255)
    assert ds.images[0, 2].mean() == pytest.approx(30 / 255)


def test_load_cifar_bad_record_size(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(cifar10_batch([(1, 0)]) + b"x")
    with pytest.raises(FormatError):
        load_cifar([str(path)])


def test_load_cifar_label_out_of_range(tmp_path):
    path = tmp_path / "oob.bin"
    path.write_bytes(cifar10_batch([(10, 0)]))
    with pytest.raises(FormatError):
        load_cifar([str(path)])


def test_load_cifar_rejects_bad_class_count(tmp_path):
    with pytest.raises(ValidationError):
        load_cifar(["whatever.bin"], num_classes=20)
    with pytest.raises(ValidationError):
        load_cifar([])


# ---------------------------------------------------------------------------
# synthetic data


def test_gen_synthetic_shapes_counts_and_order():
    ds = gen_synthetic(3, 5, (2, 4, 4), seed=0, difficulty=0.5)
    assert ds.images.shape == (15, 2, 4, 4)
    assert ds.labels.tolist() == [0] * 5 + [1] * 5 + [2] * 5  # class-major
    assert ds.class_counts == {0: 5, 1: 5, 2: 5}
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


def test_gen_synthetic_deterministic():
    a = gen_synthetic(4, 10, (1, 5, 5), seed=42, difficulty=0.7)
    b = gen_synthetic(4, 10, (1, 5, 5), seed=42, difficulty=0.7)
    assert np.array_equal(a.images, b.images)
    c = gen_synthetic(4, 10, (1, 5, 5), seed=43, difficulty=0.7)
    assert not np.array_equal(a.images, c.images)


def test_gen_synthetic_easy_task_is_separable():
    # at difficulty 0.1 nearest-template-mean classification should be perfect
    ds = gen_synthetic(2, 25, (1, 6, 6), seed=1, difficulty=0.1)
    means = np.stack([
        ds.images[ds.labels == k].mean(axis=0).ravel() for k in range(2)
    ])
    flat = ds.images.reshape(ds.n, -1)
    d = ((flat[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    assert (d.argmin(axis=1) == ds.labels).all()


def test_gen_synthetic_difficulty_scales_noise():
    easy = gen_synthetic(2, 50, (1, 6, 6), seed=3, difficulty=0.1)
    hard = gen_synthetic(2, 50, (1, 6, 6), seed=3, difficulty=1.0)
    # same templates (same seed), so per-class spread tracks difficulty
    spread_easy = easy.images[easy.labels == 0].std(axis=0).mean()
    spread_hard = hard.images[hard.labels == 0].std(axis=0).mean()
    assert spread_hard > 3 * spread_easy


@pytest.mark.parametrize("classes, per_class, shape", [
    (10, 10**9, (1, 8, 8)),  # 4.7 TiB of images
    (10, 1, (100000, 100000, 100000)),  # 71 PiB of templates
])
def test_gen_synthetic_past_its_bound_is_refused_before_it_allocates(classes, per_class, shape):
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=f"more than {data._MAX_VALUES:,}$"):
            gen_synthetic(classes, per_class, shape, 0, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"refusing it peaked at {peak} bytes"


def test_the_synthetic_bound_counts_images_and_template_pairs(monkeypatch):
    # 45 classes of 1x1x1 images draw 45 values and compare 990 template
    # pairs; 46 classes compare 1,035, past a bound of 1,000; 1,000 images pass
    # and 1,001 do not. An MNIST-sized set (70,000 images of 1x28x28) fits the
    # real bound.
    assert 70_000 * 28 * 28 <= data._MAX_VALUES
    monkeypatch.setattr(data, "_MAX_VALUES", 1000)
    assert gen_synthetic(45, 1, (1, 1, 1), 0, 0.5).n == 45
    assert gen_synthetic(2, 500, (1, 1, 1), 0, 0.5).n == 1000
    for classes, per_class in [(46, 1), (7, 143)]:
        with pytest.raises(ValidationError, match="more than 1,000$"):
            gen_synthetic(classes, per_class, (1, 1, 1), 0, 0.5)


def test_gen_synthetic_validation():
    with pytest.raises(ValidationError):
        gen_synthetic(1, 5, (1, 4, 4), 0, 0.5)
    with pytest.raises(ValidationError):
        gen_synthetic(2, 0, (1, 4, 4), 0, 0.5)
    with pytest.raises(ValidationError):
        gen_synthetic(2, 5, (1, 4, 4), 0, 0.0)
    with pytest.raises(ValidationError):
        gen_synthetic(2, 5, (1, 4, 4), 0, 1.5)
    with pytest.raises(ValidationError):
        gen_synthetic(2, 5, (1, 4), 0, 0.5)


def _gen_synthetic_reference(num_classes, per_class, shape, seed, difficulty):
    """gen_synthetic's images from its earlier formula, which took sigma from
    the full (K, K) matrix of pairwise template distances."""
    rng = np.random.default_rng(seed)
    templates = rng.uniform(0.2, 0.8, (num_classes, *shape))
    flat = templates.reshape(num_classes, -1)
    diffs = flat[:, None, :] - flat[None, :, :]
    pair_ms = (diffs**2).mean(axis=2)
    sigma = difficulty * float(np.sqrt(pair_ms[np.triu_indices(num_classes, k=1)].mean()))
    images = np.empty((num_classes * per_class, *shape))
    for k in range(num_classes):
        noise = rng.normal(0.0, sigma, (per_class, *shape))
        images[k * per_class : (k + 1) * per_class] = np.clip(templates[k] + noise, 0.0, 1.0)
    return images


@pytest.mark.parametrize("num_classes, shape, seed", [
    (2, (1, 8, 8), 0), (3, (2, 4, 4), 5), (10, (1, 8, 8), 7),
    (17, (3, 5, 7), 11), (40, (3, 32, 32), 2),
])
def test_gen_synthetic_matches_the_pairwise_matrix_formula_bytes(num_classes, shape, seed):
    # each template pair is compared once, in the upper triangle's order, so
    # sigma and every image keep the bytes of the (K, K) formula
    got = gen_synthetic(num_classes, 3, shape, seed=seed, difficulty=0.6).images
    want = _gen_synthetic_reference(num_classes, 3, shape, seed, 0.6)
    assert got.tobytes() == want.tobytes()


def test_gen_synthetic_split_shares_templates():
    train, test = gen_synthetic_split(3, 8, 4, (1, 5, 5), seed=5, difficulty=0.4)
    assert train.n == 24 and test.n == 12
    assert train.class_counts == {0: 8, 1: 8, 2: 8}
    assert test.class_counts == {0: 4, 1: 4, 2: 4}
    # same underlying templates: per-class means of train and test agree
    for k in range(3):
        tm = train.images[train.labels == k].mean(axis=0)
        sm = test.images[test.labels == k].mean(axis=0)
        assert np.abs(tm - sm).mean() < 0.2
    # train and test rows are disjoint draws
    flat_train = {t.tobytes() for t in train.images}
    assert all(img.tobytes() not in flat_train for img in test.images)


# ---------------------------------------------------------------------------
# LabeledImageSet


def test_labeled_set_label_read_audit():
    ds = gen_synthetic(2, 3, (1, 4, 4), 0, 0.5)
    assert ds.label_reads == 0
    _ = ds.labels
    _ = ds.labels
    assert ds.label_reads == 2
    ds.reset_label_reads()
    assert ds.label_reads == 0
    # construction-time bookkeeping (class_counts, subset) is not a read
    sub = ds.subset([0, 3])
    assert ds.label_reads == 0
    assert sub.label_reads == 0


def test_labeled_set_subset_keeps_order_and_classes():
    ds = gen_synthetic(3, 4, (1, 4, 4), 0, 0.5)
    sub = ds.subset([11, 0, 5])
    assert np.array_equal(sub.images[0], ds.images[11])
    assert np.array_equal(sub.images[2], ds.images[5])
    assert sub.labels.tolist() == [2, 0, 1]
    assert sub.num_classes == 3  # inherited, not re-inferred


def test_labeled_set_validation():
    with pytest.raises(ValidationError):
        LabeledImageSet(np.zeros((2, 4, 4)), np.zeros(2, dtype=np.int64))
    with pytest.raises(ValidationError):
        LabeledImageSet(np.zeros((2, 1, 4, 4)), np.zeros(3, dtype=np.int64))
    with pytest.raises(ValidationError):
        LabeledImageSet(np.zeros((2, 1, 4, 4)), np.array([-2, 0]))
    with pytest.raises(ValidationError):
        LabeledImageSet(np.zeros((2, 1, 4, 4)), np.array([0, 5]), num_classes=3)
    with pytest.raises(ValidationError):
        LabeledImageSet(np.zeros((2, 1, 4, 4)), np.array([-1, -1]))  # no real labels


def test_labeled_set_sentinels_allowed_with_explicit_classes():
    ds = LabeledImageSet(np.zeros((3, 1, 2, 2)), np.array([0, -1, 1]), num_classes=2)
    assert ds.class_counts == {0: 1, 1: 1}  # sentinel rows are not counted


# ---------------------------------------------------------------------------
# encodings and transforms


def test_one_hot_rows():
    rows = one_hot_rows(np.array([1, 0, 2]), 3)
    assert np.array_equal(rows, np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=float))
    with pytest.raises(ValidationError):
        one_hot_rows(np.array([0, -1]), 3)  # sentinel rows must never be encoded
    with pytest.raises(ValidationError):
        one_hot_rows(np.array([], dtype=np.int64), 3)
    with pytest.raises(ValidationError):
        one_hot_rows(np.array([3]), 3)


def test_subset_classes_relabels():
    ds = gen_synthetic(5, 4, (1, 4, 4), 0, 0.5)
    sub = subset_classes(ds, [3, 1])
    assert sub.n == 8
    assert sub.num_classes == 2
    assert sub.labels.tolist() == [0] * 4 + [1] * 4
    assert np.array_equal(sub.images[:4], ds.images[ds.labels == 3])


def test_subset_classes_per_class_cap():
    ds = gen_synthetic(3, 10, (1, 4, 4), 0, 0.5)
    sub = subset_classes(ds, [0, 2], per_class=4)
    assert sub.class_counts == {0: 4, 1: 4}


def test_subset_classes_validation():
    ds = gen_synthetic(3, 4, (1, 4, 4), 0, 0.5)
    with pytest.raises(ValidationError):
        subset_classes(ds, [])
    with pytest.raises(ValidationError):
        subset_classes(ds, [0, 0])
    with pytest.raises(ValidationError):
        subset_classes(ds, [7])


def test_standardize_per_channel():
    train = gen_synthetic(2, 30, (3, 5, 5), 0, 0.8)
    test = gen_synthetic(2, 10, (3, 5, 5), 1, 0.8)
    s_train, s_test = standardize_per_channel(train, test)
    assert np.abs(s_train.images.mean(axis=(0, 2, 3))).max() < 1e-12
    assert np.allclose(s_train.images.std(axis=(0, 2, 3)), 1.0, atol=1e-12)
    # test set uses the TRAIN statistics, so it is close to but not exactly 0/1
    assert not np.allclose(s_test.images.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)
    mean = train.images.mean(axis=(0, 2, 3), keepdims=True)
    std = train.images.std(axis=(0, 2, 3), keepdims=True)
    assert np.allclose(s_test.images, (test.images - mean) / std, atol=1e-12)

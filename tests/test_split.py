import numpy as np
import pytest

from distillnet.data import LabeledImageSet, gen_synthetic
from distillnet.errors import ConfigError, FormatError, ShapeError, ValidationError
from distillnet.splitting import (
    PerturbConfig,
    SplitConfig,
    apply_split_manifest,
    balanced_split,
    inject_ood,
    load_split_manifest,
    reduce_unbalanced,
    save_split_manifest,
    split_indices,
)


def test_split_config_validation():
    SplitConfig(0.2, 0)
    with pytest.raises(ValidationError):
        SplitConfig(0.0)
    with pytest.raises(ValidationError):
        SplitConfig(1.0)
    with pytest.raises(ValidationError):
        SplitConfig(-0.1)


def test_perturb_config_validation():
    PerturbConfig("reduce", 0.9)
    PerturbConfig("inject", 0.0)
    PerturbConfig("inject", 1.0)
    with pytest.raises(ValidationError):
        PerturbConfig("remove", 0.5)
    with pytest.raises(ValidationError):
        PerturbConfig("reduce", 1.5)
    with pytest.raises(ValidationError):
        PerturbConfig("reduce", -0.1)


def test_split_indices_exact_per_class_floor():
    ds = gen_synthetic(4, 25, (1, 4, 4), 0, 0.5)  # 25 per class
    mentor_idx, student_idx = split_indices(ds, SplitConfig(0.2, seed=0))
    assert mentor_idx.size == 4 * 5  # floor(0.2 * 25) = 5 per class
    assert student_idx.size == 4 * 20
    labels = ds.labels
    for k in range(4):
        assert (labels[mentor_idx] == k).sum() == 5
        assert (labels[student_idx] == k).sum() == 20


def test_split_indices_flooring_on_uneven_classes():
    # class 0 has 7 rows, class 1 has 10: floor(0.25*7)=1, floor(0.25*10)=2
    labels = np.array([0] * 7 + [1] * 10)
    ds = LabeledImageSet(np.zeros((17, 1, 2, 2)), labels)
    mentor_idx, _ = split_indices(ds, SplitConfig(0.25, seed=3))
    picked = ds.labels[mentor_idx]
    assert (picked == 0).sum() == 1
    assert (picked == 1).sum() == 2


def test_split_indices_disjoint_cover_and_sorted():
    ds = gen_synthetic(3, 20, (1, 4, 4), 1, 0.5)
    mentor_idx, student_idx = split_indices(ds, SplitConfig(0.3, seed=7))
    assert np.array_equal(mentor_idx, np.sort(mentor_idx))
    assert np.array_equal(student_idx, np.sort(student_idx))
    both = np.concatenate([mentor_idx, student_idx])
    assert np.array_equal(np.sort(both), np.arange(ds.n))


def test_split_deterministic_in_seed():
    ds = gen_synthetic(3, 20, (1, 4, 4), 1, 0.5)
    a, _ = split_indices(ds, SplitConfig(0.3, seed=7))
    b, _ = split_indices(ds, SplitConfig(0.3, seed=7))
    c, _ = split_indices(ds, SplitConfig(0.3, seed=8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_balanced_split_sets():
    ds = gen_synthetic(4, 10, (1, 4, 4), 2, 0.5)
    mentor, student = balanced_split(ds, SplitConfig(0.2, seed=0))
    assert mentor.n == 8 and student.n == 32
    assert mentor.class_counts == {k: 2 for k in range(4)}
    assert student.class_counts == {k: 8 for k in range(4)}


def test_split_rejects_sentinels_and_empty():
    ds = LabeledImageSet(np.zeros((4, 1, 2, 2)), np.array([0, 1, -1, 1]), num_classes=2)
    with pytest.raises(ValidationError):
        split_indices(ds, SplitConfig(0.5, 0))
    empty = LabeledImageSet(np.zeros((0, 1, 2, 2)), np.zeros(0, dtype=np.int64), num_classes=2)
    with pytest.raises(ValidationError):
        split_indices(empty, SplitConfig(0.5, 0))


# ---------------------------------------------------------------------------
# manifest round trip


def test_manifest_round_trip(tmp_path):
    ds = gen_synthetic(3, 12, (1, 4, 4), 0, 0.5)
    mentor_idx, student_idx = split_indices(ds, SplitConfig(0.25, seed=1))
    path = tmp_path / "split_manifest.csv"
    save_split_manifest(str(path), ds.n, mentor_idx)

    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "index,assignment"
    assert len(lines) == ds.n + 1
    assert "\r" not in text  # LF only
    assert set(line.split(",")[1] for line in lines[1:]) == {"mentor", "student"}

    mask = load_split_manifest(str(path))
    assert np.array_equal(np.flatnonzero(mask), mentor_idx)
    mentor, student = apply_split_manifest(ds, mask)
    ref_mentor, ref_student = ds.subset(mentor_idx), ds.subset(student_idx)
    assert np.array_equal(mentor.images, ref_mentor.images)
    assert np.array_equal(student.images, ref_student.images)


def test_manifest_format_errors(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("wrong,header\n0,mentor\n")
    with pytest.raises(FormatError):
        load_split_manifest(str(path))
    path.write_text("index,assignment\n0,teacher\n")
    with pytest.raises(FormatError):
        load_split_manifest(str(path))
    path.write_text("index,assignment\n1,mentor\n")  # indices must start at 0
    with pytest.raises(FormatError):
        load_split_manifest(str(path))
    path.write_text("index,assignment\n0,mentor\n2,student\n")  # gap
    with pytest.raises(FormatError):
        load_split_manifest(str(path))
    path.write_text("index,assignment\n")
    with pytest.raises(FormatError):
        load_split_manifest(str(path))


def test_apply_manifest_size_mismatch():
    ds = gen_synthetic(2, 5, (1, 4, 4), 0, 0.5)
    with pytest.raises(ValidationError):
        apply_split_manifest(ds, np.zeros(7, dtype=bool))


# ---------------------------------------------------------------------------
# class reduction


def test_reduce_unbalanced_bounds_and_determinism():
    ds = gen_synthetic(5, 40, (1, 4, 4), 0, 0.5)
    cfg = PerturbConfig("reduce", 0.9, seed=11)
    out = reduce_unbalanced(ds, cfg)
    again = reduce_unbalanced(ds, cfg)
    assert np.array_equal(out.images, again.images)
    assert out.n < ds.n
    for k in range(5):
        kept = out.class_counts.get(k, 0)
        # f_c <= 0.9 so at least ceil(0.1 * 40) - rounding = 4 rows survive
        assert 4 <= kept <= 40
    # no class disappears entirely at bound 0.9 on 40-per-class
    assert set(out.class_counts) == set(range(5))


def test_reduce_bound_zero_is_identity():
    ds = gen_synthetic(3, 10, (1, 4, 4), 0, 0.5)
    out = reduce_unbalanced(ds, PerturbConfig("reduce", 0.0, seed=2))
    assert np.array_equal(out.images, ds.images)
    assert np.array_equal(out.labels, ds.labels)


def test_reduce_keeps_original_order():
    ds = gen_synthetic(3, 10, (1, 4, 4), 0, 0.5)
    out = reduce_unbalanced(ds, PerturbConfig("reduce", 0.7, seed=5))
    # surviving rows appear in the same relative order as in ds
    ds_bytes = [img.tobytes() for img in ds.images]
    positions = [ds_bytes.index(img.tobytes()) for img in out.images]
    assert positions == sorted(positions)


def test_reduce_actually_unbalances():
    ds = gen_synthetic(6, 100, (1, 4, 4), 0, 0.5)
    out = reduce_unbalanced(ds, PerturbConfig("reduce", 0.9, seed=3))
    counts = [out.class_counts.get(k, 0) for k in range(6)]
    assert max(counts) - min(counts) > 10  # wildly different survival rates


def test_reduce_rejects_wrong_kind():
    ds = gen_synthetic(2, 5, (1, 4, 4), 0, 0.5)
    with pytest.raises(ValidationError):
        reduce_unbalanced(ds, PerturbConfig("inject", 0.5, seed=0))


# ---------------------------------------------------------------------------
# out-of-domain injection


def test_inject_ood_appends_sentinel_rows():
    ds = gen_synthetic(4, 30, (1, 4, 4), 0, 0.5)
    foreign = gen_synthetic(7, 40, (1, 4, 4), 99, 0.5)
    cfg = PerturbConfig("inject", 0.6, seed=4)
    out = inject_ood(ds, foreign, cfg)
    added = out.n - ds.n
    assert 0 <= added <= int(round(0.6 * 30)) * 4
    assert added > 0
    # original rows unchanged and first
    assert np.array_equal(out.images[: ds.n], ds.images)
    labels = out.labels
    assert (labels[ds.n :] == -1).all()
    assert out.class_counts == ds.class_counts  # sentinels not counted
    assert out.num_classes == ds.num_classes


def test_inject_ood_draws_without_replacement():
    ds = gen_synthetic(4, 30, (1, 4, 4), 0, 0.5)
    foreign = gen_synthetic(7, 40, (1, 4, 4), 99, 0.5)
    out = inject_ood(ds, foreign, PerturbConfig("inject", 1.0, seed=8))
    injected = out.images[ds.n :]
    seen = {img.tobytes() for img in injected}
    assert len(seen) == injected.shape[0]  # all distinct
    foreign_bytes = {img.tobytes() for img in foreign.images}
    assert seen <= foreign_bytes


def test_inject_ood_deterministic():
    ds = gen_synthetic(3, 20, (1, 4, 4), 0, 0.5)
    foreign = gen_synthetic(5, 30, (1, 4, 4), 7, 0.5)
    cfg = PerturbConfig("inject", 0.5, seed=6)
    a = inject_ood(ds, foreign, cfg)
    b = inject_ood(ds, foreign, cfg)
    assert np.array_equal(a.images, b.images)


def test_inject_ood_exhausted_foreign_pool():
    ds = gen_synthetic(4, 100, (1, 4, 4), 0, 0.5)
    foreign = gen_synthetic(2, 3, (1, 4, 4), 1, 0.5)  # only 6 foreign rows
    with pytest.raises(ConfigError) as err:
        inject_ood(ds, foreign, PerturbConfig("inject", 1.0, seed=0))
    assert err.value.key == "perturb.ratio_bound"
    assert "foreign rows but the foreign set has 6" in err.value.message


def test_inject_ood_shape_mismatch():
    ds = gen_synthetic(2, 10, (1, 4, 4), 0, 0.5)
    foreign = gen_synthetic(2, 10, (3, 4, 4), 1, 0.5)
    with pytest.raises(ShapeError):
        inject_ood(ds, foreign, PerturbConfig("inject", 0.5, seed=0))


def test_inject_ood_rejects_wrong_kind():
    ds = gen_synthetic(2, 10, (1, 4, 4), 0, 0.5)
    with pytest.raises(ValidationError):
        inject_ood(ds, ds, PerturbConfig("reduce", 0.5, seed=0))


def test_inject_bound_zero_adds_nothing():
    ds = gen_synthetic(3, 10, (1, 4, 4), 0, 0.5)
    foreign = gen_synthetic(3, 10, (1, 4, 4), 1, 0.5)
    out = inject_ood(ds, foreign, PerturbConfig("inject", 0.0, seed=0))
    assert out.n == ds.n

"""The real-data dataset kinds through the CLI, on tiny files written here.

MNIST comes as IDX files and CIFAR as binary batches; these tests write both
formats themselves, with generated pixels, so nothing is downloaded. They
cover what only real data reaches: the mnist and cifar10 loaders inside
``prepare_data``, class subsets with a per-class cap, standardization, the
reduce perturbation and CIFAR-100 foreign batches.
"""

import filecmp
import os
import struct

import numpy as np
import pytest

from distillnet import pipeline
from distillnet.cli import main
from distillnet.config import load_config

TRAIN = """
split.mentor_fraction=0.5
mentor.arch=fc(16)-fc-s
student.archs=fc(16)-fc-s
mentor_train.epochs=2
mentor_train.batch_size=16
student_train.epochs=2
student_train.batch_size=16
"""


def pixels(rng, labels, values):
    """Bytes of one image per label: noise around a level set by the label."""
    base = (np.asarray(labels)[:, None] * 23) % 256
    noise = rng.integers(-20, 21, size=(len(labels), values))
    return np.clip(base + noise, 0, 255).astype(np.uint8)


def write_idx(tmp_path, name, labels, rng, side=8):
    """An IDX image/label file pair of side x side images; returns the two paths."""
    images = tmp_path / f"{name}-images.idx"
    images.write_bytes(struct.pack(">IIII", 0x00000803, len(labels), side, side)
                       + pixels(rng, labels, side * side).tobytes())
    lab = tmp_path / f"{name}-labels.idx"
    lab.write_bytes(struct.pack(">II", 0x00000801, len(labels)) + bytes(labels))
    return str(images), str(lab)


def write_cifar(path, labels, rng, coarse=None):
    """A CIFAR-10 batch, or with coarse labels a CIFAR-100 batch."""
    records = pixels(rng, labels, 3072)
    heads = [np.asarray(labels, dtype=np.uint8)[:, None]]
    if coarse is not None:
        heads.insert(0, np.asarray(coarse, dtype=np.uint8)[:, None])
    path.write_bytes(np.hstack(heads + [records]).tobytes())
    return str(path)


def mnist_config(tmp_path, train_labels, test_labels):
    rng = np.random.default_rng(0)
    train_images, train_label_file = write_idx(tmp_path, "train", train_labels, rng)
    test_images, test_label_file = write_idx(tmp_path, "test", test_labels, rng)
    return (
        "dataset.kind=mnist\n"
        f"dataset.train_images={train_images}\n"
        f"dataset.train_labels={train_label_file}\n"
        f"dataset.test_images={test_images}\n"
        f"dataset.test_labels={test_label_file}\n"
        "perturb.kind=reduce\n"
        "perturb.ratio_bound=0.5\n"
        + TRAIN
    )


def cifar_config(tmp_path):
    rng = np.random.default_rng(1)
    train = write_cifar(tmp_path / "train.bin", [i % 10 for i in range(120)], rng)
    test = write_cifar(tmp_path / "test.bin", [i % 10 for i in range(40)], rng)
    fine = [i % 100 for i in range(60)]
    foreign = write_cifar(tmp_path / "foreign.bin", fine, rng, [f // 5 for f in fine])
    return (
        "dataset.kind=cifar10\n"
        f"dataset.train_batches={train}\n"
        f"dataset.test_batches={test}\n"
        "dataset.class_subset=1,3,5,7\n"
        "dataset.per_class_cap=10\n"
        "dataset.standardize=true\n"
        "perturb.kind=inject\n"
        "perturb.ratio_bound=0.5\n"
        f"perturb.foreign_batches={foreign}\n"
        + TRAIN
    )


def run_all(tmp_path, cfg_text, tag):
    """run-all on cfg_text into tmp_path/tag; returns (exit code, output dir)."""
    out = str(tmp_path / tag)
    path = tmp_path / f"{tag}.cfg"
    path.write_text(cfg_text + f"output_dir={out}\n")
    return main(["run-all", "--config", str(path)]), out


def assert_same_tree(a, b):
    """diff -r: the same file names, each with the same bytes."""
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert (mismatch, errors) == ([], []), (mismatch, errors)
    assert "soft_labels.slbl" in match and "summary.csv" in match


@pytest.mark.parametrize("kind", ["mnist", "cifar10"])
def test_real_data_kinds_run_all_and_repeat_byte_for_byte(tmp_path, kind):
    if kind == "mnist":
        cfg = mnist_config(tmp_path, [i % 10 for i in range(100)], [i % 10 for i in range(20)])
    else:
        cfg = cifar_config(tmp_path)
    first, out_a = run_all(tmp_path, cfg, "first")
    second, out_b = run_all(tmp_path, cfg, "second")
    assert (first, second) == (0, 0)
    assert_same_tree(out_a, out_b)
    if kind == "cifar10":  # four classes kept, ten rows each at most
        _, *rows = open(os.path.join(out_a, "confusion_mentor.csv")).read().splitlines()
        assert len(rows) == 4


def test_mnist_has_ten_classes_whatever_labels_the_files_hold(tmp_path, capsys):
    # a test file holding classes 0-4 only is still a 10-class test set ...
    cfg = mnist_config(tmp_path, [i % 10 for i in range(100)], [i % 5 for i in range(20)])
    assert run_all(tmp_path, cfg, "five")[0] == 0
    # ... and a label byte past 9 is refused when the files load
    train = [i % 10 for i in range(100)]
    train[7] = 200
    cfg = mnist_config(tmp_path, train, [i % 10 for i in range(20)])
    code, out = run_all(tmp_path, cfg, "bad")
    assert code == 3
    assert "label 200 out of range for num_classes=10" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("key", ["dataset.train_images", "dataset.train_batches",
                                 "perturb.foreign_batches"])
def test_a_dataset_path_that_cannot_be_read_is_a_missing_input(tmp_path, capsys, key):
    # a directory where a dataset file should be: exit 2, one line naming the
    # path, never a traceback
    if key == "dataset.train_images":
        cfg = mnist_config(tmp_path, [i % 10 for i in range(100)], [i % 10 for i in range(20)])
    else:
        cfg = cifar_config(tmp_path)
    path = tmp_path / "exp.cfg"
    path.write_text(cfg + f"output_dir={tmp_path / 'run'}\n")
    argv = ["split", "--config", str(path), "--override", f"{key}={tmp_path}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("missing input: dataset file: ") and err.count("\n") == 1, err
    assert str(tmp_path) in err
    assert not os.path.exists(tmp_path / "run")


def test_foreign_batches_of_another_image_shape_are_a_config_error(tmp_path, capsys):
    # CIFAR-100 rows cannot join a pool of 8x8 IDX images: refused, naming the
    # key, before run-all writes its manifest or trains its mentor
    cfg = mnist_config(tmp_path, [i % 10 for i in range(100)], [i % 10 for i in range(20)])
    foreign = write_cifar(tmp_path / "foreign.bin", [0, 1], np.random.default_rng(2), [0, 0])
    cfg += f"perturb.kind=inject\nperturb.foreign_batches={foreign}\n"
    code, out = run_all(tmp_path, cfg.replace("perturb.kind=reduce\n", ""), "shapes")
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: perturb.foreign_batches: (3, 32, 32)")
    assert not os.path.exists(out)


SYNTHETIC_INJECT = """
dataset.kind=synthetic
dataset.classes=4
dataset.per_class=20
dataset.test_per_class=5
dataset.shape=3,4,4
dataset.difficulty=0.6
dataset.standardize=true
perturb.kind=inject
perturb.ratio_bound=0.5
perturb.foreign_classes=3
perturb.foreign_per_class=10
""" + TRAIN


@pytest.mark.parametrize("kind", ["cifar10", "synthetic"])
def test_standardize_puts_the_injected_foreign_rows_on_the_train_scale(tmp_path, kind):
    # the pool mixes train and foreign rows, and the mentor labels both: with
    # dataset.standardize, the foreign rows (CIFAR-100 batches or generated
    # blobs) get the train set's per-channel mean and std, as the test set does
    path = tmp_path / "run.cfg"
    text = cifar_config(tmp_path) if kind == "cifar10" else SYNTHETIC_INJECT
    path.write_text(text + f"output_dir={tmp_path / 'out'}\n")
    cfg = load_config(str(path))
    raw_train, raw_test, raw_foreign = pipeline.prepare_data(
        load_config(str(path), ["dataset.standardize=false"]))
    _, test, foreign = pipeline.prepare_data(cfg)
    mean = raw_train.images.mean(axis=(0, 2, 3), keepdims=True)
    std = raw_train.images.std(axis=(0, 2, 3), keepdims=True)
    np.testing.assert_array_equal(test.images, (raw_test.images - mean) / std)
    np.testing.assert_array_equal(foreign.images, (raw_foreign.images - mean) / std)
    assert foreign.images.min() < 0 and raw_foreign.images.min() >= 0

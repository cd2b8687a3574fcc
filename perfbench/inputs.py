"""Seeded stand-ins for the MNIST IDX files and CIFAR binary batches.

Each class is a sparse blocky template (a random fifth of its 4x4 blocks
lit, like strokes on a dark background); a sample is its class template,
shifted by a pixel and blurred by Gaussian noise, quantized to uint8. The
classes are easy to tell apart, so the short training runs the benchmark
can afford converge on every seed and the accuracy metrics stay steady.
The files use the exact on-disk layouts of the real datasets, so the
program's own decoders read them. The same seed always gives the same bytes.
"""

from __future__ import annotations

import os
import struct

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


def class_templates(rng, classes, shape, density=0.2, cell=4):
    """(classes, C, H, W) templates of 0s and 1s, constant over cell x cell
    blocks, with a share ``density`` of the blocks set to 1."""
    c, h, w = shape
    coarse = (rng.random((classes, c, -(-h // cell), -(-w // cell))) < density).astype(float)
    return np.repeat(np.repeat(coarse, cell, axis=2), cell, axis=3)[:, :, :h, :w]


def balanced_labels(rng, n, classes):
    """n labels, as even over the classes as n allows, in shuffled order."""
    return rng.permutation(np.arange(n) % classes).astype(np.int64)


def render(rng, templates, labels, noise, max_shift):
    """uint8 (N, C, H, W): the labels' templates, each rolled by up to
    max_shift pixels per axis, plus N(0, noise) per pixel."""
    n = labels.size
    out = templates[labels]
    shifts = rng.integers(-max_shift, max_shift + 1, size=(n, 2))
    for dy in range(-max_shift, max_shift + 1):
        for dx in range(-max_shift, max_shift + 1):
            sel = np.flatnonzero((shifts[:, 0] == dy) & (shifts[:, 1] == dx))
            if sel.size:
                out[sel] = np.roll(out[sel], (dy, dx), axis=(2, 3))
    out = out + rng.normal(0.0, noise, out.shape)
    return np.clip(np.rint(out * 255.0), 0, 255).astype(np.uint8)


def write_idx(images_path, labels_path, images, labels):
    """IDX pair: >u32 magic, count, rows, cols + pixels; >u32 magic, count + labels."""
    n, c, h, w = images.shape
    if c != 1:
        raise ValueError(f"IDX images have one channel, got {c}")
    with open(images_path, "wb") as f:
        f.write(struct.pack(">4I", IDX_IMAGE_MAGIC, n, h, w))
        f.write(np.ascontiguousarray(images, dtype=np.uint8).tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">2I", IDX_LABEL_MAGIC, n))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())


def write_cifar(path, images, labels, num_classes=10):
    """CIFAR binary batch: <label><3072 px> records for 10 classes,
    <coarse><fine><3072 px> for 100 (coarse is fine // 5)."""
    n = images.shape[0]
    if images.shape[1:] != (3, 32, 32):
        raise ValueError(f"CIFAR images are 3x32x32, got {images.shape[1:]}")
    labels = np.asarray(labels, dtype=np.uint8).reshape(n, 1)
    head = labels if num_classes == 10 else np.hstack([labels // 5, labels])
    records = np.hstack([head, images.reshape(n, -1).astype(np.uint8)])
    with open(path, "wb") as f:
        f.write(records.tobytes())


def mnist_files(out_dir, seed, n_train, n_test, noise, max_shift):
    """Write 10-class train/test IDX pairs; returns their config entries."""
    rng = np.random.default_rng([seed, 1])
    templates = class_templates(rng, 10, (1, 28, 28))
    paths = {}
    for part, n in (("train", n_train), ("test", n_test)):
        labels = balanced_labels(rng, n, 10)
        images = render(rng, templates, labels, noise, max_shift)
        img = os.path.join(out_dir, f"{part}-images-idx3-ubyte")
        lab = os.path.join(out_dir, f"{part}-labels-idx1-ubyte")
        write_idx(img, lab, images, labels)
        paths[f"dataset.{part}_images"] = img
        paths[f"dataset.{part}_labels"] = lab
    return paths


def cifar_files(out_dir, seed, n_train, n_test, n_foreign, noise, max_shift):
    """Write two CIFAR-10 train batches, a test batch and one CIFAR-100
    foreign batch; returns their config entries."""
    rng = np.random.default_rng([seed, 2])
    templates = class_templates(rng, 10, (3, 32, 32))
    foreign_templates = class_templates(rng, 100, (3, 32, 32))
    labels = balanced_labels(rng, n_train, 10)
    images = render(rng, templates, labels, noise, max_shift)
    train_paths = []
    for i, rows in enumerate(np.array_split(np.arange(n_train), 2)):
        path = os.path.join(out_dir, f"data_batch_{i + 1}.bin")
        write_cifar(path, images[rows], labels[rows])
        train_paths.append(path)
    labels = balanced_labels(rng, n_test, 10)
    test_path = os.path.join(out_dir, "test_batch.bin")
    write_cifar(test_path, render(rng, templates, labels, noise, max_shift), labels)
    labels = balanced_labels(rng, n_foreign, 100)
    foreign_path = os.path.join(out_dir, "foreign_batch.bin")
    write_cifar(foreign_path, render(rng, foreign_templates, labels, noise, max_shift),
                labels, num_classes=100)
    return {
        "dataset.train_batches": ",".join(train_paths),
        "dataset.test_batches": test_path,
        "perturb.foreign_batches": foreign_path,
    }

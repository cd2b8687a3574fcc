"""Mentor/student splitting and student-pool perturbations.

Everything here is deterministic under its config seed: classes are visited
in sorted order and per-class sampling happens over ascending (stable) index
lists, so a split or perturbation can be replayed exactly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import LabeledImageSet
from .errors import ConfigError, FormatError, Ruled, ShapeError, ValidationError, at_least, ruled
from .fileio import atomic_write_text, csv_text

MANIFEST_HEADER = ["index", "assignment"]


@dataclass
class SplitConfig(Ruled):
    mentor_fraction: float = ruled(0.2, (lambda v: 0 < v < 1, "must be in (0, 1)"))
    seed: int = ruled(0, at_least(0))


@dataclass
class PerturbConfig(Ruled):
    kind: str = ruled("none", (lambda v: v in ("none", "reduce", "inject"),
                               "must be none|reduce|inject"))
    ratio_bound: float = ruled(0.0, (lambda v: 0 <= v <= 1, "must be in [0, 1]"))
    seed: int = ruled(0, at_least(0))


def _class_indices(labels):
    """Ascending index list per class, classes in sorted order."""
    if labels.size == 0:
        raise ValidationError("empty dataset")
    if labels.min() < 0:
        raise ValidationError("dataset with sentinel labels cannot be split by class")
    return [(int(c), np.flatnonzero(labels == c)) for c in np.unique(labels)]


def split_indices(dataset, cfg):
    """(mentor_idx, student_idx), both ascending. floor(fraction * n_c) rows
    of every class go to the mentor, the rest to the student pool."""
    rng = np.random.default_rng(cfg.seed)
    mentor_parts = []
    for _, idx in _class_indices(dataset.labels):
        take = int(np.floor(cfg.mentor_fraction * idx.size))
        mentor_parts.append(rng.permutation(idx)[:take])
    mentor_idx = np.sort(np.concatenate(mentor_parts))
    mask = np.zeros(dataset.n, dtype=bool)
    mask[mentor_idx] = True
    return mentor_idx, np.flatnonzero(~mask)


def balanced_split(dataset, cfg):
    """Split into (mentor_set, student_set), stratified per class."""
    mentor_idx, student_idx = split_indices(dataset, cfg)
    return dataset.subset(mentor_idx), dataset.subset(student_idx)


def save_split_manifest(path, n_total, mentor_idx):
    """Write one `index,assignment` row per dataset row."""
    mentor = np.zeros(n_total, dtype=bool)
    mentor[np.asarray(mentor_idx, dtype=np.int64)] = True
    rows = ([i, "mentor" if m else "student"] for i, m in enumerate(mentor.tolist()))
    atomic_write_text(path, csv_text(MANIFEST_HEADER, rows))


def load_split_manifest(path):
    """Boolean mentor mask from a manifest file."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != MANIFEST_HEADER:
            raise FormatError(f"{path}: bad manifest header {header}")
        flags = []
        for row in reader:
            if len(row) != 2 or row[1] not in ("mentor", "student"):
                raise FormatError(f"{path}: bad manifest row {row}")
            if int(row[0]) != len(flags):
                raise FormatError(
                    f"{path}: manifest indices must be 0..n-1 in order, "
                    f"got {row[0]} at row {len(flags)}"
                )
            flags.append(row[1] == "mentor")
    if not flags:
        raise FormatError(f"{path}: empty manifest")
    return np.asarray(flags, dtype=bool)


def apply_split_manifest(dataset, mentor_mask):
    """Replay a recorded split exactly."""
    mentor_mask = np.asarray(mentor_mask, dtype=bool)
    if mentor_mask.shape != (dataset.n,):
        raise ValidationError(
            f"manifest covers {mentor_mask.size} rows, dataset has {dataset.n}"
        )
    return dataset.subset(np.flatnonzero(mentor_mask)), dataset.subset(
        np.flatnonzero(~mentor_mask)
    )


def reduce_unbalanced(dataset, cfg):
    """Remove round(f_c * n_c) rows of each class, f_c ~ U[0, ratio_bound].

    Surviving rows keep their original relative order. The test set is never
    touched by this; it operates on the (training-side) pool it is given.
    """
    if cfg.kind != "reduce":
        raise ValidationError(f"reduce_unbalanced got a {cfg.kind!r} config")
    rng = np.random.default_rng(cfg.seed)
    removed = []
    for _, idx in _class_indices(dataset.labels):
        f = rng.uniform(0.0, cfg.ratio_bound)
        drop = int(np.round(f * idx.size))
        removed.append(rng.permutation(idx)[:drop])
    mask = np.ones(dataset.n, dtype=bool)
    if removed:
        mask[np.concatenate(removed).astype(np.int64)] = False
    return dataset.subset(np.flatnonzero(mask))


def inject_ood(dataset, foreign, cfg):
    """Append round(f_c * n_c) foreign rows per class, f_c ~ U[0, ratio_bound].

    Foreign rows are drawn uniformly without replacement (globally) and
    appended with the sentinel label -1, so class_counts of real classes are
    unchanged and the rows can never enter hard-label training or accuracy.
    """
    if cfg.kind != "inject":
        raise ValidationError(f"inject_ood got a {cfg.kind!r} config")
    if foreign.image_shape != dataset.image_shape:
        raise ShapeError(
            f"foreign image shape {foreign.image_shape} does not match "
            f"dataset shape {dataset.image_shape}"
        )
    rng = np.random.default_rng(cfg.seed)
    total = 0
    for _, idx in _class_indices(dataset.labels):
        f = rng.uniform(0.0, cfg.ratio_bound)
        total += int(np.round(f * idx.size))
    if total > foreign.n:
        raise ConfigError("perturb.ratio_bound",
                          f"needs {total} foreign rows but the foreign set has {foreign.n}")
    picked = rng.permutation(foreign.n)[:total]
    images = np.concatenate([dataset.images, foreign.images[picked]])
    labels = np.concatenate(
        [dataset.labels, np.full(total, -1, dtype=np.int64)]
    )
    return LabeledImageSet(images, labels, dataset.num_classes)

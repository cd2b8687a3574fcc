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


def perturb_rows(labels, cfg, n_foreign=0):
    """(kept, picked): the ascending positions of labels that stay in the pool under
    cfg, and the rows of an n_foreign-row set appended to them, read from no pixel.
    Each class draws f_c ~ U[0, ratio_bound], then reduce drops round(f_c * n_c) of its
    rows; inject draws that many foreign rows in all, after every f_c, without replacement."""
    kept, picked = np.ones(labels.size, dtype=bool), np.empty(0, dtype=np.int64)
    if cfg.kind == "none":
        return np.flatnonzero(kept), picked
    rng, total = np.random.default_rng(cfg.seed), 0
    for _, idx in _class_indices(labels):
        drop = int(np.round(rng.uniform(0.0, cfg.ratio_bound) * idx.size))
        if cfg.kind == "reduce":
            kept[rng.permutation(idx)[:drop]] = False
        total += drop
    if cfg.kind == "inject":
        if total > n_foreign:
            raise ConfigError("perturb.ratio_bound",
                              f"needs {total} foreign rows but the foreign set has {n_foreign}")
        picked = rng.permutation(n_foreign)[:total]
    return np.flatnonzero(kept), picked


def build_student_pool(dataset, rows, foreign=None):
    """The pool of rows = (kept, picked): dataset's kept rows, then foreign's picked
    rows under the sentinel label -1, which no class count, hard label or accuracy sees."""
    kept, picked = rows
    pool = dataset.subset(kept)
    if foreign is None:
        return pool
    return LabeledImageSet(np.concatenate([pool.images, foreign.images[picked]]),
                           np.concatenate([pool.labels, np.full(picked.size, -1)]),
                           dataset.num_classes)


def reduce_unbalanced(dataset, cfg):
    """dataset less the rows perturb_rows drops from each class, in their order."""
    if cfg.kind != "reduce":
        raise ValidationError(f"reduce_unbalanced got a {cfg.kind!r} config")
    return build_student_pool(dataset, perturb_rows(dataset.labels, cfg))


def inject_ood(dataset, foreign, cfg):
    """dataset, then the foreign rows perturb_rows picks, labeled -1."""
    if cfg.kind != "inject":
        raise ValidationError(f"inject_ood got a {cfg.kind!r} config")
    if foreign.image_shape != dataset.image_shape:
        raise ShapeError(f"foreign image shape {foreign.image_shape} does not match"
                         f" dataset shape {dataset.image_shape}")
    return build_student_pool(dataset, perturb_rows(dataset.labels, cfg, foreign.n), foreign)

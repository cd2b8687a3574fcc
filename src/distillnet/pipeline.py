"""The mentor -> soft-label -> student pipeline and its binary artifacts.

Flow: a balanced split carves the labeled corpus into a small mentor set and
a large student pool. The mentor trains on its split's hard labels. Any pool
perturbation (class reduction, out-of-domain injection) happens *before*
labeling; the mentor then produces one softmax row per pool image - verbatim
probabilities, no temperature or sharpening - and the student trains purely
on those rows. ``train_student`` takes images and soft rows only; there is no
parameter through which ground truth could even arrive.

Binary formats (all integers little-endian):

checkpoint (.ckpt)      magic "DMCK", u32 version=1, u32 arch length + ASCII
                        arch string, 3x u32 input shape, u32 num_classes,
                        then per state array: u32 rank, rank x u32 dims,
                        float32 payload (row-major).
soft labels (.slbl)     magic "SLBL", u32 version=1, u32 N, u32 K, u64
                        checksum of the source image payload, u32 id length +
                        ASCII mentor id, then N*K float32 rows (row-major).
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .data import (
    gen_synthetic,
    gen_synthetic_split,
    load_cifar,
    load_idx,
    one_hot_rows,
    standardize_per_channel,
    subset_classes,
)
from .errors import (
    FormatError,
    MissingArtifactError,
    ShapeError,
    ValidationError,
)
from .fileio import atomic_write_bytes
from .network import parse_arch
from .splitting import (
    apply_split_manifest,
    inject_ood,
    load_split_manifest,
    reduce_unbalanced,
    save_split_manifest,
    split_indices,
)
from .training import invalid_distribution_row, train

CHECKPOINT_MAGIC = b"DMCK"
SOFT_LABEL_MAGIC = b"SLBL"
FORMAT_VERSION = 1


def manifest_path(out_dir):
    return os.path.join(out_dir, "split_manifest.csv")


def ckpt_path(out_dir, model_id):
    """Checkpoint of "mentor", "student_<x>" or "baseline_<x>"."""
    return os.path.join(out_dir, f"{model_id}.ckpt")


def soft_labels_path(out_dir):
    return os.path.join(out_dir, "soft_labels.slbl")


@dataclass
class SoftLabelSet:
    """Mentor probability rows for a pool of images.

    source_checksum is a 64-bit digest of the raw image payload the rows were
    generated from; training validates it so stale or mismatched label files
    fail loudly instead of silently training on the wrong targets.
    """

    rows: np.ndarray
    source_checksum: int
    mentor_id: str


def image_payload_checksum(images):
    """Unsigned 64-bit digest of an image array's raw bytes."""
    # wide: the digest is defined over the float64 payload, so label files
    # agree whatever dtype the images are held in (the cast is exact)
    arr = np.ascontiguousarray(np.asarray(images, dtype=np.float64))
    digest = hashlib.blake2b(arr.data, digest_size=8)
    return int.from_bytes(digest.digest(), "little")


def generate_soft_labels(mentor, images, batch_size=256):
    """Run the mentor in eval mode over a pool; returns its softmax rows as-is."""
    rows = mentor.predict(images, batch_size)
    return SoftLabelSet(rows, image_payload_checksum(images), mentor.arch)


# ---------------------------------------------------------------------------
# binary artifacts


class _Cursor:
    """Reads an artifact file, past its magic and format version."""

    def __init__(self, path, magic, what):
        if not os.path.exists(path):
            raise MissingArtifactError(f"{what} not found: {path}")
        with open(path, "rb") as f:
            self.buf = f.read()
        self.path = path
        self.pos = 0
        if self.take(4) != magic:
            raise FormatError(f"{path}: not a {what} (bad magic)")
        (version,) = self.unpack("<I")
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported {what} version {version}")

    def take(self, n):
        if self.pos + n > len(self.buf):
            raise FormatError(f"{self.path}: truncated (needed {n} more bytes)")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def done(self):
        if self.pos != len(self.buf):
            raise FormatError(
                f"{self.path}: {len(self.buf) - self.pos} trailing bytes"
            )


def save_checkpoint(stack, path):
    """Serialize arch + shapes + every state array (float32) to disk."""
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<I", FORMAT_VERSION)
    arch = stack.arch.encode("ascii")
    out += struct.pack("<I", len(arch)) + arch
    out += struct.pack("<3I", *stack.input_shape)
    out += struct.pack("<I", stack.num_classes)
    for _, arr in stack.state_items():
        out += struct.pack("<I", arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
        out += arr.astype("<f4").tobytes()
    atomic_write_bytes(path, bytes(out))


def load_checkpoint(path):
    """Rebuild a stack from a checkpoint; returned stack is in eval mode."""
    cur = _Cursor(path, CHECKPOINT_MAGIC, "checkpoint")
    (arch_len,) = cur.unpack("<I")
    try:
        arch = cur.take(arch_len).decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: arch string is not ASCII") from exc
    input_shape = cur.unpack("<3I")
    (num_classes,) = cur.unpack("<I")
    stack = parse_arch(arch, input_shape, num_classes, seed=0)
    for name, arr in stack.state_items():
        (rank,) = cur.unpack("<I")
        if rank != arr.ndim:
            raise FormatError(
                f"{path}: tensor {name} has rank {rank}, arch implies {arr.ndim}"
            )
        dims = cur.unpack(f"<{rank}I")
        if dims != arr.shape:
            raise FormatError(
                f"{path}: tensor {name} has dims {dims}, arch implies {arr.shape}"
            )
        data = np.frombuffer(cur.take(arr.size * 4), dtype="<f4")
        arr[...] = data.reshape(arr.shape)
    cur.done()
    stack.set_mode("eval")
    return stack


def save_soft_labels(soft, path):
    rows32 = np.ascontiguousarray(soft.rows, dtype="<f4")
    n, k = rows32.shape
    ident = soft.mentor_id.encode("ascii")
    out = bytearray()
    out += SOFT_LABEL_MAGIC
    out += struct.pack("<I", FORMAT_VERSION)
    out += struct.pack("<II", n, k)
    out += struct.pack("<Q", soft.source_checksum)
    out += struct.pack("<I", len(ident)) + ident
    out += rows32.tobytes()
    atomic_write_bytes(path, bytes(out))


def load_soft_labels(path):
    cur = _Cursor(path, SOFT_LABEL_MAGIC, "soft-label file")
    n, k = cur.unpack("<II")
    (checksum,) = cur.unpack("<Q")
    (id_len,) = cur.unpack("<I")
    try:
        mentor_id = cur.take(id_len).decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: mentor id is not ASCII") from exc
    rows = np.frombuffer(cur.take(n * k * 4), dtype="<f4")
    cur.done()
    rows = rows.astype(np.float64).reshape(n, k)  # wide: for the sum check
    invalid = invalid_distribution_row(rows)
    if invalid:
        raise FormatError(f"{path}: soft-label {invalid}")
    return SoftLabelSet(rows, checksum, mentor_id)


# ---------------------------------------------------------------------------
# data preparation and training entry points


def prepare_data(cfg: ExperimentConfig):
    """(train_set, test_set, foreign_set|None) for an experiment config."""
    if cfg.dataset_kind == "synthetic":
        train_set, test_set = gen_synthetic_split(
            cfg.classes, cfg.per_class, cfg.test_per_class, cfg.shape,
            cfg.dataset_seed, cfg.difficulty,
        )
    elif cfg.dataset_kind == "mnist":
        train_set = load_idx(cfg.train_images, cfg.train_labels)
        test_set = load_idx(cfg.test_images, cfg.test_labels)
    else:  # cifar10
        train_set = load_cifar(cfg.train_batches, num_classes=10)
        test_set = load_cifar(cfg.test_batches, num_classes=10)

    if cfg.class_subset:
        train_set = subset_classes(train_set, cfg.class_subset, cfg.per_class_cap)
        test_set = subset_classes(test_set, cfg.class_subset)
    if cfg.standardize:
        train_set, test_set = standardize_per_channel(train_set, test_set)

    foreign = None
    if cfg.perturb is not None and cfg.perturb.kind == "inject":
        if cfg.foreign_batches:
            foreign = load_cifar(cfg.foreign_batches, num_classes=100)
        else:
            foreign = gen_synthetic(
                cfg.foreign_classes, cfg.foreign_per_class,
                train_set.image_shape, cfg.foreign_seed, cfg.difficulty,
            )
    return train_set, test_set, foreign


def write_split(cfg, train_set):
    """Compute the stratified split from cfg.split and record it as the
    manifest, replacing any earlier one."""
    mentor_idx, _ = split_indices(train_set, cfg.split)
    os.makedirs(cfg.output_dir, exist_ok=True)
    save_split_manifest(manifest_path(cfg.output_dir), train_set.n, mentor_idx)


def resolve_split(cfg, train_set):
    """(mentor_set, student_set) replayed exactly from the recorded manifest."""
    path = manifest_path(cfg.output_dir)
    if not os.path.exists(path):
        raise MissingArtifactError(f"split manifest not found: {path} (run `split` first)")
    return apply_split_manifest(train_set, load_split_manifest(path))


def build_student_pool(cfg, student_set, foreign):
    """Apply the configured perturbation (if any) to the raw student split."""
    if cfg.perturb is None:
        return student_set
    if cfg.perturb.kind == "reduce":
        return reduce_unbalanced(student_set, cfg.perturb)
    if foreign is None:
        raise ValidationError("inject perturbation configured but no foreign set available")
    return inject_ood(student_set, foreign, cfg.perturb)


def train_student(train_cfg, images, soft, arch, test_set, progress=None):
    """Train a student purely on mentor soft labels.

    Takes images and a SoftLabelSet - no label argument exists. The soft
    rows must carry the checksum of exactly these images.
    """
    if soft.rows.ndim != 2 or soft.rows.shape[0] != images.shape[0]:
        raise ShapeError(
            f"{soft.rows.shape[0]} soft rows for {images.shape[0]} images"
        )
    if soft.source_checksum != image_payload_checksum(images):
        raise ValidationError(
            "soft-label checksum does not match the student images; "
            "regenerate labels for this pool"
        )
    stack = parse_arch(
        arch, images.shape[1:], soft.rows.shape[1], seed=train_cfg.seed
    )
    return train(stack, images, soft.rows, test_set, train_cfg, progress)


def train_baseline(train_cfg, pool, arch, test_set, progress=None):
    """Train on a labeled set's ground-truth hard labels: the student pool for
    a baseline (the reference run), or the mentor split for the mentor."""
    labels = pool.labels
    if labels.size == 0:
        raise ValidationError("hard-label training set is empty")
    if labels.min() < 0:
        raise ValidationError(
            "hard-label training set contains sentinel rows without hard labels"
        )
    stack = parse_arch(arch, pool.image_shape, pool.num_classes, seed=train_cfg.seed)
    targets = one_hot_rows(labels, pool.num_classes)
    return train(stack, pool.images, targets, test_set, train_cfg, progress)

"""The mentor -> soft-label -> student pipeline and its binary artifacts.

Flow: a balanced split carves the labeled corpus into a small mentor set and
a large student pool. The mentor trains on its split's hard labels. Any pool
perturbation (class reduction, out-of-domain injection) happens *before*
labeling; the mentor then produces one softmax row per pool image - verbatim
probabilities, no temperature or sharpening - and the student trains purely
on those rows. ``train_student`` takes images and soft rows only; there is no
parameter through which ground truth could even arrive.

Binary formats (all integers little-endian), one frame for both: magic, u32
version=2, header, payload, then a 16-byte blake2b digest of all the bytes
before it, checked before any header field is read.

checkpoint (.ckpt)      magic "DMCK", u32 arch length + ASCII arch string,
                        3x u32 input shape, u32 num_classes, then every state
                        array as float32 (row-major), back to back.
soft labels (.slbl)     magic "SLBL", u32 N (at byte 8, where perfbench reads
                        the pool size), u32 K, u64 checksum of the source image
                        payload, u32 id length + ASCII mentor id, then N*K
                        float32 rows (row-major).
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
    ConfigError,
    FormatError,
    MissingArtifactError,
    ParseError,
    ShapeError,
    ValidationError,
)
from .fileio import atomic_write_bytes
from .network import arch_size, parse_arch
from .splitting import build_student_pool, load_split_manifest, save_split_manifest
from .training import invalid_distribution_row, train

CHECKPOINT_MAGIC = b"DMCK"
SOFT_LABEL_MAGIC = b"SLBL"
FORMAT_VERSION = 2
DIGEST_SIZE = 16  # bytes of the blake2b trailer of every artifact


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


def generate_soft_labels(mentor, images):
    """Run the mentor in eval mode over a pool; returns its softmax rows as-is."""
    rows = mentor.predict(images)
    return SoftLabelSet(rows, image_payload_checksum(images), mentor.arch)


# ---------------------------------------------------------------------------
# binary artifacts


def _write_artifact(path, magic, header, payload):
    """Write magic, version, header and payload, then their blake2b digest."""
    body = b"".join((magic, struct.pack("<I", FORMAT_VERSION), header, payload))
    digest = hashlib.blake2b(body, digest_size=DIGEST_SIZE).digest()
    atomic_write_bytes(path, body + digest)


class _Cursor:
    """Reads an artifact file past its magic and format version, once its
    length and digest show it is exactly what _write_artifact wrote."""

    def __init__(self, path, magic, what, writers):
        if not os.path.exists(path):
            raise MissingArtifactError(f"{what} not found: {path}; run {writers} to write it")
        with open(path, "rb") as f:
            buf = f.read()
        self.path = path
        if buf[:4] != magic:
            raise FormatError(f"{path}: not a {what} (bad magic)")
        if len(buf) < 8 + DIGEST_SIZE:
            raise FormatError(f"{path}: truncated ({len(buf)} bytes)")
        (version,) = struct.unpack("<I", buf[4:8])
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: {what} format version {version}, expected"
                              f" {FORMAT_VERSION}; rerun {writers} to rewrite it")
        self.buf, self.pos = buf[:-DIGEST_SIZE], 8
        digest = hashlib.blake2b(self.buf, digest_size=DIGEST_SIZE).digest()
        if digest != buf[-DIGEST_SIZE:]:
            raise FormatError(f"{path}: digest mismatch (corrupt or truncated)")

    def take(self, n):
        short = self.pos + n - len(self.buf)
        if short > 0:
            raise FormatError(f"{self.path}: truncated ({short} bytes short of a {n}-byte read)")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n, what):
        try:
            return self.take(n).decode("ascii")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.path}: {what} is not ASCII") from exc

    def done(self):
        if self.pos != len(self.buf):
            raise FormatError(f"{self.path}: {len(self.buf) - self.pos} trailing bytes")


def save_checkpoint(stack, path):
    """Serialize arch + shapes + every state array (float32) to disk."""
    arch = stack.arch.encode("ascii")
    header = struct.pack("<I", len(arch)) + arch + struct.pack(
        "<4I", *stack.input_shape, stack.num_classes)
    payload = b"".join(arr.astype("<f4").tobytes() for _, arr in stack.state_items())
    _write_artifact(path, CHECKPOINT_MAGIC, header, payload)


def load_checkpoint(path):
    """Rebuild a stack from a checkpoint; returned stack is in eval mode."""
    cur = _Cursor(path, CHECKPOINT_MAGIC, "checkpoint",
                  "`train-mentor`, `train-student` or `baseline`")
    (arch_len,) = cur.unpack("<I")
    arch = cur.text(arch_len, "arch string")
    *input_shape, num_classes = cur.unpack("<4I")
    try:
        size, have = arch_size(arch, input_shape, num_classes), len(cur.buf) - cur.pos
    except (ParseError, ShapeError) as exc:
        raise FormatError(f"{path}: header arch {arch}: {exc}") from None
    if 4 * size != have:  # refused before a layer is made
        raise FormatError(f"{path}: {arch} on {'x'.join(map(str, input_shape))} images and"
                          f" {num_classes} classes holds {size:,} values ({4 * size:,} bytes),"
                          f" the payload {have:,} bytes")
    stack = parse_arch(arch, input_shape, num_classes, seed=0)
    for _, arr in stack.state_items():
        arr[...] = np.frombuffer(cur.take(arr.size * 4), dtype="<f4").reshape(arr.shape)
    stack.set_mode("eval")
    return stack


def save_soft_labels(soft, path):
    rows32 = np.ascontiguousarray(soft.rows, dtype="<f4")
    ident = soft.mentor_id.encode("ascii")
    header = struct.pack("<IIQI", *rows32.shape, soft.source_checksum, len(ident))
    _write_artifact(path, SOFT_LABEL_MAGIC, header + ident, rows32.tobytes())


def load_soft_labels(path):
    cur = _Cursor(path, SOFT_LABEL_MAGIC, "soft-label file", "`label`")
    n, k, checksum, id_len = cur.unpack("<IIQI")
    mentor_id = cur.text(id_len, "mentor id")
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
        try:
            train_set, test_set = gen_synthetic_split(cfg.classes, cfg.per_class,
                cfg.test_per_class, cfg.shape, cfg.dataset_seed, cfg.difficulty)
        except ValidationError as exc:  # past data's bound on the values drawn
            raise ConfigError("dataset.per_class", f"{cfg.per_class} (and dataset.test_per_class"
                              f" {cfg.test_per_class}): {exc}") from None
    elif cfg.dataset_kind == "mnist":
        train_set = load_idx(cfg.train_images, cfg.train_labels, num_classes=10)
        test_set = load_idx(cfg.test_images, cfg.test_labels, num_classes=10)
    else:  # cifar10
        train_set = load_cifar(cfg.train_batches, num_classes=10)
        test_set = load_cifar(cfg.test_batches, num_classes=10)

    if cfg.class_subset:
        try:
            train_set = subset_classes(train_set, cfg.class_subset, cfg.per_class_cap)
            test_set = subset_classes(test_set, cfg.class_subset)
        except ValidationError as exc:  # a class the data does not hold
            raise ConfigError("dataset.class_subset", str(exc)) from None
    foreign = None
    if cfg.perturb.kind == "inject":
        if cfg.foreign_batches:
            foreign = load_cifar(cfg.foreign_batches, num_classes=100)
            if foreign.image_shape != train_set.image_shape:  # refused before a stage runs
                raise ConfigError("perturb.foreign_batches", f"{foreign.image_shape} images"
                                  f" cannot join a pool of {train_set.image_shape} images")
        else:
            try:
                foreign = gen_synthetic(cfg.foreign_classes, cfg.foreign_per_class,
                                        train_set.image_shape, cfg.foreign_seed, cfg.difficulty)
            except ValidationError as exc:
                raise ConfigError("perturb.foreign_per_class", str(exc)) from None
    if cfg.standardize:  # the foreign rows too, so the pool is on one scale
        return standardize_per_channel(train_set, test_set, foreign)
    return train_set, test_set, foreign


def write_split(cfg, n, mentor_rows):
    """Record mentor_rows of an n-row train set as the manifest, replacing any
    earlier one."""
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError("output_dir", f"cannot make it: {exc}") from None
    save_split_manifest(manifest_path(cfg.output_dir), n, mentor_rows)


def resolve_split(cfg, train_set):
    """(mentor_idx, student_idx) replayed exactly from the recorded manifest."""
    path = manifest_path(cfg.output_dir)
    if not os.path.exists(path):
        raise MissingArtifactError(f"split manifest not found: {path} (run `split` first)")
    mask = load_split_manifest(path)
    if mask.size != train_set.n:
        raise MissingArtifactError(f"{path} covers {mask.size} rows, the dataset has"
                                   f" {train_set.n}; rerun `split`")
    return np.flatnonzero(mask), np.flatnonzero(~mask)


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
    # one_hot_rows refuses an empty pool or a sentinel row, before He init
    targets = one_hot_rows(pool.labels, pool.num_classes)
    stack = parse_arch(arch, pool.image_shape, pool.num_classes, seed=train_cfg.seed)
    return train(stack, pool.images, targets, test_set, train_cfg, progress)

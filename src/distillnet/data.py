"""Dataset loading: IDX files, CIFAR binary batches, synthetic blobs.

All loaders return a LabeledImageSet with images scaled to [0, 1] (divide
by 255; nothing else) and int64 labels. LabeledImageSet alone gives images
their dtype, float64. Loading is pure: the same bytes, the same arrays.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import FormatError, MissingArtifactError, ValidationError

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
CIFAR_PIXELS = 3072  # 1024 R + 1024 G + 1024 B bytes, row-major planes
_MAX_VALUES = 10**8  # values gen_synthetic may take: per image pixel, or per template pair and pixel


class LabeledImageSet:
    """Images (N, C, H, W), held as float64, plus integer labels.

    Labels are 0..num_classes-1; the sentinel -1 marks injected
    out-of-domain rows and is excluded from class_counts. Reads of the
    ``labels`` property are counted so the distillation pipeline can prove it
    never touched the student pool's ground truth.
    """

    def __init__(self, images, labels, num_classes=None):
        images = np.asarray(images, dtype=np.float64)  # wide: the reference precision
        labels = np.asarray(labels, dtype=np.int64)
        if images.ndim != 4:
            raise ValidationError(f"images must be (N, C, H, W), got shape {images.shape}")
        if labels.ndim != 1 or labels.shape[0] != images.shape[0]:
            raise ValidationError(
                f"{labels.shape[0] if labels.ndim == 1 else labels.shape} labels "
                f"for {images.shape[0]} images"
            )
        if labels.size and labels.min() < -1:
            raise ValidationError("labels must be >= -1 (-1 marks out-of-domain rows)")
        real = labels[labels >= 0]
        if num_classes is None:
            if real.size == 0:
                raise ValidationError("cannot infer num_classes without real labels")
            num_classes = int(real.max()) + 1
        if real.size and int(real.max()) >= num_classes:
            raise ValidationError(
                f"label {int(real.max())} out of range for num_classes={num_classes}"
            )
        self.images = images
        self._labels = labels
        self.num_classes = int(num_classes)
        values, counts = np.unique(real, return_counts=True)
        self.class_counts = {int(v): int(c) for v, c in zip(values, counts)}
        self._label_reads = 0

    @property
    def n(self):
        return self.images.shape[0]

    @property
    def image_shape(self):
        return self.images.shape[1:]

    @property
    def labels(self):
        """Ground-truth labels; every read is audited."""
        self._label_reads += 1
        return self._labels

    @property
    def label_reads(self):
        return self._label_reads

    def reset_label_reads(self):
        self._label_reads = 0

    def subset(self, indices):
        """New set holding the given rows (in the given order)."""
        indices = np.asarray(indices, dtype=np.int64)
        return LabeledImageSet(
            self.images[indices], self._labels[indices], self.num_classes
        )


def _read_file(path):
    """The bytes of a dataset file; a MissingArtifactError naming it when it
    cannot be read (missing, a directory, no permission)."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as exc:
        raise MissingArtifactError(f"dataset file: {exc}") from None


def _read_idx_header(buf, path, magic, fields):
    want = 4 + 4 * fields
    if len(buf) < want:
        raise FormatError(f"{path}: truncated IDX header")
    got = struct.unpack(">I", buf[:4])[0]
    if got != magic:
        raise FormatError(f"{path}: bad magic 0x{got:08x}, expected 0x{magic:08x}")
    return struct.unpack(f">{fields}I", buf[4:want]), buf[want:]


def load_idx(images_path, labels_path, num_classes=None):
    """Load an IDX image/label file pair (the MNIST container format).

    Image file: >u32 magic 0x00000803, count, rows, cols, then count*rows*cols
    unsigned pixel bytes. Label file: >u32 magic 0x00000801, count, then count
    label bytes.
    """
    buf = _read_file(images_path)
    (count, rows, cols), payload = _read_idx_header(
        buf, images_path, IDX_IMAGE_MAGIC, 3
    )
    if len(payload) != count * rows * cols:
        raise FormatError(
            f"{images_path}: payload holds {len(payload)} bytes, "
            f"expected {count * rows * cols}"
        )
    images = np.frombuffer(payload, dtype=np.uint8).reshape(count, 1, rows, cols)

    buf = _read_file(labels_path)
    (label_count,), payload = _read_idx_header(buf, labels_path, IDX_LABEL_MAGIC, 1)
    if label_count != count:
        raise FormatError(
            f"{labels_path}: {label_count} labels for {count} images"
        )
    if len(payload) != label_count:
        raise FormatError(f"{labels_path}: truncated label payload")
    labels = np.frombuffer(payload, dtype=np.uint8).astype(np.int64)
    return LabeledImageSet(images / 255.0, labels, num_classes)


def load_cifar(paths, num_classes=10):
    """Load CIFAR binary batches (10: <label><3072 px>; 100: <coarse><fine><3072 px>).

    For the 100-class layout the coarse byte is read and discarded; the fine
    label is used.
    """
    if num_classes not in (10, 100):
        raise ValidationError(f"num_classes must be 10 or 100, got {num_classes}")
    if not paths:
        raise ValidationError("no CIFAR batch files given")
    record = 1 + CIFAR_PIXELS if num_classes == 10 else 2 + CIFAR_PIXELS
    all_images, all_labels = [], []
    for path in paths:
        buf = _read_file(path)
        if len(buf) == 0 or len(buf) % record != 0:
            raise FormatError(
                f"{path}: {len(buf)} bytes is not a multiple of the "
                f"{record}-byte record"
            )
        rows = np.frombuffer(buf, dtype=np.uint8).reshape(-1, record)
        labels = rows[:, 0] if num_classes == 10 else rows[:, 1]
        if labels.max(initial=0) >= num_classes:
            raise FormatError(
                f"{path}: label byte {int(labels.max())} out of range "
                f"for {num_classes} classes"
            )
        all_images.append(rows[:, -CIFAR_PIXELS:].reshape(-1, 3, 32, 32))
        all_labels.append(labels.astype(np.int64))
    images = np.concatenate(all_images) / 255.0
    return LabeledImageSet(images, np.concatenate(all_labels), num_classes)


def gen_synthetic(num_classes, per_class, shape, seed, difficulty):
    """Gaussian blob classes around random template images.

    Templates are drawn first, uniform over [0.2, 0.8] per pixel; each sample
    is its class template plus N(0, sigma) noise, clipped to [0, 1], where
    sigma = difficulty * (rms per-pixel distance between template pairs).
    Rows come out class-major (all of class 0, then class 1, ...); everything
    is a deterministic function of the seed.
    """
    if num_classes < 2:
        raise ValidationError(f"num_classes must be >= 2, got {num_classes}")
    if per_class < 1:
        raise ValidationError(f"per_class must be >= 1, got {per_class}")
    if not 0 < difficulty <= 1:
        raise ValidationError(f"difficulty must be in (0, 1], got {difficulty}")
    shape = tuple(int(d) for d in shape)
    if len(shape) != 3 or any(d < 1 for d in shape):
        raise ValidationError(f"shape must be 3 positive dims, got {shape}")
    drawn = max(per_class, (num_classes - 1) / 2) * num_classes * np.prod(shape, dtype=float)
    if drawn > _MAX_VALUES:  # refused before any allocation
        raise ValidationError(f"{num_classes} classes of {per_class} {shape} images take"
                              f" {drawn:,.0f} values, more than {_MAX_VALUES:,}")

    rng = np.random.default_rng(seed)
    templates = rng.uniform(0.2, 0.8, (num_classes, *shape))
    flat = templates.reshape(num_classes, -1)
    # each pair i < j once, in row-major order of the upper triangle
    pair_ms = np.concatenate([((flat[i] - flat[i + 1:]) ** 2).mean(axis=1)
                              for i in range(num_classes - 1)])
    rms_sep = float(np.sqrt(pair_ms.mean()))
    sigma = difficulty * rms_sep

    images = np.empty((num_classes * per_class, *shape))
    for k in range(num_classes):
        noise = rng.normal(0.0, sigma, (per_class, *shape))
        images[k * per_class : (k + 1) * per_class] = np.clip(templates[k] + noise, 0.0, 1.0)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    return LabeledImageSet(images, labels, num_classes)


def gen_synthetic_split(num_classes, per_class, test_per_class, shape, seed, difficulty):
    """(train, test) drawn from the same synthetic task (same templates)."""
    full = gen_synthetic(
        num_classes, per_class + test_per_class, shape, seed, difficulty
    )
    block = per_class + test_per_class
    idx = np.arange(full.n).reshape(num_classes, block)
    train = full.subset(idx[:, :per_class].ravel())
    test = full.subset(idx[:, per_class:].ravel())
    return train, test


def one_hot_rows(labels, num_classes):
    """One-hot matrix for a label vector; rejects sentinel labels."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValidationError("no labels to encode")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValidationError(
            f"labels must be in [0, {num_classes}); got range "
            f"[{int(labels.min())}, {int(labels.max())}]"
        )
    rows = np.zeros((labels.size, num_classes))
    rows[np.arange(labels.size), labels] = 1.0
    return rows


def subset_classes(dataset, classes, per_class=None):
    """Restrict to the given classes (relabeled 0..len-1, in the given order).

    With per_class set, keeps only the first per_class rows of each class in
    original dataset order.
    """
    classes = [int(c) for c in classes]
    if len(set(classes)) != len(classes) or not classes:
        raise ValidationError(f"classes must be non-empty and unique, got {classes}")
    labels = dataset.labels
    pieces = []
    new_labels = []
    for new, old in enumerate(classes):
        idx = np.flatnonzero(labels == old)
        if idx.size == 0:
            raise ValidationError(f"class {old} not present in dataset")
        if per_class is not None:
            idx = idx[:per_class]
        pieces.append(idx)
        new_labels.append(np.full(idx.size, new, dtype=np.int64))
    order = np.concatenate(pieces)
    return LabeledImageSet(
        dataset.images[order], np.concatenate(new_labels), len(classes)
    )


def standardize_per_channel(train, *others):
    """(train, *others), each standardized by the train set's per-channel
    mean/std (a None stays None). Opt-in for CIFAR-style runs; the output is
    no longer confined to [0, 1]."""
    mean = train.images.mean(axis=(0, 2, 3), keepdims=True)
    std = train.images.std(axis=(0, 2, 3), keepdims=True)
    std = np.where(std < 1e-12, 1.0, std)
    return tuple(None if s is None else
                 LabeledImageSet((s.images - mean) / std, s.labels, s.num_classes)
                 for s in (train, *others))

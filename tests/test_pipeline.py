import hashlib
import inspect
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from distillnet.data import gen_synthetic, gen_synthetic_split, one_hot_rows
from distillnet.errors import (
    FormatError,
    MissingArtifactError,
    ShapeError,
    ValidationError,
)
from distillnet import layers, network, pipeline
from distillnet.network import parse_arch
from distillnet.pipeline import (
    SoftLabelSet,
    generate_soft_labels,
    image_payload_checksum,
    load_checkpoint,
    load_soft_labels,
    save_checkpoint,
    save_soft_labels,
    train_baseline,
    train_student,
)
from distillnet.splitting import PerturbConfig, SplitConfig, balanced_split, inject_ood
from distillnet.training import TrainConfig, train


def trained_stack(arch="c(3,2)-mp-fc(8)-bn-fc-s", seed=0):
    train_set, test_set = gen_synthetic_split(3, 20, 10, (1, 6, 6), seed, 0.5)
    stack = parse_arch(arch, (1, 6, 6), 3, seed=seed)
    targets = one_hot_rows(train_set.labels, 3)
    stack, _ = train(stack, train_set.images, targets, test_set,
                     TrainConfig(epochs=2, batch_size=20, seed=seed))
    return stack, test_set


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    # fc-d(0.00001)-fc-s: a float arg that once rendered as d(1e-05), which
    # the parser rejects, so the checkpoint saved but did not load
    for arch in ("c(3,2)-mp-fc(8)-bn-fc-s", "fc-d(0.00001)-fc-s"):
        stack, test_set = trained_stack(arch)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(stack, path)
        loaded = load_checkpoint(path)
        assert loaded.arch == stack.arch
        assert loaded.input_shape == stack.input_shape
        assert loaded.num_classes == stack.num_classes
        assert loaded.mode == "eval"
        # float32 storage: agreement to ~1e-5 on outputs
        a = stack.forward(test_set.images)
        b = loaded.forward(test_set.images)
        assert np.max(np.abs(a - b)) < 1e-5
        assert a.argmax(axis=1).tolist() == b.argmax(axis=1).tolist()


def test_checkpoint_preserves_batchnorm_running_stats(tmp_path):
    stack, _ = trained_stack()
    bn = [l for l in stack.layers if l.kind == "bn"][0]
    assert not np.allclose(bn.running_mean, 0.0)  # training moved them
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(stack, path)
    loaded = load_checkpoint(path)
    bn2 = [l for l in loaded.layers if l.kind == "bn"][0]
    assert np.allclose(bn.running_mean, bn2.running_mean, atol=1e-6)
    assert np.allclose(bn.running_var, bn2.running_var, atol=1e-6)


def test_a_loaded_stack_holds_the_saved_float32_values_and_draws_no_he_init(
        tmp_path, monkeypatch):
    # every kind that holds state: conv and fc weights and biases, bn's gamma,
    # beta and running statistics (moved by training); the load makes the
    # layers without He init, so every value comes from the payload
    stack, _ = trained_stack("c(3,2)-mp-bn-fc(8)-d-fc-s")
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(stack, path)
    rngs, he = [], layers._he

    def spy(rng, *args):
        rngs.append(rng)
        return he(rng, *args)

    monkeypatch.setattr(layers, "_he", spy)
    loaded = load_checkpoint(path)
    assert rngs == [None, None, None]  # the conv and both fcs drew nothing
    saved, got = stack.state_items(), loaded.state_items()
    assert [name for name, _ in got] == [name for name, _ in saved]
    assert {name.split(".")[1] for name, _ in got} == {"c", "bn", "fc"}
    assert any(name.endswith("running_var") for name, _ in got)
    for (name, want), (_, arr) in zip(saved, got):
        assert arr.dtype == np.float64, name
        assert arr.tobytes() == want.astype(np.float32).astype(np.float64).tobytes(), name


def test_checkpoint_magic_and_layout(tmp_path):
    stack, _ = trained_stack(arch="fc-s")
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(stack, path)
    buf = open(path, "rb").read()
    assert buf[:4] == b"DMCK"
    assert struct.unpack("<I", buf[4:8])[0] == 2  # version
    arch_len = struct.unpack("<I", buf[8:12])[0]
    assert buf[12 : 12 + arch_len].decode("ascii") == "fc-s"
    shape_off = 12 + arch_len
    assert struct.unpack("<3I", buf[shape_off : shape_off + 12]) == (1, 6, 6)
    assert struct.unpack("<I", buf[shape_off + 12 : shape_off + 16])[0] == 3
    # the state arrays follow as float32, back to back, with no per-tensor
    # records; a 16-byte blake2b digest of everything before it ends the file
    payload = b"".join(arr.astype("<f4").tobytes() for _, arr in stack.state_items())
    assert buf[shape_off + 16 : -16] == payload
    assert buf[-16:] == hashlib.blake2b(buf[:-16], digest_size=16).digest()


def assert_every_corruption_refused(raw, load, bad):
    """Every single-bit flip and every truncation of the file raw raises
    FormatError and nothing else, as do a few appended bytes."""

    def refused(data):
        with open(bad, "wb") as f:
            f.write(data)
        with pytest.raises(FormatError):
            load(bad)

    for bit in range(len(raw) * 8):
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        refused(bytes(flipped))
    for end in range(len(raw)):  # every truncation, header and payload
        refused(raw[:end])
    refused(raw + b"\x00\x00")  # trailing bytes


def digested(body):
    """body with the blake2b digest trailer that makes it pass the digest check."""
    return body + hashlib.blake2b(body, digest_size=16).digest()


def restamped(raw, version):
    """raw with another format version and a digest that matches it."""
    return digested(raw[:4] + struct.pack("<I", version) + raw[8:-16])


def test_a_checkpoint_whose_header_is_too_large_to_build_is_refused_before_it_allocates(
        tmp_path):
    # the digest holds, but "fc-s" on the header's 3x65535x65535 input would be
    # 1.3e11 weights (1 TB): the builder's bound refuses it before He init, as
    # a malformed artifact that names its file
    arch = b"fc-s"
    header = struct.pack("<I", len(arch)) + arch + struct.pack("<4I", 3, 65535, 65535, 10)
    path = tmp_path / "big.ckpt"
    path.write_bytes(digested(b"DMCK" + struct.pack("<I", 2) + header))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=re.escape(f"{path}: header arch fc-s: fc (token 1):"
                                                        " the stack would hold")):
            load_checkpoint(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"refusing the header peaked at {peak} bytes"


def test_a_checkpoint_whose_header_arch_does_not_parse_is_a_format_error_naming_it(tmp_path):
    # a digest-valid header whose arch has an unknown token: the parser's
    # message, under the file's name
    arch = b"zz-s"
    header = struct.pack("<I", len(arch)) + arch + struct.pack("<4I", 1, 4, 4, 3)
    path = tmp_path / "zz.ckpt"
    path.write_bytes(digested(b"DMCK" + struct.pack("<I", 2) + header))
    with pytest.raises(FormatError, match=re.escape(
            f"{path}: header arch zz-s: unknown layer token 'zz' at token 1")):
        load_checkpoint(str(path))


def test_a_checkpoint_whose_payload_is_not_its_archs_size_is_refused_before_a_layer_is_made(
        tmp_path, monkeypatch):
    # 92 bytes with a valid digest: "fc-s" on 1x3000x3300 for 10 classes holds
    # 99,000,010 values (a 790 MB build), the payload 11; sized, never built
    arch = b"fc-s"
    header = struct.pack("<I", len(arch)) + arch + struct.pack("<4I", 1, 3000, 3300, 10)
    path = tmp_path / "small.ckpt"
    path.write_bytes(digested(b"DMCK" + struct.pack("<I", 2) + header + bytes(44)))
    assert path.stat().st_size == 92

    def no_build(*args, **kwargs):
        raise AssertionError("parse_arch called")

    monkeypatch.setattr(pipeline, "parse_arch", no_build)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=re.escape(
                "fc-s on 1x3000x3300 images and 10 classes holds 99,000,010 values"
                " (396,000,040 bytes), the payload 44 bytes")):
            load_checkpoint(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"refusing the payload peaked at {peak} bytes"


def test_checkpoint_corruption_detected(tmp_path):
    stack, _ = trained_stack()
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(stack, path)
    raw = open(path, "rb").read()

    bad = str(tmp_path / "bad.ckpt")
    open(bad, "wb").write(b"XXXX" + raw[4:])
    with pytest.raises(FormatError):
        load_checkpoint(bad)

    open(bad, "wb").write(raw[:4] + struct.pack("<I", 9) + raw[8:])
    with pytest.raises(FormatError):
        load_checkpoint(bad)

    # a version-1 file is otherwise valid: it is refused by its version, and
    # the message names the verbs that rewrite it
    open(bad, "wb").write(restamped(raw, 1))
    with pytest.raises(FormatError, match="version 1.*train-mentor.*train-student.*baseline"):
        load_checkpoint(bad)

    assert_every_corruption_refused(raw, load_checkpoint, bad)


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(MissingArtifactError):
        load_checkpoint(str(tmp_path / "nope.ckpt"))


# ---------------------------------------------------------------------------
# soft labels


def test_generate_soft_labels_matches_eval_forward():
    stack, test_set = trained_stack()
    pool = gen_synthetic(3, 15, (1, 6, 6), 7, 0.5)
    soft = generate_soft_labels(stack, pool.images)
    assert soft.rows.shape == (45, 3)
    stack.set_mode("eval")
    ref = stack.forward(pool.images)
    assert np.array_equal(soft.rows, ref)  # raw probabilities, no reweighting
    assert np.allclose(soft.rows.sum(axis=1), 1.0, atol=1e-12)
    assert soft.mentor_id == stack.arch
    assert soft.source_checksum == image_payload_checksum(pool.images)


def test_generate_soft_labels_batching_is_invisible(monkeypatch):
    stack, _ = trained_stack()
    pool = gen_synthetic(3, 40, (1, 6, 6), 3, 0.5)
    monkeypatch.setattr(network, "EVAL_BATCH", 7)
    a = generate_soft_labels(stack, pool.images)
    monkeypatch.setattr(network, "EVAL_BATCH", 1000)
    b = generate_soft_labels(stack, pool.images)
    assert np.array_equal(a.rows, b.rows)


def test_generate_soft_labels_shape_check():
    stack, _ = trained_stack()
    with pytest.raises(ShapeError):
        generate_soft_labels(stack, np.zeros((4, 1, 5, 5)))


def test_soft_labels_round_trip_bit_exact(tmp_path):
    stack, _ = trained_stack()
    pool = gen_synthetic(3, 12, (1, 6, 6), 5, 0.5)
    soft = generate_soft_labels(stack, pool.images)
    path = str(tmp_path / "x.slbl")
    save_soft_labels(soft, path)
    back = load_soft_labels(path)
    # float32 is the storage precision; the round trip at f32 is bit-exact
    assert np.array_equal(soft.rows.astype(np.float32), back.rows.astype(np.float32))
    assert back.source_checksum == soft.source_checksum
    assert back.mentor_id == soft.mentor_id


def test_soft_labels_file_layout(tmp_path):
    rows = np.array([[0.25, 0.75], [0.5, 0.5]])
    soft = SoftLabelSet(rows, source_checksum=123456789, mentor_id="fc-s")
    path = str(tmp_path / "x.slbl")
    save_soft_labels(soft, path)
    buf = open(path, "rb").read()
    assert buf[:4] == b"SLBL"
    version, n, k = struct.unpack("<III", buf[4:16])
    assert (version, n, k) == (2, 2, 2)
    assert struct.unpack("<Q", buf[16:24])[0] == 123456789
    id_len = struct.unpack("<I", buf[24:28])[0]
    assert buf[28 : 28 + id_len] == b"fc-s"
    payload = np.frombuffer(buf[28 + id_len : -16], dtype="<f4")
    assert np.array_equal(payload.reshape(2, 2), rows.astype(np.float32))
    assert buf[-16:] == hashlib.blake2b(buf[:-16], digest_size=16).digest()


def test_soft_labels_corruption_detected(tmp_path):
    rows = np.full((3, 2), 0.5)
    soft = SoftLabelSet(rows, source_checksum=1, mentor_id="fc-s")
    path = str(tmp_path / "x.slbl")
    save_soft_labels(soft, path)
    raw = open(path, "rb").read()
    bad = str(tmp_path / "bad.slbl")
    open(bad, "wb").write(b"NOPE" + raw[4:])
    with pytest.raises(FormatError):
        load_soft_labels(bad)
    open(bad, "wb").write(restamped(raw, 1))
    with pytest.raises(FormatError, match="version 1.*`label`"):
        load_soft_labels(bad)
    assert_every_corruption_refused(raw, load_soft_labels, bad)
    with pytest.raises(MissingArtifactError):
        load_soft_labels(str(tmp_path / "ghost.slbl"))


@pytest.mark.parametrize("kind", ["checkpoint", "soft-labels"])
def test_malformed_contents_under_a_valid_digest_are_refused(tmp_path, kind):
    # the digest matches, so only the reader's own bounds catch these: a body
    # 4 payload bytes long, one 4 bytes short, and a non-ASCII id; a
    # checkpoint's payload is sized from its header's arch before it is read
    path = str(tmp_path / "x.bin")
    if kind == "checkpoint":
        save_checkpoint(parse_arch("fc-s", (1, 6, 6), 3, seed=0), path)
        load, id_at, what = load_checkpoint, 12, "arch string"
        sized = "fc-s on 1x6x6 images and 3 classes holds 111 values (444 bytes)"
        long, short = (re.escape(f"{sized}, the payload {n} bytes") for n in (448, 440))
    else:
        soft = SoftLabelSet(np.full((3, 2), 0.5), source_checksum=1, mentor_id="fc-s")
        save_soft_labels(soft, path)
        load, id_at, what = load_soft_labels, 28, "mentor id"
        long = "4 trailing bytes"
        short = r"truncated \(4 bytes short of a 24-byte read\)"  # the rows, read in one piece
    body = open(path, "rb").read()[:-16]
    non_ascii = body[:id_at] + b"\xff" + body[id_at + 1 :]
    bad = str(tmp_path / "bad.bin")
    for data, message in [
        (body + b"\x00" * 4, long),
        (body[:-4], short),
        (non_ascii, f"{what} is not ASCII"),
    ]:
        open(bad, "wb").write(digested(data))
        with pytest.raises(FormatError, match=message):
            load(bad)


@pytest.mark.parametrize("bad_row", [[1.5, -0.5, 0.0], [np.nan, 0.5, 0.5]])
def test_soft_labels_reject_invalid_rows(tmp_path, bad_row):
    # [1.5, -0.5, 0] sums to 1: only the sign test rejects it
    rows = np.array([[0.2, 0.3, 0.5], bad_row, [1.0, 0.0, 0.0]])
    path = str(tmp_path / "x.slbl")
    save_soft_labels(SoftLabelSet(rows, source_checksum=1, mentor_id="fc-s"), path)
    with pytest.raises(FormatError, match="row 1 "):
        load_soft_labels(path)


def test_image_payload_checksum_sensitivity():
    imgs = gen_synthetic(2, 5, (1, 4, 4), 0, 0.5).images
    base = image_payload_checksum(imgs)
    assert base == image_payload_checksum(imgs.copy())
    bumped = imgs.copy()
    bumped[0, 0, 0, 0] += 1e-12
    assert image_payload_checksum(bumped) != base
    assert 0 <= base < 2**64


def test_image_payload_checksum_is_defined_over_float64():
    # float32 images digest as their exact float64 cast, so label files
    # agree whatever dtype the pool is held in
    imgs32 = gen_synthetic(2, 5, (1, 4, 4), 0, 0.5).images.astype(np.float32)
    wide = imgs32.astype(np.float64)
    assert image_payload_checksum(imgs32) == image_payload_checksum(wide)
    digest = hashlib.blake2b(wide.astype("<f8").tobytes(), digest_size=8).digest()
    assert image_payload_checksum(imgs32) == int.from_bytes(digest, "little")


# ---------------------------------------------------------------------------
# student training contract


def test_train_student_has_no_label_parameter():
    sig = inspect.signature(train_student)
    for name in sig.parameters:
        assert "label" not in name or name == "soft"  # images, soft, arch, ...
    assert "labels" not in sig.parameters
    assert "targets" not in sig.parameters


def test_train_student_never_reads_pool_labels():
    train_set, test_set = gen_synthetic_split(3, 30, 10, (1, 6, 6), 0, 0.5)
    mentor_set, pool = balanced_split(train_set, SplitConfig(0.3, seed=0))
    mentor = parse_arch("fc(16)-fc-s", (1, 6, 6), 3, seed=0)
    mentor, _ = train(mentor, mentor_set.images, one_hot_rows(mentor_set.labels, 3),
                      test_set, TrainConfig(epochs=2, batch_size=16))
    pool.reset_label_reads()
    soft = generate_soft_labels(mentor, pool.images)
    student, _ = train_student(TrainConfig(epochs=2, batch_size=16),
                               pool.images, soft, "fc(8)-fc-s", test_set)
    assert pool.label_reads == 0


def test_train_student_checksum_mismatch_rejected():
    train_set, test_set = gen_synthetic_split(3, 20, 10, (1, 6, 6), 0, 0.5)
    stack, _ = trained_stack()
    soft = generate_soft_labels(stack, train_set.images)
    other = gen_synthetic(3, 20, (1, 6, 6), 9, 0.5)
    with pytest.raises(ValidationError) as err:
        train_student(TrainConfig(epochs=1, batch_size=16),
                      other.images[: train_set.n], soft, "fc-s", test_set)
    assert "checksum" in str(err.value)


def test_train_student_row_count_mismatch():
    train_set, test_set = gen_synthetic_split(3, 20, 10, (1, 6, 6), 0, 0.5)
    stack, _ = trained_stack()
    soft = generate_soft_labels(stack, train_set.images)
    with pytest.raises(ShapeError):
        train_student(TrainConfig(epochs=1, batch_size=8),
                      train_set.images[:-1], soft, "fc-s", test_set)


def test_student_trains_on_injected_pool():
    # sentinel rows carry no usable hard label, but soft-label training
    # happily consumes them
    train_set, test_set = gen_synthetic_split(3, 30, 10, (1, 6, 6), 0, 0.5)
    _, pool = balanced_split(train_set, SplitConfig(0.2, seed=0))
    foreign = gen_synthetic(5, 50, (1, 6, 6), 77, 0.5)
    pool = inject_ood(pool, foreign, PerturbConfig("inject", 0.8, seed=1))
    assert (pool.labels == -1).any()
    pool.reset_label_reads()

    stack, _ = trained_stack()
    soft = generate_soft_labels(stack, pool.images)
    assert soft.rows.shape[0] == pool.n
    student, logs = train_student(TrainConfig(epochs=1, batch_size=16),
                                  pool.images, soft, "fc(8)-fc-s", test_set)
    assert np.isfinite(logs[-1].train_loss)
    assert pool.label_reads == 0


def test_student_tracks_mentor_on_easy_task():
    # distillation property: across seeds a converged student stays within a
    # few points of its mentor (soft labels carry the decision function)
    gaps = []
    for seed in range(5):
        train_set, test_set = gen_synthetic_split(4, 50, 25, (1, 6, 6), seed, 0.3)
        mentor_set, pool = balanced_split(train_set, SplitConfig(0.2, seed=seed))
        mentor = parse_arch("fc(32)-fc-s", (1, 6, 6), 4, seed=seed)
        mcfg = TrainConfig(epochs=8, batch_size=16, seed=seed)
        scfg = TrainConfig(epochs=16, batch_size=16, seed=seed, learning_rate=0.03)
        mentor, mlogs = train(mentor, mentor_set.images,
                              one_hot_rows(mentor_set.labels, 4), test_set, mcfg)
        soft = generate_soft_labels(mentor, pool.images)
        _, slogs = train_student(scfg, pool.images, soft, "fc(32)-fc-s", test_set)
        gaps.append(slogs[-1].test_accuracy - mlogs[-1].test_accuracy)
    # students may edge past the mentor but never fall far behind
    assert all(gap > -0.05 for gap in gaps)
    assert np.mean(gaps) > -0.02


def test_train_baseline_uses_hard_labels():
    train_set, test_set = gen_synthetic_split(3, 30, 10, (1, 6, 6), 0, 0.5)
    _, pool = balanced_split(train_set, SplitConfig(0.2, seed=0))
    stack, logs = train_baseline(TrainConfig(epochs=2, batch_size=16),
                                 pool, "fc(8)-fc-s", test_set)
    assert len(logs) == 2
    assert logs[-1].test_accuracy > 0.3


def test_train_baseline_rejects_sentinels_and_empty():
    train_set, _ = gen_synthetic_split(3, 30, 10, (1, 6, 6), 0, 0.5)
    _, test_set = gen_synthetic_split(3, 30, 10, (1, 6, 6), 0, 0.5)
    _, pool = balanced_split(train_set, SplitConfig(0.2, seed=0))
    foreign = gen_synthetic(5, 60, (1, 6, 6), 3, 0.5)
    injected = inject_ood(pool, foreign, PerturbConfig("inject", 0.9, seed=0))
    with pytest.raises(ValidationError):
        train_baseline(TrainConfig(epochs=1, batch_size=8), injected, "fc-s", test_set)
    empty = pool.subset(np.array([], dtype=np.int64))
    with pytest.raises(ValidationError):
        train_baseline(TrainConfig(epochs=1, batch_size=8), empty, "fc-s", test_set)


def test_atomic_write_leaves_no_tmp_files(tmp_path):
    stack, _ = trained_stack(arch="fc-s")
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(stack, path)
    assert os.listdir(tmp_path) == ["m.ckpt"]

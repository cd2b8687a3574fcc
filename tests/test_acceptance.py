"""Acceptance suite: one test per shipping criterion, C1-C10.

Each test prints (and records for the terminal summary) a single
``[C#] <description> ... PASS|FAIL|SKIP`` line. C1, C9, and the MNIST half
of C4 need real datasets and are gated on environment variables:

  DISTILLNET_MNIST_DIR    directory with the four raw IDX files
  DISTILLNET_CIFAR10_DIR  directory with the CIFAR-10 binary batches

Everything else runs self-contained on synthetic data.
"""

import inspect
import os
import time

import numpy as np
import pytest

from criteria import record_criterion
from distillnet.cli import main as cli_main
from distillnet.data import gen_synthetic, gen_synthetic_split, load_idx, one_hot_rows
from distillnet.evaluation import bench_inference, evaluate, format_percent, relative_accuracy
from distillnet.layers import BatchNorm, Conv2d, Dropout, FullyConnected, MaxPool2d, softmax
from distillnet.network import parse_arch
from distillnet.pipeline import generate_soft_labels, train_student
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
from distillnet.training import TrainConfig, cross_entropy, train

from gradcheck import check_layer, distinct_grid, max_rel_err, numeric_grad

MNIST_DIR = os.environ.get("DISTILLNET_MNIST_DIR")
CIFAR_DIR = os.environ.get("DISTILLNET_CIFAR10_DIR")


def criterion(cid, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    record_criterion(cid, description, status)
    line = f"[{cid}] {description} ... {status}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def skip_criterion(cid, description, reason):
    record_criterion(cid, description, f"SKIP ({reason})")
    print(f"[{cid}] {description} ... SKIP ({reason})", flush=True)
    pytest.skip(reason)


def mnist_paths():
    names = (
        "train-images-idx3-ubyte",
        "train-labels-idx1-ubyte",
        "t10k-images-idx3-ubyte",
        "t10k-labels-idx1-ubyte",
    )
    paths = [os.path.join(MNIST_DIR, n) for n in names]
    missing = [p for p in paths if not os.path.exists(p)]
    return paths, missing


def cifar_paths():
    for sub in ("", "cifar-10-batches-bin"):
        base = os.path.join(CIFAR_DIR, sub)
        train = [os.path.join(base, f"data_batch_{i}.bin") for i in range(1, 6)]
        test = [os.path.join(base, "test_batch.bin")]
        if all(os.path.exists(p) for p in train + test):
            return train, test
    return None, None


# ---------------------------------------------------------------------------
# C1: MNIST transfer at the standard 20/80 operating point


@pytest.mark.slow
def test_c1_mnist_transfer():
    desc = "MNIST 20/80 transfer: mentor >= 96.5%, rel-A >= 99.0, rel-B >= 98.5"
    if not MNIST_DIR:
        skip_criterion("C1", desc, "DISTILLNET_MNIST_DIR not set")
    paths, missing = mnist_paths()
    if missing:
        skip_criterion("C1", desc, f"missing {missing[0]}")
    train_set = load_idx(paths[0], paths[1])
    test_set = load_idx(paths[2], paths[3])
    mentor_set, pool = balanced_split(train_set, SplitConfig(0.2, seed=0))

    arch_deep = "c-mp-c-mp-fc^2-s"
    arch_shallow = "c-mp-fc^2-s"
    mentor_cfg = TrainConfig(epochs=6, batch_size=64, learning_rate=0.01, seed=0)
    student_cfg = TrainConfig(epochs=4, batch_size=64, learning_rate=0.01, seed=0)

    mentor = parse_arch(arch_deep, mentor_set.image_shape, 10, seed=0)
    mentor, _ = train(
        mentor, mentor_set.images, one_hot_rows(mentor_set.labels, 10),
        test_set, mentor_cfg,
    )
    mentor_acc, _ = evaluate(mentor, test_set)

    soft = generate_soft_labels(mentor, pool.images)
    rel = {}
    for name, arch in (("A", arch_deep), ("B", arch_shallow)):
        stack, _ = train_student(student_cfg, pool.images, soft, arch, test_set)
        acc, _ = evaluate(stack, test_set)
        rel[name] = relative_accuracy(acc * 100.0, mentor_acc * 100.0)

    ok = mentor_acc >= 0.965 and rel["A"] >= 99.0 and rel["B"] >= 98.5
    criterion(
        "C1", desc, ok,
        f"mentor {mentor_acc * 100:.2f}%, rel-A {rel['A']:.2f}, rel-B {rel['B']:.2f}",
    )


# ---------------------------------------------------------------------------
# C2: students never read pool ground truth


def test_c2_label_hygiene():
    desc = "label hygiene: zero pool label reads during soft-label training"
    full, test_set = gen_synthetic_split(6, 40, 15, (1, 6, 6), seed=3, difficulty=0.5)
    _, pool = balanced_split(full, SplitConfig(0.2, seed=3))
    foreign = gen_synthetic(6, 60, (1, 6, 6), seed=7777, difficulty=0.5)
    injected = inject_ood(pool, foreign, PerturbConfig("inject", 0.6, seed=3))
    cfg = TrainConfig(epochs=2, batch_size=16, learning_rate=0.02, seed=3)
    mentor = parse_arch("fc(32)-fc-s", (1, 6, 6), 6, seed=3)

    counts = {}
    for name, p in (("balanced", pool), ("inject", injected)):
        p.reset_label_reads()
        soft = generate_soft_labels(mentor, p.images)
        train_student(cfg, p.images, soft, "fc(16)-fc-s", test_set)
        counts[name] = p.label_reads

    params = set(inspect.signature(train_student).parameters)
    leaky = params & {"label", "labels", "targets", "y", "hard_labels"}
    ok = counts["balanced"] == 0 and counts["inject"] == 0 and not leaky
    criterion("C2", desc, ok, f"reads: {counts}, label-like params: {sorted(leaky)}")


# ---------------------------------------------------------------------------
# C3: finite-difference gradient matrix


def test_c3_gradient_matrix():
    desc = "gradient checks: 6 layer kinds x 20 seeds, rel err < 1e-4"
    t0 = time.perf_counter()
    worst = 0.0
    worst_at = ""
    for seed in range(20):
        rng = np.random.default_rng(seed)

        def track(kind, err):
            nonlocal worst, worst_at
            if err > worst:
                worst, worst_at = err, f"{kind}/seed {seed}"

        conv = Conv2d(2, 3, 3, np.random.default_rng(seed))
        track("conv", check_layer(conv, rng.standard_normal((2, 2, 5, 5)), seed))

        pool = MaxPool2d(2)
        track("maxpool", check_layer(pool, distinct_grid((2, 2, 6, 6), seed), seed))

        fc = FullyConnected(10, 7, np.random.default_rng(seed))
        track("fc", check_layer(fc, rng.standard_normal((3, 10)), seed))

        bn = BatchNorm(4)
        track("batchnorm", check_layer(bn, rng.standard_normal((3, 4, 5, 5)), seed))

        drop = Dropout(0.3)
        track("dropout", check_layer(drop, rng.standard_normal((4, 8)), seed))

        # softmax + cross-entropy as trained: gradient of the fused loss
        logits = rng.standard_normal((4, 5))
        targets = rng.dirichlet(np.ones(5), size=4)
        analytic = (softmax(logits) - targets) / logits.shape[0]
        numeric = numeric_grad(
            lambda: cross_entropy(softmax(logits), targets), logits
        )
        track("softmax+ce", max_rel_err(analytic, numeric))

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 120.0
    criterion("C3", desc, ok, f"worst {worst:.2e} at {worst_at}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# C4: split invariants and manifest replay


def test_c4_split_invariants(tmp_path):
    desc = "split invariants: disjoint, covering, per-class 1:4, exact replay"
    problems = []

    def check_split(dataset, tag):
        cfg = SplitConfig(0.2, seed=11)
        mentor_idx, student_idx = split_indices(dataset, cfg)
        if np.intersect1d(mentor_idx, student_idx).size:
            problems.append(f"{tag}: overlap")
        union = np.union1d(mentor_idx, student_idx)
        if union.size != dataset.n or union[0] != 0 or union[-1] != dataset.n - 1:
            problems.append(f"{tag}: union does not cover")
        labels = dataset.labels
        for c in np.unique(labels):
            n_c = int((labels == c).sum())
            got = int((labels[mentor_idx] == c).sum())
            if got != int(n_c * 0.2):
                problems.append(f"{tag}: class {c} got {got}, want floor({n_c}*0.2)")
        path = str(tmp_path / f"manifest_{tag}.csv")
        save_split_manifest(path, dataset.n, mentor_idx)
        replay_m, replay_s = apply_split_manifest(dataset, load_split_manifest(path))
        direct_m = dataset.subset(mentor_idx)
        if replay_m.images.tobytes() != direct_m.images.tobytes():
            problems.append(f"{tag}: replay differs")
        if replay_s.n != student_idx.size:
            problems.append(f"{tag}: replay student size")

    check_split(gen_synthetic(10, 25, (1, 6, 6), seed=5, difficulty=0.5), "synthetic")
    check_split(gen_synthetic(7, 33, (1, 5, 5), seed=6, difficulty=0.5), "uneven")
    covered = "synthetic"
    if MNIST_DIR:
        paths, missing = mnist_paths()
        if not missing:
            check_split(load_idx(paths[0], paths[1]), "mnist")
            covered = "synthetic+mnist"
    ok = not problems
    criterion("C4", desc, ok, f"{covered}; problems: {problems or 'none'}")


# ---------------------------------------------------------------------------
# C5/C6: robustness of the transfer to a perturbed pool
#
# Shared scaled task: 10 classes, 125/class -> 25 mentor + 100 pool per class,
# difficulty 0.9 puts accuracy in the 70-95% band so drops are measurable.

ROBUST_ARCH = "c(3,6)-mp-fc(32)-fc-s"
ROBUST_SEEDS = (0, 1, 2)


def robust_mentor(seed):
    full, test_set = gen_synthetic_split(10, 125, 40, (1, 8, 8), seed=seed,
                                         difficulty=0.9)
    mentor_set, pool = balanced_split(full, SplitConfig(0.2, seed))
    cfg = TrainConfig(epochs=15, batch_size=32, learning_rate=0.05, seed=seed)
    mentor = parse_arch(ROBUST_ARCH, (1, 8, 8), 10, seed=seed)
    mentor, _ = train(
        mentor, mentor_set.images, one_hot_rows(mentor_set.labels, 10),
        test_set, cfg,
    )
    return mentor, pool, test_set, cfg


def student_accuracy(mentor, pool, test_set, cfg):
    soft = generate_soft_labels(mentor, pool.images)
    _, logs = train_student(cfg, pool.images, soft, ROBUST_ARCH, test_set)
    return logs[-1].test_accuracy


def test_c5_unbalanced_pool():
    desc = "unbalanced pool: ratio_bound 0.9 within 3 points of 0.0 (3-seed mean)"
    deltas = []
    for seed in ROBUST_SEEDS:
        mentor, pool, test_set, cfg = robust_mentor(seed)
        clean = student_accuracy(mentor, pool, test_set, cfg)
        reduced_pool = reduce_unbalanced(pool, PerturbConfig("reduce", 0.9, seed))
        reduced = student_accuracy(mentor, reduced_pool, test_set, cfg)
        deltas.append((reduced - clean) * 100.0)
    mean = float(np.mean(deltas))
    ok = abs(mean) <= 3.0
    criterion("C5", desc, ok,
              f"deltas {[f'{d:+.2f}' for d in deltas]}, mean {mean:+.2f} pts")


def test_c6_out_of_domain_pool():
    desc = "foreign injection: ratio_bound 0.6 within 2 points of clean (3-seed mean)"
    deltas = []
    for seed in ROBUST_SEEDS:
        mentor, pool, test_set, cfg = robust_mentor(seed)
        clean = student_accuracy(mentor, pool, test_set, cfg)
        foreign = gen_synthetic(10, 100, (1, 8, 8), seed=seed + 9999, difficulty=0.9)
        injected_pool = inject_ood(pool, foreign, PerturbConfig("inject", 0.6, seed))
        injected = student_accuracy(mentor, injected_pool, test_set, cfg)
        deltas.append((injected - clean) * 100.0)
    mean = float(np.mean(deltas))
    ok = abs(mean) <= 2.0
    criterion("C6", desc, ok,
              f"deltas {[f'{d:+.2f}' for d in deltas]}, mean {mean:+.2f} pts")


# ---------------------------------------------------------------------------
# C7: inference cost ordering across the depth family


def test_c7_inference_ordering():
    desc = "inference bench: mean time student-C < student-B < mentor, 100 reps"
    test_set = gen_synthetic(10, 5, (3, 32, 32), seed=0, difficulty=0.5)
    stacks = {name: parse_arch(arch, (3, 32, 32), 10, seed=0) for name, arch in (
        ("mentor", "c^2-mp-c^2-mp-c^2-mp-fc^2-s"),
        ("student_b", "c^2-mp-c-fc^2-s"),
        ("student_c", "c^2-mp-fc^2-s"),
    )}
    for stack in stacks.values():
        for _ in range(3):  # warmup
            stack.predict(test_set.images)
    # 100 rounds, each timing one pass of every model in turn, so a load on the
    # machine that comes and goes stretches the three means alike
    times = {name: [] for name in stacks}
    for _ in range(100):
        for name, stack in stacks.items():
            times[name] += bench_inference(stack, test_set, reps=1, warmup=0).per_rep_s
    means = {name: float(np.mean(per_rep)) for name, per_rep in times.items()}
    ok = means["student_c"] < means["student_b"] < means["mentor"]
    criterion("C7", desc, ok,
              ", ".join(f"{k} {v * 1000:.1f}ms" for k, v in means.items()))


# ---------------------------------------------------------------------------
# C8: relative accuracy rendering is exact on five fixed reference pairs


def test_c8_relative_accuracy_rendering():
    desc = "relative accuracy rendering matches all five reference pairs"
    pairs = [
        ((97.38, 97.46), "99.91"),
        ((97.17, 97.46), "99.70"),
        ((73.58, 73.14), "100.60"),
        ((72.38, 73.14), "98.96"),
        ((69.63, 73.14), "95.20"),
    ]
    got = [format_percent(relative_accuracy(s, m)) for (s, m), _ in pairs]
    want = [w for _, w in pairs]
    criterion("C8", desc, got == want, f"got {got}")


# ---------------------------------------------------------------------------
# C9: CIFAR-10 subset transfer (full CIFAR-10 is out of desk-scale reach)


@pytest.mark.slow
def test_c9_cifar_subset_transfer():
    desc = "CIFAR-10 4-class subset: student relative accuracy >= 97%"
    if not CIFAR_DIR:
        skip_criterion("C9", desc, "DISTILLNET_CIFAR10_DIR not set")
    train_paths, test_paths = cifar_paths()
    if train_paths is None:
        skip_criterion("C9", desc, "CIFAR batch files not found")
    from distillnet.data import load_cifar, standardize_per_channel, subset_classes

    train_set = subset_classes(load_cifar(train_paths), [0, 1, 2, 3], per_class=2000)
    test_set = subset_classes(load_cifar(test_paths), [0, 1, 2, 3])
    train_set, test_set = standardize_per_channel(train_set, test_set)
    mentor_set, pool = balanced_split(train_set, SplitConfig(0.2, seed=0))

    arch = "c^2-mp-c^2-mp-fc^2-s"
    mentor = parse_arch(arch, mentor_set.image_shape, 4, seed=0)
    mentor, _ = train(
        mentor, mentor_set.images, one_hot_rows(mentor_set.labels, 4), test_set,
        TrainConfig(epochs=8, batch_size=64, learning_rate=0.01, seed=0),
    )
    mentor_acc, _ = evaluate(mentor, test_set)
    soft = generate_soft_labels(mentor, pool.images)
    student, _ = train_student(
        TrainConfig(epochs=5, batch_size=64, learning_rate=0.01, seed=0),
        pool.images, soft, arch, test_set,
    )
    student_acc, _ = evaluate(student, test_set)
    rel = relative_accuracy(student_acc * 100.0, mentor_acc * 100.0)
    criterion("C9", desc, rel >= 97.0,
              f"mentor {mentor_acc * 100:.2f}%, student {student_acc * 100:.2f}%, rel {rel:.2f}")


# ---------------------------------------------------------------------------
# C10: bitwise deterministic pipeline


def test_c10_run_all_determinism(tmp_path):
    desc = "run-all twice: byte-identical artifacts"
    cfg_text = (
        "dataset.kind=synthetic\n"
        "dataset.classes=4\n"
        "dataset.per_class=40\n"
        "dataset.test_per_class=15\n"
        "dataset.shape=1,6,6\n"
        "dataset.difficulty=0.6\n"
        "split.mentor_fraction=0.25\n"
        "mentor.arch=c(3,4)-mp-fc(16)-fc-s\n"
        "student.archs=c(3,4)-mp-fc(16)-fc-s,fc(16)-fc-s\n"
        "mentor_train.epochs=3\n"
        "mentor_train.batch_size=16\n"
        "student_train.epochs=3\n"
        "student_train.batch_size=16\n"
    )
    outs = []
    for tag in ("first", "second"):
        out = str(tmp_path / tag)
        cfg_path = str(tmp_path / f"{tag}.cfg")
        with open(cfg_path, "w") as fh:
            fh.write(cfg_text + f"output_dir={out}\n")
        assert cli_main(["run-all", "--config", cfg_path]) == 0
        outs.append(out)

    names = [
        "split_manifest.csv", "mentor.ckpt", "soft_labels.slbl",
        "student_a.ckpt", "student_b.ckpt", "summary.csv",
        "epochs_mentor.csv", "epochs_student_a.csv", "epochs_student_b.csv",
        "confusion_mentor.csv", "confusion_student_a.csv", "confusion_student_b.csv",
    ]
    different = []
    for name in names:
        a = open(os.path.join(outs[0], name), "rb").read()
        b = open(os.path.join(outs[1], name), "rb").read()
        if a != b:
            different.append(name)
    criterion("C10", desc, not different,
              f"{len(names)} artifacts compared, mismatches: {different or 'none'}")

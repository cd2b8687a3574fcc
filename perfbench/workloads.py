"""The benchmark's workloads: a config, generated inputs and a verb sequence each.

Every workload is written out in full here rather than read from
``configs/``, so editing a shipped config cannot change what the benchmark
measures. ``--seed`` reaches the program through its own ``--seed`` flag
(every ``*.seed`` key) and through the generated input files.

Sizes keep one pass of the verbs near 5 s (blobs) or 10 s (mnist,
cifar-label) on a 2-core machine, so a 36 s run holds three or more passes.
The training settings are the smallest found that reach a confident mentor
and students on every seed tried, which keeps the accuracy metrics steady.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from inputs import cifar_files, mnist_files

PIPELINE = ("split", "train-mentor", "label", "train-student", "eval", "confusion")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    verbs: tuple
    config: dict
    inputs: object = None  # (out_dir, seed) -> config entries naming the files

    def write_config(self, out_dir, seed):
        """Generate the inputs, write the config file, return its path."""
        entries = dict(self.config)
        if self.inputs is not None:
            entries.update(self.inputs(out_dir, seed))
        path = os.path.join(out_dir, f"{self.name}.cfg")
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(f"{k}={v}\n" for k, v in entries.items())
        return path


def _train(prefix, epochs, batch_size, learning_rate):
    return {
        f"{prefix}.epochs": epochs,
        f"{prefix}.batch_size": batch_size,
        f"{prefix}.learning_rate": learning_rate,
    }


BLOBS = Workload(
    name="blobs",
    why="1x8x8 synthetic blobs at batch 32: tiny layer calls, so fixed per-call cost "
        "dominates; an fc-only student bypasses conv and pool",
    verbs=("split", "train-mentor", "label", "train-student", "baseline", "eval", "confusion"),
    config={
        # configs/synthetic.cfg with only the dataset enlarged
        "dataset.kind": "synthetic",
        "dataset.classes": 10,
        "dataset.per_class": 300,
        "dataset.test_per_class": 40,
        "dataset.shape": "1,8,8",
        "dataset.difficulty": 0.9,
        "split.mentor_fraction": 0.2,
        "mentor.arch": "c(3,6)-mp-fc(32)-fc-s",
        "student.archs": "c(3,6)-mp-fc(32)-fc-s,fc(32)-fc-s",
        **_train("mentor_train", 15, 32, 0.05),
        **_train("student_train", 15, 32, 0.05),
    },
)

MNIST = Workload(
    name="mnist",
    why="configs/mnist.cfg architectures at batch 64 on generated 1x28x28 IDX files: "
        "training-bound, conv and max-pool dominate",
    verbs=PIPELINE,
    config={
        "dataset.kind": "mnist",
        "split.mentor_fraction": 0.5,
        "mentor.arch": "c-mp-c-mp-fc^2-s",
        "student.archs": "c-mp-c-mp-fc^2-s,c-mp-fc^2-s",
        **_train("mentor_train", 2, 64, 0.01),
        **_train("student_train", 2, 64, 0.01),
    },
    inputs=lambda out_dir, seed: mnist_files(
        out_dir, seed, n_train=800, n_test=100, noise=0.2, max_shift=1),
)

CIFAR_LABEL = Workload(
    name="cifar-label",
    why="generated CIFAR-10 batches, standardized, with CIFAR-100 rows injected: "
        "a conv mentor labels a large pool, so eval-mode forward dominates",
    verbs=PIPELINE,
    config={
        "dataset.kind": "cifar10",
        "dataset.standardize": "true",
        "split.mentor_fraction": 0.2,
        "perturb.kind": "inject",
        "perturb.ratio_bound": 0.2,
        "mentor.arch": "c^2-mp-c^2-mp-fc^2-s",
        "student.archs": "fc(32)-fc-s",
        **_train("mentor_train", 1, 4, 0.001),
        **_train("student_train", 10, 64, 0.01),
    },
    inputs=lambda out_dir, seed: cifar_files(
        out_dir, seed, n_train=700, n_test=100, n_foreign=200, noise=0.2, max_shift=0),
)

WORKLOADS = {w.name: w for w in (BLOBS, MNIST, CIFAR_LABEL)}

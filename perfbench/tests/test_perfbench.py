"""Fast checks of the benchmark itself: input generators, metric names, spans.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import inputs
import run
import spans
from distillnet.data import load_cifar, load_idx
from workloads import WORKLOADS

from conftest import BENCH, ROOT

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def test_idx_files_round_trip_through_load_idx(tmp_path):
    paths = inputs.mnist_files(str(tmp_path), seed=3, n_train=50, n_test=20,
                               noise=0.3, max_shift=1)
    train = load_idx(paths["dataset.train_images"], paths["dataset.train_labels"])
    test = load_idx(paths["dataset.test_images"], paths["dataset.test_labels"])
    assert train.images.shape == (50, 1, 28, 28) and test.n == 20
    assert sorted(train.class_counts.values()) == [5] * 10

    rng = np.random.default_rng([3, 1])
    templates = inputs.class_templates(rng, 10, (1, 28, 28))
    labels = inputs.balanced_labels(rng, 50, 10)
    pixels = inputs.render(rng, templates, labels, 0.3, 1)
    np.testing.assert_array_equal(train.labels, labels)
    np.testing.assert_array_equal(train.images, pixels / 255.0)


def test_cifar_files_round_trip_through_load_cifar(tmp_path):
    paths = inputs.cifar_files(str(tmp_path), seed=4, n_train=30, n_test=10,
                               n_foreign=200, noise=0.2, max_shift=0)
    train = load_cifar(paths["dataset.train_batches"].split(","), num_classes=10)
    test = load_cifar([paths["dataset.test_batches"]], num_classes=10)
    foreign = load_cifar([paths["perturb.foreign_batches"]], num_classes=100)
    assert train.images.shape == (30, 3, 32, 32) and test.n == 10
    assert foreign.num_classes == 100 and sorted(foreign.class_counts) == list(range(100))

    rng = np.random.default_rng([4, 2])
    templates = inputs.class_templates(rng, 10, (3, 32, 32))
    inputs.class_templates(rng, 100, (3, 32, 32))
    labels = inputs.balanced_labels(rng, 30, 10)
    pixels = inputs.render(rng, templates, labels, 0.2, 0)
    np.testing.assert_array_equal(train.labels, labels)
    np.testing.assert_array_equal(train.images, pixels / 255.0)


def test_generated_bytes_depend_only_on_the_seed(tmp_path):
    def files(seed, sub):
        out = tmp_path / sub
        out.mkdir()
        paths = inputs.mnist_files(str(out), seed, n_train=20, n_test=10,
                                   noise=0.3, max_shift=1)
        return [open(p, "rb").read() for p in sorted(paths.values())]

    first = files(7, "a")
    assert first == files(7, "b")
    assert first != files(8, "c")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_metric_names_are_well_formed_and_match_benchmark_json():
    bench = _benchmark_json()
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    emitted = list(run.END_TO_END) + run.per_layer_names()
    assert len(emitted) == len(set(emitted))
    for name in emitted:
        assert NAME_RE.fullmatch(name) and len(name) <= 64, name
    assert e2e == run.END_TO_END
    assert layer == {name: run.unit_of(name) for name in run.per_layer_names()}
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}


def _check_tree(span_list):
    own = spans.self_times(span_list)
    for s in span_list:
        assert own[s[0]] >= 0, s
        children = [c for c in span_list if c[1] == s[0]]
        assert own[s[0]] + sum(c[4] - c[3] for c in children) == s[4] - s[3]
    roots = [s for s in span_list if s[1] == 0]
    assert sum(own.values()) == sum(s[4] - s[3] for s in roots)


@pytest.mark.parametrize("fake_clock", [True, False])
def test_self_time_is_never_negative_and_sums_to_the_parent(fake_clock):
    ticks = iter(range(0, 10**9, 7))
    rec = spans.Recorder(clock=(lambda: next(ticks)) if fake_clock else time.perf_counter_ns)
    leaf = rec.wrap(lambda: sum(range(100)), lambda: ("leaf", None))
    mid = rec.wrap(lambda: [leaf(), leaf()], lambda: ("mid", None))
    top = rec.wrap(lambda: [mid(), leaf(), mid()], lambda: ("top", None))
    top()
    top()
    assert len(rec.spans) == 2 * (1 + 2 * 3 + 1)
    _check_tree(rec.spans)
    merged = spans.merge([rec.spans, rec.spans])
    assert len({s[0] for s in merged}) == len(merged)
    _check_tree(merged)


def test_traced_verb_writes_consistent_spans(tmp_path):
    cfg = WORKLOADS["blobs"].write_config(str(tmp_path), seed=1)
    out = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run(
        [sys.executable, os.path.join(BENCH, "spans.py"), "--out", str(out), "--",
         "split", "--config", cfg, "--override", f"output_dir={tmp_path / 'o'}"],
        check=True, env=env, capture_output=True, timeout=120)
    span_list = json.loads(out.read_text())
    _check_tree(span_list)
    names = {s[2] for s in span_list}
    assert {"cli.split", "data.prepare", "data.decode", "splitting.resolve",
            "fileio.write"} <= names
    metrics = spans.layer_metrics(span_list)
    assert metrics["data.prepare_calls"] == 1
    assert metrics["cli.split_s"] >= metrics["data.prepare_s"] > 0


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "blobs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

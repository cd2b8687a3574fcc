"""The benchmark's span tracer must still find every name it wraps.

``perfbench/spans.py`` replaces the CLI stages and the pipeline, training
and report functions by name before the verb runs, so a refactor that
renames or stops looking up one of them fails here, not in a benchmark run.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from collections import Counter

import numpy as np

from distillnet.network import EVAL_BATCH
from distillnet.pipeline import SoftLabelSet, load_soft_labels, save_soft_labels

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _traced_spans(tmp_path, verb, *overrides):
    """Run one verb on a copy of configs/synthetic.cfg, with two-epoch trainers
    and then overrides, under the span tracer; returns the spans it recorded."""
    cfg = tmp_path / "synthetic.cfg"
    if not cfg.exists():
        shutil.copy(os.path.join(ROOT, "configs", "synthetic.cfg"), cfg)
    spans_path = tmp_path / f"{verb}.spans.json"
    paths = [os.path.join(ROOT, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "spans.py"),
         "--out", str(spans_path), "--", verb, "--config", str(cfg),
         "--override", f"output_dir={tmp_path / 'out'}",
         "--override", "mentor_train.epochs=2",
         "--override", "student_train.epochs=2",
         *(arg for item in overrides for arg in ("--override", item))],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans_path.read_text())


def _run_traced(tmp_path, verb):
    """The names of the spans of one traced verb."""
    return {span[2] for span in _traced_spans(tmp_path, verb)}


def test_span_tracer_runs_split(tmp_path):
    # perfbench reports the split verb's data.prepare and splitting.resolve
    # spans, so split must still load its data through pipeline.prepare_data
    # and read the manifest it wrote back through pipeline.resolve_split
    assert {"cli.split", "data.prepare", "splitting.resolve"} <= _run_traced(tmp_path, "split")


def test_span_tracer_wraps_the_layers(tmp_path):
    # the tracer's span labels take exactly Layer.forward(x, train, rng) and
    # Layer.backward(dy), so a changed layer signature fails the traced verbs;
    # each kind inherits both from Layer, and the tracer must still wrap them
    # on every kind the verbs run; every verb the benchmark traces must record
    # its stage span, eval and confusion must still reach evaluate and
    # confusion_matrix through cli, and train() must still look up
    # training._test_metrics in its own module
    verbs = ("split", "train-mentor", "label", "train-student", "baseline",
             "eval", "confusion")
    names = set().union(*(_run_traced(tmp_path, verb) for verb in verbs))
    assert {f"cli.{verb}" for verb in verbs} <= names
    layer_spans = {f"layers.{kind}.{span}" for kind in ("c", "mp", "fc", "relu", "s")
                   for span in ("fwd_train", "fwd_eval", "bwd")}
    assert layer_spans <= names
    assert {"evaluation.evaluate", "evaluation.confusion", "training.test_eval"} <= names


def test_span_tracer_sees_both_halves_of_a_split_train_step_and_a_threaded_predict(
        tmp_path):
    # 1x16x16 images reach the engine's threading bound: each mentor batch of a
    # conv stack trains as two halves, on copies of the stack and its layers,
    # and label's predict runs its eval batches on two threads where it can.
    # The tracer wraps LayerStack and every Layer kind on the class, so it must
    # record both halves of every batch and every eval batch. Names and counts
    # only: the tracer's one open-span stack misparents a worker's spans
    shape = ("dataset.shape=1,16,16", "mentor.arch=c(3,4)-mp-fc(16)-fc-s")
    _traced_spans(tmp_path, "split", *shape)
    train = Counter(span[2] for span in _traced_spans(
        tmp_path, "train-mentor", *shape, "mentor_train.epochs=1"))
    assert {f"layers.{kind}.{span}" for kind in ("c", "mp", "fc", "relu", "s")
            for span in ("fwd_train", "bwd")} <= set(train)
    # one epoch of the 250 mentor rows (a fifth of 125 per class) in batches of 32
    assert train["training.sgd"] == 8
    assert train["network.fwd_train"] == train["network.bwd"] == 2 * 8
    # the 1,000-image pool, EVAL_BATCH rows per eval-mode forward, the last
    # block zero-padded to EVAL_BATCH rows
    label = [span for span in _traced_spans(tmp_path, "label", *shape)
             if span[2] == "network.fwd_eval"]
    assert len(label) == -(-1000 // EVAL_BATCH)
    assert sum(span[5] for span in label) == EVAL_BATCH * math.ceil(1000 / EVAL_BATCH)


def test_soft_label_row_count_sits_where_the_benchmark_reads_it(tmp_path):
    # perfbench/run.py check_rep reads the pool size as the u32 at byte 8 of
    # soft_labels.slbl, and the label and train throughput metrics divide by
    # it, so a format change that moves it must fail here first
    rows = np.full((5, 4), 0.25)
    path = str(tmp_path / "soft_labels.slbl")
    save_soft_labels(SoftLabelSet(rows, source_checksum=7, mentor_id="fc-s"), path)
    raw = open(path, "rb").read()
    assert int.from_bytes(raw[8:12], "little") == load_soft_labels(path).rows.shape[0] == 5

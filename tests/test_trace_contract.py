"""The benchmark's span tracer must still find every name it wraps.

``perfbench/spans.py`` replaces the CLI stages and the pipeline, training
and report functions by name before the verb runs, so a refactor that
renames or stops looking up one of them fails here, not in a benchmark run.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np

from distillnet.pipeline import SoftLabelSet, load_soft_labels, save_soft_labels

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_traced(tmp_path, verb):
    """Run one verb on a copy of configs/synthetic.cfg under the span tracer;
    returns the names of the spans it recorded."""
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
         "--override", "student_train.epochs=2"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return {span[2] for span in json.loads(spans_path.read_text())}


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


def test_soft_label_row_count_sits_where_the_benchmark_reads_it(tmp_path):
    # perfbench/run.py check_rep reads the pool size as the u32 at byte 8 of
    # soft_labels.slbl, and the label and train throughput metrics divide by
    # it, so a format change that moves it must fail here first
    rows = np.full((5, 4), 0.25)
    path = str(tmp_path / "soft_labels.slbl")
    save_soft_labels(SoftLabelSet(rows, source_checksum=7, mentor_id="fc-s"), path)
    raw = open(path, "rb").read()
    assert int.from_bytes(raw[8:12], "little") == load_soft_labels(path).rows.shape[0] == 5

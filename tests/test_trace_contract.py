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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_span_tracer_runs_split(tmp_path):
    cfg = str(tmp_path / "synthetic.cfg")
    shutil.copy(os.path.join(ROOT, "configs", "synthetic.cfg"), cfg)
    spans_path = tmp_path / "spans.json"
    paths = [os.path.join(ROOT, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "spans.py"),
         "--out", str(spans_path), "--", "split", "--config", cfg,
         "--override", f"output_dir={tmp_path / 'out'}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text())
    assert spans
    assert "cli.split" in {span[2] for span in spans}

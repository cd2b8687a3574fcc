"""Byte stability across commits: every artifact of six small runs against
a committed table of sha256 digests.

C10 compares two runs of one commit; this compares a run with the bytes the
table was written from, so a change that moves one byte of one artifact fails
here. The runs are ``run-all`` + ``baseline`` on ``configs/synthetic.cfg
--seed 7``, a 2-ratio x 2-seed ``sweep``, the same ``sweep`` with
``perturb.kind=inject`` (each run's pool holds foreign rows), ``run-all`` +
``baseline`` on the sweep's config with ``perturb.kind=reduce`` (an unbalanced
pool), the tiny
MNIST ``run-all`` of ``test_dataset_kinds`` and its CIFAR-10 ``run-all`` +
``baseline`` (whose pool holds injected CIFAR-100 rows).

Float results depend on numpy and on the OpenBLAS kernels it picked, so the
table is keyed by the numpy version and the OpenBLAS core name; on any other
key the test skips and says why. A change that moves bytes on purpose
rewrites the table, and its diff is the review:

    PYTHONPATH=src python tests/test_artifact_digests.py

which also prints each entry it adds, changes or drops against the old table.
"""

import ctypes
import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from distillnet.cli import main
from test_dataset_kinds import cifar_config, mnist_config

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE = os.path.join(HERE, "artifact_digests.json")
SYNTHETIC = os.path.join(HERE, "..", "configs", "synthetic.cfg")

SWEEP = """
dataset.kind=synthetic
dataset.classes=4
dataset.per_class=40
dataset.test_per_class=20
dataset.shape=1,6,6
dataset.difficulty=0.6
mentor.arch=fc(32)-fc-s
student.archs=fc(32)-fc-s
mentor_train.epochs=3
mentor_train.batch_size=8
student_train.epochs=3
student_train.batch_size=8
sweep.ratios=0.25,0.5
sweep.seeds=0,1
"""


def blas_core():
    """The core name of numpy's bundled OpenBLAS, or None if there is none."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for name in sorted(os.listdir(libs)) if os.path.isdir(libs) else ():
        if "openblas" in name:
            corename = getattr(ctypes.CDLL(os.path.join(libs, name)),
                               "scipy_openblas_get_corename64_", None)
            if corename is not None:
                corename.argtypes = []
                corename.restype = ctypes.c_char_p
                return corename().decode("ascii")
    return None


def table_key():
    return f"numpy {np.__version__} / OpenBLAS {blas_core()}"


def _run(tmp, verbs, cfg_text=None, config=None, flags=()):
    """Run each verb on one config into tmp/out; returns that directory."""
    out = os.path.join(tmp, "out")
    if config is None:
        config = os.path.join(tmp, "run.cfg")
        with open(config, "w", encoding="utf-8") as f:
            f.write(cfg_text)
    for verb in verbs:
        code = main([verb, "--config", config, "--override", f"output_dir={out}", *flags])
        assert code == 0, verb
    return out


RUNS = {
    "synthetic": lambda tmp: _run(tmp, ("run-all", "baseline"), config=SYNTHETIC,
                                  flags=("--seed", "7")),
    "sweep": lambda tmp: _run(tmp, ("sweep",), SWEEP),
    "inject_sweep": lambda tmp: _run(tmp, ("sweep",), SWEEP,
                                     flags=("--override", "perturb.kind=inject",
                                            "--override", "perturb.ratio_bound=0.5")),
    "reduce": lambda tmp: _run(tmp, ("run-all", "baseline"), SWEEP,
                               flags=("--override", "perturb.kind=reduce",
                                      "--override", "perturb.ratio_bound=0.5")),
    "mnist": lambda tmp: _run(tmp, ("run-all",), mnist_config(
        Path(tmp), [i % 10 for i in range(100)], [i % 10 for i in range(20)])),
    "cifar10": lambda tmp: _run(tmp, ("run-all", "baseline"), cifar_config(Path(tmp))),
}


def digests(out):
    """{path under out: sha256 hex} of every file a run wrote."""
    table = {}
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as f:
                rel = os.path.relpath(path, out).replace(os.sep, "/")
                table[rel] = hashlib.sha256(f.read()).hexdigest()
    return dict(sorted(table.items()))


@pytest.mark.parametrize("run", RUNS)
def test_artifacts_match_the_committed_digests(tmp_path, run):
    with open(TABLE, encoding="utf-8") as f:
        tables = json.load(f)
    key = table_key()
    if key not in tables:
        pytest.skip(f"no digests for {key} (the table holds {', '.join(tables)});"
                    " floats may differ on another numpy or BLAS kernel")
    assert digests(RUNS[run](str(tmp_path))) == tables[key][run]


def changes(old, new):
    """["added|changed|dropped <run>/<file>"] of entry new against entry old."""
    lines = []
    for run in sorted(set(old) | set(new)):
        before, after = old.get(run, {}), new.get(run, {})
        for name in sorted(set(before) | set(after)):
            if before.get(name) != after.get(name):
                what = ("added" if name not in before else
                        "dropped" if name not in after else "changed")
                lines.append(f"{what} {run}/{name}")
    return lines


def rewrite():
    """Rerun every run, replace this key's entry of the table and print what
    moved against the old entry."""
    try:
        with open(TABLE, encoding="utf-8") as f:
            tables = json.load(f)
    except FileNotFoundError:
        tables = {}
    entry = {}
    for run, make in RUNS.items():
        with tempfile.TemporaryDirectory() as tmp:
            entry[run] = digests(make(tmp))
    print("\n".join(changes(tables.get(table_key(), {}), entry)) or "no entry moved")
    tables[table_key()] = entry
    with open(TABLE, "w", encoding="utf-8") as f:
        json.dump(tables, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"{TABLE}: {sum(map(len, entry.values()))} digests under {table_key()}")


if __name__ == "__main__":
    rewrite()

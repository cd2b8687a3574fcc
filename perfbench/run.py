"""Benchmark of the distillnet CLI pipeline, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mnist --seed 1 --seconds 30 --trace 0

One closed-loop client: the workload's verbs (split, train-mentor, label,
...) run one after another, each in a fresh ``python3`` process started from
``src/``, so import cost and peak RSS belong to that verb. There is no
``--jobs``, and BLAS keeps its default thread count. The whole verb sequence
(a "rep") is repeated in fresh output directories until ``--seconds`` is
spent, at least twice, and every metric is the median over reps.

Every rep is checked; a verb invocation fails if it exits non-zero, writes a
non-finite loss to an ``epochs_*.csv``, trains a mentor no better than twice
chance, or writes an artifact (split manifest, checkpoint, soft labels,
summary, confusion matrix) that differs byte for byte from the first rep,
which ran the same seed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates traced
reps (each verb run under ``spans.py``) with untraced ones and prints the
per-layer metrics, the traced wall time and the tracing overhead (traced
minus untraced median wall time). Human-readable lines go first; the last
line of standard output is one JSON object.

Inputs are generated from ``--seed`` into a scratch directory inside the
checkout (``.bench_work/``), which is removed before the benchmark exits.
"""

from __future__ import annotations

import argparse
import compileall
import csv
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import numpy as np

import spans
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ENTRY = "import sys; from distillnet.cli import main; sys.exit(main())"

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "train_img_per_s": "1/s",
    "label_img_per_s": "1/s",
    "eval_img_per_s": "1/s",
    "peak_rss_mb": "MB",
    "mentor_acc_pct": "%",
    "student_rel_acc_pct": "%",
}

# verb -> artifacts it writes that must repeat byte for byte under one seed
ARTIFACTS = {
    "split": ("split_manifest.csv",),
    "train-mentor": ("mentor.ckpt",),
    "label": ("soft_labels.slbl",),
    "train-student": ("student_*.ckpt",),
    "baseline": ("baseline_*.ckpt",),
    "eval": ("summary.csv",),
    "confusion": ("confusion_*.csv",),
}
EPOCH_LOGS = {
    "train-mentor": "epochs_mentor.csv",
    "train-student": "epochs_student_*.csv",
    "baseline": "epochs_baseline_*.csv",
}
TRAIN_VERBS = tuple(EPOCH_LOGS)
# a mentor whose final test accuracy is at most this multiple of chance
# (1 / CLASSES; every workload has ten classes) fails
CHANCE_FACTOR = 2.0
CLASSES = 10
# keeps a hung verb from holding the run past its time limit
VERB_TIMEOUT_S = 120


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("gflop_per_s"):
        return "GFLOP/s"
    if name.endswith("gb_per_s"):
        return "GB/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "util")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def per_layer_names():
    """Every metric a traced run reports, in output order."""
    return list(spans.layer_metrics([])) + [
        "proc.cpu_s", "proc.cpu_util", "trace.wall_s", "trace.overhead_s",
    ]


@dataclass
class VerbRun:
    verb: str
    wall_s: float
    code: int
    maxrss_mb: float
    cpu_s: float


def run_verb(verb, argv, env, log):
    """Run one verb process to completion; its wall time and rusage.

    A verb still running after VERB_TIMEOUT_S is killed and counts as failed.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=log, stderr=log, env=env)
    timer = threading.Timer(VERB_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return VerbRun(verb, wall, proc.returncode, usage.ru_maxrss / 1024.0,
                   usage.ru_utime + usage.ru_stime)


def _digest(path):
    with open(path, "rb") as f:
        return hashlib.blake2b(f.read(), digest_size=16).hexdigest()


def _rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def check_rep(workload, out_dir, runs, reference):
    """(failed verbs, artifact digests, facts parsed from the outputs).

    ``reference`` holds the digests of the first rep, or None for the first
    rep itself.
    """
    failed = {r.verb for r in runs if r.code != 0}
    digests = {}
    for verb in workload.verbs:
        files = sorted(p for pat in ARTIFACTS[verb]
                       for p in glob.glob(os.path.join(out_dir, pat)))
        if not files:
            failed.add(verb)
        mine = {os.path.basename(p): _digest(p) for p in files}
        digests[verb] = mine
        if reference is not None and reference.get(verb) != mine:
            failed.add(verb)

    facts = {"epochs": {}}
    for verb in TRAIN_VERBS:
        if verb not in workload.verbs:
            continue
        logs = sorted(glob.glob(os.path.join(out_dir, EPOCH_LOGS[verb])))
        if not logs:
            failed.add(verb)
        for path in logs:
            rows = _rows(path)
            losses = [float(r[k]) for r in rows for k in ("train_loss", "test_loss")]
            if not rows or not all(math.isfinite(x) for x in losses):
                failed.add(verb)
                continue
            model = os.path.basename(path)[len("epochs_"):-len(".csv")]
            facts["epochs"][model] = len(rows)
            if model == "mentor":
                acc = float(rows[-1]["test_accuracy"])
                if acc <= CHANCE_FACTOR / CLASSES:
                    failed.add(verb)

    try:
        with open(os.path.join(out_dir, "split_manifest.csv"), encoding="utf-8") as f:
            facts["mentor_n"] = f.read().count(",mentor\n")
        with open(os.path.join(out_dir, "soft_labels.slbl"), "rb") as f:
            facts["pool_n"] = struct.unpack("<I", f.read(12)[8:])[0]
        summary = {r["model"]: r for r in _rows(os.path.join(out_dir, "summary.csv"))}
        facts["models"] = len(summary)
        facts["mentor_acc"] = float(summary["mentor"]["accuracy"])
        facts["student_rel"] = float(summary["student_a"]["relative_accuracy"])
        with open(os.path.join(out_dir, "confusion_mentor.csv"), encoding="utf-8") as f:
            facts["test_n"] = sum(int(v) for row in list(csv.reader(f))[1:] for v in row[1:])
    except (OSError, KeyError, ValueError, struct.error):
        facts = None
    return failed, digests, facts


def rep_metrics(runs, facts):
    """End-to-end metrics of one rep."""
    wall = {r.verb: r.wall_s for r in runs}
    trained = sum(
        epochs * (facts["mentor_n"] if model == "mentor" else facts["pool_n"])
        for model, epochs in facts["epochs"].items()
    )
    return {
        "wall_s": sum(wall.values()),
        "setup_s": wall["split"],
        "train_img_per_s": trained / sum(wall.get(v, 0.0) for v in TRAIN_VERBS),
        "label_img_per_s": facts["pool_n"] / wall["label"],
        "eval_img_per_s": facts["models"] * facts["test_n"] / (wall["eval"] + wall["confusion"]),
        "peak_rss_mb": max(r.maxrss_mb for r in runs),
        "mentor_acc_pct": facts["mentor_acc"],
        "student_rel_acc_pct": facts["student_rel"],
    }


def run_rep(workload, cfg_path, seed, rep_dir, traced, env):
    """Run the workload's verbs once; returns (runs, spans of all verbs)."""
    out_dir = os.path.join(rep_dir, "out")
    os.makedirs(rep_dir)
    runs, span_lists = [], []
    with open(os.path.join(rep_dir, "verbs.log"), "wb") as log:
        for verb in workload.verbs:
            args = [verb, "--config", cfg_path, "--override", f"output_dir={out_dir}",
                    "--seed", str(seed)]
            if traced:
                spans_path = os.path.join(rep_dir, f"spans_{verb}.json")
                argv = [sys.executable, os.path.join(HERE, "spans.py"),
                        "--out", spans_path, "--", *args]
            else:
                argv = [sys.executable, "-c", ENTRY, *args]
            runs.append(run_verb(verb, argv, env, log))
            if traced and os.path.exists(spans_path):
                with open(spans_path, encoding="utf-8") as f:
                    span_lists.append(json.load(f))
    return runs, spans.merge(span_lists)


def blas_threads():
    """OpenBLAS's thread count as numpy's bundled library reports it."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def machine_info():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def _median_line(name, values, unit):
    return (f"{name} = {statistics.median(values):.6g} {unit} (median of {len(values)};"
            f" min {min(values):.6g}, max {max(values):.6g})")


def measure(workload, seed, seconds, trace, root):
    """Run reps for about ``seconds``; print progress, return the result."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    bench_dir = os.path.join(root, ".bench_work")
    os.makedirs(bench_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=bench_dir)
    env["TMPDIR"] = work
    try:
        cfg_path = workload.write_config(work, seed)
        start = time.perf_counter()
        reference, reps, durations = None, [], []
        attempted = failed = 0
        while True:
            traced = bool(trace) and len(reps) % 2 == 0
            rep_dir = os.path.join(work, f"rep{len(reps)}")
            t0 = time.perf_counter()
            runs, rep_spans = run_rep(workload, cfg_path, seed, rep_dir, traced, env)
            bad, digests, facts = check_rep(workload, os.path.join(rep_dir, "out"),
                                            runs, reference)
            shutil.rmtree(rep_dir)
            durations.append(time.perf_counter() - t0)
            reference = reference or digests
            attempted += len(runs)
            failed += len(bad)
            rep = {"traced": traced, "runs": runs, "facts": facts,
                   "layers": spans.layer_metrics(rep_spans) if traced else None}
            reps.append(rep)
            print(f"rep {len(reps)} {'traced' if traced else 'untraced'}:"
                  f" {sum(r.wall_s for r in runs):.3f} s, failed {len(bad)}/{len(runs)} "
                  + " ".join(f"{r.verb}={r.wall_s:.3f}s" for r in runs)
                  + (f" FAILED: {' '.join(sorted(bad))}" if bad else ""), flush=True)
            elapsed = time.perf_counter() - start
            if len(reps) >= 2 and elapsed + max(durations[-2:]) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(bench_dir)
        except OSError:
            pass  # another run still uses it
    return reps, attempted, failed


def summarize(reps, trace):
    """(metrics {name: (value, unit)}, lines to print)."""
    plain = [r for r in reps if not r["traced"]]
    lines, metrics = [], {}
    if not trace:
        per_rep = [rep_metrics(r["runs"], r["facts"]) for r in plain if r["facts"] is not None]
        for name, unit in END_TO_END.items():
            values = [m[name] for m in per_rep] or [0.0]
            metrics[name] = (statistics.median(values), unit)
            lines.append(_median_line(name, values, unit))
        return metrics, lines

    traced = [r for r in reps if r["traced"]]
    per_rep = [r["layers"] for r in traced]
    for name, value in spans.median_metrics(per_rep).items():
        metrics[name] = (value, unit_of(name))
    traced_wall = [sum(v.wall_s for v in r["runs"]) for r in traced]
    plain_wall = [sum(v.wall_s for v in r["runs"]) for r in plain]
    cpu = [sum(v.cpu_s for v in r["runs"]) for r in plain]
    metrics["proc.cpu_s"] = (statistics.median(cpu), "s")
    metrics["proc.cpu_util"] = (statistics.median(c / w for c, w in zip(cpu, plain_wall)),
                                "ratio")
    metrics["trace.wall_s"] = (statistics.median(traced_wall), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced_wall) - statistics.median(plain_wall),
                                   "s")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value:.6g} {unit}")
    lines.append("layers.c.gflop_per_s and layers.mp.gb_per_s are computed: conv FLOPs "
                 "from the im2col GEMM shapes, max-pool bytes from the array sizes")
    lines.append(f"per-layer values are medians over {len(traced)} traced reps; proc.* "
                 f"and the overhead baseline over {len(plain)} untraced reps")
    return metrics, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src", "distillnet")
    if not os.path.isfile(os.path.join(src, "cli.py")):
        print(f"perfbench: no distillnet sources at {src}; run from the repository root",
              file=sys.stderr)
        return 2
    compileall.compile_dir(src, quiet=1)  # users run with bytecode cached

    workload = WORKLOADS[args.workload]
    info = machine_info()
    print(f"perfbench: workload={workload.name} seed={args.seed} trace={args.trace}"
          f" client=closed-loop, one verb process at a time")
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()), flush=True)

    reps, attempted, failed = measure(workload, args.seed, args.seconds, args.trace, root)
    metrics, lines = summarize(reps, args.trace)
    for line in lines:
        print(line)
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} verb invocations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

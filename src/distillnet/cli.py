"""Command-line front end: file-driven stages of the distillation pipeline.

Every verb reads a ``--config`` file (plus optional ``--override key=value``
edits and a ``--seed`` shorthand that rewrites every ``*.seed`` key), loads
the dataset once for all the stages it runs (``--jobs`` workers inherit it)
and talks to the other verbs only through files under ``output_dir``:

  split          -> split_manifest.csv (always recomputed)
  train-mentor   manifest -> mentor.ckpt, epochs_mentor.csv
  label          manifest + mentor.ckpt -> soft_labels.slbl
  train-student  manifest + soft_labels.slbl -> student_<x>.ckpt + epoch CSVs
  baseline       manifest -> baseline_<x>.ckpt + epoch CSVs (hard labels)
  eval           checkpoints -> summary.csv
  confusion      checkpoints -> confusion_<model>.csv
  bench          checkpoints -> bench.csv
  sweep          per (ratio, seed): split .. train-student in
                 sweep/<ratio>_<seed>/ -> sweep.csv
  run-all        split, train-mentor, label, train-student, eval, confusion

Exit codes: 0 success; 1 configuration problem (message names the offending
key, or the flag: --jobs and --reps must be >= 1, --warmup >= 0); 2 a
required input artifact does not exist; 3 any other runtime failure.
Progress and errors go to stderr, stdout stays clean, and all outputs are
written atomically (no partial files on interruption).
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from . import pipeline, report
from .config import load_config
from .errors import ConfigError, DistillError, MissingArtifactError
from .evaluation import bench_inference, confusion_matrix, evaluate, relative_accuracy
from .report import ModelResult
from .splitting import SplitConfig


def _log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# stages


def stage_split(cfg, data):
    train_set, _, _ = data
    pipeline.write_split(cfg, train_set)
    mentor_set, student_set = pipeline.resolve_split(cfg, train_set)
    _log(f"split: {mentor_set.n} mentor / {student_set.n} pool images"
         f" -> {pipeline.manifest_path(cfg.output_dir)}")


def _train_and_save(cfg, model_id, arch, inputs=None):
    """Train arch as model_id by trainer(train_cfg, *head, arch, test_set,
    progress), inputs being (trainer, train_cfg, head, test_set) - a --jobs
    worker's own when None; save its checkpoint and epoch CSV."""
    trainer, train_cfg, head, test_set = inputs or _worker_inputs

    def progress(log):
        _log(f"[{model_id}] epoch {log.epoch}/{train_cfg.epochs}"
             f" train_loss={log.train_loss:.4f} test_loss={log.test_loss:.4f}"
             f" test_acc={log.test_accuracy:.4f}")

    stack, logs = trainer(train_cfg, *head, arch, test_set, progress)
    pipeline.save_checkpoint(stack, pipeline.ckpt_path(cfg.output_dir, model_id))
    report.write_epochs(logs, report.epochs_csv_path(cfg.output_dir, model_id),
                        cfg.zero_wall_time)
    tag = "train-mentor" if model_id == "mentor" else model_id
    _log(f"{tag}: final test accuracy {logs[-1].test_accuracy:.4f}")
    return logs


def stage_train_mentor(cfg, data):
    """Train the mentor on its split's hard labels; returns its epoch logs."""
    train_set, test_set, _ = data
    mentor_set, _ = pipeline.resolve_split(cfg, train_set)
    inputs = (pipeline.train_baseline, cfg.mentor_train, (mentor_set,), test_set)
    return _train_and_save(cfg, "mentor", cfg.mentor_arch, inputs)


def _student_pool(cfg, data):
    train_set, test_set, foreign = data
    _, student_set = pipeline.resolve_split(cfg, train_set)
    return pipeline.build_student_pool(cfg, student_set, foreign), test_set


def stage_label(cfg, data):
    pool, _ = _student_pool(cfg, data)
    mentor = pipeline.load_checkpoint(pipeline.ckpt_path(cfg.output_dir, "mentor"))
    soft = pipeline.generate_soft_labels(mentor, pool.images)
    pipeline.save_soft_labels(soft, pipeline.soft_labels_path(cfg.output_dir))
    _log(f"label: {soft.rows.shape[0]} soft rows from {soft.mentor_id}"
         f" -> {pipeline.soft_labels_path(cfg.output_dir)}")


def _arch_ids(kind, cfg):
    """Model ids of the student.archs entries: <kind>_a ... <kind>_z, <kind>_27, ..."""
    return [f"{kind}_{chr(ord('a') + i) if i < 26 else i + 1}"
            for i in range(len(cfg.student_archs))]


_worker_inputs = None  # a --jobs worker's trainer inputs, set as it starts


def _start_worker(*inputs):
    global _worker_inputs
    _worker_inputs = inputs


def _train_archs(kind, cfg, jobs, inputs):
    """Train each student.archs entry as <kind>_<x> on one set of trainer
    inputs (--jobs workers inherit it as they start); returns their logs."""
    tasks = list(zip(_arch_ids(kind, cfg), cfg.student_archs))
    if jobs <= 1 or len(tasks) < 2:
        return [_train_and_save(cfg, *task, inputs) for task in tasks]
    with ProcessPoolExecutor(min(jobs, len(tasks)), initializer=_start_worker,
                             initargs=inputs) as workers:
        futures = [workers.submit(_train_and_save, cfg, *task) for task in tasks]
        return [fut.result() for fut in futures]


def stage_train_student(cfg, data, jobs=1):
    """Every student learns the mentor's soft labels for the one pool."""
    pool, test_set = _student_pool(cfg, data)
    soft = pipeline.load_soft_labels(pipeline.soft_labels_path(cfg.output_dir))
    inputs = (pipeline.train_student, cfg.student_train, (pool.images, soft), test_set)
    return _train_archs("student", cfg, jobs, inputs)


def stage_baseline(cfg, data, jobs=1):
    """Every baseline learns the pool's hard labels, the students' reference."""
    pool, test_set = _student_pool(cfg, data)
    inputs = (pipeline.train_baseline, cfg.student_train, (pool,), test_set)
    return _train_archs("baseline", cfg, jobs, inputs)


def _load_models(cfg):
    """[(model_id, stack)] - mentor and students must exist, baselines may."""
    baselines = [m for m in _arch_ids("baseline", cfg)
                 if os.path.exists(pipeline.ckpt_path(cfg.output_dir, m))]
    return [(m, pipeline.load_checkpoint(pipeline.ckpt_path(cfg.output_dir, m)))
            for m in ["mentor", *_arch_ids("student", cfg), *baselines]]


def stage_eval(cfg, data):
    _, test_set, _ = data
    results, mentor_acc = [], None
    for model_id, stack in _load_models(cfg):
        acc, _ = evaluate(stack, test_set)
        if model_id == "mentor":
            mentor_acc, rel = acc, None
        else:
            rel = relative_accuracy(acc * 100.0, mentor_acc * 100.0)
        results.append(ModelResult(model_id, stack.arch, acc, rel))
        rel_txt = "" if rel is None else f" relative={rel:.2f}%"
        _log(f"eval: {model_id} accuracy={acc * 100.0:.2f}%{rel_txt}")
    report.write_summary(results, report.summary_csv_path(cfg.output_dir))
    _log(f"eval -> {report.summary_csv_path(cfg.output_dir)}")


def stage_confusion(cfg, data):
    _, test_set, _ = data
    for model_id, stack in _load_models(cfg):
        matrix = confusion_matrix(stack, test_set)
        path = report.confusion_csv_path(cfg.output_dir, model_id)
        report.write_confusion(matrix, path)
        errors = int(matrix.off_diagonal().sum())
        _log(f"confusion: {model_id} ({errors} misclassified) -> {path}")


def stage_bench(cfg, data, reps=100, warmup=3):
    _, test_set, _ = data
    benches = []
    for model_id, stack in _load_models(cfg):
        result = bench_inference(stack, test_set, reps=reps, warmup=warmup,
                                 model_id=model_id)
        benches.append(result)
        _log(f"bench: {model_id} mean={result.mean_s:.4f}s std={result.std_s:.4f}s"
             f" over {reps} reps")
    report.write_bench(benches, report.bench_csv_path(cfg.output_dir))
    _log(f"bench -> {report.bench_csv_path(cfg.output_dir)}")


def stage_sweep(cfg, data):
    """Per (ratio, seed), the run-all stages up to train-student in
    output_dir/sweep/<ratio>_<seed>/, the mentor's arch as the only student;
    sweep.csv gets the per-ratio means over seeds. Every run shares data, as
    prepare_data reads none of the keys a run replaces."""
    seeds = cfg.sweep_seeds or (cfg.split.seed,)
    rows = []
    for ratio in cfg.sweep_ratios:
        mentor_accs, student_accs = [], []
        for seed in seeds:
            run_cfg = replace(
                cfg,
                output_dir=os.path.join(cfg.output_dir, "sweep", f"{ratio:g}_{seed}"),
                student_archs=[cfg.mentor_arch],
                split=SplitConfig(mentor_fraction=ratio, seed=seed),
                mentor_train=replace(cfg.mentor_train, seed=seed),
                student_train=replace(cfg.student_train, seed=seed),
            )
            stage_split(run_cfg, data)
            mentor_accs.append(stage_train_mentor(run_cfg, data)[-1].test_accuracy)
            stage_label(run_cfg, data)
            student_accs.append(stage_train_student(run_cfg, data)[0][-1].test_accuracy)
            _log(
                f"sweep: ratio={ratio:g} seed={seed}"
                f" mentor={mentor_accs[-1]:.4f} student={student_accs[-1]:.4f}"
            )
        rows.append((ratio, float(np.mean(mentor_accs)), float(np.mean(student_accs))))
        _log(f"sweep: ratio={ratio:g} mentor={rows[-1][1]:.4f}"
             f" student={rows[-1][2]:.4f} (mean)")
    report.write_sweep(rows, report.sweep_csv_path(cfg.output_dir))
    _log(f"sweep -> {report.sweep_csv_path(cfg.output_dir)}")


def stage_run_all(cfg, data, jobs=1):
    stage_split(cfg, data)
    stage_train_mentor(cfg, data)
    stage_label(cfg, data)
    stage_train_student(cfg, data, jobs=jobs)
    stage_eval(cfg, data)
    stage_confusion(cfg, data)


# ---------------------------------------------------------------------------
# argument parsing and dispatch

# verb -> stage. Each entry looks its stage up when called, so a stage
# function replaced on this module (e.g. by a tracing wrapper) is the one
# that runs.
STAGES = {
    "split": lambda cfg, data, args: stage_split(cfg, data),
    "train-mentor": lambda cfg, data, args: stage_train_mentor(cfg, data),
    "label": lambda cfg, data, args: stage_label(cfg, data),
    "train-student": lambda cfg, data, args: stage_train_student(cfg, data, jobs=args.jobs),
    "baseline": lambda cfg, data, args: stage_baseline(cfg, data, jobs=args.jobs),
    "eval": lambda cfg, data, args: stage_eval(cfg, data),
    "confusion": lambda cfg, data, args: stage_confusion(cfg, data),
    "bench": lambda cfg, data, args: stage_bench(cfg, data, args.reps, args.warmup),
    "sweep": lambda cfg, data, args: stage_sweep(cfg, data),
    "run-all": lambda cfg, data, args: stage_run_all(cfg, data, jobs=args.jobs),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="distillnet",
        description="Mentor-student soft-label distillation pipeline.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")
    for verb in STAGES:
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument(
            "--override", action="append", default=[], metavar="KEY=VALUE",
            help="override a config entry (repeatable)",
        )
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel worker processes for per-arch training")
        p.add_argument("--seed", type=int, default=None,
                       help="overwrite every *.seed config key")
        if verb == "bench":
            p.add_argument("--reps", type=int, default=100)
            p.add_argument("--warmup", type=int, default=3)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for flag, low in (("jobs", 1), ("reps", 1), ("warmup", 0)):
            if getattr(args, flag, low) < low:
                parser.error(f"argument --{flag}: must be >= {low}")
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; keep 2 reserved for
        # missing artifacts and report bad invocations as config problems.
        return 0 if exc.code in (0, None) else 1
    try:
        cfg = load_config(args.config, args.override, args.seed)
        STAGES[args.verb](cfg, pipeline.prepare_data(cfg), args)
    except ConfigError as exc:
        _log(f"config error: {exc}")
        return 1
    except (MissingArtifactError, FileNotFoundError) as exc:
        _log(f"missing input: {exc}")
        return 2
    except DistillError as exc:
        _log(f"error: {exc}")
        return 3
    except Exception:
        traceback.print_exc()
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: file-driven stages of the distillation pipeline.

Every verb reads a ``--config`` file (plus optional ``--override key=value``
edits, then ``--seed S`` as one ``<key>=S`` edit per ``*.seed`` key), loads
the dataset once and hands it to its ``stage_<verb>`` as a ``_Run``, which
makes the split's and the pool's train rows (gathered only by a stage that reads
their pixels), the pool and the models once for its stages (``bench`` also gets
--reps and --warmup). A verb trains its models in turn in this process and
talks to the other verbs only through files in output_dir:

  split          -> split_manifest.csv (always recomputed)
  train-mentor   manifest -> mentor.ckpt, epochs_mentor.csv
  label          manifest + mentor.ckpt -> soft_labels.slbl
  train-student  manifest + soft_labels.slbl -> student_<x>.ckpt + epoch CSVs
  baseline       manifest -> baseline_<x>.ckpt + epoch CSVs (the pool's train rows)
  eval           checkpoints -> summary.csv
  confusion      checkpoints -> confusion_<model>.csv
  bench          checkpoints -> bench.csv
  sweep          per (ratio, seed): split .. train-student in
                 sweep/<ratio>_<seed>/, one run's pool held at a time -> sweep.csv
  run-all        split, train-mentor, label, train-student, eval, confusion

Exit codes: 0 success; 1 configuration problem (message names the offending
key, or the flag: --reps must be >= 1, --warmup >= 0, or --config for a file
that is not UTF-8), refused before any model trains: an arch its set does not
fit, a batch_size larger than its set, a split with no mentor rows, too few
foreign rows of the pool's shape for perturb.kind=inject (run-all and sweep check
every run first), or an output_dir that cannot be made; 2 a required input
artifact, dataset file or the --config file is missing, unreadable or stale (of
another arch, row count or pool), naming the verb that writes it; 3 any other
runtime failure. Progress and errors go to stderr, stdout stays clean, and every
output is written atomically (no partial files).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import traceback
from dataclasses import replace

import numpy as np

from . import pipeline, report
from .config import load_config
from .errors import ConfigError, DistillError, MissingArtifactError, ShapeError
from .evaluation import bench_inference, confusion_matrix, evaluate, relative_accuracy
from .network import arch_size
from .report import ModelResult
from .splitting import SplitConfig, perturb_rows, split_indices


def _log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# stages


class _Run:
    """A verb's inputs under one cfg: its prepared sets, and the split and pool rows,
    pool and models its stages derive from them, each made when first asked for, once."""

    def __init__(self, cfg, train, test, foreign, key="split.mentor_fraction"):
        self.cfg, self.train, self.test, self.foreign, self.key = cfg, train, test, foreign, key

    @functools.cached_property
    def rows(self):
        """(mentor_idx, student_idx) of cfg.split's stratified split of train;
        a ConfigError naming key when the mentor gets no row at all."""
        mentor_idx, student_idx = split_indices(self.train, self.cfg.split)
        if mentor_idx.size == 0:
            raise ConfigError(self.key, (
                f"{self.cfg.split.mentor_fraction:g} of each class floors to no rows:"
                f" 0 mentor / {self.train.n} pool images"))
        return mentor_idx, student_idx

    @functools.cached_property
    def split(self):
        """(mentor_idx, student_idx) from the manifest, unless _plan gave it rows."""
        return pipeline.resolve_split(self.cfg, self.train)

    @functools.cached_property
    def pool_rows(self):
        """(kept, picked): the train rows of the pool, cfg's perturbation applied to
        the split's student rows, and the foreign rows appended to them."""
        student = self.split[1]
        kept, picked = perturb_rows(self.train.labels[student], self.cfg.perturb,
                                    0 if self.foreign is None else self.foreign.n)
        return student[kept], picked

    @functools.cached_property
    def pool(self):
        """The pool's pixels: its rows of train, then its foreign rows."""
        return pipeline.build_student_pool(self.train, self.pool_rows, self.foreign)

    def _load(self, model_id, key, arch, verb):
        """model_id's checkpoint, refused unless made by arch, key's value."""
        path = pipeline.ckpt_path(self.cfg.output_dir, model_id)
        stack = pipeline.load_checkpoint(path)
        _require_arch(path, stack.arch, key, arch, verb)
        return stack

    @functools.cached_property
    def mentor(self):
        """The mentor, which label and the models share."""
        return self._load("mentor", "mentor.arch", self.cfg.mentor_arch, "train-mentor")

    @functools.cached_property
    def models(self):
        """[(model_id, stack)], each of the arch cfg gives it - mentor and
        students must exist, baselines may."""
        return [("mentor", self.mentor)] + [
            (m, self._load(m, "student.archs", arch, verb))
            for kind, verb in (("student", "train-student"), ("baseline", "baseline"))
            for m, arch in zip(_arch_ids(kind, self.cfg), self.cfg.student_archs)
            if kind == "student" or os.path.exists(pipeline.ckpt_path(self.cfg.output_dir, m))]


def stage_split(cfg, run):
    pipeline.write_split(cfg, run.train.n, run.rows[0])
    # a lone split replays the manifest it wrote; run-all and sweep log their plan
    mentor_idx, student_idx = run.split
    _log(f"split: {mentor_idx.size} mentor / {student_idx.size} pool images"
         f" -> {pipeline.manifest_path(cfg.output_dir)}")


def _train_and_save(cfg, model_id, arch, inputs):
    """Train arch as model_id by trainer(train_cfg, *head, arch, test_set,
    progress), inputs being (trainer, train_cfg, head, test_set); save its
    checkpoint and epoch CSV."""
    trainer, train_cfg, head, test_set = inputs

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


def _check(run, who, n):
    """Refuse (exit 1), naming the key, what n rows of run's images cannot train
    as who's ("mentor" or "student") set: an arch their image shape and class
    count do not fit, or a batch_size above n. Sizes each arch, makes no layer."""
    cfg, mentor = run.cfg, who == "mentor"
    for arch in [cfg.mentor_arch] if mentor else cfg.student_archs:
        try:
            arch_size(arch, run.train.image_shape, run.train.num_classes)
        except ShapeError as exc:
            raise ConfigError("mentor.arch" if mentor else "student.archs",
                              f"{arch}: {exc}") from None
    batch = getattr(cfg, f"{who}_train").batch_size
    if batch > n:
        raise ConfigError(f"{who}_train.batch_size",
                          f"{batch} exceeds the {n} rows it trains on")


def stage_train_mentor(cfg, run):
    """Train the mentor on its split's hard labels; returns its epoch logs."""
    _check(run, "mentor", run.split[0].size)
    inputs = (pipeline.train_baseline, cfg.mentor_train, (run.train.subset(run.split[0]),),
              run.test)
    return _train_and_save(cfg, "mentor", cfg.mentor_arch, inputs)


def _require_arch(path, made, key, arch, verb):
    """Refuse (exit 2), naming verb, an input made by an arch other than arch, key's value."""
    if made != arch:
        raise MissingArtifactError(f"{path} was made for {key}={made}, not {arch}; rerun `{verb}`")


def stage_label(cfg, run):
    soft = pipeline.generate_soft_labels(run.mentor, run.pool.images)
    pipeline.save_soft_labels(soft, pipeline.soft_labels_path(cfg.output_dir))
    _log(f"label: {soft.rows.shape[0]} soft rows from {soft.mentor_id}"
         f" -> {pipeline.soft_labels_path(cfg.output_dir)}")


def _arch_ids(kind, cfg):
    """Model ids of the student.archs entries: <kind>_a ... <kind>_z, <kind>_27, ..."""
    return [f"{kind}_{chr(ord('a') + i) if i < 26 else i + 1}"
            for i in range(len(cfg.student_archs))]


def _train_archs(kind, cfg, inputs):
    """Train each student.archs entry as <kind>_<x>, in turn, on one set of
    trainer inputs; returns their logs."""
    return [_train_and_save(cfg, model_id, arch, inputs)
            for model_id, arch in zip(_arch_ids(kind, cfg), cfg.student_archs)]


def stage_train_student(cfg, run):
    """Every student learns the mentor's soft labels for the one pool."""
    _check(run, "student", sum(map(len, run.pool_rows)))
    path = pipeline.soft_labels_path(cfg.output_dir)
    soft = pipeline.load_soft_labels(path)
    _require_arch(path, soft.mentor_id, "mentor.arch", cfg.mentor_arch, "label")
    if soft.rows.shape[0] != run.pool.n:
        raise MissingArtifactError(f"{path} holds {soft.rows.shape[0]} rows for a"
                                   f" {run.pool.n}-image pool; rerun `label`")
    if soft.source_checksum != pipeline.image_payload_checksum(run.pool.images):
        raise MissingArtifactError(f"{path} was made for another pool's images; rerun `label`")
    inputs = (pipeline.train_student, cfg.student_train, (run.pool.images, soft), run.test)
    return _train_archs("student", cfg, inputs)


def stage_baseline(cfg, run):
    """Every baseline learns the hard labels of the pool's rows of train (not
    the injected foreign ones), the students' reference."""
    kept = run.pool_rows[0]
    _check(run, "student", kept.size)
    inputs = (pipeline.train_baseline, cfg.student_train, (run.train.subset(kept),), run.test)
    return _train_archs("baseline", cfg, inputs)


def stage_eval(cfg, run):
    results, mentor_acc = [], None
    for model_id, stack in run.models:
        acc, _ = evaluate(stack, run.test)
        if model_id == "mentor":
            mentor_acc, rel = acc, None
        else:
            rel = relative_accuracy(acc * 100.0, mentor_acc * 100.0)
        results.append(ModelResult(model_id, stack.arch, acc, rel))
        rel_txt = "" if rel is None else f" relative={rel:.2f}%"
        _log(f"eval: {model_id} accuracy={acc * 100.0:.2f}%{rel_txt}")
    report.write_summary(results, report.summary_csv_path(cfg.output_dir))
    _log(f"eval -> {report.summary_csv_path(cfg.output_dir)}")


def stage_confusion(cfg, run):
    for model_id, stack in run.models:
        counts = confusion_matrix(stack, run.test)
        path = report.confusion_csv_path(cfg.output_dir, model_id)
        report.write_confusion(counts, path)
        errors = int(counts.sum() - np.trace(counts))
        _log(f"confusion: {model_id} ({errors} misclassified) -> {path}")


def stage_bench(cfg, run, reps, warmup):
    benches = []
    for model_id, stack in run.models:
        result = bench_inference(stack, run.test, reps=reps, warmup=warmup,
                                 model_id=model_id)
        benches.append(result)
        _log(f"bench: {model_id} mean={result.mean_s:.4f}s std={result.std_s:.4f}s"
             f" over {reps} reps")
    report.write_bench(benches, report.bench_csv_path(cfg.output_dir))
    _log(f"bench -> {report.bench_csv_path(cfg.output_dir)}")


def _plan(run):
    """Give run its rows as its split, draw its pool's rows and _check both,
    before the run writes anything or gathers a pixel; returns run."""
    run.split = run.rows
    _check(run, "mentor", run.split[0].size)
    _check(run, "student", sum(map(len, run.pool_rows)))
    return run


def stage_sweep(cfg, run):
    """Per (ratio, seed), the run-all stages up to train-student in
    output_dir/sweep/<ratio>_<seed>/, the mentor's arch as the only student;
    sweep.csv gets the per-ratio means over seeds. All runs share the one load,
    as prepare_data reads no key a run replaces. Each is _planned first, a ratio
    with no mentor rows naming sweep.ratios, and holds no pool till it labels."""
    seeds = cfg.sweep_seeds or (cfg.split.seed,)
    runs = [(ratio, [_Run(replace(
        cfg,
        output_dir=os.path.join(cfg.output_dir, "sweep", f"{ratio:g}_{seed}"),
        student_archs=[cfg.mentor_arch],
        split=SplitConfig(mentor_fraction=ratio, seed=seed),
        mentor_train=replace(cfg.mentor_train, seed=seed),
        student_train=replace(cfg.student_train, seed=seed),
    ), run.train, run.test, run.foreign, "sweep.ratios")
        for seed in seeds]) for ratio in cfg.sweep_ratios]
    for one in [one for _, ratio_runs in runs for one in ratio_runs]:
        _plan(one)
    rows = []
    for ratio, ratio_runs in runs:
        mentor_accs, student_accs = [], []
        for one in ratio_runs:
            stage_split(one.cfg, one)
            mentor_accs.append(stage_train_mentor(one.cfg, one)[-1].test_accuracy)
            stage_label(one.cfg, one)
            student_accs.append(stage_train_student(one.cfg, one)[0][-1].test_accuracy)
            del one.pool, one.mentor
            _log(f"sweep: ratio={ratio:g} seed={one.cfg.split.seed}"
                 f" mentor={mentor_accs[-1]:.4f} student={student_accs[-1]:.4f}")
        rows.append((ratio, float(np.mean(mentor_accs)), float(np.mean(student_accs))))
        _log(f"sweep: ratio={ratio:g} mentor={rows[-1][1]:.4f}"
             f" student={rows[-1][2]:.4f} (mean)")
    report.write_sweep(rows, report.sweep_csv_path(cfg.output_dir))
    _log(f"sweep -> {report.sweep_csv_path(cfg.output_dir)}")


def stage_run_all(cfg, run):
    _plan(run)
    for stage in (stage_split, stage_train_mentor, stage_label, stage_train_student,
                  stage_eval, stage_confusion):
        stage(cfg, run)


# ---------------------------------------------------------------------------
# argument parsing and dispatch

# The verbs. main runs stage_<verb>, looked up on this module at call time, so
# a stage replaced here (e.g. by a tracing wrapper) is the one that runs.
STAGES = ("split", "train-mentor", "label", "train-student", "baseline", "eval",
          "confusion", "bench", "sweep", "run-all")


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
        for flag, low in (("reps", 1), ("warmup", 0)):
            if getattr(args, flag, low) < low:
                parser.error(f"argument --{flag}: must be >= {low}")
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; keep 2 reserved for
        # missing artifacts and report bad invocations as config problems.
        return 0 if exc.code in (0, None) else 1
    try:
        cfg = load_config(args.config, args.override, args.seed)
        extra = (args.reps, args.warmup) if args.verb == "bench" else ()
        run = _Run(cfg, *pipeline.prepare_data(cfg))
        globals()["stage_" + args.verb.replace("-", "_")](cfg, run, *extra)
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

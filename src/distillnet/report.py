"""CSV reports: summary, per-epoch logs, confusion matrices, benchmarks, sweeps.

Every CSV is built by fileio.csv_text (UTF-8, LF line endings, a header
row). Plain floats are rendered with 6 significant digits; percentages with
2 decimals (truncating - see evaluation.format_percent). Reports are byte-deterministic for equal
inputs; epoch CSVs zero the wall_time_s column unless the caller opts out,
because wall-clock readings would break otherwise-identical reruns.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .evaluation import format_percent
from .fileio import atomic_write_text, csv_text

SUMMARY_HEADER = ["model", "arch", "accuracy", "relative_accuracy"]
EPOCH_HEADER = ["epoch", "train_loss", "test_loss", "test_accuracy", "wall_time_s"]
BENCH_HEADER = ["model", "reps", "mean_s", "std_s"]
SWEEP_HEADER = ["ratio", "mentor_accuracy", "student_accuracy"]


def fmt6(x):
    """6-significant-digit rendering used for all non-percentage floats."""
    return f"{float(x):.6g}"


@dataclass
class ModelResult:
    """One summary.csv row."""

    model_id: str
    arch: str
    accuracy: float  # fraction in [0, 1]
    relative_accuracy: float = None  # percent, None for the mentor


def summary_csv_path(out_dir):
    return os.path.join(out_dir, "summary.csv")


def epochs_csv_path(out_dir, model_id):
    return os.path.join(out_dir, f"epochs_{model_id}.csv")


def confusion_csv_path(out_dir, model_id):
    return os.path.join(out_dir, f"confusion_{model_id}.csv")


def bench_csv_path(out_dir):
    return os.path.join(out_dir, "bench.csv")


def sweep_csv_path(out_dir):
    return os.path.join(out_dir, "sweep.csv")


def write_summary(results, path):
    rows = []
    for r in results:
        rel = "" if r.relative_accuracy is None else format_percent(r.relative_accuracy)
        rows.append([r.model_id, r.arch, format_percent(r.accuracy * 100.0), rel])
    atomic_write_text(path, csv_text(SUMMARY_HEADER, rows))


def write_epochs(logs, path, zero_wall_time=True):
    rows = [
        [
            log.epoch,
            fmt6(log.train_loss),
            fmt6(log.test_loss),
            fmt6(log.test_accuracy),
            fmt6(0.0 if zero_wall_time else log.wall_time_s),
        ]
        for log in logs
    ]
    atomic_write_text(path, csv_text(EPOCH_HEADER, rows))


def write_confusion(counts, path):
    """counts: the (K, K) array of evaluation.confusion_matrix."""
    k = counts.shape[0]
    header = ["true/pred"] + [str(j) for j in range(k)]
    rows = [[str(i)] + [int(v) for v in counts[i]] for i in range(k)]
    atomic_write_text(path, csv_text(header, rows))


def write_bench(bench_results, path):
    rows = [
        [b.model_id, b.reps, fmt6(b.mean_s), fmt6(b.std_s)] for b in bench_results
    ]
    atomic_write_text(path, csv_text(BENCH_HEADER, rows))


def write_sweep(rows, path):
    """rows: [(ratio, mentor_accuracy, student_accuracy)], accuracies as fractions."""
    csv_rows = [
        [fmt6(ratio), format_percent(m * 100.0), format_percent(s * 100.0)]
        for ratio, m, s in rows
    ]
    atomic_write_text(path, csv_text(SWEEP_HEADER, csv_rows))

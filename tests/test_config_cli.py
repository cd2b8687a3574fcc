import hashlib
import os
from dataclasses import replace

import numpy as np
import pytest

from distillnet import pipeline
from distillnet.cli import STAGES, main, stage_run_all, stage_train_student
from distillnet.config import (
    KNOWN_KEYS,
    SEED_KEYS,
    apply_overrides,
    apply_seed_shorthand,
    build_experiment_config,
    load_config,
    parse_config_text,
)
from distillnet.errors import ConfigError
from distillnet.evaluation import BenchResult, ConfusionMatrix, format_percent
from distillnet.pipeline import load_checkpoint
from distillnet.report import (
    ModelResult,
    bench_csv_path,
    confusion_csv_path,
    epochs_csv_path,
    fmt6,
    summary_csv_path,
    write_bench,
    write_confusion,
    write_epochs,
    write_summary,
)
from distillnet.training import EpochLog

BASE = """
# tiny synthetic experiment
dataset.kind=synthetic
dataset.classes=4
dataset.per_class=40
dataset.test_per_class=20
dataset.shape=1,6,6
dataset.difficulty=0.6
split.mentor_fraction=0.25
mentor.arch=fc(32)-fc-s
student.archs=fc(32)-fc-s,fc(16)-fc-s
mentor_train.epochs=3
mentor_train.batch_size=16
student_train.epochs=3
student_train.batch_size=16
output_dir={out}
"""


def write_cfg(tmp_path, extra="", out=None):
    out = out or str(tmp_path / "run")
    path = tmp_path / "exp.cfg"
    path.write_text(BASE.format(out=out) + extra)
    return str(path), out


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_text_basics():
    mapping = parse_config_text("a.b=1\n# comment\n\nc.d = hello world \n")
    assert mapping == {"a.b": "1", "c.d": "hello world"}


def test_parse_config_text_errors():
    with pytest.raises(ConfigError):
        parse_config_text("just a line\n")
    with pytest.raises(ConfigError):
        parse_config_text("=value\n")
    with pytest.raises(ConfigError) as err:
        parse_config_text("a.b=1\na.b=2\n")
    assert err.value.key == "a.b"
    assert "duplicate" in str(err.value)


def test_unknown_key_rejected(tmp_path):
    path, _ = write_cfg(tmp_path, extra="not.a.key=1\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.key == "not.a.key"


def test_known_keys_are_the_schema():
    train = ("learning_rate", "momentum", "batch_size", "epochs", "seed", "shuffle", "lr_decay")
    assert KNOWN_KEYS == {
        "dataset.kind", "dataset.train_images", "dataset.train_labels",
        "dataset.test_images", "dataset.test_labels", "dataset.train_batches",
        "dataset.test_batches", "dataset.classes", "dataset.per_class",
        "dataset.test_per_class", "dataset.shape", "dataset.difficulty", "dataset.seed",
        "dataset.class_subset", "dataset.per_class_cap", "dataset.standardize",
        "split.mentor_fraction", "split.seed",
        "perturb.kind", "perturb.ratio_bound", "perturb.seed", "perturb.foreign_classes",
        "perturb.foreign_per_class", "perturb.foreign_seed", "perturb.foreign_batches",
        "mentor.arch", "student.archs", "output_dir", "report.zero_wall_time",
        "sweep.ratios", "sweep.seeds",
    } | {f"mentor_train.{k}" for k in train} | {f"student_train.{k}" for k in train}
    assert len(KNOWN_KEYS) == 45
    assert sorted(SEED_KEYS) == sorted([
        "dataset.seed", "split.seed", "perturb.seed", "mentor_train.seed", "student_train.seed",
    ])


def test_build_config_defaults(tmp_path):
    path, out = write_cfg(tmp_path)
    cfg = load_config(path)
    assert cfg.dataset_kind == "synthetic"
    assert cfg.split.mentor_fraction == 0.25
    assert cfg.split.seed == 0
    assert cfg.mentor_train.learning_rate == 0.01
    assert cfg.mentor_train.epochs == 3
    assert cfg.student_train.momentum == 0.9
    assert cfg.student_archs == ["fc(32)-fc-s", "fc(16)-fc-s"]
    assert cfg.output_dir == out
    assert cfg.perturb is None
    assert cfg.zero_wall_time is True
    assert cfg.sweep_ratios == (0.05, 0.1, 0.2, 0.4, 0.6, 0.8)


def test_override_equals_editing_the_file(tmp_path):
    path, _ = write_cfg(tmp_path)
    via_override = load_config(path, overrides=["mentor_train.epochs=7",
                                                "dataset.difficulty=0.9"])
    edited, _ = write_cfg(tmp_path, extra="")
    text = open(edited).read().replace("mentor_train.epochs=3", "mentor_train.epochs=7")
    text = text.replace("dataset.difficulty=0.6", "dataset.difficulty=0.9")
    (tmp_path / "exp2.cfg").write_text(text)
    via_edit = load_config(str(tmp_path / "exp2.cfg"))
    assert via_override.mentor_train == via_edit.mentor_train
    assert via_override.difficulty == via_edit.difficulty


def test_override_validation():
    with pytest.raises(ConfigError):
        apply_overrides({}, ["no-equals-sign"])
    assert apply_overrides({"a": "1"}, ["a=2", "b=3"]) == {"a": "2", "b": "3"}


def test_arch_list_commas_inside_parens(tmp_path):
    path, _ = write_cfg(tmp_path)
    cfg = load_config(path, overrides=[
        "student.archs=c(3,4)-mp-fc(16)-fc-s, fc(16)-fc-s ,c(5,8)-s"
    ])
    assert cfg.student_archs == ["c(3,4)-mp-fc(16)-fc-s", "fc(16)-fc-s", "c(5,8)-s"]


def test_seed_shorthand_rewrites_every_seed_key(tmp_path):
    path, _ = write_cfg(tmp_path, extra="perturb.kind=reduce\nperturb.ratio_bound=0.5\n")
    cfg = load_config(path, seed=77)
    assert cfg.split.seed == 77
    assert cfg.mentor_train.seed == 77
    assert cfg.student_train.seed == 77
    assert cfg.dataset_seed == 77
    assert cfg.perturb.seed == 77
    mapping = apply_seed_shorthand({"split.seed": "0"}, 5)
    assert mapping["split.seed"] == "5"
    assert mapping["mentor_train.seed"] == "5"


def test_config_type_errors_name_the_key(tmp_path):
    path, _ = write_cfg(tmp_path)
    for override, key in [
        ("mentor_train.epochs=soon", "mentor_train.epochs"),
        ("dataset.classes=ten", "dataset.classes"),
        ("split.mentor_fraction=lots", "split.mentor_fraction"),
        ("dataset.standardize=maybe", "dataset.standardize"),
        ("split.mentor_fraction=0", "split.mentor_fraction"),
        ("mentor_train.momentum=1.0", "mentor_train.momentum"),
        ("perturb.kind=scramble", "perturb.kind"),
        ("student.archs=", "student.archs"),
        ("dataset.kind=imagenet", "dataset.kind"),
    ]:
        with pytest.raises(ConfigError) as err:
            load_config(path, overrides=[override])
        assert err.value.key == key, override
    # every key whose converter rejects plain text; perturb.* is checked here
    # with a perturbation, and without one in the perturb tests below
    perturb = ["perturb.kind=reduce"]
    for key, extra in [
        ("dataset.kind", []),
        ("dataset.classes", []),
        ("dataset.per_class", []),
        ("dataset.test_per_class", []),
        ("dataset.shape", []),
        ("dataset.difficulty", []),
        ("dataset.seed", []),
        ("dataset.class_subset", []),
        ("dataset.per_class_cap", []),
        ("dataset.standardize", []),
        ("split.mentor_fraction", []),
        ("split.seed", []),
        ("perturb.ratio_bound", perturb),
        ("perturb.seed", perturb),
        ("perturb.foreign_classes", []),
        ("perturb.foreign_per_class", []),
        ("perturb.foreign_seed", []),
        ("report.zero_wall_time", []),
        ("sweep.ratios", []),
        ("sweep.seeds", []),
    ] + [(f"{group}.{name}", []) for group in ("mentor_train", "student_train")
         for name in ("learning_rate", "momentum", "batch_size", "epochs", "seed",
                      "shuffle", "lr_decay")]:
        with pytest.raises(ConfigError) as err:
            load_config(path, overrides=extra + [f"{key}=zz"])
        assert err.value.key == key, key


def test_perturb_kind_none_means_no_perturbation(tmp_path):
    path, _ = write_cfg(tmp_path)
    cfg = load_config(path, overrides=["perturb.kind=none", "perturb.ratio_bound=0.5"])
    assert cfg.perturb is None
    cfg = load_config(path, overrides=["perturb.kind=reduce", "perturb.ratio_bound=0.5"])
    assert (cfg.perturb.kind, cfg.perturb.ratio_bound, cfg.perturb.seed) == ("reduce", 0.5, 0)


def test_per_class_cap_needs_a_class_subset(tmp_path):
    path, _ = write_cfg(tmp_path)
    with pytest.raises(ConfigError) as err:
        load_config(path, overrides=["dataset.per_class_cap=5"])
    assert err.value.key == "dataset.per_class_cap"
    assert run_cli("split", "--config", path, "--override", "dataset.per_class_cap=5") == 1
    cfg = load_config(path, overrides=["dataset.class_subset=0,2", "dataset.per_class_cap=5"])
    assert (cfg.class_subset, cfg.per_class_cap) == ([0, 2], 5)


def test_per_class_cap_below_one_rejected(tmp_path):
    path, _ = write_cfg(tmp_path)
    for cap in ("0", "-1"):
        overrides = ["dataset.class_subset=0,2", f"dataset.per_class_cap={cap}"]
        with pytest.raises(ConfigError) as err:
            load_config(path, overrides=overrides)
        assert err.value.key == "dataset.per_class_cap", cap
        argv = [a for o in overrides for a in ("--override", o)]
        assert run_cli("split", "--config", path, *argv) == 1


_PERTURB_KINDS = ([], ["perturb.kind=none"], ["perturb.kind=reduce"], ["perturb.kind=inject"])


def _assert_rejected(path, overrides, key):
    for kind in _PERTURB_KINDS:
        with pytest.raises(ConfigError) as err:
            load_config(path, overrides=kind + overrides)
        assert err.value.key == key, kind + overrides
    argv = [a for o in overrides for a in ("--override", o)]
    assert run_cli("split", "--config", path, *argv) == 1


@pytest.mark.parametrize("value", ["zz", "2", "-0.5"])
def test_perturb_ratio_bound_checked_without_perturbation(tmp_path, value):
    path, _ = write_cfg(tmp_path)
    _assert_rejected(path, [f"perturb.ratio_bound={value}"], "perturb.ratio_bound")


@pytest.mark.parametrize("value", ["zz", "1.5", "-1"])
def test_perturb_seed_checked_without_perturbation(tmp_path, value):
    path, _ = write_cfg(tmp_path)
    _assert_rejected(path, [f"perturb.seed={value}"], "perturb.seed")


@pytest.mark.parametrize("override", [
    "perturb.foreign_classes=1", "perturb.foreign_classes=zz",
    "perturb.foreign_per_class=0", "perturb.foreign_per_class=zz",
    "perturb.foreign_seed=-1", "perturb.foreign_seed=zz",
    "perturb.foreign_batches=",
])
def test_perturb_foreign_keys_checked_without_injection(tmp_path, override):
    path, _ = write_cfg(tmp_path)
    _assert_rejected(path, [override], override.split("=")[0])


@pytest.mark.parametrize("override", [
    "mentor.arch=", "mentor.arch=fc-zz-s", "mentor.arch=fc(32)-fc",
    "student.archs=fc(32)-fc-s,fc-zz-s",
    "dataset.classes=1", "dataset.per_class=0", "dataset.test_per_class=0",
    "dataset.difficulty=0", "dataset.difficulty=1.5",
    "dataset.shape=0,8,8", "dataset.shape=1,8",
    "sweep.ratios=0.2,1.5", "sweep.ratios=0",
])
def test_bad_values_rejected_at_load(tmp_path, capsys, override):
    # a malformed architecture or an out-of-range value is a config error
    # naming its key (exit 1), raised before any data loads or stage runs
    path, out = write_cfg(tmp_path)
    key = override.split("=")[0]
    with pytest.raises(ConfigError) as err:
        load_config(path, overrides=[override])
    assert err.value.key == key
    verb = "sweep" if key == "sweep.ratios" else "run-all"
    assert run_cli(verb, "--config", path, "--override", override) == 1
    assert key in capsys.readouterr().err
    assert not os.path.exists(out)


def test_range_edges_and_shape_errors_still_load(tmp_path):
    # the closed ends of the ranges load, and an architecture that parses
    # but does not fit its input fails only when the stack is built
    path, _ = write_cfg(tmp_path)
    cfg = load_config(path, overrides=["dataset.difficulty=1", "dataset.classes=2",
                                       "sweep.ratios=0.01,0.99", "mentor.arch=fc-c-s"])
    assert (cfg.difficulty, cfg.classes, cfg.mentor_arch) == (1.0, 2, "fc-c-s")


def test_required_keys():
    with pytest.raises(ConfigError) as err:
        build_experiment_config({"dataset.kind": "synthetic"})
    assert err.value.key in ("output_dir", "mentor.arch", "student.archs")
    with pytest.raises(ConfigError) as err:
        build_experiment_config(
            {"dataset.kind": "mnist", "output_dir": "/tmp/x",
             "mentor.arch": "fc-s", "student.archs": "fc-s"}
        )
    assert err.value.key.startswith("dataset.")


def test_cifar_requires_batches():
    with pytest.raises(ConfigError) as err:
        build_experiment_config(
            {"dataset.kind": "cifar10", "output_dir": "/tmp/x",
             "mentor.arch": "fc-s", "student.archs": "fc-s"}
        )
    assert "batches" in err.value.key


# ---------------------------------------------------------------------------
# report writers: the summary, bench, epoch and confusion CSVs of one run


def write_sample_report(out, zero_wall_time=True):
    os.makedirs(out)
    write_summary(
        [ModelResult("mentor", "c-mp-fc-s", 0.9746, None),
         ModelResult("student_a", "c-mp-fc-s", 0.9738, 99.9179)],
        summary_csv_path(out),
    )
    write_bench([BenchResult("mentor", 3, [0.1, 0.2, 0.3], 0.2, 0.0816496580927726)],
                bench_csv_path(out))
    epochs = [EpochLog(1, 1.5, 1.4, 0.5, 3.3), EpochLog(2, 1.2, 1.1, 0.625, 3.1)]
    write_epochs(epochs, epochs_csv_path(out, "mentor"), zero_wall_time)
    write_confusion(ConfusionMatrix(np.array([[8, 2], [1, 9]])),
                    confusion_csv_path(out, "mentor"))


def test_emit_report_files_and_contents(tmp_path):
    out = str(tmp_path / "rep")
    write_sample_report(out)
    summary = open(os.path.join(out, "summary.csv")).read()
    assert summary.splitlines() == [
        "model,arch,accuracy,relative_accuracy",
        "mentor,c-mp-fc-s,97.46,",
        "student_a,c-mp-fc-s,97.38,99.91",
    ]
    bench = open(os.path.join(out, "bench.csv")).read()
    assert bench.splitlines() == [
        "model,reps,mean_s,std_s",
        "mentor,3,0.2,0.0816497",
    ]
    epochs = open(os.path.join(out, "epochs_mentor.csv")).read()
    assert epochs.splitlines() == [
        "epoch,train_loss,test_loss,test_accuracy,wall_time_s",
        "1,1.5,1.4,0.5,0",
        "2,1.2,1.1,0.625,0",
    ]
    confusion = open(os.path.join(out, "confusion_mentor.csv")).read()
    assert confusion.splitlines() == [
        "true/pred,0,1",
        "0,8,2",
        "1,1,9",
    ]


def test_emit_report_keeps_wall_time_when_asked(tmp_path):
    out = str(tmp_path / "rep")
    write_sample_report(out, zero_wall_time=False)
    epochs = open(os.path.join(out, "epochs_mentor.csv")).read()
    assert "3.3" in epochs


def test_emit_report_empty_results(tmp_path):
    write_summary([], str(tmp_path / "summary.csv"))
    write_bench([], str(tmp_path / "bench.csv"))
    assert open(tmp_path / "summary.csv").read() == (
        "model,arch,accuracy,relative_accuracy\n"
    )
    assert open(tmp_path / "bench.csv").read() == "model,reps,mean_s,std_s\n"


def test_emit_report_is_deterministic(tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    write_sample_report(a)
    write_sample_report(b)
    for name in ("summary.csv", "bench.csv", "epochs_mentor.csv"):
        assert open(os.path.join(a, name), "rb").read() == open(
            os.path.join(b, name), "rb"
        ).read()


def test_fmt6_six_significant_digits():
    assert fmt6(1.2345678) == "1.23457"
    assert fmt6(0.000123456789) == "0.000123457"
    assert fmt6(123456789.0) == "1.23457e+08"
    assert fmt6(2.0) == "2"
    assert fmt6(0.5) == "0.5"


def test_epoch_csv_uses_lf_and_utf8(tmp_path):
    path = str(tmp_path / "e.csv")
    write_epochs([EpochLog(1, 1.0, 1.0, 0.5, 0.7)], path)
    raw = open(path, "rb").read()
    assert b"\r" not in raw
    raw.decode("utf-8")


# ---------------------------------------------------------------------------
# the CLI as a subprocess-free integration surface


def run_cli(*argv):
    return main(list(argv))


def test_cli_run_all_and_summary(tmp_path, capsys):
    path, out = write_cfg(tmp_path)
    assert run_cli("run-all", "--config", path) == 0
    err = capsys.readouterr().err
    assert "train-mentor" in err  # progress goes to stderr
    for name in (
        "split_manifest.csv", "mentor.ckpt", "soft_labels.slbl",
        "student_a.ckpt", "student_b.ckpt", "summary.csv",
        "epochs_mentor.csv", "epochs_student_a.csv", "epochs_student_b.csv",
        "confusion_mentor.csv", "confusion_student_a.csv",
    ):
        assert os.path.exists(os.path.join(out, name)), name
    lines = open(os.path.join(out, "summary.csv")).read().splitlines()
    assert lines[0] == "model,arch,accuracy,relative_accuracy"
    assert lines[1].startswith("mentor,fc(32)-fc-s,")
    assert lines[1].endswith(",")  # the mentor's relative column is empty
    assert lines[2].startswith("student_a,")
    assert lines[3].startswith("student_b,fc(16)-fc-s,")


def test_cli_stagewise_equals_run_all(tmp_path):
    path_a, out_a = write_cfg(tmp_path)
    assert run_cli("run-all", "--config", path_a) == 0
    out_b = str(tmp_path / "stagewise")
    ov = ["--override", f"output_dir={out_b}"]
    assert run_cli("split", "--config", path_a, *ov) == 0
    assert run_cli("train-mentor", "--config", path_a, *ov) == 0
    assert run_cli("label", "--config", path_a, *ov) == 0
    assert run_cli("train-student", "--config", path_a, *ov) == 0
    assert run_cli("eval", "--config", path_a, *ov) == 0
    for name in ("split_manifest.csv", "mentor.ckpt", "soft_labels.slbl",
                 "student_a.ckpt", "summary.csv"):
        a = open(os.path.join(out_a, name), "rb").read()
        b = open(os.path.join(out_b, name), "rb").read()
        assert a == b, name


def test_cli_exit_codes(tmp_path):
    path, out = write_cfg(tmp_path)
    # 1: configuration problems
    assert run_cli("split", "--config", path, "--override", "nope=1") == 1
    assert run_cli("split", "--config", path, "--override",
                   "mentor_train.epochs=zero") == 1
    assert run_cli("definitely-not-a-verb", "--config", path) == 1
    # 2: missing inputs
    assert run_cli("split", "--config", str(tmp_path / "ghost.cfg")) == 2
    assert run_cli("train-mentor", "--config", path) == 2  # no manifest yet
    assert run_cli("eval", "--config", path) == 2          # no checkpoints yet
    assert run_cli("label", "--config", path) == 2
    # 3: runtime failures (baseline on a sentinel-bearing pool)
    assert run_cli("split", "--config", path) == 0
    assert run_cli(
        "baseline", "--config", path,
        "--override", "perturb.kind=inject",
        "--override", "perturb.ratio_bound=0.5",
        "--override", "perturb.foreign_per_class=200",
    ) == 3


def test_cli_diverged_training_exits_3_without_checkpoint(tmp_path, capsys):
    path, out = write_cfg(tmp_path)
    assert run_cli("split", "--config", path) == 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        code = run_cli("train-mentor", "--config", path,
                       "--override", "mentor_train.learning_rate=1e6")
    assert code == 3
    assert "training loss is inf at epoch 1" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "mentor.ckpt"))


def test_cli_seed_flag_changes_results(tmp_path):
    path, out = write_cfg(tmp_path)
    out2 = str(tmp_path / "seeded")
    assert run_cli("run-all", "--config", path) == 0
    assert run_cli("run-all", "--config", path, "--seed", "9",
                   "--override", f"output_dir={out2}") == 0
    a = open(os.path.join(out, "summary.csv")).read()
    b = open(os.path.join(out2, "summary.csv")).read()
    assert a != b


def test_cli_label_hygiene_smoke(tmp_path):
    # the full pipeline runs even when the pool has injected rows with no labels
    path, out = write_cfg(
        tmp_path,
        extra="perturb.kind=inject\nperturb.ratio_bound=0.5\n"
              "perturb.foreign_per_class=200\n",
    )
    assert run_cli("run-all", "--config", path) == 0
    assert os.path.exists(os.path.join(out, "summary.csv"))


def test_cli_bench_and_confusion(tmp_path):
    path, out = write_cfg(tmp_path)
    assert run_cli("run-all", "--config", path) == 0
    assert run_cli("bench", "--config", path, "--reps", "2", "--warmup", "0") == 0
    lines = open(os.path.join(out, "bench.csv")).read().splitlines()
    assert lines[0] == "model,reps,mean_s,std_s"
    assert len(lines) == 4  # mentor + 2 students
    assert all(line.split(",")[1] == "2" for line in lines[1:])


def test_cli_sweep(tmp_path):
    path, out = write_cfg(
        tmp_path, extra="sweep.ratios=0.2,0.5\nsweep.seeds=0,1\n"
    )
    assert run_cli("sweep", "--config", path) == 0
    lines = open(os.path.join(out, "sweep.csv")).read().splitlines()
    assert lines[0] == "ratio,mentor_accuracy,student_accuracy"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "0.2"
    assert lines[2].split(",")[0] == "0.5"


def test_cli_sweep_matches_run_all(tmp_path):
    # one (ratio, seed) of the sweep is the run-all pipeline with that split
    # and seed and the mentor's arch as the only student
    path, out = write_cfg(tmp_path, extra="sweep.ratios=0.5\nsweep.seeds=3\n")
    assert run_cli("sweep", "--config", path) == 0
    run_dir = str(tmp_path / "run_all")
    overrides = [f"output_dir={run_dir}", "split.mentor_fraction=0.5", "split.seed=3",
                 "mentor_train.seed=3", "student_train.seed=3", "student.archs=fc(32)-fc-s"]
    assert run_cli("run-all", "--config", path,
                   *[a for o in overrides for a in ("--override", o)]) == 0

    def final_accuracy(model_id):
        last = open(os.path.join(run_dir, f"epochs_{model_id}.csv")).read().splitlines()[-1]
        return format_percent(float(last.split(",")[3]) * 100.0)

    row = open(os.path.join(out, "sweep.csv")).read().splitlines()[1]
    assert row == f"0.5,{final_accuracy('mentor')},{final_accuracy('student_a')}"
    sweep_dir = os.path.join(out, "sweep", "0.5_3")
    for name in ("split_manifest.csv", "mentor.ckpt", "soft_labels.slbl", "student_a.ckpt"):
        a = open(os.path.join(sweep_dir, name), "rb").read()
        assert a == open(os.path.join(run_dir, name), "rb").read(), name


def test_cli_split_rewrites_manifest_on_rerun(tmp_path):
    path, out = write_cfg(tmp_path)
    manifest = os.path.join(out, "split_manifest.csv")
    assert run_cli("run-all", "--config", path) == 0
    assert open(manifest).read().count(",mentor\n") == 4 * 10
    assert run_cli("run-all", "--config", path,
                   "--override", "split.mentor_fraction=0.5") == 0
    assert open(manifest).read().count(",mentor\n") == 4 * 20


@pytest.mark.parametrize("verb", ["train-student", "baseline"])
def test_cli_jobs_matches_sequential(tmp_path, verb):
    path, out = write_cfg(tmp_path)
    kind = verb.replace("train-", "")
    assert run_cli("split", "--config", path) == 0
    assert run_cli("train-mentor", "--config", path) == 0
    assert run_cli("label", "--config", path) == 0
    assert run_cli(verb, "--config", path) == 0
    ckpts = [os.path.join(out, f"{kind}_{x}.ckpt") for x in "ab"]
    sequential = [open(p, "rb").read() for p in ckpts]
    for p in ckpts:
        os.remove(p)
    assert run_cli(verb, "--config", path, "--jobs", "2") == 0
    assert [open(p, "rb").read() for p in ckpts] == sequential


def test_jobs_workers_train_the_given_config(tmp_path):
    # --jobs workers must train the config they are handed, not one rebuilt
    # from the config file: a replaced student list reaches every worker
    path, out = write_cfg(tmp_path)
    assert run_cli("split", "--config", path) == 0
    assert run_cli("train-mentor", "--config", path) == 0
    assert run_cli("label", "--config", path) == 0
    cfg = replace(load_config(path), student_archs=["fc(8)-fc-s", "fc(24)-fc-s"])
    ckpts = [os.path.join(out, f"student_{x}.ckpt") for x in "ab"]
    data = pipeline.prepare_data(cfg)
    stage_train_student(cfg, data, jobs=1)
    sequential = [open(p, "rb").read() for p in ckpts]
    for p in ckpts:
        os.remove(p)
    stage_train_student(cfg, data, jobs=2)
    assert load_checkpoint(ckpts[0]).arch == "fc(8)-fc-s"
    assert load_checkpoint(ckpts[1]).arch == "fc(24)-fc-s"
    assert [open(p, "rb").read() for p in ckpts] == sequential


@pytest.mark.parametrize("flag,value", [
    ("--jobs", "0"), ("--jobs", "-3"), ("--reps", "0"), ("--warmup", "-1"),
])
def test_cli_rejects_out_of_range_flags(tmp_path, capsys, flag, value):
    # checked at parsing, before any data or checkpoint is loaded
    path, out = write_cfg(tmp_path)
    verb = "bench" if flag in ("--reps", "--warmup") else "train-student"
    assert run_cli(verb, "--config", path, flag, value) == 1
    assert f"argument {flag}" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_prepares_the_data_once_per_process(tmp_path, monkeypatch):
    # every verb loads the dataset once; run-all and sweep hand that one
    # load to all the stages they run
    path, _ = write_cfg(tmp_path, extra="sweep.ratios=0.2,0.5\nsweep.seeds=0,1\n")
    calls = []
    prepare = pipeline.prepare_data
    monkeypatch.setattr(pipeline, "prepare_data",
                        lambda cfg: calls.append(cfg) or prepare(cfg))
    counts = {}
    for verb in ["run-all"] + [v for v in STAGES if v != "run-all"]:
        calls.clear()
        extra = ["--reps", "1", "--warmup", "0"] if verb == "bench" else []
        assert run_cli(verb, "--config", path, *extra) == 0, verb
        counts[verb] = len(calls)
    assert counts == dict.fromkeys(STAGES, 1)


def test_run_all_leaves_the_shared_data_untouched(tmp_path, monkeypatch):
    # the stages of one run-all share the prepared arrays: none may write to
    # them, and no stage that builds the student pool may read its labels
    path, _ = write_cfg(tmp_path, extra=(
        "perturb.kind=inject\nperturb.ratio_bound=0.3\n"
        "perturb.foreign_classes=3\nperturb.foreign_per_class=10\n"
    ))
    cfg = load_config(path)
    data = pipeline.prepare_data(cfg)

    def digests():
        return [hashlib.sha256(arr.tobytes()).hexdigest()
                for s in data for arr in (s.images, s.labels)]

    before = digests()
    pools = []
    build = pipeline.build_student_pool
    monkeypatch.setattr(pipeline, "build_student_pool",
                        lambda *args: pools.append(build(*args)) or pools[-1])
    stage_run_all(cfg, data)
    assert digests() == before
    assert len(pools) == 2  # label, then one for every student
    assert [p.label_reads for p in pools] == [0] * len(pools)


def test_train_student_builds_the_pool_and_reads_the_labels_once(tmp_path, monkeypatch):
    # every architecture of one train-student trains on the same pool and
    # soft labels, so the verb builds and reads them once, not once per arch
    path, _ = write_cfg(tmp_path)
    for verb in ("split", "train-mentor", "label"):
        assert run_cli(verb, "--config", path) == 0
    calls = []
    for name in ("build_student_pool", "load_soft_labels"):
        real = getattr(pipeline, name)
        monkeypatch.setattr(pipeline, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    assert run_cli("train-student", "--config", path) == 0
    assert sorted(calls) == ["build_student_pool", "load_soft_labels"]


def test_jobs_workers_reuse_the_parents_data(tmp_path, monkeypatch):
    # --jobs workers inherit the verb's pool, test set and soft labels; none
    # of them loads the dataset again
    path, out = write_cfg(tmp_path)
    for verb in ("split", "train-mentor", "label"):
        assert run_cli(verb, "--config", path) == 0
    cfg = load_config(path)
    data = pipeline.prepare_data(cfg)

    def no_reload(cfg):
        raise AssertionError("prepare_data called again")

    monkeypatch.setattr(pipeline, "prepare_data", no_reload)
    stage_train_student(cfg, data, jobs=2)
    assert all(os.path.exists(os.path.join(out, f"student_{x}.ckpt")) for x in "ab")

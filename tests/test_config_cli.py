import gc
import hashlib
import inspect
import os
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distillnet import cli, layers, network, pipeline
from distillnet.cli import STAGES, main, stage_run_all
from distillnet.config import (
    KNOWN_KEYS,
    SEED_KEYS,
    apply_overrides,
    build_experiment_config,
    load_config,
    parse_config_text,
)
from distillnet.data import LabeledImageSet
from distillnet.errors import ConfigError, ValidationError
from distillnet.evaluation import BenchResult, format_percent
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
from distillnet.splitting import PerturbConfig, SplitConfig, load_split_manifest
from distillnet.training import EpochLog, TrainConfig

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
    assert cfg.perturb.kind == "none"
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


def test_arch_strings_load_canonical(tmp_path):
    # every arch string is rendered canonical as it loads, so later checks
    # compare it to a checkpoint's or soft-label file's arch as plain text
    path, _ = write_cfg(tmp_path)
    cfg = load_config(path, overrides=["mentor.arch=c-c-mp-fc-s", "student.archs=fc-fc-s"])
    assert cfg.mentor_arch == "c^2-mp-fc-s"
    assert cfg.student_archs == ["fc^2-s"]


def test_seed_shorthand_rewrites_every_seed_key(tmp_path):
    path, _ = write_cfg(tmp_path, extra="perturb.kind=reduce\nperturb.ratio_bound=0.5\n")
    cfg = load_config(path, seed=77)
    assert cfg.split.seed == 77
    assert cfg.mentor_train.seed == 77
    assert cfg.student_train.seed == 77
    assert cfg.dataset_seed == 77
    assert cfg.perturb.seed == 77


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
    assert cfg.perturb.kind == "none"
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
    "sweep.ratios=0.2,1.5", "sweep.ratios=0", "sweep.seeds=-1",
    "dataset.class_subset=1,1", "dataset.class_subset=-1", "dataset.class_subset=3",
    "output_dir=",
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


@pytest.mark.parametrize("classes", ["0,99", "0,4"])
def test_class_subset_the_data_lacks_is_a_config_error(tmp_path, capsys, classes):
    # only the loaded data shows that a class is missing (the config holds
    # classes 0-3): still a config error naming its key, before anything is
    # written, never a traceback
    path, out = write_cfg(tmp_path)
    assert run_cli("split", "--config", path, "--override", f"dataset.class_subset={classes}") == 1
    err = capsys.readouterr().err
    assert "config error: dataset.class_subset: class " in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


def test_the_data_bound_refusal_quotes_the_keys_own_values(tmp_path, capsys):
    # the generator draws per_class + test_per_class images a class, but the
    # message quotes each key's own value beside it
    config = os.path.join(os.path.dirname(__file__), "..", "configs", "synthetic.cfg")
    assert run_cli("split", "--config", config, "--override", f"output_dir={tmp_path / 'run'}",
                   "--override", "dataset.per_class=1000000000") == 1
    assert capsys.readouterr().err.startswith(
        "config error: dataset.per_class: 1000000000 (and dataset.test_per_class 40): 10 classes")
    assert not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize("overrides, key", [
    (["dataset.per_class=1000000000"], "dataset.per_class"),
    (["dataset.shape=100000,100000,100000"], "dataset.per_class"),
    (["perturb.kind=inject", "perturb.foreign_per_class=1000000000"],
     "perturb.foreign_per_class"),
])
def test_a_synthetic_set_past_the_data_bound_is_a_config_error(tmp_path, capsys, overrides, key):
    # terabytes of generated images: refused before they are drawn, as a config
    # error naming the key that sets their count, never a traceback
    path, out = write_cfg(tmp_path)
    flags = [a for o in overrides for a in ("--override", o)]
    assert run_cli("split", "--config", path, *flags) == 1
    err = capsys.readouterr().err
    assert f"config error: {key}: " in err and "values, more than" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("verb", ["split", "sweep"])
def test_a_split_with_no_mentor_rows_is_a_config_error(tmp_path, capsys, verb):
    # floor(0.2 * 4) = 0 rows of every class: refused before a manifest is
    # written, rather than failing later in train-mentor
    path, out = write_cfg(tmp_path, extra="sweep.ratios=0.2\n")
    overrides = ["dataset.per_class=4", "split.mentor_fraction=0.2"]
    argv = [a for o in overrides for a in ("--override", o)]
    assert run_cli(verb, "--config", path, *argv) == 1
    err = capsys.readouterr().err
    key = "sweep.ratios" if verb == "sweep" else "split.mentor_fraction"
    assert f"config error: {key}: " in err
    assert "0 mentor / 16 pool images" in err
    assert not os.path.exists(pipeline.manifest_path(out))


# a foreign set of 2 x 3 rows, too few for a ratio_bound of 1 on the pool
INJECT_SHORT = ["perturb.kind=inject", "perturb.ratio_bound=1", "perturb.foreign_classes=2",
                "perturb.foreign_per_class=3"]


@pytest.mark.parametrize("ratios,overrides,message", [
    ("0.5,0.2", ["dataset.per_class=4", "mentor_train.batch_size=8",
                 "student_train.batch_size=8"],
     "sweep.ratios: 0.2 of each class floors to no rows"),
    ("0.5,0.05", [], "mentor_train.batch_size: 16 exceeds the 8 rows it trains on"),
    ("0.5,0.95", ["mentor_train.batch_size=4"],
     "student_train.batch_size: 16 exceeds the 8 rows it trains on"),
    ("0.5,0.25", ["perturb.kind=inject", "perturb.ratio_bound=1", "perturb.foreign_classes=2",
                  "perturb.foreign_per_class=10"],
     "perturb.ratio_bound: needs 28 foreign rows but the foreign set has 20"),
])
def test_sweep_checks_every_ratio_before_its_first_run(
        tmp_path, capsys, ratios, overrides, message):
    # the 0.5 run could train, but a later ratio gives the mentor no rows,
    # fewer rows than its batch, or a pool needing more foreign rows than
    # there are: refused before the 0.5 run trains anything, naming the key
    # the value came from
    path, out = write_cfg(tmp_path, extra=f"sweep.ratios={ratios}\n")
    overrides = [*overrides, "mentor_train.epochs=1", "student_train.epochs=1"]
    assert run_cli("sweep", "--config", path,
                   *[a for o in overrides for a in ("--override", o)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("verb,key,arch", [
    ("run-all", "mentor.arch", "c-mp^3-s"),
    ("run-all", "student.archs", "fc(32)-fc-s,c-mp-mp-mp-mp-fc-s"),
    ("sweep", "mentor.arch", "c-mp^3-s"),
])
def test_run_all_and_sweep_fit_every_arch_to_the_data_before_their_first_stage(
        tmp_path, capsys, verb, key, arch):
    # a 1x6x6 image pools to 1x1 after two mp, so a third cannot fit: refused
    # before the split, not after the models before it have trained
    path, out = write_cfg(tmp_path, extra="sweep.ratios=0.5\n")
    assert run_cli(verb, "--config", path, "--override", f"{key}={arch}") == 1
    err = capsys.readouterr().err
    assert f"config error: {key}: " in err
    assert "mp: 2x2 window would pool 1x1 below 1x1" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("overrides,code,message", [
    (["student_train.batch_size=5000"], 1,
     "config error: student_train.batch_size: 5000 exceeds the 120 rows it trains on"),
    (INJECT_SHORT, 1, "config error: perturb.ratio_bound: needs "),
])
def test_run_all_checks_both_sets_of_its_run_before_its_first_stage(
        tmp_path, capsys, overrides, code, message):
    # the mentor could train, but the pool cannot: refused before the split
    # is written, not after the mentor has trained and labeled the pool
    path, out = write_cfg(tmp_path)
    assert run_cli("run-all", "--config", path,
                   *[a for o in overrides for a in ("--override", o)]) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1, err
    if code == 1:
        assert err.split(":")[1].strip() in KNOWN_KEYS
    assert not os.path.exists(out)


def test_label_refuses_a_foreign_set_too_small_for_its_pool(tmp_path, capsys):
    # the mentor trains (it never sees the pool), but label cannot build the
    # pool it would label: exit 1 naming the key, and no soft labels written
    path, out = write_cfg(tmp_path)
    flags = [a for o in INJECT_SHORT for a in ("--override", o)]
    for verb in ("split", "train-mentor"):
        assert run_cli(verb, "--config", path, *flags) == 0
    capsys.readouterr()
    assert run_cli("label", "--config", path, *flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: perturb.ratio_bound: needs ")
    assert "foreign rows but the foreign set has 6" in err and err.count("\n") == 1, err
    assert not os.path.exists(pipeline.soft_labels_path(out))


@pytest.mark.parametrize("verb,key,arch", [
    ("train-mentor", "mentor.arch", "mp(16)-fc-s"),
    ("train-student", "student.archs", "fc(32)-fc-s,c-mp-mp-mp-mp-fc-s"),
    ("baseline", "student.archs", "fc(32)-fc-s,c-mp-mp-mp-mp-fc-s"),
])
def test_single_verbs_fit_every_arch_to_their_set_before_the_first_model_trains(
        tmp_path, capsys, verb, key, arch):
    # the arch that does not fit 1x6x6 images is refused naming its key, and
    # no checkpoint is written, not even of an arch before it that fits
    path, out = write_cfg(tmp_path)
    for earlier in ("split", "train-mentor", "label") if verb == "train-student" else ("split",):
        assert run_cli(earlier, "--config", path) == 0
    before = sorted(os.listdir(out))
    capsys.readouterr()
    assert run_cli(verb, "--config", path, "--override", f"{key}={arch}") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: ") and "window would pool" in err, err
    assert key in KNOWN_KEYS
    assert sorted(os.listdir(out)) == before


@pytest.mark.parametrize("verb,key,rows,ckpt", [
    ("train-mentor", "mentor_train.batch_size", 40, "mentor.ckpt"),
    ("train-student", "student_train.batch_size", 120, "student_a.ckpt"),
    ("baseline", "student_train.batch_size", 120, "baseline_a.ckpt"),
])
def test_a_batch_larger_than_the_set_it_trains_on_is_a_config_error(
        tmp_path, capsys, verb, key, rows, ckpt):
    # BASE splits 4 x 40 rows into 40 mentor rows and a 120-row pool: one row
    # more than the set is refused before the first model trains, the set's
    # own size trains
    path, out = write_cfg(tmp_path)
    for earlier in ("split", "train-mentor", "label") if verb == "train-student" else ("split",):
        assert run_cli(earlier, "--config", path) == 0
    capsys.readouterr()
    assert run_cli(verb, "--config", path, "--override", f"{key}={rows + 1}") == 1
    assert (f"config error: {key}: {rows + 1} exceeds the {rows} rows it trains on"
            in capsys.readouterr().err)
    assert not os.path.exists(os.path.join(out, ckpt))
    assert run_cli(verb, "--config", path, "--override", f"{key}={rows}") == 0
    assert os.path.exists(os.path.join(out, ckpt))


@pytest.mark.parametrize("kind,code,prefix", [
    ("directory", 2, "missing input: config file: [Errno 21] Is a directory: "),
    ("not-utf8", 1, "config error: --config: "),
])
def test_a_config_file_that_is_not_readable_text_is_a_named_error(
        tmp_path, capsys, kind, code, prefix):
    # one line on stderr with the documented exit code, never a traceback
    path = tmp_path / "exp.cfg"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"dataset.kind=synthetic\n# \xff\n")
    assert run_cli("split", "--config", str(path)) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err


@pytest.mark.parametrize("verb", ["split", "run-all"])
def test_an_output_dir_that_cannot_be_made_is_a_config_error(tmp_path, capsys, verb):
    # a regular file where a parent directory should be: one line naming
    # output_dir, never a traceback
    (tmp_path / "file").write_text("")
    path, _ = write_cfg(tmp_path, out=str(tmp_path / "file" / "run"))
    assert run_cli(verb, "--config", path) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: output_dir: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("cls", [TrainConfig, SplitConfig, PerturbConfig])
def test_a_negative_seed_is_refused_at_construction(cls):
    # numpy seeds its generators from non-negative integers only
    with pytest.raises(ValidationError, match="^seed must be >= 0, got -1$"):
        cls(seed=-1)


_TEXT_VALUES = st.one_of(
    st.text(max_size=12),
    st.integers(-3, 300).map(str),
    st.floats().map(repr),
    st.lists(st.integers(-2, 12), min_size=1, max_size=4).map(lambda v: ",".join(map(str, v))),
    st.sampled_from(["", "none", "reduce", "inject", "mnist", "true", "fc-s", "1,8,8"]),
)


@settings(max_examples=300, deadline=None, database=None)
@given(st.sampled_from(sorted(KNOWN_KEYS)), _TEXT_VALUES)
def test_no_config_value_crashes_the_loader(key, value):
    # any text for any key builds a config or is a ConfigError naming a key
    mapping = parse_config_text(BASE.format(out="run"))
    mapping[key] = value
    try:
        build_experiment_config(mapping)
    except ConfigError as exc:
        assert exc.key in KNOWN_KEYS


@pytest.mark.parametrize("override", [
    "mentor.arch=c^99999999999999999999-s",
    "mentor.arch=" + "(" * 2000 + "c" + ")" * 2000 + "-fc-s",
    "mentor.arch=c^" + "9" * 5000 + "-fc-s",
    "student.archs=fc(1" + "0" * 5000 + ")-fc-s",
    "mentor.arch=c^1000-s",
    "mentor.arch=(((c^999)^999)^999)-s",
], ids=["huge-repeat", "deep-nesting", "5000-digit-repeat", "5000-digit-width",
        "1001-tokens", "nested-repeats"])
def test_oversized_archs_are_config_errors(tmp_path, capsys, override):
    # an arch whose expansion, nesting or numbers pass the parser's bounds is
    # refused before anything it sizes is built, never with a traceback
    path, out = write_cfg(tmp_path)
    assert run_cli("split", "--config", path, "--override", override) == 1
    err = capsys.readouterr().err
    assert f"config error: {override.split('=')[0]}: " in err
    assert "Traceback" not in err
    assert len(err.strip()) < 200, err  # a window of the arch, not all of it
    assert not os.path.exists(out)


def test_range_edges_and_shape_errors_still_load(tmp_path):
    # the closed ends of the ranges load (c^999-s is exactly 1,000 tokens),
    # and an architecture that parses but does not fit its input fails only
    # when the stack is built
    path, _ = write_cfg(tmp_path)
    cfg = load_config(path, overrides=["dataset.difficulty=1", "dataset.classes=2",
                                       "sweep.ratios=0.01,0.99", "mentor.arch=fc-c-s",
                                       "student.archs=c^999-s"])
    assert (cfg.difficulty, cfg.classes, cfg.mentor_arch) == (1.0, 2, "fc-c-s")
    assert cfg.student_archs == ["c^999-s"]


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
    write_confusion(np.array([[8, 2], [1, 9]]),
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
    # 3: runtime failures (a checkpoint with one payload byte flipped)
    for verb in ("split", "train-mentor"):
        assert run_cli(verb, "--config", path) == 0
    ckpt = os.path.join(out, "mentor.ckpt")
    data = bytearray(open(ckpt, "rb").read())
    data[-pipeline.DIGEST_SIZE - 1] ^= 1
    open(ckpt, "wb").write(bytes(data))
    assert run_cli("label", "--config", path) == 3


def test_cli_trains_a_mentor_whose_softmax_follows_a_pool(tmp_path):
    # mp(6) leaves (N, 4, 1, 1), the softmax's 4 classes: its gradient must
    # reach the pool in that shape
    path, out = write_cfg(tmp_path)
    assert run_cli("split", "--config", path) == 0
    assert run_cli("train-mentor", "--config", path,
                   "--override", "mentor.arch=c(3,4)-mp(6)-s") == 0
    assert os.path.exists(os.path.join(out, "mentor.ckpt"))


def test_cli_label_refuses_a_mentor_of_another_arch(tmp_path, capsys):
    # a mentor.ckpt left by another mentor.arch is stale: exit 2, not labels
    # from the wrong mentor; an equal arch spelled another way is the same one
    path, out = write_cfg(tmp_path)
    assert run_cli("split", "--config", path) == 0
    assert run_cli("train-mentor", "--config", path) == 0
    capsys.readouterr()
    assert run_cli("label", "--config", path,
                   "--override", "mentor.arch=fc(16)-fc-s") == 2
    err = capsys.readouterr().err
    assert "mentor.ckpt" in err and "mentor.arch" in err and "`train-mentor`" in err
    assert not os.path.exists(os.path.join(out, "soft_labels.slbl"))
    assert run_cli("label", "--config", path,
                   "--override", "mentor.arch=(fc(32))^1-fc-s") == 0


STUDENTS_B = ["--override", "student.archs=fc(8)-fc-s,fc(16)-fc-s"]


@pytest.mark.parametrize("name,flags,key,writer", [
    ("mentor.ckpt", ["--override", "mentor.arch=fc(8)-fc-s"], "mentor.arch", "train-mentor"),
    ("student_a.ckpt", STUDENTS_B, "student.archs", "train-student"),
    ("baseline_a.ckpt", STUDENTS_B, "student.archs", "baseline"),
])
def test_cli_scoring_verbs_refuse_a_checkpoint_of_another_arch(
        tmp_path, capsys, name, flags, key, writer):
    # eval, confusion and bench score the models the config names: a checkpoint
    # left by another arch is stale, exit 2 naming the verb that rewrites it;
    # for the baseline case the students are retrained under the new archs
    path, out = write_cfg(tmp_path)
    assert run_cli("run-all", "--config", path) == 0
    assert run_cli("baseline", "--config", path) == 0
    if writer == "baseline":
        assert run_cli("train-student", "--config", path, *STUDENTS_B) == 0
    for verb in ("eval", "confusion", "bench"):
        extra = ["--reps", "1", "--warmup", "0"] if verb == "bench" else []
        capsys.readouterr()
        assert run_cli(verb, "--config", path, *flags, *extra) == 2, verb
        err = capsys.readouterr().err
        assert err.startswith("missing input: ") and err.count("\n") == 1, err
        assert f"{name} was made for {key}=" in err and f"`{writer}`" in err, err
    assert not os.path.exists(os.path.join(out, "bench.csv"))


def test_cli_train_student_refuses_labels_of_another_mentor_arch(tmp_path, capsys):
    path, out = write_cfg(tmp_path)
    for verb in ("split", "train-mentor", "label"):
        assert run_cli(verb, "--config", path) == 0
    capsys.readouterr()
    assert run_cli("train-student", "--config", path,
                   "--override", "mentor.arch=fc(16)-fc-s") == 2
    err = capsys.readouterr().err
    assert "soft_labels.slbl" in err and "mentor.arch" in err and "`label`" in err
    assert not os.path.exists(os.path.join(out, "student_a.ckpt"))


def test_cli_refuses_a_manifest_of_another_dataset_size(tmp_path, capsys):
    # a manifest written for 4 x 40 rows is stale once the dataset holds
    # 4 x 60: exit 2 naming the verb that rewrites it, not a runtime error
    path, out = write_cfg(tmp_path)
    assert run_cli("split", "--config", path) == 0
    capsys.readouterr()
    assert run_cli("train-mentor", "--config", path,
                   "--override", "dataset.per_class=60") == 2
    err = capsys.readouterr().err
    assert err.startswith("missing input: ") and err.count("\n") == 1, err
    assert "split_manifest.csv covers 160 rows, the dataset has 240" in err
    assert "`split`" in err
    assert not os.path.exists(os.path.join(out, "mentor.ckpt"))


def test_cli_train_student_refuses_labels_of_another_pool_size(tmp_path, capsys):
    # labels made for the plain pool are stale once perturb.kind changes its
    # size: exit 2 naming `label`; so are labels for a pool of the same size
    # but other images, whose checksum does not match
    path, out = write_cfg(tmp_path)
    for verb in ("split", "train-mentor", "label"):
        assert run_cli(verb, "--config", path) == 0
    capsys.readouterr()
    assert run_cli("train-student", "--config", path, "--override", "perturb.kind=reduce",
                   "--override", "perturb.ratio_bound=0.5") == 2
    err = capsys.readouterr().err
    assert err.startswith("missing input: ") and err.count("\n") == 1, err
    assert "soft_labels.slbl holds 120 rows for a " in err and "`label`" in err
    assert run_cli("train-student", "--config", path, "--override", "dataset.seed=1") == 2
    err = capsys.readouterr().err
    assert err.startswith("missing input: ") and err.count("\n") == 1, err
    assert "soft_labels.slbl was made for another pool's images" in err
    assert "`label`" in err
    assert not os.path.exists(os.path.join(out, "student_a.ckpt"))


def test_cli_stale_labels_of_another_split_of_the_same_size_name_label(tmp_path, capsys):
    # labels made under split.seed=0, then a new split under split.seed=1:
    # the pool holds as many rows as before, but other ones, so the labels
    # are stale (exit 2 naming `label`), not a runtime failure
    path, out = write_cfg(tmp_path)
    for verb in ("split", "train-mentor", "label"):
        assert run_cli(verb, "--config", path) == 0
    seed = ["--override", "split.seed=1"]
    assert run_cli("split", "--config", path, *seed) == 0
    capsys.readouterr()
    assert run_cli("train-student", "--config", path, *seed) == 2
    err = capsys.readouterr().err
    assert "soft_labels.slbl" in err and "`label`" in err, err
    assert not os.path.exists(os.path.join(out, "student_a.ckpt"))


@pytest.mark.parametrize("verb,made_first,name,writers", [
    ("label", ("split",), "mentor.ckpt", "`train-mentor`"),
    ("train-student", ("split",), "soft_labels.slbl", "`label`"),
    ("eval", ("split", "train-mentor"), "student_a.ckpt", "`train-student`"),
])
def test_cli_a_missing_artifact_names_the_verb_that_writes_it(
        tmp_path, capsys, verb, made_first, name, writers):
    path, out = write_cfg(tmp_path)
    for earlier in made_first:
        assert run_cli(earlier, "--config", path) == 0
    capsys.readouterr()
    assert run_cli(verb, "--config", path) == 2
    err = capsys.readouterr().err
    assert err.startswith("missing input: ") and err.count("\n") == 1, err
    assert f"not found: {os.path.join(out, name)}; run " in err and writers in err, err


def test_cli_baseline_trains_on_the_labeled_rows_of_an_injected_pool(tmp_path, capsys):
    # the injected foreign rows carry no label to learn, so the baselines
    # train on the pool's 120 labeled rows; a batch above them names its key
    path, out = write_cfg(tmp_path)
    flags = [a for o in ("perturb.kind=inject", "perturb.ratio_bound=0.5",
                         "perturb.foreign_per_class=200") for a in ("--override", o)]
    assert run_cli("split", "--config", path, *flags) == 0
    capsys.readouterr()
    assert run_cli("baseline", "--config", path, *flags,
                   "--override", "student_train.batch_size=121") == 1
    assert ("config error: student_train.batch_size: 121 exceeds the 120 rows it trains on"
            in capsys.readouterr().err)
    assert not os.path.exists(os.path.join(out, "baseline_a.ckpt"))
    assert run_cli("baseline", "--config", path, *flags) == 0
    for name in ("baseline_a.ckpt", "baseline_b.ckpt", "epochs_baseline_a.csv"):
        assert os.path.exists(os.path.join(out, name)), name


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


@pytest.mark.parametrize("flag,value", [("--reps", "0"), ("--warmup", "-1")])
def test_cli_rejects_out_of_range_flags(tmp_path, capsys, flag, value):
    # checked at parsing, before any data or checkpoint is loaded
    path, out = write_cfg(tmp_path)
    assert run_cli("bench", "--config", path, flag, value) == 1
    assert f"argument {flag}" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("verb", STAGES)
def test_main_runs_the_stage_held_on_the_module_when_the_verb_runs(
        tmp_path, monkeypatch, verb):
    # a stage replaced on cli, as a tracing wrapper is, is the one main runs;
    # bench alone gets --reps and --warmup
    path, out = write_cfg(tmp_path)
    calls = []
    monkeypatch.setattr(cli, "stage_" + verb.replace("-", "_"),
                        lambda run, *extra: calls.append((run.cfg.output_dir, extra)))
    flags = ["--reps", "2", "--warmup", "1"] if verb == "bench" else []
    assert run_cli(verb, "--config", path, *flags) == 0
    assert calls == [(out, (2, 1) if verb == "bench" else ())]
    assert not os.path.exists(out)


@pytest.mark.parametrize("verb", STAGES)
def test_every_stage_takes_its_run_alone(verb):
    # a stage reads its config from run.cfg, so no caller can hand it another
    # run's cfg beside its run; bench alone also takes --reps and --warmup
    params = inspect.signature(getattr(cli, "stage_" + verb.replace("-", "_"))).parameters
    if verb == "bench":
        assert list(params) == ["run", "reps", "warmup"]
    else:
        assert [name for name, p in params.items() if p.default is p.empty] == ["run"]


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


def count_calls(monkeypatch, *names):
    """{name: [result of each call]} of the pipeline functions named."""
    calls = {}
    for name in names:
        real = getattr(pipeline, name)
        calls[name] = []
        monkeypatch.setattr(pipeline, name, lambda *args, real=real, out=calls[name]:
                            out.append(real(*args)) or out[-1])
    return calls


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
    calls = count_calls(monkeypatch, "build_student_pool", "resolve_split", "load_checkpoint")
    stage_run_all(cli._Run(cfg, *data))
    assert digests() == before
    pools = calls["build_student_pool"]
    assert len(pools) == 1  # the plan's, which label and every student share
    assert [p.label_reads for p in pools] == [0] * len(pools)
    # split logs the plan's rows, so nothing replays the manifest; label loads
    # the mentor, which eval and confusion share with both students, loaded once
    assert len(calls["resolve_split"]) == 0
    assert len(calls["load_checkpoint"]) == 3


def test_a_check_sizes_each_arch_and_makes_no_layer(tmp_path, monkeypatch):
    # _check learns whether an arch fits from the walk over its shapes alone:
    # through run-all's plan, its training stages and a lone baseline, no
    # check makes a conv or an fc; the training after each check makes them
    path, _ = write_cfg(tmp_path)
    made, checks = [], []
    for cls in (layers.Conv2d, layers.FullyConnected):
        monkeypatch.setattr(network, cls.__name__,
                            lambda *args, cls=cls: made.append(cls.kind) or cls(*args))
    check = cli._check

    def counting_check(run, who, n):
        before = len(made)
        check(run, who, n)
        checks.append((who, len(made) - before))

    monkeypatch.setattr(cli, "_check", counting_check)
    arch = ("--override", "mentor.arch=c(3,4)-mp-fc(8)-fc-s")
    assert run_cli("run-all", "--config", path, *arch) == 0
    assert run_cli("baseline", "--config", path, *arch) == 0
    assert checks == [("mentor", 0), ("student", 0), ("mentor", 0), ("student", 0),
                      ("student", 0)]
    assert {"c", "fc"} <= set(made)


def test_sweep_builds_each_runs_pool_once_and_replays_no_manifest(tmp_path, monkeypatch):
    # 2 ratios x 2 seeds: the check of every run counts its pool's rows, and
    # its label stage builds the pool, which train-student shares; its split
    # logs the plan's rows and reads no manifest back
    path, _ = write_cfg(tmp_path, extra="sweep.ratios=0.25,0.5\nsweep.seeds=0,1\n")
    calls = count_calls(monkeypatch, "build_student_pool", "resolve_split")
    assert run_cli("sweep", "--config", path) == 0
    assert {name: len(out) for name, out in calls.items()} == {
        "build_student_pool": 4, "resolve_split": 0}


def test_sweep_holds_one_runs_pool_at_a_time(tmp_path, monkeypatch):
    # every run is checked before the first trains, on row counts alone, and
    # a run's pool is built by its label stage: when a run's mentor starts, no
    # pool is alive
    path, _ = write_cfg(tmp_path, extra="sweep.ratios=0.25,0.5\nsweep.seeds=0,1\n")
    pools, alive = [], []
    build, train_mentor = pipeline.build_student_pool, cli.stage_train_mentor

    def recording_build(*args):
        pool = build(*args)
        pools.append(weakref.ref(pool))
        return pool

    def counting_train_mentor(run):
        gc.collect()
        alive.append(sum(ref() is not None for ref in pools))
        return train_mentor(run)

    monkeypatch.setattr(pipeline, "build_student_pool", recording_build)
    monkeypatch.setattr(cli, "stage_train_mentor", counting_train_mentor)
    assert run_cli("sweep", "--config", path) == 0
    assert alive == [0] * 4, alive


def test_run_all_builds_no_pool_before_label(tmp_path, monkeypatch):
    # run-all's plan counts the pool's rows without gathering them: while the
    # mentor trains no pool exists, and label builds the only one
    path, _ = write_cfg(tmp_path)
    calls = count_calls(monkeypatch, "build_student_pool")
    built = {}
    for name in ("stage_train_mentor", "stage_label"):

        def counting(run, stage=getattr(cli, name), name=name):
            built[name] = len(calls["build_student_pool"])
            return stage(run)

        monkeypatch.setattr(cli, name, counting)
    assert run_cli("run-all", "--config", path) == 0
    assert built == {"stage_train_mentor": 0, "stage_label": 0}
    assert len(calls["build_student_pool"]) == 1


def test_baseline_on_an_injected_pool_builds_no_pool_and_trains_on_the_kept_rows(
        tmp_path, monkeypatch):
    # the baseline learns the hard labels of the pool's rows of train: it
    # gathers those rows alone, never the injected pool it would drop them from
    path, out = write_cfg(tmp_path, extra=(
        "perturb.kind=inject\nperturb.ratio_bound=0.3\n"
        "perturb.foreign_classes=3\nperturb.foreign_per_class=10\n"))
    assert run_cli("split", "--config", path) == 0
    calls = count_calls(monkeypatch, "build_student_pool")
    trained, train_baseline = [], pipeline.train_baseline
    monkeypatch.setattr(pipeline, "train_baseline",
                        lambda *args: trained.append(args[1]) or train_baseline(*args))
    assert run_cli("baseline", "--config", path) == 0
    assert calls == {"build_student_pool": []}
    train = pipeline.prepare_data(load_config(path))[0]
    student = np.flatnonzero(~load_split_manifest(pipeline.manifest_path(out)))
    assert len(trained) == 2
    for pool in trained:
        np.testing.assert_array_equal(pool.images, train.images[student])
        np.testing.assert_array_equal(pool.labels, train.labels[student])


def test_a_verb_gathers_only_the_train_rows_it_trains_on_or_labels(tmp_path, monkeypatch):
    # a split is rows until a stage reads their pixels: on the 1,250 train rows
    # of configs/synthetic.cfg, split gathers none, train-mentor the 250 mentor
    # rows, and label, train-student and baseline the 1,000 pool rows each;
    # run-all gathers both once, and so does each run of a 2 x 2 sweep
    config = os.path.join(os.path.dirname(__file__), "..", "configs", "synthetic.cfg")
    flags = [a for o in (f"output_dir={tmp_path / 'run'}", "mentor_train.epochs=1",
                         "student_train.epochs=1", "sweep.ratios=0.25,0.5", "sweep.seeds=0,1")
             for a in ("--override", o)]
    prepare, subset = pipeline.prepare_data, LabeledImageSet.subset
    trains, gathered = [], []

    def preparing(cfg):
        data = prepare(cfg)
        trains.append(data[0])
        return data

    def gathering(self, indices):
        if any(self is train for train in trains):
            gathered.append(len(indices))
        return subset(self, indices)

    monkeypatch.setattr(pipeline, "prepare_data", preparing)
    monkeypatch.setattr(LabeledImageSet, "subset", gathering)
    counts = {}
    for verb in ("split", "train-mentor", "label", "train-student", "baseline", "run-all",
                 "sweep"):
        trains.clear(), gathered.clear()
        assert run_cli(verb, "--config", config, *flags) == 0, verb
        counts[verb] = sum(gathered)
    assert counts == {"split": 0, "train-mentor": 250, "label": 1000, "train-student": 1000,
                      "baseline": 1000, "run-all": 1250, "sweep": 5000}


def test_train_student_hashes_the_pool_once(tmp_path, monkeypatch):
    # the verb checks the soft labels against the pool's checksum and hands
    # that checksum to every student arch: one hash of the 1,000-row pool for
    # the two students of configs/synthetic.cfg, not one more per arch
    config = os.path.join(os.path.dirname(__file__), "..", "configs", "synthetic.cfg")
    flags = [a for o in (f"output_dir={tmp_path / 'run'}", "mentor_train.epochs=1",
                         "student_train.epochs=1") for a in ("--override", o)]
    for verb in ("split", "train-mentor", "label"):
        assert run_cli(verb, "--config", config, *flags) == 0, verb
    checksum, hashed = pipeline.image_payload_checksum, []
    monkeypatch.setattr(pipeline, "image_payload_checksum",
                        lambda images: hashed.append(len(images)) or checksum(images))
    assert run_cli("train-student", "--config", config, *flags) == 0
    assert hashed == [1000]


@pytest.mark.parametrize("verbs,count", [(("run-all",), 1), (("sweep",), 4)])
def test_cli_splits_once_per_run(tmp_path, monkeypatch, verbs, count):
    # run-all computes its split once, for its check and its manifest; each
    # (ratio, seed) run of a 2 x 2 sweep computes its own once
    path, _ = write_cfg(tmp_path, extra="sweep.ratios=0.25,0.5\nsweep.seeds=0,1\n")
    calls = []
    split = cli.split_indices
    monkeypatch.setattr(cli, "split_indices", lambda *args: calls.append(1) or split(*args))
    for verb in verbs:
        assert run_cli(verb, "--config", path) == 0
    assert len(calls) == count


def test_a_verb_makes_only_the_sets_and_models_its_stage_asks_for(tmp_path, monkeypatch):
    # train-mentor builds no pool and loads no checkpoint; eval, confusion
    # and bench read checkpoints only, so they run without the manifest
    path, out = write_cfg(tmp_path)
    assert run_cli("run-all", "--config", path) == 0
    calls = count_calls(monkeypatch, "build_student_pool", "load_checkpoint")
    assert run_cli("train-mentor", "--config", path) == 0
    assert calls == {"build_student_pool": [], "load_checkpoint": []}
    os.remove(pipeline.manifest_path(out))
    for verb in ("eval", "confusion", "bench"):
        flags = ["--reps", "1", "--warmup", "0"] if verb == "bench" else []
        assert run_cli(verb, "--config", path, *flags) == 0, verb


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

"""Experiment configuration: flat key=value files, overrides, typed building.

Config files are plain text, one ``namespaced.key=value`` per line, with
``#`` comment lines and blank lines ignored. ``--override key=value`` on the
CLI edits the parsed mapping and is defined to be equivalent to editing the
file; ``--seed S`` is one such edit per ``SEED_KEYS`` entry, after them. Each
key's type, default and rule are declared once, on its field of
``ExperimentConfig`` or of the ``SplitConfig``, ``PerturbConfig`` and
``TrainConfig`` key groups; ``errors.broken_rule`` checks them, here and at
direct construction. Every failure here raises ConfigError naming its key
(``--config`` for a file that is not UTF-8 text), but a config file that cannot
be read at all is a MissingArtifactError.
"""

# No ``from __future__ import annotations``: each field's ``type`` must be the
# class itself, because it picks the key's converter or marks a key group.
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import get_type_hints

from .errors import ConfigError, MissingArtifactError, ParseError, at_least, broken_rule
from .network import parse_tokens, render_tokens
from .splitting import PerturbConfig, SplitConfig
from .training import TrainConfig


def _text(key, value):
    return value


def _to_bool(key, value):
    low = value.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(key, f"expected a boolean, got {value!r}")


def _to_int(key, value):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(key, f"expected an integer, got {value!r}") from None


def _to_float(key, value):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(key, f"expected a number, got {value!r}") from None


# converter for a field of this type, when the field names none of its own
_BY_TYPE = {str: _text, bool: _to_bool, int: _to_int, float: _to_float}


def _items(key, value):
    """The non-empty items of a comma-separated list value. Only commas outside
    parentheses split, so "c(3,4)-s,fc-s" is two architectures, not three
    fragments."""
    items, depth, start = [], 0, 0
    for i, ch in enumerate(value + ","):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(depth - 1, 0)
        elif ch == "," and depth == 0:
            items.append(value[start:i].strip())
            start = i + 1
    items = [item for item in items if item]
    if not items:
        raise ConfigError(key, "expected a comma-separated list")
    return items


def _list_of(conv=str, wrap=list):
    """Converter for a comma-separated list of conv(item), built by wrap."""

    def to_list(key, value):
        try:
            return wrap(conv(item) for item in _items(key, value))
        except ValueError:
            raise ConfigError(key, f"bad list element in {value!r}") from None

    return to_list


def _to_arch(key, value):
    try:
        return render_tokens(parse_tokens(value))
    except ParseError as exc:
        raise ConfigError(key, str(exc)) from None


def _to_arch_list(key, value):
    return [_to_arch(key, item) for item in _items(key, value)]


def _key(key, default=MISSING, conv=None, kind=None, rule=None):
    """A field read from config key ``key``, converted by ``conv`` (or by the
    field's type), whose value must keep ``rule``. Without a default the key
    is required; with ``kind`` it is required when dataset.kind is that kind."""
    return field(default=default,
                 metadata={"key": key, "conv": conv, "kind": kind, "rule": rule})


@dataclass
class ExperimentConfig:
    """The typed config. Every field names its key; a field typed as a
    dataclass reads that dataclass's fields from ``<key>.<field name>``."""

    dataset_kind: str = _key("dataset.kind", rule=(
        lambda v: v in ("synthetic", "mnist", "cifar10"), "must be synthetic|mnist|cifar10"))
    output_dir: str = _key("output_dir", rule=(bool, "must not be empty"))
    mentor_arch: str = _key("mentor.arch", conv=_to_arch)
    student_archs: list = _key("student.archs", conv=_to_arch_list)
    split: SplitConfig = _key("split")
    mentor_train: TrainConfig = _key("mentor_train")
    student_train: TrainConfig = _key("student_train")
    perturb: PerturbConfig = _key("perturb")
    # mnist
    train_images: str = _key("dataset.train_images", None, kind="mnist")
    train_labels: str = _key("dataset.train_labels", None, kind="mnist")
    test_images: str = _key("dataset.test_images", None, kind="mnist")
    test_labels: str = _key("dataset.test_labels", None, kind="mnist")
    # cifar10
    train_batches: list = _key("dataset.train_batches", None, _list_of(), "cifar10")
    test_batches: list = _key("dataset.test_batches", None, _list_of(), "cifar10")
    # synthetic
    classes: int = _key("dataset.classes", 10, rule=at_least(2))
    per_class: int = _key("dataset.per_class", 100, rule=at_least(1))
    test_per_class: int = _key("dataset.test_per_class", 100, rule=at_least(1))
    shape: tuple = _key("dataset.shape", (1, 8, 8), _list_of(int, tuple), rule=(
        lambda v: len(v) == 3 and min(v) >= 1, "must be 3 positive dims"))
    difficulty: float = _key("dataset.difficulty", 0.5, rule=(
        lambda v: 0 < v <= 1, "must be in (0, 1]"))
    dataset_seed: int = _key("dataset.seed", 0, rule=at_least(0))
    # post-load transforms; a single class would score 100% whatever it learned
    class_subset: list = _key("dataset.class_subset", None, _list_of(int), rule=(
        lambda v: min(v) >= 0 and len(set(v)) == len(v) >= 2,
        "must be at least 2 distinct class ids >= 0"))
    per_class_cap: int = _key("dataset.per_class_cap", None, rule=at_least(1))
    standardize: bool = _key("dataset.standardize", False)
    # foreign source for inject
    foreign_classes: int = _key("perturb.foreign_classes", 10, rule=at_least(2))
    foreign_per_class: int = _key("perturb.foreign_per_class", 100, rule=at_least(1))
    foreign_seed: int = _key("perturb.foreign_seed", 1, rule=at_least(0))
    foreign_batches: list = _key("perturb.foreign_batches", None, _list_of())
    # reporting / sweep
    zero_wall_time: bool = _key("report.zero_wall_time", True)
    sweep_ratios: tuple = _key("sweep.ratios", (0.05, 0.1, 0.2, 0.4, 0.6, 0.8),
                               _list_of(float, tuple), rule=(
        lambda v: all(0 < r < 1 for r in v), "each ratio must be in (0, 1)"))
    sweep_seeds: tuple = _key("sweep.seeds", None, _list_of(int, tuple), rule=(
        lambda v: min(v) >= 0, "each seed must be >= 0"))


def _config_keys():
    for f in fields(ExperimentConfig):
        if is_dataclass(f.type):
            yield from (f"{f.metadata['key']}.{g.name}" for g in fields(f.type))
        else:
            yield f.metadata["key"]


KNOWN_KEYS = frozenset(_config_keys())
SEED_KEYS = tuple(sorted(key for key in KNOWN_KEYS if key.endswith(".seed")))


def parse_config_text(text, source="<config>"):
    """Parse flat key=value lines into an ordered dict of strings."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(stripped, f"expected key=value ({source}:{lineno})")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(stripped, f"empty key ({source}:{lineno})")
        if key in out:
            raise ConfigError(key, f"duplicate key ({source}:{lineno})")
        out[key] = value.strip()
    return out


def parse_config_file(path):
    """parse_config_text of a file: a MissingArtifactError if it cannot be
    read, a ConfigError naming ``--config`` if it is not UTF-8 text."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise MissingArtifactError(f"config file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError("--config", f"{path} is not UTF-8 text ({exc.reason}"
                                      f" at byte {exc.start})") from None
    return parse_config_text(text, source=str(path))


def apply_overrides(mapping, overrides):
    """Apply CLI ``key=value`` overrides on top of a parsed config mapping."""
    out = dict(mapping)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(item, "override must look like key=value")
        key, value = item.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _build(cls, kwargs, key_of):
    """cls(**kwargs) once every value keeps its field's rule; else a
    ConfigError naming the key key_of(field) of the first that breaks one."""
    broken = broken_rule(cls, kwargs)
    if broken:
        raise ConfigError(key_of(broken[0]), broken[1])
    return cls(**kwargs)


def _group(mapping, prefix, cls):
    """Build dataclass cls from the ``<prefix>.<field>`` keys, each converted
    by its field's type; cls's own defaults fill in the missing ones."""
    types = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        key = f"{prefix}.{f.name}"
        if key in mapping:
            kwargs[f.name] = _BY_TYPE[types[f.name]](key, mapping[key])
    return _build(cls, kwargs, lambda f: f"{prefix}.{f.name}")


def build_experiment_config(mapping):
    """Validate a parsed mapping and build the typed ExperimentConfig."""
    unknown = sorted(set(mapping) - KNOWN_KEYS)
    if unknown:
        raise ConfigError(unknown[0], "unknown config key")
    kwargs = {}
    for f in fields(ExperimentConfig):
        key, kind = f.metadata["key"], f.metadata["kind"]
        if is_dataclass(f.type):
            kwargs[f.name] = _group(mapping, key, f.type)
        elif key in mapping:
            kwargs[f.name] = (f.metadata["conv"] or _BY_TYPE[f.type])(key, mapping[key])
        elif f.default is MISSING:
            raise ConfigError(key, "required key is missing")
        elif kind == mapping.get("dataset.kind"):
            raise ConfigError(key, f"required for dataset.kind={kind}")
    cfg = _build(ExperimentConfig, kwargs, lambda f: f.metadata["key"])
    if cfg.per_class_cap is not None and not cfg.class_subset:
        raise ConfigError("dataset.per_class_cap", "requires dataset.class_subset")
    return cfg


def load_config(path, overrides=(), seed=None):
    """Parse + override + build in one call (the CLI entry path). ``seed``
    (``--seed S``) is one ``<key>=S`` override per SEED_KEYS entry, applied
    after ``overrides``."""
    seeds = [] if seed is None else [f"{key}={int(seed)}" for key in SEED_KEYS]
    mapping = apply_overrides(parse_config_file(path), [*overrides, *seeds])
    return build_experiment_config(mapping)

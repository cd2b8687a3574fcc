"""Experiment configuration: flat key=value files, overrides, typed building.

Config files are plain text, one ``namespaced.key=value`` per line, with
``#`` comment lines and blank lines ignored. ``--override key=value`` on the
CLI edits the parsed mapping and is defined to be equivalent to editing the
file. All validation failures raise ConfigError carrying the offending key.
"""

# No ``from __future__ import annotations``: each field's ``type`` must be the
# class itself, because it picks the key's converter or marks a key group.
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import get_type_hints

from .errors import ConfigError, ParseError, ValidationError
from .network import parse_tokens
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


def _list_of(conv=str, wrap=list):
    """Converter for a comma-separated list of conv(item), built by wrap."""

    def to_list(key, value):
        items = [part.strip() for part in value.split(",") if part.strip()]
        if not items:
            raise ConfigError(key, "expected a comma-separated list")
        try:
            return wrap(conv(item) for item in items)
        except ValueError:
            raise ConfigError(key, f"bad list element in {value!r}") from None

    return to_list


def _to_arch(key, value):
    try:
        parse_tokens(value)
    except ParseError as exc:
        raise ConfigError(key, str(exc)) from None
    return value


def _to_arch_list(key, value):
    # Split only on commas outside parentheses, so "c(3,4)-s,fc-s" is two
    # architectures, not three fragments.
    items, depth, start = [], 0, 0
    for i, ch in enumerate(value):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(depth - 1, 0)
        elif ch == "," and depth == 0:
            items.append(value[start:i].strip())
            start = i + 1
    items.append(value[start:].strip())
    items = [item for item in items if item]
    if not items:
        raise ConfigError(key, "expected a comma-separated list")
    return [_to_arch(key, item) for item in items]


def _to_dataset_kind(key, value):
    if value not in ("synthetic", "mnist", "cifar10"):
        raise ConfigError(key, f"must be synthetic|mnist|cifar10, got {value!r}")
    return value


def _key(key, default=MISSING, conv=None, kind=None):
    """A field read from config key ``key``, converted by ``conv`` (or by the
    field's type). Without a default the key is required; with ``kind`` it is
    required when dataset.kind is that kind."""
    return field(default=default, metadata={"key": key, "conv": conv, "kind": kind})


@dataclass
class ExperimentConfig:
    """The typed config. Every field names its key; a field typed as a
    dataclass reads that dataclass's fields from ``<key>.<field name>``."""

    dataset_kind: str = _key("dataset.kind", conv=_to_dataset_kind)
    output_dir: str = _key("output_dir")
    mentor_arch: str = _key("mentor.arch", conv=_to_arch)
    student_archs: list = _key("student.archs", conv=_to_arch_list)
    split: SplitConfig = _key("split")
    mentor_train: TrainConfig = _key("mentor_train")
    student_train: TrainConfig = _key("student_train")
    perturb: PerturbConfig = _key("perturb", None)  # None while perturb.kind=none
    # mnist
    train_images: str = _key("dataset.train_images", None, kind="mnist")
    train_labels: str = _key("dataset.train_labels", None, kind="mnist")
    test_images: str = _key("dataset.test_images", None, kind="mnist")
    test_labels: str = _key("dataset.test_labels", None, kind="mnist")
    # cifar10
    train_batches: list = _key("dataset.train_batches", None, _list_of(), "cifar10")
    test_batches: list = _key("dataset.test_batches", None, _list_of(), "cifar10")
    # synthetic
    classes: int = _key("dataset.classes", 10)
    per_class: int = _key("dataset.per_class", 100)
    test_per_class: int = _key("dataset.test_per_class", 100)
    shape: tuple = _key("dataset.shape", (1, 8, 8), _list_of(int, tuple))
    difficulty: float = _key("dataset.difficulty", 0.5)
    dataset_seed: int = _key("dataset.seed", 0)
    # post-load transforms
    class_subset: list = _key("dataset.class_subset", None, _list_of(int))
    per_class_cap: int = _key("dataset.per_class_cap", None)
    standardize: bool = _key("dataset.standardize", False)
    # foreign source for inject
    foreign_classes: int = _key("perturb.foreign_classes", 10)
    foreign_per_class: int = _key("perturb.foreign_per_class", 100)
    foreign_seed: int = _key("perturb.foreign_seed", 1)
    foreign_batches: list = _key("perturb.foreign_batches", None, _list_of())
    # reporting / sweep
    zero_wall_time: bool = _key("report.zero_wall_time", True)
    sweep_ratios: tuple = _key("sweep.ratios", (0.05, 0.1, 0.2, 0.4, 0.6, 0.8),
                               _list_of(float, tuple))
    sweep_seeds: tuple = _key("sweep.seeds", None, _list_of(int, tuple))


# (key, holds(cfg), rule): the range rules a built config must keep
_RULES = (
    ("dataset.classes", lambda c: c.classes >= 2, "must be >= 2"),
    ("dataset.per_class", lambda c: c.per_class >= 1, "must be >= 1"),
    ("dataset.test_per_class", lambda c: c.test_per_class >= 1, "must be >= 1"),
    ("dataset.difficulty", lambda c: 0 < c.difficulty <= 1, "must be in (0, 1]"),
    ("dataset.shape", lambda c: len(c.shape) == 3 and min(c.shape) >= 1,
     "must be 3 positive dims"),
    ("dataset.per_class_cap", lambda c: c.per_class_cap is None or c.class_subset,
     "requires dataset.class_subset"),
    ("dataset.per_class_cap", lambda c: c.per_class_cap is None or c.per_class_cap >= 1,
     "must be >= 1"),
    ("perturb.foreign_classes", lambda c: c.foreign_classes >= 2, "must be >= 2"),
    ("perturb.foreign_per_class", lambda c: c.foreign_per_class >= 1, "must be >= 1"),
    ("sweep.ratios", lambda c: all(0 < r < 1 for r in c.sweep_ratios),
     "each ratio must be in (0, 1)"),
)


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
    with open(path, "r", encoding="utf-8") as f:
        return parse_config_text(f.read(), source=str(path))


def apply_overrides(mapping, overrides):
    """Apply CLI ``key=value`` overrides on top of a parsed config mapping."""
    out = dict(mapping)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(item, "override must look like key=value")
        key, value = item.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def apply_seed_shorthand(mapping, seed):
    """--seed S: overwrite every *.seed key."""
    out = dict(mapping)
    for key in SEED_KEYS:
        out[key] = str(int(seed))
    return out


def _group(mapping, prefix, cls):
    """Build dataclass cls from the ``<prefix>.<field>`` keys, each converted
    by its field's type; cls's own defaults fill in the missing ones."""
    types = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        key = f"{prefix}.{f.name}"
        if key in mapping:
            kwargs[f.name] = _BY_TYPE[types[f.name]](key, mapping[key])
    try:
        return cls(**kwargs)
    except ValidationError as exc:
        # the config dataclasses start each message with the field's name
        raise ConfigError(f"{prefix}.{str(exc).split(' ', 1)[0]}", str(exc)) from None


def build_experiment_config(mapping):
    """Validate a parsed mapping and build the typed ExperimentConfig."""
    unknown = sorted(set(mapping) - KNOWN_KEYS)
    if unknown:
        raise ConfigError(unknown[0], "unknown config key")
    for key, value in mapping.items():
        # numpy seeds its generators from non-negative integers only
        if key.endswith("seed") and _to_int(key, value) < 0:
            raise ConfigError(key, f"must be >= 0, got {value}")
    kwargs = {}
    for f in fields(ExperimentConfig):
        key, kind = f.metadata["key"], f.metadata["kind"]
        if is_dataclass(f.type):
            if key == "perturb" and mapping.get("perturb.kind", "none") == "none":
                # no perturbation, but the other perturb.* keys present are
                # still converted and range-checked
                _group({**mapping, "perturb.kind": "reduce"}, key, f.type)
            else:
                kwargs[f.name] = _group(mapping, key, f.type)
        elif key in mapping:
            kwargs[f.name] = (f.metadata["conv"] or _BY_TYPE[f.type])(key, mapping[key])
        elif f.default is MISSING:
            raise ConfigError(key, "required key is missing")
        elif kind == mapping.get("dataset.kind"):
            raise ConfigError(key, f"required for dataset.kind={kind}")
    cfg = ExperimentConfig(**kwargs)
    for key, holds, rule in _RULES:
        if not holds(cfg):
            raise ConfigError(key, f"{rule}, got {mapping.get(key)}")
    return cfg


def load_config(path, overrides=(), seed=None):
    """Parse + override + build in one call (the CLI entry path)."""
    mapping = parse_config_file(path)
    if overrides:
        mapping = apply_overrides(mapping, overrides)
    if seed is not None:
        mapping = apply_seed_shorthand(mapping, seed)
    return build_experiment_config(mapping)

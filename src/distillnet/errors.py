"""Exception types shared across the package, and the field rules that the
config dataclasses declare: one ``(holds(value), text)`` pair per field."""

from dataclasses import field, fields


class DistillError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(DistillError):
    """Malformed architecture string."""


class ShapeError(DistillError):
    """Tensor or layer shapes are inconsistent."""


class StateError(DistillError):
    """Operation called in an invalid order (e.g. backward before forward)."""


class FormatError(DistillError):
    """Binary or CSV artifact does not match its on-disk format."""


class ValidationError(DistillError):
    """Values are structurally fine but semantically invalid."""


class ConfigError(DistillError):
    """Bad experiment configuration. Carries the offending key."""

    def __init__(self, key, message):
        self.key = key
        self.message = message
        super().__init__(f"{key}: {message}")


class MissingArtifactError(DistillError):
    """A required input file from an earlier stage is missing or stale."""


def at_least(low):
    """The rule ``value >= low``."""
    return (lambda v: v >= low), f"must be >= {low}"


def ruled(default, rule):
    """A dataclass field with a default whose values must keep ``rule``."""
    return field(default=default, metadata={"rule": rule})


def broken_rule(cls, values):
    """(field, message) for the first field of dataclass ``cls`` whose value
    in the mapping ``values`` (field name -> value) breaks its rule; None when
    every value given keeps its rule. Fields absent from ``values`` pass."""
    for f in fields(cls):
        rule = f.metadata.get("rule")
        if rule and f.name in values and not rule[0](values[f.name]):
            return f, f"{rule[1]}, got {values[f.name]!r}"
    return None


class Ruled:
    """Base of a dataclass whose fields carry rules: construction raises
    ValidationError naming the first field whose value breaks its rule."""

    def __post_init__(self):
        broken = broken_rule(type(self), vars(self))
        if broken:
            raise ValidationError(f"{broken[0].name} {broken[1]}")

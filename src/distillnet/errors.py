"""Exception types shared across the package."""


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

"""Exception types shared across the package.

Validation failures (bad matrices, malformed configs, incomplete measurement
sets) all derive from :class:`ValidationError`, which is a ``ValueError`` so
that casual callers can catch the familiar builtin. Numerical impossibilities
that only show up at run time, such as a postselection that succeeds with
probability zero, get their own branch.
"""

from __future__ import annotations

__all__ = ["IdentangleError", "ValidationError", "UnsupportedConfigurationError",
           "IncompleteSettingsError", "CountsParseError", "ConfigError",
           "PostselectionImpossibleError"]


class IdentangleError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(IdentangleError, ValueError):
    """An input failed a structural or numerical precondition."""


class UnsupportedConfigurationError(ValidationError):
    """The input is outside the supported problem shape: a routing spec
    whose detector count differs from its particle count."""


class IncompleteSettingsError(ValidationError):
    """Measurement settings do not determine the state (not informationally complete)."""


class CountsParseError(ValidationError):
    """A counts file could not be parsed.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ConfigError(ValidationError):
    """A run configuration is malformed. Carries the config path and field."""

    def __init__(self, path: str, field: str, message: str):
        super().__init__(f"{path}: {field}: {message}")
        self.path = path
        self.field = field


class PostselectionImpossibleError(IdentangleError, ArithmeticError):
    """Every no-bunching outcome interferes away; nothing survives postselection."""

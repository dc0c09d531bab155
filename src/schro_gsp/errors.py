"""Exception types and config value rules shared across the library.

Every error raised by the package derives from :class:`SchroGspError`, so
callers can catch library failures without also swallowing programming
errors.  The subclasses separate the failure modes that calling code is
expected to distinguish: malformed input files, violated preconditions,
signals with no usable mass, and numerical breakdown.

:func:`check_config_fields` holds the one rule for which values a config
field's annotation admits; each config adds only its range checks.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import typing


class SchroGspError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(SchroGspError, ValueError):
    """Malformed input file.  Carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ContractError(SchroGspError, ValueError):
    """A documented precondition or interface contract was violated."""


class DegenerateSignalError(SchroGspError, ValueError):
    """Signal (or windowed signal) mass is too small to normalize."""


class DegenerateFeatureError(SchroGspError, ValueError):
    """A feature column carries no usable variation."""


class NumericalError(SchroGspError, ArithmeticError):
    """Numerical failure: overflow, NaN, or a residual above its bound."""


class DivergedError(NumericalError):
    """Optimization hit a non-finite objective.

    ``last_good`` holds the most recent iterate with a finite objective so
    callers can inspect or resume from it.
    """

    def __init__(self, message: str, last_good=None):
        super().__init__(message)
        self.last_good = last_good


class SizeError(SchroGspError, ValueError):
    """Problem size exceeds a hard bound (dense-oracle feasibility)."""


def check_config_fields(config) -> None:
    """Check each field of a config dataclass against its annotation.

    An ``int`` field takes a Python or numpy integer but not a bool; a
    ``float`` field takes a finite real number, an integer included; a
    ``str`` field takes a string, and ``str | None`` also ``None``.  Every
    config calls this first in ``__post_init__`` and keeps only its range
    checks, so a bad value fails at construction, before any work, whether
    the config came from a JSON file or from Python.
    """
    hints = typing.get_type_hints(type(config))
    for field in dataclasses.fields(config):
        kind = hints[field.name]
        value = getattr(config, field.name)
        where = f"{type(config).__name__}.{field.name}"
        number = not isinstance(value, bool)
        if kind is int:
            rule = "an integer"
            ok = number and isinstance(value, numbers.Integral)
        elif kind is float:
            rule = "a finite number"
            ok = number and isinstance(value, numbers.Real) and math.isfinite(value)
        elif kind is str or kind == (str | None):
            rule = "a string"
            ok = isinstance(value, str) or (value is None and kind is not str)
        else:
            raise TypeError(f"no value rule for {where}: {kind!r}")
        if not ok:
            raise ContractError(f"{where} must be {rule}, got {value!r}")

"""Exception types and the value rules shared across the library.

Every error raised by the package derives from :class:`SchroGspError`, so
callers can catch library failures without also swallowing programming
errors.  The subclasses separate the failure modes that calling code is
expected to distinguish: malformed input files, violated preconditions,
signals with no usable mass, and numerical breakdown.

Two value rules hold where values enter the library.  Config values:
:func:`check_config_fields` holds the one rule for which values a config
field's annotation admits; each config adds only its range checks.  Kept
arrays: every container keeps its arrays only through :func:`frozen_array`,
as read-only finite copies, so it never aliases or changes the caller's
array.  Every array finiteness test is :func:`all_finite`; scalars use
``math.isfinite``.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import typing

import numpy as np


class SchroGspError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(SchroGspError, ValueError):
    """Malformed input file.  Carries the file and the offending line when known."""

    def __init__(self, message: str, line: int | None = None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line
        self.path = path


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
    callers can inspect or resume from it; ``trace`` holds the descent's
    record up to the failure, when the loop keeps one.
    """

    def __init__(self, message: str, last_good=None, trace=()):
        super().__init__(message)
        self.last_good = last_good
        self.trace = trace


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


def all_finite(values: np.ndarray) -> bool:
    """Whether an array is finite throughout, without a mask of its size:
    the min and max of its real and imaginary views propagate NaN."""
    parts = (values.real, values.imag) if np.iscomplexobj(values) else (values,)
    return values.size == 0 or all(
        math.isfinite(p.min()) and math.isfinite(p.max()) for p in parts)


def frozen_array(values, dtype, what: str) -> np.ndarray:
    """A read-only copy of ``values`` as ``dtype``; :class:`ContractError`
    ``"{what} must be finite"`` if a float or complex entry is not."""
    out = np.array(values, dtype=dtype)
    if out.dtype.kind in "fc" and not all_finite(out):
        raise ContractError(f"{what} must be finite")
    out.setflags(write=False)
    return out

"""Exception types and the value rules shared across the library.

Every error raised by the package derives from :class:`SchroGspError`, so
callers can catch library failures without also swallowing programming
errors.  The subclasses separate the failure modes that calling code is
expected to distinguish: malformed input files, violated preconditions,
signals with no usable mass, and numerical breakdown.

Three value rules hold where values enter the library.  Kept scalars:
every config, ``Graph``, ``WindowSet``, ``FilterTerm`` and
``RingModelParams`` call :func:`check_fields` first, then add only their
range checks.  Cast arrays: a caller's array changes dtype only through
:func:`exact_array`, which refuses non-numbers and a cast that would drop
or change a value.  Kept arrays: containers keep arrays only through
:func:`frozen_array`, as read-only finite copies of that cast, so they never
alias or change the caller's array.  Every finiteness test is :func:`all_finite`.
"""

from __future__ import annotations

import dataclasses
import functools
import math

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


@functools.cache
def _scalar_fields(cls) -> tuple[tuple[str, str], ...]:
    """``check_fields``' (name, annotation) pairs, found once per class."""
    return tuple((f.name, f.type) for f in dataclasses.fields(cls) if f.type != "np.ndarray")


def check_fields(obj) -> None:
    """Check each scalar field of a dataclass by its annotation, and keep
    each number as the Python ``int`` or ``float``.

    An ``int`` field takes a Python or numpy integer but not a bool; a
    ``float`` field takes a finite real number, an integer included; a
    ``str`` field takes a string, and ``str | None`` also ``None``.
    ``np.ndarray`` fields are :func:`frozen_array`'s.  The annotations are
    the unresolved strings ``dataclasses.fields`` holds.
    """
    for name, kind in _scalar_fields(type(obj)):
        value = getattr(obj, name)
        if kind == "int" or kind == "float":
            real = kind == "float"
            types = (int, np.integer, float, np.floating) if real else (int, np.integer)
            ok = isinstance(value, types) and not isinstance(value, bool)
            if ok:
                try:
                    kept = float(value) if real else int(value)
                except OverflowError:  # an integer beyond the float range
                    kept = math.inf
                ok = not real or math.isfinite(kept)
                object.__setattr__(obj, name, kept)
            rule = "a finite number" if real else "an integer"
        elif kind == "str" or kind == "str | None":
            ok = isinstance(value, str) or (value is None and kind != "str")
            rule = "a string"
        else:
            raise TypeError(f"no value rule for {type(obj).__name__}.{name}: {kind!r}")
        if not ok:
            raise ContractError(f"{type(obj).__name__}.{name} must be {rule}, got {value!r}")


def all_finite(values: np.ndarray) -> bool:
    """Whether an array is finite throughout, without a mask of its size:
    the min and max of its real and imaginary views propagate NaN."""
    parts = (values.real, values.imag) if np.iscomplexobj(values) else (values,)
    return values.size == 0 or all(
        math.isfinite(p.min()) and math.isfinite(p.max()) for p in parts)


def exact_array(values, dtype, what: str) -> np.ndarray:
    """``values`` as an array of ``dtype``, itself if it has that dtype.

    :class:`ContractError` for bools, strings and other non-numbers, for
    complex numbers unless ``dtype`` is complex (``"{what} must be real"``),
    and for a fraction, NaN or infinity if ``dtype`` is an integer."""
    arr = np.asarray(values)
    if arr.dtype == dtype:
        return arr
    target = np.dtype(dtype).kind
    if arr.dtype.kind == "c" and target != "c":
        raise ContractError(f"{what} must be real")
    if arr.dtype.kind not in "iufc":
        raise ContractError(f"{what} must be numbers, got dtype {arr.dtype}")
    with np.errstate(invalid="ignore"):
        out = arr.astype(dtype)
    if target == "i" and not np.array_equal(out, arr):
        raise ContractError(f"{what} must be integers")
    return out


def frozen_array(values, dtype, what: str) -> np.ndarray:
    """A read-only copy of ``exact_array(values, dtype, what)``;
    :class:`ContractError` ``"{what} must be finite"`` if an entry is not."""
    out = np.array(exact_array(values, dtype, what))
    if out.dtype.kind in "fc" and not all_finite(out):
        raise ContractError(f"{what} must be finite")
    out.setflags(write=False)
    return out

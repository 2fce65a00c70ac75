"""Exception hierarchy shared by all farfield modules.

The command line maps these onto exit codes: parameter/usage problems
exit 1, data problems exit 2, numerical failures exit 3. The scalar
checks at the end are what the settings dataclasses validate their
fields with; file parsers turn their errors into data errors.
"""

import math
from numbers import Integral, Real


class FarfieldError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(FarfieldError, ValueError):
    """Invalid argument values, violated preconditions, mismatched shapes."""


class DataError(FarfieldError):
    """Malformed or unreadable input data (files, configs, manifests)."""


class UndefinedMetricError(DataError):
    """A score whose denominator is empty (no reference material at all)."""


class NumericalError(FarfieldError, ArithmeticError):
    """A linear-algebra step failed beyond what regularization can fix."""


class InfeasibleLabelError(ParameterError):
    """CTC label sequence cannot be aligned inside the given frame count.

    The loss would be infinite; this is reported as a distinct error
    instead of returning ``inf``.
    """


def check_int(name: str, value, minimum: int | None = None, maximum: int | None = None) -> None:
    """Raise :class:`ParameterError` unless ``value`` is an integer, not a
    bool, and within ``minimum`` and ``maximum`` when they are given."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ParameterError(f"{name} must be <= {maximum}, got {value}")


def check_finite(name: str, value) -> None:
    """Raise :class:`ParameterError` unless ``value`` is a finite real
    number, not a bool, that converts to a float."""
    try:
        finite = not isinstance(value, bool) and isinstance(value, Real) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ParameterError(f"{name} must be a finite number, got {value!r}")


def check_field(name: str, value) -> None:
    """Raise :class:`ParameterError` unless ``value`` is one field of a
    whitespace-separated file (RTTM, utterance lists): a non-empty
    string without whitespace, so that ``value.split() == [value]``."""
    if not isinstance(value, str) or value.split() != [value]:
        raise ParameterError(f"{name} must be a non-empty string without whitespace, got {value!r}")


def check_file_name(name: str, value) -> None:
    """Raise :class:`ParameterError` unless ``value`` names one path
    component: a string other than ``""``, ``.`` and ``..``, without
    ``/``, ``\\`` or NUL."""
    if not isinstance(value, str) or value in ("", ".", "..") or any(c in value for c in "/\\\0"):
        raise ParameterError(
            f"{name} must be a non-empty string without '/', '\\' or NUL, "
            f"and not '.' or '..', got {value!r}"
        )

"""Exception types shared across the simulator, and the number checks behind them."""

import math

import numpy as np


class LoqecError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(LoqecError):
    """A numeric input violates its contract (norms, ranges, probabilities)."""


class ConfigurationError(LoqecError):
    """An element, wiring, or config references ports or paths inconsistently."""


class StructureError(LoqecError):
    """A state lacks the photon-number structure an operation requires."""


class UsageError(LoqecError):
    """An operation was invoked with arguments that make no physical sense."""


class FitError(LoqecError):
    """Curve fitting failed: too few points or a rank-deficient design."""


class ManifestError(LoqecError):
    """A run manifest does not satisfy the strict config schema."""


#: Inputs that convert to a number but must not count as one.
_NOT_NUMBERS = (bool, np.bool_, str, bytes)


def _shown(value: object) -> str:
    """``repr(value)``, or the size of an integer too long to read.

    Python refuses to print an integer of more than 4300 digits, or a fraction of one.
    """
    if isinstance(value, int) and value.bit_length() > 256:
        return f"a {value.bit_length()}-bit integer"
    try:
        return repr(value)
    except ValueError:
        return f"a {type(value).__name__} too long to print"


def _convert(kind: type, value: object, name: str, what: str):
    try:
        if not isinstance(value, _NOT_NUMBERS):
            return kind(value)
    except (TypeError, ValueError):
        pass
    except OverflowError:  # an int or a fraction beyond the largest float
        raise ValidationError(
            f"{name} must be {what} within the float range, got {_shown(value)}"
        ) from None
    raise ValidationError(f"{name} must be {what}, got {value!r}")


def as_real(value: object, name: str) -> float:
    """``value`` as a float; a bool, a string or another non-number is rejected."""
    return _convert(float, value, name, "a real number")


def as_finite_real(value: object, name: str) -> float:
    """``value`` as a finite float, read as by :func:`as_real`; NaN and infinities are rejected."""
    number = as_real(value, name)
    if not math.isfinite(number):
        raise ValidationError(f"{name} must be finite, got {number!r}")
    return number


def as_complex(value: object, name: str) -> complex:
    """``value`` as a complex number, under the same rules as :func:`as_real`."""
    return _convert(complex, value, name, "a number")


def as_real_array(values: object, name: str, *, stack: bool = False) -> np.ndarray:
    """``values`` as a one-dimensional float array, converted in one numpy pass.

    Every entry must pass :func:`as_real`; the entries are walked, to name
    the first bad one ``name[i]``, only when the array is not all numbers.
    With ``stack``, a two-dimensional array of rows is accepted as well, and
    a walk goes row by row, naming ``name[k][i]``.
    """
    try:
        array = np.asarray(values)
    except (TypeError, ValueError):  # a ragged nest of sequences
        array = np.empty(0, dtype=object)
    if stack and array.ndim == 2:
        if isinstance(values, np.ndarray) and array.dtype.kind in "iuf":
            return array.astype(float)
        rows = [as_real_array(row, f"{name}[{k}]") for k, row in enumerate(values)]
        return np.array(rows, dtype=float).reshape(array.shape)
    if array.dtype.kind in "iuf":
        if array.ndim != 1:
            dims = "one- or two-dimensional" if stack else "one-dimensional"
            raise ValidationError(f"{name} must be {dims}, got shape {array.shape}")
        if isinstance(values, np.ndarray) or {bool, np.bool_}.isdisjoint(map(type, values)):
            return array.astype(float)
    try:
        items = list(values)
    except TypeError:
        raise ValidationError(f"{name} must be a sequence of real numbers, got {values!r}") from None
    return np.array([as_real(item, f"{name}[{i}]") for i, item in enumerate(items)], dtype=float)


def as_grid(values: object, name: str) -> np.ndarray:
    """``values`` as a non-empty one-dimensional array of finite floats.

    Entries are checked as by :func:`as_real_array`; the first non-finite
    one is named ``name[i]``.
    """
    grid = as_real_array(values, name)
    if not grid.size:
        raise ValidationError(f"{name} must hold at least one value")
    non_finite = np.flatnonzero(~np.isfinite(grid))
    if non_finite.size:
        index = int(non_finite[0])
        raise ValidationError(f"{name}[{index}] must be finite, got {float(grid[index])!r}")
    return grid


def check_unit_interval(values: np.ndarray, name: str) -> None:
    """Reject a float array with an entry outside [0, 1], NaN included.

    The first such entry is named ``name[i]`` with its value, or
    ``name[k][i]`` in a two-dimensional array; a 0-d array is named ``name``.
    """
    inside = (values >= 0.0) & (values <= 1.0)
    if not inside.all():
        index = int(np.flatnonzero(~inside)[0])
        where = name + "".join(f"[{i}]" for i in np.unravel_index(index, values.shape))
        raise ValidationError(f"{where} must lie in [0, 1], got {float(values.flat[index])!r}")

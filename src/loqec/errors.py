"""Exception types shared across the simulator, and the number check behind them."""

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


def as_real(value: object, name: str) -> float:
    """``value`` as a float; a bool, a string or another non-number is rejected."""
    try:
        if not isinstance(value, (bool, np.bool_, str, bytes)):
            return float(value)
    except (TypeError, ValueError):
        pass
    raise ValidationError(f"{name} must be a real number, got {value!r}")

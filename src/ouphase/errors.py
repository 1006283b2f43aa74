"""Error classes shared across the package, and the input checks that raise them.

The CLI maps these to exit codes: parameter/configuration problems exit
with 1, statistics problems (run too short, too few trials) with 2.
"""

import math
import numbers

__all__ = ["ParameterError", "ConfigurationError", "StatisticsError"]


class ParameterError(ValueError):
    """An argument or field violates its documented contract."""


class ConfigurationError(ParameterError):
    """A run configuration is unusable (instability, decimation bias)."""


class StatisticsError(RuntimeError):
    """Requested statistics cannot be computed from the data provided."""


def as_real(name: str, value) -> float:
    """``value`` as a float, once it is known to be a real number (``bool``
    excluded); an int beyond the float range is inf."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf


def check_real(name: str, value, above: float | None = None, at_least: float | None = None) -> float:
    """``value`` as a float (``as_real``), once it is known to be finite and
    ``> above`` / ``>= at_least`` where those are given."""
    v = as_real(name, value)
    if above is not None and not v > above:
        raise ParameterError(f"{name} must be finite and > {above:g}")
    if at_least is not None and not v >= at_least:
        raise ParameterError(f"{name} must be finite and >= {at_least:g}")
    if not math.isfinite(v):
        raise ParameterError(f"{name} must be finite")
    return v


def check_real_fields(obj, *names: str, above: float | None = None, at_least: float | None = None):
    """``check_real`` on fields of a frozen dataclass, storing each back as a
    float so that no int or numpy scalar type reaches the arithmetic."""
    for name in names:
        object.__setattr__(obj, name, check_real(name, getattr(obj, name), above, at_least))


def check_index(name: str, value, bits: int):
    """ParameterError unless ``value`` is an int (``bool`` excluded) in [0, 2**bits)."""
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < 2**bits:
        raise ParameterError(f"{name} must be an integer in [0, 2**{bits})")


def check_count(name: str, value):
    """ParameterError unless ``value`` is an int (``bool`` excluded) >= 1."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ParameterError(f"{name} must be an integer >= 1, got {value!r}")

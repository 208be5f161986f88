"""Small argument-validation helpers used across the library.

These raise early, with messages naming the offending parameter, so that a
misconfigured experiment fails at construction time rather than deep inside a
simulation run.
"""

from __future__ import annotations

from typing import Any, Optional


def require_number(what: str, value: Any) -> float:
    """``value`` as a float if it is an int or float (not a bool), else raise.

    For values read from JSON manifests, where ``true`` would otherwise
    pass as the number 1.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def require_int(what: str, value: Any) -> int:
    """``value`` if it is an int (not a bool), else raise ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def require_positive(name: str, value: float) -> float:
    """Return ``value`` if strictly positive, else raise ``ValueError``."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def require_non_negative(name: str, value: float) -> float:
    """Return ``value`` if >= 0, else raise ``ValueError``."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def require_in_range(
    name: str,
    value: float,
    low: float,
    high: float,
    *,
    inclusive_low: bool = True,
    inclusive_high: bool = True,
) -> float:
    """Return ``value`` if within ``[low, high]`` (bounds optionally open)."""
    ok_low = value >= low if inclusive_low else value > low
    ok_high = value <= high if inclusive_high else value < high
    if not (ok_low and ok_high):
        lo = "[" if inclusive_low else "("
        hi = "]" if inclusive_high else ")"
        raise ValueError(f"{name} must be in {lo}{low}, {high}{hi}, got {value!r}")
    return value


def require_probability(name: str, value: float) -> float:
    """Return ``value`` if it is a valid probability in ``[0, 1]``."""
    return require_in_range(name, value, 0.0, 1.0)


def require_sorted(name: str, values, *, strict: bool = False) -> None:
    """Raise ``ValueError`` unless ``values`` is (strictly) non-decreasing."""
    prev: Optional[float] = None
    for i, v in enumerate(values):
        if prev is not None:
            bad = v <= prev if strict else v < prev
            if bad:
                kind = "strictly increasing" if strict else "non-decreasing"
                raise ValueError(
                    f"{name} must be {kind}; element {i} = {v!r} after {prev!r}"
                )
        prev = v

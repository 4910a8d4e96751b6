"""Small validation helpers used across the library.

These helpers keep constructor bodies short and produce consistent error
messages, which the test suite asserts against.
"""

from __future__ import annotations

import math
from typing import Any, Optional, Sized, Type


def ensure_positive(value: float, name: str) -> float:
    """Return ``value`` if strictly positive, else raise ``ValueError``."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def ensure_deadline(value: Optional[float], name: str) -> Optional[float]:
    """Return a deadline in seconds if ``None`` or finite and > 0, else raise.

    Zero, negative, NaN and infinite deadlines are refused rather than
    read as "no deadline" or as "already expired".
    """
    if value is not None and not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def ensure_probability(value: float, name: str) -> float:
    """Return ``value`` if in ``[0, 1]``, else raise ``ValueError``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def ensure_in_range(value: float, low: float, high: float, name: str) -> float:
    """Return ``value`` if in ``[low, high]``, else raise ``ValueError``."""
    if not low <= value <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
    return value


def ensure_non_empty(value: Sized, name: str) -> Sized:
    """Return ``value`` if it has at least one element, else raise ``ValueError``."""
    if len(value) == 0:
        raise ValueError(f"{name} must not be empty")
    return value


def ensure_type(value: Any, expected: Type, name: str) -> Any:
    """Return ``value`` if it is an instance of ``expected``, else raise ``TypeError``."""
    if not isinstance(value, expected):
        raise TypeError(
            f"{name} must be of type {expected.__name__}, got {type(value).__name__}"
        )
    return value

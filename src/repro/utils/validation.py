"""Small validation helpers used across the library.

These helpers keep constructor bodies short and produce consistent error
messages, which the test suite asserts against.  Every value refusal is
an :class:`~repro.errors.InvalidArgumentError`, so also a ``ValueError``;
:func:`ensure_type` is a type check and raises ``TypeError``.
"""

from __future__ import annotations

import math
from numbers import Real
from typing import Any, Callable, NamedTuple, Optional, Sized, Type

from repro.errors import InvalidArgumentError


class Rule(NamedTuple):
    """A refusal rule: the values it will ``accept`` and the ``problem`` it
    names for the rest.  The ``ensure_*`` helpers below and the CLI's
    parse-time types share one rule each, so the two cannot drift apart."""

    accept: Callable[[Any], bool]
    problem: str

    def check(self, value: Any, name: str) -> Any:
        """Return ``value`` if the rule accepts it, else refuse it."""
        if not self.accept(value):
            raise InvalidArgumentError(f"{name} {self.problem}, got {value!r}")
        return value


POSITIVE = Rule(lambda value: value > 0, "must be positive")
DEADLINE = Rule(
    lambda value: value > 0 and math.isfinite(value), "must be positive and finite"
)
PROBABILITY = Rule(lambda value: 0.0 <= value <= 1.0, "must be in [0, 1]")


def ensure_positive(value: float, name: str) -> float:
    """Return ``value`` if strictly positive, else refuse it."""
    return POSITIVE.check(value, name)


def ensure_number(
    value: Any, name: str, *, positive: bool = False, integer: bool = False
) -> Any:
    """Return ``value`` if it is a finite number ``>= 0`` (``> 0`` when
    ``positive``), and an ``int`` that is not a ``bool`` when ``integer``;
    else refuse it.

    The domain of every ranking parameter: a NaN or infinite weight or
    ``k1`` ranks by ``nan`` or drops every hit, and a float count reaches
    list slicing deep inside the ranking.
    """
    if isinstance(value, bool) or not isinstance(value, int if integer else Real):
        kind = "an integer" if integer else "a real number"
        raise InvalidArgumentError(f"{name} must be {kind}, got {value!r}")
    if not (value > 0 if positive else value >= 0) or not (
        integer or math.isfinite(value)
    ):
        sign = "positive" if positive else "non-negative"
        raise InvalidArgumentError(
            f"{name} must be {sign}{'' if integer else ' and finite'}, got {value!r}"
        )
    return value


def ensure_deadline(value: Optional[float], name: str) -> Optional[float]:
    """Return a deadline in seconds if ``None`` or finite and > 0, else raise.

    Zero, negative, NaN and infinite deadlines are refused rather than
    read as "no deadline" or as "already expired".
    """
    return value if value is None else DEADLINE.check(value, name)


def ensure_probability(value: float, name: str) -> float:
    """Return ``value`` if in ``[0, 1]``, else refuse it."""
    return PROBABILITY.check(value, name)


def ensure_in_range(value: float, low: float, high: float, name: str) -> float:
    """Return ``value`` if in ``[low, high]``, else refuse it."""
    if not low <= value <= high:
        raise InvalidArgumentError(f"{name} must be in [{low}, {high}], got {value!r}")
    return value


def ensure_non_empty(value: Sized, name: str) -> Sized:
    """Return ``value`` if it has at least one element, else refuse it."""
    if len(value) == 0:
        raise InvalidArgumentError(f"{name} must not be empty")
    return value



def ensure_type(value: Any, expected: Type, name: str) -> Any:
    """Return ``value`` if it is an instance of ``expected``, else raise ``TypeError``."""
    if not isinstance(value, expected):
        raise TypeError(
            f"{name} must be of type {expected.__name__}, got {type(value).__name__}"
        )
    return value

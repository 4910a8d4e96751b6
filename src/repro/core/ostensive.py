"""Ostensive evidence weighting (Campbell & van Rijsbergen).

The ostensive model holds that evidence from the user's recent behaviour
should count for more than older evidence, because "the users' information
need can change within different retrieval sessions and sometimes even
within the same session".  This module provides the discount profiles used
by the adaptive model's evidence accumulation: given how many query
iterations ago a piece of evidence was observed, return its discount factor.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.errors import InvalidArgumentError
from repro.utils.validation import ensure_in_range, ensure_positive

#: Discount profile names accepted by :func:`make_discount`.
DISCOUNT_PROFILES = ("uniform", "exponential", "reciprocal", "linear")


def uniform_discount(age: int) -> float:
    """No discounting: every iteration counts the same (the static model)."""
    if age < 0:
        raise InvalidArgumentError("age must be non-negative")
    return 1.0


def exponential_discount(age: int, base: float = 0.7) -> float:
    """Exponential decay with the given base per iteration of age."""
    if age < 0:
        raise InvalidArgumentError("age must be non-negative")
    ensure_in_range(base, 0.0, 1.0, "base")
    return base ** age

def reciprocal_discount(age: int) -> float:
    """Reciprocal decay: 1, 1/2, 1/3, ... (Campbell's original proposal)."""
    if age < 0:
        raise InvalidArgumentError("age must be non-negative")
    return 1.0 / (age + 1)


def linear_discount(age: int, horizon: int = 6) -> float:
    """Linear decay hitting zero after ``horizon`` iterations."""
    if age < 0:
        raise InvalidArgumentError("age must be non-negative")
    ensure_positive(horizon, "horizon")
    return max(0.0, 1.0 - age / horizon)


def make_discount(profile: str, **kwargs: float) -> Callable[[int], float]:
    """Build a discount function by name.

    ``profile`` is one of :data:`DISCOUNT_PROFILES`; keyword arguments are
    forwarded to the underlying function (``base`` for exponential,
    ``horizon`` for linear).
    """
    if profile == "uniform":
        return uniform_discount
    if profile == "exponential":
        base = float(kwargs.get("base", 0.7))
        return lambda age: exponential_discount(age, base=base)
    if profile == "reciprocal":
        return reciprocal_discount
    if profile == "linear":
        horizon = int(kwargs.get("horizon", 6))
        return lambda age: linear_discount(age, horizon=horizon)
    raise InvalidArgumentError(
        f"unknown discount profile {profile!r}; expected one of {DISCOUNT_PROFILES}"
    )


class OstensiveAccumulator:
    """Accumulates per-item evidence with iteration-age discounting.

    :class:`repro.feedback.accumulator.EvidenceAccumulator` folds a
    session's implicit evidence through one, and :func:`compare_profiles`
    runs several over the same observation history (the E7 ablation).

    Maintenance is **incremental**, and the accumulator keeps only the
    history its discount still reads:

    * ``uniform`` and ``exponential`` keep a *running* total and no
      history — observing an iteration costs O(delta) (plus, for
      exponential, one in-place decay sweep of the running total), and
      reading the weighted evidence is a dictionary copy.  The exponential
      running total is the left fold ``total = base * total + delta``, the
      exact fold :class:`~repro.feedback.accumulator.EvidenceAccumulator`
      applies live in a session (it differs from summing ``base ** age``
      factor terms in the last ulp).
    * ``reciprocal`` and ``linear`` cannot fold into one total (every new
      iteration re-weights all previous ages), so the history is kept as
      per-age partial sums — each entry is the aggregated evidence of one
      iteration — and the weighted combination is computed *lazily*: it is
      cached until the next iteration arrives, so any number of reads
      between observations costs one dictionary copy.  The linear profile
      keeps only the ``horizon`` newest iterations (older ages carry factor
      0 forever), making its memory O(horizon) and its recompute
      O(horizon × items); the reciprocal profile needs every age.

    An accumulator built directly from a ``discount`` callable keeps every
    iteration and combines them by factor, with the same lazy cache.
    """

    def __init__(
        self,
        discount: Optional[Callable[[int], float]] = None,
        profile: Optional[str] = None,
        base: float = 0.7,
        horizon: int = 6,
    ) -> None:
        if discount is None and profile is None:
            raise InvalidArgumentError("provide a discount callable or a profile name")
        if profile is not None:
            if profile not in DISCOUNT_PROFILES:
                raise InvalidArgumentError(
                    f"unknown discount profile {profile!r}; "
                    f"expected one of {DISCOUNT_PROFILES}"
                )
            if discount is not None:
                raise InvalidArgumentError("pass either discount or profile, not both")
            discount = make_discount(profile, base=base, horizon=horizon)
        self.discount = discount
        self._profile = profile
        self._base = base
        self._horizon = horizon
        # Per-iteration evidence, for the profiles that cannot fold.
        self._history: List[Dict[str, float]] = []
        self._iterations = 0
        # Running total for the foldable profiles (uniform / exponential).
        self._running: Dict[str, float] = {}
        # Lazy combination cache for the factor-based profiles.
        self._lazy_cache: Optional[Dict[str, float]] = None
        # Per-age discount factors, extended on demand (pure function of age).
        self._factors: List[float] = []

    @classmethod
    def for_profile(
        cls,
        profile: str,
        base: float = 0.7,
        horizon: int = 6,
    ) -> "OstensiveAccumulator":
        """Build an accumulator for a named discount profile (one of
        :data:`DISCOUNT_PROFILES`)."""
        return cls(profile=profile, base=base, horizon=horizon)

    @property
    def profile(self) -> Optional[str]:
        """The discount profile name, when built with :meth:`for_profile`."""
        return self._profile

    def observe_iteration(self, evidence: Mapping[str, float]) -> None:
        """Record one query iteration's worth of per-item evidence."""
        self._iterations += 1
        if self._profile == "uniform":
            running = self._running
            for item_id, mass in evidence.items():
                running[item_id] = running.get(item_id, 0.0) + mass
        elif self._profile == "exponential":
            running = self._running
            base = self._base
            for item_id in running:
                running[item_id] *= base
            for item_id, mass in evidence.items():
                running[item_id] = running.get(item_id, 0.0) + mass
        else:
            self._lazy_cache = None
            self._history.append(dict(evidence))
            if self._profile == "linear" and len(self._history) > self._horizon:
                # Ages beyond the linear horizon carry factor 0 forever, so
                # the oldest entries can never influence a read again.
                del self._history[0 : len(self._history) - self._horizon]

    @property
    def iteration_count(self) -> int:
        """Number of iterations observed."""
        return self._iterations

    def _factor(self, age: int) -> float:
        factors = self._factors
        while len(factors) <= age:
            factors.append(self.discount(len(factors)))
        return factors[age]

    def _combine_factored(self) -> Dict[str, float]:
        """Factor-based combination over the kept history."""
        combined: Dict[str, float] = {}
        latest = len(self._history) - 1
        for index, iteration_evidence in enumerate(self._history):
            factor = self._factor(latest - index)
            if factor <= 0:
                continue
            for item_id, mass in iteration_evidence.items():
                combined[item_id] = combined.get(item_id, 0.0) + factor * mass
        return combined

    def weighted_evidence(self) -> Dict[str, float]:
        """Combined evidence with the discount applied by iteration age.

        The most recent iteration has age 0, the one before it age 1, etc.
        Incremental for ``uniform``/``exponential``; lazily cached between
        iterations otherwise.
        """
        return dict(self.weighted_evidence_view())

    def weighted_evidence_view(self) -> Mapping[str, float]:
        """The combined evidence **without copying** (treat as read-only).

        The returned mapping is the accumulator's own running total (or its
        lazy cache) and is only valid until the next
        :meth:`observe_iteration`.  Hot paths that read the evidence once
        per query use this to avoid a per-read dictionary copy.
        """
        if self._profile in ("uniform", "exponential"):
            return self._running
        if self._lazy_cache is None:
            self._lazy_cache = self._combine_factored()
        return self._lazy_cache

    def reset(self) -> None:
        """Forget all observed iterations."""
        self._history.clear()
        self._running.clear()
        self._lazy_cache = None
        self._iterations = 0


def compare_profiles(
    history: Sequence[Mapping[str, float]], profiles: Sequence[str] = DISCOUNT_PROFILES
) -> Dict[str, Dict[str, float]]:
    """Apply several discount profiles to the same observation history.

    Returns ``{profile_name: weighted_evidence}``; used by the ostensive
    ablation bench to show how the profiles react to an interest shift.
    """
    results: Dict[str, Dict[str, float]] = {}
    for profile in profiles:
        accumulator = OstensiveAccumulator.for_profile(profile)
        for iteration_evidence in history:
            accumulator.observe_iteration(iteration_evidence)
        results[profile] = accumulator.weighted_evidence()
    return results

"""Adaptation policies: named parameterisations of the adaptive model.

A policy bundles every knob of the adaptive retrieval model — whether
profile evidence is used, whether implicit evidence is used, how they are
weighted, which ostensive discount applies, how many expansion terms are
injected — so that experiments can compare configurations by name
("baseline" vs "implicit" vs "profile" vs "combined") instead of threading
a dozen keyword arguments around.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

from repro.core.ostensive import DISCOUNT_PROFILES
from repro.errors import InvalidArgumentError
from repro.utils.validation import ensure_in_range, ensure_positive


@dataclass(frozen=True)
class AdaptationPolicy:
    """Configuration of the adaptive retrieval model.

    Attributes
    ----------
    name:
        Human-readable policy name used in experiment output.
    use_profile / use_implicit / use_explicit:
        Which evidence sources are active.
    profile_weight:
        Interpolation weight of profile evidence in re-ranking.
    implicit_weight:
        Interpolation weight of implicit-feedback evidence in re-ranking.
    expansion_terms:
        How many key terms extracted from positively-judged shots are added
        to the query on each iteration (0 disables implicit expansion).
    ostensive_profile / ostensive_base / ostensive_horizon:
        The ostensive discount applied to implicit evidence across query
        iterations ("uniform" reproduces static accumulation; ``base``
        parameterises the exponential profile, ``horizon`` the linear one).
    visual_propagation:
        Weight with which implicit evidence spreads to visually similar
        shots (0 disables propagation).
    demote_seen:
        Penalty applied to shots the user has already inspected.
    """

    name: str
    use_profile: bool = False
    use_implicit: bool = False
    use_explicit: bool = False
    profile_weight: float = 0.2
    implicit_weight: float = 0.35
    expansion_terms: int = 10
    ostensive_profile: str = "exponential"
    ostensive_base: float = 0.7
    ostensive_horizon: int = 6
    visual_propagation: float = 0.2
    demote_seen: float = 0.0

    def __post_init__(self) -> None:
        ensure_in_range(self.profile_weight, 0.0, 1.0, "profile_weight")
        ensure_in_range(self.implicit_weight, 0.0, 1.0, "implicit_weight")
        ensure_in_range(self.visual_propagation, 0.0, 1.0, "visual_propagation")
        ensure_in_range(self.demote_seen, 0.0, 1.0, "demote_seen")
        ensure_in_range(self.ostensive_base, 0.0, 1.0, "ostensive_base")
        ensure_positive(self.ostensive_horizon, "ostensive_horizon")
        if self.ostensive_profile not in DISCOUNT_PROFILES:
            raise InvalidArgumentError(
                f"unknown ostensive profile {self.ostensive_profile!r}; "
                f"expected one of {DISCOUNT_PROFILES}"
            )
        if self.expansion_terms < 0:
            raise InvalidArgumentError("expansion_terms must be non-negative")

    def with_overrides(self, **overrides: object) -> "AdaptationPolicy":
        """A copy of this policy with some fields replaced."""
        return replace(self, **overrides)

    def describe(self) -> Dict[str, object]:
        """Dictionary view for experiment reports."""
        return {
            "name": self.name,
            "use_profile": self.use_profile,
            "use_implicit": self.use_implicit,
            "use_explicit": self.use_explicit,
            "profile_weight": self.profile_weight,
            "implicit_weight": self.implicit_weight,
            "expansion_terms": self.expansion_terms,
            "ostensive_profile": self.ostensive_profile,
            "ostensive_base": self.ostensive_base,
            "ostensive_horizon": self.ostensive_horizon,
            "visual_propagation": self.visual_propagation,
            "demote_seen": self.demote_seen,
        }


def baseline_policy() -> AdaptationPolicy:
    """No adaptation at all: the plain retrieval engine."""
    return AdaptationPolicy(name="baseline", use_profile=False, use_implicit=False)


def profile_only_policy() -> AdaptationPolicy:
    """Static-profile personalisation only."""
    return AdaptationPolicy(name="profile_only", use_profile=True, use_implicit=False)


def implicit_only_policy() -> AdaptationPolicy:
    """Implicit-feedback adaptation only."""
    return AdaptationPolicy(name="implicit_only", use_profile=False, use_implicit=True)


def explicit_policy() -> AdaptationPolicy:
    """Classic explicit relevance feedback (Rocchio-style), no implicit evidence."""
    return AdaptationPolicy(
        name="explicit", use_profile=False, use_implicit=False, use_explicit=True
    )


def combined_policy() -> AdaptationPolicy:
    """The paper's proposal: static profile plus implicit feedback."""
    return AdaptationPolicy(
        name="combined", use_profile=True, use_implicit=True, use_explicit=False
    )


def full_policy() -> AdaptationPolicy:
    """Everything switched on (profile + implicit + explicit)."""
    return AdaptationPolicy(
        name="full", use_profile=True, use_implicit=True, use_explicit=True
    )


def standard_policies() -> Tuple[AdaptationPolicy, ...]:
    """The policy sweep used by the profile-combination experiment (E4)."""
    return (
        baseline_policy(),
        profile_only_policy(),
        implicit_only_policy(),
        combined_policy(),
    )

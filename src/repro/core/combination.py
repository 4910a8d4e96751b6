"""Combining static-profile and implicit-feedback evidence.

The paper's third research question asks "how both static user profiles and
implicit relevance feedback should be combined to adapt to the user's need".
The strategies here cover the obvious design space:

* ``linear`` — a fixed-weight interpolation of the two evidence sources;
* ``cold_start`` — profile evidence dominates early in a session (when
  little implicit evidence exists) and implicit evidence takes over as it
  accumulates; and
* ``profile_gate`` — implicit evidence is trusted only on shots whose
  category the profile already likes (a conservative combination).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.errors import InvalidArgumentError
from repro.profiles.profile import UserProfile
from repro.utils.validation import ensure_in_range

COMBINATION_STRATEGIES = ("linear", "cold_start", "profile_gate")


@dataclass(frozen=True)
class CombinationConfig:
    """Parameters of the evidence combination."""

    strategy: str = "cold_start"
    profile_weight: float = 0.4
    implicit_weight: float = 0.6
    cold_start_evidence_scale: float = 3.0
    gate_floor: float = 0.2

    def __post_init__(self) -> None:
        if self.strategy not in COMBINATION_STRATEGIES:
            raise InvalidArgumentError(
                f"unknown combination strategy {self.strategy!r}; "
                f"expected one of {COMBINATION_STRATEGIES}"
            )
        ensure_in_range(self.profile_weight, 0.0, 1.0, "profile_weight")
        ensure_in_range(self.implicit_weight, 0.0, 1.0, "implicit_weight")
        ensure_in_range(self.gate_floor, 0.0, 1.0, "gate_floor")
        if self.cold_start_evidence_scale <= 0:
            raise InvalidArgumentError("cold_start_evidence_scale must be positive")


class EvidenceCombiner:
    """Combines profile affinity scores and implicit evidence scores."""

    def __init__(self, config: CombinationConfig = CombinationConfig()) -> None:
        self._config = config

    @property
    def config(self) -> CombinationConfig:
        """The combination configuration."""
        return self._config

    # -- combination ---------------------------------------------------------------------

    def combine(
        self,
        profile_scores: Mapping[str, float],
        implicit_scores: Mapping[str, float],
        profile: Optional[UserProfile] = None,
        category_lookup: Optional[Mapping[str, str]] = None,
    ) -> Dict[str, float]:
        """Combine the two evidence maps according to the configured strategy.

        ``category_lookup`` is a ``{shot_id: category}`` mapping (a session
        passes :attr:`~repro.core.adaptation_kernel.SharedAdaptationState.
        shot_categories`); the ``profile_gate`` strategy reads each shot's
        category from it.  A shot it does not know, or a call without a
        profile or a lookup, is not gated.
        """
        strategy = self._config.strategy
        if strategy == "linear":
            return self._linear(profile_scores, implicit_scores)
        if strategy == "cold_start":
            return self._cold_start(profile_scores, implicit_scores)
        return self._profile_gate(profile_scores, implicit_scores, profile, category_lookup)

    def _linear(
        self, profile_scores: Mapping[str, float], implicit_scores: Mapping[str, float]
    ) -> Dict[str, float]:
        combined: Dict[str, float] = {}
        for shot_id, score in profile_scores.items():
            combined[shot_id] = combined.get(shot_id, 0.0) + self._config.profile_weight * score
        for shot_id, score in implicit_scores.items():
            combined[shot_id] = combined.get(shot_id, 0.0) + self._config.implicit_weight * score
        return combined

    def _cold_start(
        self, profile_scores: Mapping[str, float], implicit_scores: Mapping[str, float]
    ) -> Dict[str, float]:
        """Shift weight from the profile to implicit evidence as it accumulates.

        The implicit share grows as ``m / (m + s)`` where ``m`` is the total
        positive implicit mass and ``s`` the cold-start scale: with no
        implicit evidence the profile decides alone; after a few interactions
        the implicit evidence dominates.
        """
        total_mass = sum(max(0.0, score) for score in implicit_scores.values())
        implicit_share = total_mass / (total_mass + self._config.cold_start_evidence_scale)
        profile_share = 1.0 - implicit_share
        combined: Dict[str, float] = {}
        for shot_id, score in profile_scores.items():
            combined[shot_id] = combined.get(shot_id, 0.0) + profile_share * score
        for shot_id, score in implicit_scores.items():
            combined[shot_id] = combined.get(shot_id, 0.0) + implicit_share * score
        return combined

    def _profile_gate(
        self,
        profile_scores: Mapping[str, float],
        implicit_scores: Mapping[str, float],
        profile: Optional[UserProfile],
        category_lookup: Optional[Mapping[str, str]],
    ) -> Dict[str, float]:
        """Scale implicit evidence by the profile's interest in the shot's category."""
        combined: Dict[str, float] = {}
        for shot_id, score in profile_scores.items():
            combined[shot_id] = combined.get(shot_id, 0.0) + self._config.profile_weight * score
        for shot_id, score in implicit_scores.items():
            gate = 1.0
            if profile is not None and category_lookup is not None:
                category = category_lookup.get(shot_id)
                if category is not None:
                    gate = max(
                        self._config.gate_floor, profile.interest_in_category(category)
                    )
            combined[shot_id] = combined.get(shot_id, 0.0) + (
                self._config.implicit_weight * gate * score
            )
        return combined

"""Static user profiles.

A :class:`UserProfile` is the "user-initiated personalisation" object from
the paper's background section: demographics plus a vector of declared
interests over the category ontology, optionally refined with term-level and
concept-level weights.  Profiles are *static* in the sense that they change
only when the user (or the profile learner) explicitly updates them — the
within-session dynamics belong to the implicit feedback model instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.utils.validation import ensure_in_range


@dataclass
class Demographics:
    """Optional registration-time information about a user."""

    age_group: str = "unspecified"
    occupation: str = "unspecified"
    region: str = "unspecified"
    expertise: str = "novice"  # "novice" or "expert"

    def is_expert(self) -> bool:
        """True if the user declared themselves an expert searcher."""
        return self.expertise == "expert"


@dataclass
class UserProfile:
    """A static interest profile over categories, terms and concepts.

    Attributes
    ----------
    user_id:
        Identifier of the profile's owner.
    category_interests:
        ``{category: weight}`` with weights in ``[0, 1]``; the declared
        interest in each news category.
    term_interests:
        Optional finer-grained ``{term: weight}`` interests (e.g. favourite
        football club), produced mostly by the profile learner.
    concept_interests:
        Optional ``{concept: weight}`` interests over the visual concept
        vocabulary.
    demographics:
        Registration-time information.
    """

    user_id: str
    category_interests: Dict[str, float] = field(default_factory=dict)
    term_interests: Dict[str, float] = field(default_factory=dict)
    concept_interests: Dict[str, float] = field(default_factory=dict)
    demographics: Demographics = field(default_factory=Demographics)

    def __post_init__(self) -> None:
        for category, weight in self.category_interests.items():
            ensure_in_range(weight, 0.0, 1.0, f"interest in {category!r}")

    # -- queries -------------------------------------------------------------

    def interest_in_category(self, category: str) -> float:
        """Declared interest in a category (0 if unknown)."""
        return self.category_interests.get(category, 0.0)

    def interest_in_term(self, term: str) -> float:
        """Interest weight attached to a term (0 if unknown)."""
        return self.term_interests.get(term, 0.0)

    def interest_in_concept(self, concept: str) -> float:
        """Interest weight attached to a visual concept (0 if unknown)."""
        return self.concept_interests.get(concept, 0.0)

    def top_categories(self, count: int = 3) -> list:
        """The user's ``count`` strongest category interests."""
        ranked = sorted(
            self.category_interests.items(), key=lambda item: (-item[1], item[0])
        )
        return [category for category, weight in ranked[:count] if weight > 0]

    def is_empty(self) -> bool:
        """True if the profile carries no interest information at all."""
        return not (
            any(self.category_interests.values())
            or any(self.term_interests.values())
            or any(self.concept_interests.values())
        )

    # -- mutation --------------------------------------------------------------

    def set_category_interest(self, category: str, weight: float) -> None:
        """Declare (or update) interest in a category."""
        ensure_in_range(weight, 0.0, 1.0, f"interest in {category!r}")
        self.category_interests[category] = weight

    def boost_term_interest(self, term: str, delta: float) -> None:
        """Additively update a term-level interest, clamped to ``[0, 1]``."""
        current = self.term_interests.get(term, 0.0)
        self.term_interests[term] = min(1.0, max(0.0, current + delta))

    def boost_concept_interest(self, concept: str, delta: float) -> None:
        """Additively update a concept-level interest, clamped to ``[0, 1]``."""
        current = self.concept_interests.get(concept, 0.0)
        self.concept_interests[concept] = min(1.0, max(0.0, current + delta))

    def decay(self, factor: float) -> None:
        """Multiplicatively decay all interests (used by long-term forgetting)."""
        ensure_in_range(factor, 0.0, 1.0, "factor")
        self.category_interests = {
            key: value * factor for key, value in self.category_interests.items()
        }
        self.term_interests = {
            key: value * factor for key, value in self.term_interests.items()
        }
        self.concept_interests = {
            key: value * factor for key, value in self.concept_interests.items()
        }

    # -- (de)serialisation -------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """Plain-dictionary view for persistence."""
        return {
            "user_id": self.user_id,
            "category_interests": dict(self.category_interests),
            "term_interests": dict(self.term_interests),
            "concept_interests": dict(self.concept_interests),
            "demographics": {
                "age_group": self.demographics.age_group,
                "occupation": self.demographics.occupation,
                "region": self.demographics.region,
                "expertise": self.demographics.expertise,
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "UserProfile":
        """Rebuild a profile from :meth:`as_dict` output."""
        demographics_payload = dict(payload.get("demographics", {}))
        return cls(
            user_id=str(payload["user_id"]),
            category_interests=dict(payload.get("category_interests", {})),
            term_interests=dict(payload.get("term_interests", {})),
            concept_interests=dict(payload.get("concept_interests", {})),
            demographics=Demographics(
                age_group=str(demographics_payload.get("age_group", "unspecified")),
                occupation=str(demographics_payload.get("occupation", "unspecified")),
                region=str(demographics_payload.get("region", "unspecified")),
                expertise=str(demographics_payload.get("expertise", "novice")),
            ),
        )

    @classmethod
    def single_interest(cls, user_id: str, category: str, weight: float = 1.0) -> "UserProfile":
        """A profile interested in exactly one category (common in tests)."""
        return cls(user_id=user_id, category_interests={category: weight})

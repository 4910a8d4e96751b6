"""Indicator weighting schemes (the paper's second research question).

Given per-shot indicator strengths, a weighting scheme turns them into a
single relevance-evidence score per shot.  The paper asks "how these
features have to be weighted to increase retrieval performance — it is not
clear which features are stronger and which are weaker indicators of
relevance".  Experiment E3 sweeps the schemes below; the learned scheme
additionally shows how weights can be fitted from logged sessions plus
qrels, which is exactly the simulation-based tuning methodology of
Section 2.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Tuple

from repro.collection.qrels import Qrels
from repro.errors import InvalidArgumentError
from repro.feedback.indicators import INDICATOR_NAMES

#: Indicators that carry negative evidence; their weights are applied with a
#: minus sign by every scheme.
NEGATIVE_INDICATORS = frozenset({"explicit_negative", "skip"})


@dataclass(frozen=True)
class WeightingScheme:
    """A named assignment of weights to implicit indicators."""

    name: str
    weights: Mapping[str, float] = field(default_factory=dict)
    description: str = ""

    def weight(self, indicator: str) -> float:
        """The (non-negative) weight of an indicator under this scheme."""
        return float(self.weights.get(indicator, 0.0))

    def evidence_for_shot(self, indicator_strengths: Mapping[str, float]) -> float:
        """Combine one shot's indicator strengths into a single evidence score.

        Positive indicators add ``weight * strength``; negative indicators
        subtract it.  The result can be negative (net disinterest).
        """
        evidence = 0.0
        for indicator, strength in indicator_strengths.items():
            weight = self.weight(indicator)
            if weight == 0.0:
                continue
            if indicator in NEGATIVE_INDICATORS:
                evidence -= weight * strength
            else:
                evidence += weight * strength
        return evidence

    def evidence_map(
        self, per_shot_strengths: Mapping[str, Mapping[str, float]]
    ) -> Dict[str, float]:
        """Evidence scores for every shot in an indicator-strength map."""
        return {
            shot_id: self.evidence_for_shot(strengths)
            for shot_id, strengths in per_shot_strengths.items()
        }


def uniform_scheme() -> WeightingScheme:
    """Every implicit indicator counts the same (explicit ones too)."""
    return WeightingScheme(
        name="uniform",
        weights={name: 1.0 for name in INDICATOR_NAMES},
        description="all indicators weighted equally",
    )


def binary_click_scheme() -> WeightingScheme:
    """Only the click-to-play indicator counts (the web-search-style baseline)."""
    return WeightingScheme(
        name="binary_click",
        weights={"play_click": 1.0},
        description="click-through only",
    )


def heuristic_scheme() -> WeightingScheme:
    """Hand-tuned weights reflecting the interaction-cost intuition.

    Actions that cost the user more effort (adding to a playlist, expanding
    metadata, watching a clip to its end) are stronger indicators than cheap
    incidental actions (browsing, hovering), mirroring the ordering prior
    work found in the text domain.
    """
    return WeightingScheme(
        name="heuristic",
        weights={
            "play_click": 0.4,
            "play_duration": 0.9,
            "play_complete": 1.0,
            "browse": 0.05,
            "hover": 0.15,
            "seek": 0.5,
            "metadata": 0.6,
            "playlist": 1.0,
            "select": 0.4,
            "explicit_positive": 1.2,
            "explicit_negative": 1.2,
            "skip": 0.4,
        },
        description="effort-weighted hand-tuned scheme",
    )


def explicit_only_scheme() -> WeightingScheme:
    """Only explicit judgements count (the classic relevance-feedback baseline)."""
    return WeightingScheme(
        name="explicit_only",
        weights={"explicit_positive": 1.0, "explicit_negative": 1.0},
        description="explicit feedback only",
    )


def dwell_only_scheme() -> WeightingScheme:
    """Only viewing time counts (for the dwell-time reliability experiment)."""
    return WeightingScheme(
        name="dwell_only",
        weights={"play_duration": 1.0, "play_complete": 1.0},
        description="viewing time only",
    )


def default_schemes() -> Tuple[WeightingScheme, ...]:
    """The scheme sweep used by experiment E3."""
    return (
        binary_click_scheme(),
        uniform_scheme(),
        heuristic_scheme(),
        dwell_only_scheme(),
        explicit_only_scheme(),
    )


class IndicatorWeightLearner:
    """Learns indicator weights from logged sessions and relevance judgements.

    For each indicator the learner computes its *precision*: among the shots
    on which the indicator fired, the (strength-weighted) fraction that were
    truly relevant to the topic of the session in which they fired.  The
    learned weight is ``max(0, 2 * precision - 1)`` — an indicator that fires
    on relevant and non-relevant shots alike (precision 0.5) gets weight 0,
    one that only fires on relevant shots gets weight 1.  Negative indicators
    are learned against *non*-relevance instead.

    This simple estimator is intentionally transparent: the point of the
    reproduction is to show that weights fitted from simulation logs beat
    uniform weighting, not to ship the best possible learning-to-rank model.
    """

    def __init__(self, smoothing: float = 1.0) -> None:
        if smoothing < 0:
            raise InvalidArgumentError("smoothing must be non-negative")
        self._smoothing = smoothing

    def indicator_precisions(
        self,
        observations: Iterable[Tuple[str, Mapping[str, Mapping[str, float]]]],
        qrels: Qrels,
    ) -> Dict[str, float]:
        """Per-indicator precision over ``(topic_id, per_shot_strengths)`` pairs."""
        hits: Dict[str, float] = {name: 0.0 for name in INDICATOR_NAMES}
        mass: Dict[str, float] = {name: 0.0 for name in INDICATOR_NAMES}
        for topic_id, per_shot in observations:
            for shot_id, strengths in per_shot.items():
                relevant = qrels.is_relevant(topic_id, shot_id)
                for indicator, strength in strengths.items():
                    if strength <= 0:
                        continue
                    mass[indicator] = mass.get(indicator, 0.0) + strength
                    target_is_relevance = indicator not in NEGATIVE_INDICATORS
                    if relevant == target_is_relevance:
                        hits[indicator] = hits.get(indicator, 0.0) + strength
        precisions: Dict[str, float] = {}
        for indicator in set(hits) | set(mass):
            denominator = mass.get(indicator, 0.0) + 2 * self._smoothing
            precisions[indicator] = (
                (hits.get(indicator, 0.0) + self._smoothing) / denominator
                if denominator > 0
                else 0.5
            )
        return precisions

    def learn(
        self,
        observations: Iterable[Tuple[str, Mapping[str, Mapping[str, float]]]],
        qrels: Qrels,
        name: str = "learned",
    ) -> WeightingScheme:
        """Fit a weighting scheme from logged observations and qrels."""
        precisions = self.indicator_precisions(observations, qrels)
        weights = {
            indicator: max(0.0, 2.0 * precision - 1.0)
            for indicator, precision in precisions.items()
        }
        return WeightingScheme(
            name=name,
            weights=weights,
            description="weights fitted from simulated session logs",
        )

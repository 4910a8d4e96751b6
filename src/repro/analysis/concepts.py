"""High-level concept detection (simulated TRECVID feature detectors).

The paper observes that "the approaches of using visual features and
automatically detecting high level concepts, as mainly studied within
TRECVID, turned out to be not efficient enough to bridge the semantic gap".
To reproduce that regime we model concept detectors as *noisy observers of
the ground-truth concept labels*: for each shot and concept, the detector
emits a confidence score whose distribution depends on whether the concept
is truly present and on the detector's configured accuracy.  Detector
quality is therefore a dial that experiments (and ablation benches) can turn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.collection.documents import Collection, Shot
from repro.collection.generator import CATEGORY_CONCEPTS
from repro.errors import InvalidArgumentError
from repro.utils.rng import RandomSource
from repro.utils.validation import ensure_in_range


def all_concepts() -> List[str]:
    """The full concept vocabulary used by the synthetic collection."""
    concepts = set()
    for values in CATEGORY_CONCEPTS.values():
        concepts.update(values)
    return sorted(concepts)


@dataclass(frozen=True)
class ConceptDetectorConfig:
    """Quality parameters of the simulated concept detectors.

    ``positive_mean`` and ``negative_mean`` are the mean confidence scores
    for shots that do / do not contain the concept; ``score_sigma`` controls
    the overlap between the two distributions (larger sigma = worse
    detector).  The defaults give detectors in the "useful but unreliable"
    band that TRECVID-era systems exhibited.
    """

    positive_mean: float = 0.72
    negative_mean: float = 0.28
    score_sigma: float = 0.18

    def __post_init__(self) -> None:
        ensure_in_range(self.positive_mean, 0.0, 1.0, "positive_mean")
        ensure_in_range(self.negative_mean, 0.0, 1.0, "negative_mean")
        if self.negative_mean > self.positive_mean:
            raise InvalidArgumentError("negative_mean must not exceed positive_mean")
        if self.score_sigma < 0:
            raise InvalidArgumentError("score_sigma must be non-negative")

    @classmethod
    def strong(cls) -> "ConceptDetectorConfig":
        """A well-separated (modern-quality) detector bank."""
        return cls(positive_mean=0.85, negative_mean=0.15, score_sigma=0.10)

    @classmethod
    def weak(cls) -> "ConceptDetectorConfig":
        """A barely-better-than-chance detector bank."""
        return cls(positive_mean=0.58, negative_mean=0.42, score_sigma=0.25)


class ConceptDetectorBank:
    """A bank of per-concept detectors producing confidence scores."""

    def __init__(
        self,
        concepts: Sequence[str] = (),
        config: ConceptDetectorConfig = ConceptDetectorConfig(),
        seed: int = 401,
    ) -> None:
        self._concepts = list(concepts) if concepts else all_concepts()
        self._config = config
        self._seed = int(seed)

    @property
    def concepts(self) -> List[str]:
        """The concepts this bank can score."""
        return list(self._concepts)

    @property
    def config(self) -> ConceptDetectorConfig:
        """The detector quality configuration."""
        return self._config

    def score_shot(self, shot: Shot) -> Dict[str, float]:
        """Confidence scores for every concept on one shot."""
        rng = RandomSource(self._seed).spawn("concept-scores", shot.shot_id)
        truth = set(shot.concepts)
        scores: Dict[str, float] = {}
        for concept in self._concepts:
            mean = (
                self._config.positive_mean
                if concept in truth
                else self._config.negative_mean
            )
            value = rng.gauss(mean, self._config.score_sigma)
            scores[concept] = min(1.0, max(0.0, value))
        return scores

    def annotate_collection(self, collection: Collection) -> None:
        """Fill ``shot.concept_scores`` for every shot in the collection."""
        for shot in collection.iter_shots():
            shot.concept_scores = self.score_shot(shot)

    # -- evaluation --------------------------------------------------------------

    def detector_quality(
        self, shots: Iterable[Shot], concept: str
    ) -> Dict[str, float]:
        """Average precision and AUC-style separation for one detector.

        Returns a dictionary with ``average_precision`` and ``auc`` computed
        from the detector's scores against the ground-truth labels.
        """
        scored: List[Tuple[float, bool]] = []
        for shot in shots:
            score = shot.concept_scores.get(concept)
            if score is None:
                score = self.score_shot(shot)[concept]
            scored.append((score, concept in shot.concepts))
        scored.sort(key=lambda item: item[0], reverse=True)
        relevant_total = sum(1 for _score, positive in scored if positive)
        if relevant_total == 0 or relevant_total == len(scored):
            return {"average_precision": 0.0, "auc": 0.5}
        hits = 0
        precision_sum = 0.0
        for rank, (_score, positive) in enumerate(scored, start=1):
            if positive:
                hits += 1
                precision_sum += hits / rank
        average_precision = precision_sum / relevant_total
        # AUC via the rank-sum (Mann-Whitney) formulation.
        positive_rank_sum = sum(
            rank for rank, (_score, positive) in enumerate(scored, start=1) if positive
        )
        negatives = len(scored) - relevant_total
        auc_numerator = positive_rank_sum - relevant_total * (relevant_total + 1) / 2.0
        auc = 1.0 - auc_numerator / (relevant_total * negatives)
        return {"average_precision": average_precision, "auc": auc}

"""Score fusion across evidence sources (text, visual, concepts, feedback).

Multimodal video retrieval combines several rankings for the same query.
The fusion operators here are the standard ones from the metasearch
literature — CombSUM, CombMNZ, weighted linear combination and reciprocal
rank fusion — operating on ``{document_id: score}`` mappings.  All operators
min-max normalise their inputs first so that sources with different score
scales (BM25 vs. cosine similarity vs. feedback mass) can be mixed.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Mapping, Sequence

from repro.errors import InvalidArgumentError
from repro.utils.validation import ensure_non_empty

ScoreMap = Mapping[str, float]


def normalisation_bounds_of_values(values) -> tuple:
    """``(low, span)`` of an iterable of scores for min-max normalisation.

    ``span`` is 0.0 for constant inputs, which normalise to 1.0 by
    convention.  Shared by every operator, the engine's single-source fast
    path and the adaptation kernel, so the convention lives in exactly one
    place.  ``values`` may be any re-iterable container (list, dict view).
    """
    low = min(values)
    return low, max(values) - low


def normalisation_bounds(scores: ScoreMap) -> tuple:
    """``(low, span)`` of a score map for min-max normalisation."""
    return normalisation_bounds_of_values(scores.values())


def min_max_normalise(scores: ScoreMap) -> Dict[str, float]:
    """Normalise scores to ``[0, 1]``; constant inputs map to 1.0."""
    if not scores:
        return {}
    low, span = normalisation_bounds(scores)
    if span == 0.0:
        return {document_id: 1.0 for document_id in scores}
    return {
        document_id: (value - low) / span
        for document_id, value in scores.items()
    }


def comb_sum(score_maps: Sequence[ScoreMap]) -> Dict[str, float]:
    """CombSUM: sum of normalised scores across sources."""
    ensure_non_empty(score_maps, "score_maps")
    fused: Dict[str, float] = {}
    for scores in score_maps:
        for document_id, value in min_max_normalise(scores).items():
            fused[document_id] = fused.get(document_id, 0.0) + value
    return fused


def comb_mnz(score_maps: Sequence[ScoreMap]) -> Dict[str, float]:
    """CombMNZ: CombSUM multiplied by the number of sources that matched."""
    ensure_non_empty(score_maps, "score_maps")
    sums: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for scores in score_maps:
        for document_id, value in min_max_normalise(scores).items():
            sums[document_id] = sums.get(document_id, 0.0) + value
            counts[document_id] = counts.get(document_id, 0) + 1
    return {
        document_id: sums[document_id] * counts[document_id] for document_id in sums
    }


def weighted_fusion(
    score_maps: Sequence[ScoreMap], weights: Sequence[float]
) -> Dict[str, float]:
    """Weighted linear combination of normalised score maps."""
    ensure_non_empty(score_maps, "score_maps")
    if len(score_maps) != len(weights):
        raise InvalidArgumentError(
            f"need one weight per score map, got {len(weights)} weights "
            f"for {len(score_maps)} maps"
        )
    if any(weight < 0 for weight in weights):
        raise InvalidArgumentError("fusion weights must be non-negative")
    active = [
        (scores, weight) for scores, weight in zip(score_maps, weights) if weight != 0
    ]
    if len(active) == 1:
        # Single contributing source: fuse normalisation and weighting in one
        # pass (0.0 + w * v == w * v for the non-negative normalised values,
        # so results match the general path exactly).
        scores, weight = active[0]
        if not scores:
            return {}
        low, span = normalisation_bounds(scores)
        if span == 0.0:
            return {document_id: weight * 1.0 for document_id in scores}
        return {
            document_id: weight * ((value - low) / span)
            for document_id, value in scores.items()
        }
    fused: Dict[str, float] = {}
    for scores, weight in active:
        for document_id, value in min_max_normalise(scores).items():
            fused[document_id] = fused.get(document_id, 0.0) + weight * value
    return fused


def reciprocal_rank_fusion(
    score_maps: Sequence[ScoreMap], k: float = 60.0
) -> Dict[str, float]:
    """Reciprocal rank fusion: robust to incomparable score scales."""
    ensure_non_empty(score_maps, "score_maps")
    if k <= 0:
        raise InvalidArgumentError(f"k must be positive, got {k}")
    fused: Dict[str, float] = {}
    for scores in score_maps:
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        for rank, (document_id, _score) in enumerate(ranked, start=1):
            fused[document_id] = fused.get(document_id, 0.0) + 1.0 / (k + rank)
    return fused


def interpolate(
    primary: ScoreMap, secondary: ScoreMap, secondary_weight: float
) -> Dict[str, float]:
    """Interpolate a secondary score map into a primary one.

    This is the operation the adaptive retrieval model applies when folding
    profile or feedback evidence into the current ranking:
    ``(1 - w) * primary + w * secondary`` over normalised scores, keeping
    every document that appears in either map.
    """
    if not 0.0 <= secondary_weight <= 1.0:
        raise InvalidArgumentError(
            f"secondary_weight must be in [0, 1], got {secondary_weight}"
        )
    primary_normalised = min_max_normalise(primary)
    secondary_normalised = min_max_normalise(secondary)
    documents = set(primary_normalised) | set(secondary_normalised)
    return {
        document_id: (1.0 - secondary_weight) * primary_normalised.get(document_id, 0.0)
        + secondary_weight * secondary_normalised.get(document_id, 0.0)
        for document_id in documents
    }


def top_documents(scores: ScoreMap, limit: int) -> List[str]:
    """The ``limit`` best document ids, ties broken by id for determinism.

    Selection uses a bounded heap (``heapq.nsmallest`` over the
    ``(-score, id)`` key), which is O(n log limit) instead of sorting every
    scored document and returns exactly what the full sort would.
    """
    ranked = heapq.nsmallest(limit, scores.items(), key=lambda item: (-item[1], item[0]))
    return [document_id for document_id, _score in ranked]

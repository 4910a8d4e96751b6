"""Re-ranking utilities: interpolating extra evidence into a result list.

Both personalisation (static profiles) and implicit feedback ultimately act
by *re-ranking*: producing a score map over shots and folding it into the
engine's original ranking.  The helpers here perform that fold (as the
profile re-ranker uses it) and the story-level aggregation used by the news
recommender.  An adaptive session folds its evidence and demotes the shots
it has seen in one dense pass instead:
:func:`repro.core.adaptation_kernel.rerank_and_demote`.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.collection.documents import Collection
from repro.errors import InvalidArgumentError
from repro.index.fusion import interpolate
from repro.retrieval.results import ResultList


def rerank_with_scores(
    results: ResultList,
    evidence_scores: Mapping[str, float],
    weight: float,
    collection: Optional[Collection] = None,
    limit: Optional[int] = None,
) -> ResultList:
    """Interpolate evidence scores into a result list and re-sort.

    ``weight`` is the interpolation weight on the evidence (0 keeps the
    original ranking, 1 ranks purely by the evidence).  Only shots already
    in the result list are retained unless the evidence introduces new ones
    and ``limit`` allows them.
    """
    original_scores = results.scores()
    combined = interpolate(original_scores, dict(evidence_scores), weight)
    effective_limit = limit if limit is not None else len(results)
    return ResultList.from_scores(
        query_text=results.query_text,
        scores=combined,
        collection=collection,
        limit=max(effective_limit, len(results)),
        topic_id=results.topic_id,
    )


def story_scores_from_shots(
    shot_scores: Mapping[str, float],
    collection: Collection,
    aggregation: str = "max",
) -> Dict[str, float]:
    """Aggregate shot-level scores to story-level scores.

    ``aggregation`` is ``"max"`` (a story is as interesting as its best shot),
    ``"sum"`` or ``"mean"``.
    """
    if aggregation not in ("max", "sum", "mean"):
        raise InvalidArgumentError(f"unknown aggregation {aggregation!r}")
    grouped: Dict[str, list] = {}
    for shot_id, score in shot_scores.items():
        if not collection.has_shot(shot_id):
            continue
        story_id = collection.shot(shot_id).story_id
        grouped.setdefault(story_id, []).append(score)
    aggregated: Dict[str, float] = {}
    for story_id, values in grouped.items():
        if aggregation == "max":
            aggregated[story_id] = max(values)
        elif aggregation == "sum":
            aggregated[story_id] = sum(values)
        else:
            aggregated[story_id] = sum(values) / len(values)
    return aggregated

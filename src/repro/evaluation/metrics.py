"""Retrieval effectiveness metrics.

Standard TREC-style metrics over ranked lists and graded judgements:
precision@k, recall@k, average precision, MAP, nDCG, reciprocal rank and
simple set-based measures.  All functions accept a ranked list of document
ids plus either a set of relevant ids or a ``{doc_id: grade}`` mapping, so
they work directly with :class:`~repro.collection.qrels.Qrels` output.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Sequence, Set, Union

Relevance = Union[Set[str], Mapping[str, int]]


def _relevant_set(relevance: Relevance) -> Set[str]:
    if isinstance(relevance, Mapping):
        return {doc_id for doc_id, grade in relevance.items() if grade > 0}
    return set(relevance)


def _grade(relevance: Relevance, doc_id: str) -> int:
    if isinstance(relevance, Mapping):
        return int(relevance.get(doc_id, 0))
    return 1 if doc_id in relevance else 0


def precision_at_k(ranking: Sequence[str], relevance: Relevance, k: int) -> float:
    """Fraction of the top ``k`` results that are relevant."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if not ranking:
        return 0.0
    relevant = _relevant_set(relevance)
    top = ranking[:k]
    return sum(1 for doc_id in top if doc_id in relevant) / k


def recall_at_k(ranking: Sequence[str], relevance: Relevance, k: int) -> float:
    """Fraction of all relevant documents retrieved in the top ``k``."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    relevant = _relevant_set(relevance)
    if not relevant:
        return 0.0
    top = ranking[:k]
    return sum(1 for doc_id in top if doc_id in relevant) / len(relevant)


def average_precision(ranking: Sequence[str], relevance: Relevance) -> float:
    """Average precision of one ranking."""
    relevant = _relevant_set(relevance)
    if not relevant:
        return 0.0
    hits = 0
    precision_sum = 0.0
    for rank, doc_id in enumerate(ranking, start=1):
        if doc_id in relevant:
            hits += 1
            precision_sum += hits / rank
    return precision_sum / len(relevant)


def reciprocal_rank(ranking: Sequence[str], relevance: Relevance) -> float:
    """1 / rank of the first relevant result (0 if none retrieved)."""
    relevant = _relevant_set(relevance)
    for rank, doc_id in enumerate(ranking, start=1):
        if doc_id in relevant:
            return 1.0 / rank
    return 0.0


def dcg_at_k(ranking: Sequence[str], relevance: Relevance, k: int) -> float:
    """Discounted cumulative gain with graded relevance (gain = 2^grade - 1)."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    total = 0.0
    for rank, doc_id in enumerate(ranking[:k], start=1):
        grade = _grade(relevance, doc_id)
        if grade > 0:
            total += (2 ** grade - 1) / math.log2(rank + 1)
    return total


def ndcg_at_k(ranking: Sequence[str], relevance: Relevance, k: int) -> float:
    """Normalised DCG at ``k``."""
    if isinstance(relevance, Mapping):
        grades = sorted(
            (grade for grade in relevance.values() if grade > 0), reverse=True
        )
    else:
        grades = [1] * len(_relevant_set(relevance))
    ideal = 0.0
    for rank, grade in enumerate(grades[:k], start=1):
        ideal += (2 ** grade - 1) / math.log2(rank + 1)
    if ideal == 0.0:
        return 0.0
    return dcg_at_k(ranking, relevance, k) / ideal


def success_at_k(ranking: Sequence[str], relevance: Relevance, k: int) -> float:
    """1.0 if any relevant document appears in the top ``k``, else 0.0."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    relevant = _relevant_set(relevance)
    return 1.0 if any(doc_id in relevant for doc_id in ranking[:k]) else 0.0


def mean_metric(values: Iterable[float]) -> float:
    """Arithmetic mean (0 for an empty iterable)."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def mean_average_precision(
    rankings: Mapping[str, Sequence[str]], judgements: Mapping[str, Relevance]
) -> float:
    """MAP over ``{topic_id: ranking}`` and ``{topic_id: relevance}``.

    Topics missing from ``judgements`` (or with no relevant documents)
    contribute zero, matching trec_eval behaviour when judged topics are
    fixed in advance.
    """
    if not rankings:
        return 0.0
    scores = [
        average_precision(ranking, judgements.get(topic_id, set()))
        for topic_id, ranking in rankings.items()
    ]
    return mean_metric(scores)


def evaluate_ranking(
    ranking: Sequence[str],
    relevance: Relevance,
    cutoffs: Sequence[int] = (5, 10, 20),
) -> Dict[str, float]:
    """A standard bundle of metrics for one ranking."""
    metrics: Dict[str, float] = {
        "average_precision": average_precision(ranking, relevance),
        "reciprocal_rank": reciprocal_rank(ranking, relevance),
    }
    for cutoff in cutoffs:
        metrics[f"precision@{cutoff}"] = precision_at_k(ranking, relevance, cutoff)
        metrics[f"recall@{cutoff}"] = recall_at_k(ranking, relevance, cutoff)
        metrics[f"ndcg@{cutoff}"] = ndcg_at_k(ranking, relevance, cutoff)
    return metrics


def relative_improvement(baseline: float, treatment: float) -> float:
    """Relative improvement of ``treatment`` over ``baseline`` (0 if baseline is 0)."""
    if baseline == 0:
        return 0.0
    return (treatment - baseline) / baseline

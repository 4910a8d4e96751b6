"""Query expansion: Rocchio feedback and key-term extraction.

The paper's background section describes two ways relevance evidence feeds
back into ranking: "analysing the content of relevant rated documents,
i.e. by extracting key terms of these documents, can be used to expand the
users' original search queries or to re-rank retrieval results".  Both are
implemented here and shared by the explicit-feedback baseline, the implicit
feedback model and the profile learner.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.errors import InvalidArgumentError
from repro.index.inverted_index import InvertedIndex
from repro.index.scoring import normalise_query
from repro.utils.validation import ensure_positive


def extract_key_terms(
    index: InvertedIndex,
    document_ids: Sequence[str],
    limit: int = 10,
    document_weights: Mapping[str, float] = None,
) -> Dict[str, float]:
    """Extract the most discriminative terms from a set of documents.

    Terms are scored by a TF-IDF-style offer weight: the (optionally
    weighted) frequency of the term in the feedback documents multiplied by
    its inverse document frequency in the whole collection.  Returns a
    ``{term: weight}`` map normalised so the largest weight is 1.0.
    """
    ensure_positive(limit, "limit")
    weights = dict(document_weights or {})
    term_mass: Dict[str, float] = {}
    for document_id in document_ids:
        if not index.has_document(document_id):
            continue
        document_weight = weights.get(document_id, 1.0)
        if document_weight <= 0:
            continue
        # Read-only view: avoids copying every feedback document's vector.
        for term, frequency in index.document_vector_view(document_id).items():
            term_mass[term] = term_mass.get(term, 0.0) + document_weight * frequency
    if not term_mass:
        return {}
    scored: List[Tuple[float, str]] = []
    document_count_factor = index.document_count + 1
    for term, mass in term_mass.items():
        document_frequency = index.document_frequency(term)
        if document_frequency == 0:
            continue
        idf = math.log(document_count_factor / (document_frequency + 0.5))
        scored.append((-(mass * idf), term))
    top = heapq.nsmallest(limit, scored)
    if not top:
        return {}
    maximum = -top[0][0]
    if maximum <= 0:
        return {}
    return {term: -negated_score / maximum for negated_score, term in top}


class RocchioExpander:
    """Classic Rocchio query reformulation.

    ``alpha`` weights the original query, ``beta`` the centroid of relevant
    documents and ``gamma`` the centroid of non-relevant documents.  The
    output is a weighted term vector ready to be passed to any
    :class:`~repro.index.scoring.TextScorer`.
    """

    def __init__(
        self,
        index: InvertedIndex,
        alpha: float = 1.0,
        beta: float = 0.75,
        gamma: float = 0.15,
        expansion_terms: int = 20,
    ) -> None:
        if alpha < 0 or beta < 0 or gamma < 0:
            raise InvalidArgumentError("Rocchio coefficients must be non-negative")
        self._index = index
        self._alpha = alpha
        self._beta = beta
        self._gamma = gamma
        self._expansion_terms = ensure_positive(expansion_terms, "expansion_terms")

    @property
    def coefficients(self) -> Tuple[float, float, float]:
        """The ``(alpha, beta, gamma)`` coefficients."""
        return (self._alpha, self._beta, self._gamma)

    def _centroid(self, document_ids: Iterable[str]) -> Dict[str, float]:
        documents = [
            self._index.document_vector_view(document_id)
            for document_id in document_ids
            if self._index.has_document(document_id)
        ]
        if not documents:
            return {}
        centroid: Dict[str, float] = {}
        for vector in documents:
            length = max(1.0, float(sum(vector.values())))
            for term, frequency in vector.items():
                centroid[term] = centroid.get(term, 0.0) + frequency / length
        return {term: value / len(documents) for term, value in centroid.items()}

    def expand(
        self,
        original_query,
        relevant_ids: Sequence[str],
        non_relevant_ids: Sequence[str] = (),
    ) -> Dict[str, float]:
        """Produce the reformulated weighted query."""
        query_weights = normalise_query(original_query)
        relevant_centroid = self._centroid(relevant_ids)
        non_relevant_centroid = self._centroid(non_relevant_ids)

        expanded: Dict[str, float] = {}
        for term, weight in query_weights.items():
            expanded[term] = self._alpha * weight
        for term, weight in relevant_centroid.items():
            expanded[term] = expanded.get(term, 0.0) + self._beta * weight
        for term, weight in non_relevant_centroid.items():
            expanded[term] = expanded.get(term, 0.0) - self._gamma * weight

        # Keep the original terms plus the strongest expansion terms.
        original_terms = set(query_weights)
        expansion_candidates = [
            (-weight, term)
            for term, weight in expanded.items()
            if term not in original_terms and weight > 0
        ]
        kept = {
            term
            for _negated_weight, term in heapq.nsmallest(
                self._expansion_terms, expansion_candidates
            )
        }
        return {
            term: weight
            for term, weight in expanded.items()
            if weight > 0 and (term in original_terms or term in kept)
        }

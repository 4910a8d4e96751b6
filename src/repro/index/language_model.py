"""Query-likelihood language-model retrieval with Dirichlet smoothing.

Language-model scoring is the third text scorer (alongside TF-IDF and BM25)
so that substrate benchmark E10 can compare ranking functions, and so the
adaptive model can use smoothed term distributions when building feedback
models from watched shots.

Both smoothers run over the index's dense layout: candidate documents are
collected from the postings columns into per-document term-frequency rows
(one small list per candidate, indexed by query-term position), per-term
collection probabilities are computed once per query from the O(1) cached
collection frequencies, and document lengths come from the flat lengths
array.  The per-``(document, term)`` arithmetic is unchanged from the
original implementation, so scores are bit-identical.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.index.inverted_index import InvertedIndex
from repro.index.scoring import QueryTerms, TextScorer, normalise_query
from repro.utils.validation import ensure_number


def _candidate_rows(
    index: InvertedIndex, terms: List[str]
) -> Dict[int, List[int]]:
    """Collect candidate documents for a query.

    Returns ``{doc_index: row}`` where ``row[i]`` is the document's frequency
    for ``terms[i]`` (0 if absent).  Candidates appear in first-touch order,
    matching the historical postings-driven discovery order.
    """
    term_count = len(terms)
    candidates: Dict[int, List[int]] = {}
    for position, term in enumerate(terms):
        docs, freqs = index.postings_arrays(term)
        for doc, frequency in zip(docs, freqs):
            row = candidates.get(doc)
            if row is None:
                row = [0] * term_count
                candidates[doc] = row
            row[position] = frequency
    return candidates


class DirichletLanguageModelScorer(TextScorer):
    """Query likelihood with Dirichlet-prior smoothing.

    Scores are log-probabilities shifted so that they are comparable across
    documents for the same query (constant query-dependent terms are
    retained; only documents containing at least one query term are scored,
    as is conventional for inverted-index evaluation).
    """

    may_block = False

    def __init__(self, index: InvertedIndex, mu: float = 300.0) -> None:
        self._index = index
        self._mu = ensure_number(mu, "mu", positive=True)

    @property
    def mu(self) -> float:
        """The Dirichlet smoothing parameter."""
        return self._mu

    def _collection_probability(self, term: str) -> float:
        total = self._index.total_terms
        if total == 0:
            return 0.0
        return self._index.collection_frequency(term) / total

    def score(self, query_terms: QueryTerms) -> Dict[str, float]:
        """Smoothed query log-likelihood for all matching documents."""
        weights = normalise_query(query_terms)
        index = self._index
        terms = list(weights)
        candidates = _candidate_rows(index, terms)

        mu = self._mu
        # Per-term constants: (query_weight, mu * collection_probability),
        # skipping terms with zero collection probability exactly as before.
        term_constants = []
        for term in terms:
            collection_probability = self._collection_probability(term)
            if collection_probability == 0.0:
                term_constants.append(None)
            else:
                term_constants.append((weights[term], mu * collection_probability))

        lengths = index.document_lengths_array
        doc_ids = index.slots.ids
        log = math.log
        scores: Dict[str, float] = {}
        for doc, row in candidates.items():
            length = lengths[doc]
            log_likelihood = 0.0
            for position, constants in enumerate(term_constants):
                if constants is None:
                    continue
                query_weight, mu_probability = constants
                smoothed = (row[position] + mu_probability) / (length + mu)
                log_likelihood += query_weight * log(smoothed)
            scores[doc_ids[doc]] = log_likelihood
        return scores


class JelinekMercerLanguageModelScorer(TextScorer):
    """Query likelihood with Jelinek-Mercer (linear) smoothing.

    Included as an alternative smoothing strategy for the smoothing ablation
    bench; ``lambda_`` is the weight on the document model.
    """

    may_block = False

    def __init__(self, index: InvertedIndex, lambda_: float = 0.7) -> None:
        if not 0.0 < lambda_ < 1.0:
            raise ValueError(f"lambda_ must be in (0, 1), got {lambda_}")
        self._index = index
        self._lambda = lambda_

    @property
    def lambda_(self) -> float:
        """Weight on the document model (1 - weight on the collection model)."""
        return self._lambda

    def score(self, query_terms: QueryTerms) -> Dict[str, float]:
        """Smoothed query log-likelihood for all matching documents."""
        weights = normalise_query(query_terms)
        index = self._index
        total_terms = max(1, index.total_terms)
        terms = list(weights)
        candidates = _candidate_rows(index, terms)

        lambda_ = self._lambda
        one_minus_lambda = 1.0 - lambda_
        # Per-term constants: (query_weight, (1 - lambda) * collection_prob).
        term_constants = [
            (
                weights[term],
                one_minus_lambda * (index.collection_frequency(term) / total_terms),
            )
            for term in terms
        ]

        lengths = index.document_lengths_array
        doc_ids = index.slots.ids
        log = math.log
        scores: Dict[str, float] = {}
        for doc, row in candidates.items():
            length = max(1, lengths[doc])
            log_likelihood = 0.0
            for position, (query_weight, background) in enumerate(term_constants):
                mixed = lambda_ * (row[position] / length) + background
                if mixed <= 0.0:
                    continue
                log_likelihood += query_weight * log(mixed)
            scores[doc_ids[doc]] = log_likelihood
        return scores

"""Classic bag-of-words scoring functions: TF-IDF and Okapi BM25.

Scorers share a tiny interface — ``score(query_terms)`` returns a read-only
``{doc_id: score}`` mapping — so the retrieval engine, fusion layer and
adaptive model can swap them freely.  Query terms may carry weights (a
``{term: weight}`` mapping), which is how relevance feedback and profile
expansion inject evidence into the ranking function.

Since the scoring-kernel rework both scorers run over the index's dense
layout: postings arrive as parallel ``array('i')`` columns of document
indexes and term frequencies, and scores accumulate into a flat dense buffer
indexed by document index.  The answer is that buffer itself, wrapped in a
read-only :class:`DenseScores` mapping: the engine ranks straight off the
dense values and reads a document id only for a candidate that survives its
exact cut, and a string-keyed dict is built only when some caller reads the
map by key (fusion of several sources, tests, tools).  The scores produced
are bit-identical to the original per-``Posting`` loops (see
:mod:`repro.index.reference`, which retains them for equivalence testing).

Everything a scorer derives from the index lives for one ``generation`` of
it and is dropped on the first read that sees the counter move: per-term
IDF, one length-normalisation norm per distinct document length (a BM25
denominator and a TF-IDF cosine norm depend on nothing else about a
document), and per-term contribution columns.  A column is built on a
term's *second* use in a generation; its first use scores the postings
straight into the accumulator, with the same arithmetic, so a reader
beside a writer pays only for the terms it scores.
"""

from __future__ import annotations

import math
from array import array
from functools import lru_cache
from typing import (
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.index.inverted_index import InvertedIndex

QueryTerms = Union[Sequence[str], Mapping[str, float]]

#: The ``_columns_cache`` entry of a term used once in this generation.
#: Falsy, unlike every cached ``(docs, contributions, doc_set)`` triple.
_SEEN_ONCE = ()


@lru_cache(maxsize=None)
def _log_tf(frequency: int) -> float:
    """``1 + log(tf)``, memoised (``lru_cache`` is thread-safe).

    Term frequencies are small positive integers, so the cache stays tiny
    and column construction never recomputes a logarithm.
    """
    return 1.0 + math.log(frequency)


def normalise_query(query_terms: QueryTerms) -> Dict[str, float]:
    """Normalise a query into a ``{term: weight}`` mapping.

    A plain sequence of terms becomes weights equal to the term's repetition
    count, which matches the behaviour of classic keyword queries.  Zero
    weights are dropped; a NaN or infinite weight raises ``ValueError``,
    since it would poison every score it touches.
    """
    weights: Dict[str, float]
    if isinstance(query_terms, Mapping):
        weights = {
            term: float(weight) for term, weight in query_terms.items() if weight != 0
        }
        if not all(map(math.isfinite, weights.values())):
            term, weight = next(
                item for item in weights.items() if not math.isfinite(item[1])
            )
            raise ValueError(f"query term {term!r} has a non-finite weight {weight}")
        return weights
    weights = {}
    for term in query_terms:
        weights[term] = weights.get(term, 0.0) + 1.0
    return weights


#: One ``(ids, scores, candidates)`` part of a :class:`DenseScores`.
ScorePart = Tuple[Sequence[Optional[str]], Sequence[float], Collection[int]]


class StaleScoresError(RuntimeError):
    """A :class:`DenseScores` was first read by key after a candidate of it
    was deleted (or updated) from the index it was scored on."""


class DenseScores(Mapping):
    """A read-only ``{doc_id: score}`` map over dense score columns.

    ``parts`` is a list of ``(ids, scores, candidates)``: for each dense
    index ``d`` in ``candidates``, document ``ids[d]`` scored ``scores[d]``.
    Parts never share a document (shards partition the corpus).  ``len``
    sums the candidate counts; any access by key (``[]``, ``get``, ``in``,
    iteration, ``==``, ``items``) builds one dict, once, in part order and
    each part's candidate order — the order a dict built by the scorer
    itself would have.

    ``ids`` is the index's own id table (``dense_document_ids()``), read
    lazily.  That is exact: appends never touch an existing slot,
    compaction swaps in a new list object, and the only in-place write is a
    delete's tombstone, which reads ``None``.  So the one case a lazy read
    cannot answer — a candidate deleted after scoring — is detected when
    the dict is built and raises :class:`StaleScoresError`.  The engine
    reads every map under the read lock it scored under, where no delete
    can land.
    """

    __slots__ = ("parts", "_built")

    def __init__(self, parts: List[ScorePart]) -> None:
        self.parts = parts
        self._built: Optional[Dict[str, float]] = None

    @classmethod
    def of(cls, mapping: Mapping[str, float]) -> "DenseScores":
        """``mapping`` itself if it is a :class:`DenseScores`, else one part
        over its keys and values (visual/concept maps, dict scorers)."""
        if isinstance(mapping, DenseScores):
            return mapping
        return cls([(list(mapping), list(mapping.values()), range(len(mapping)))])

    @classmethod
    def union(cls, partials: Iterable[Mapping[str, float]]) -> "DenseScores":
        """The parts of every partial map, concatenated in order.

        The partials must be disjoint (per-shard maps are), so this is the
        ``dict.update`` merge without building a dict.
        """
        parts: List[ScorePart] = []
        for partial in partials:
            parts.extend(cls.of(partial).parts)
        return cls(parts)

    def __len__(self) -> int:
        return sum(len(candidates) for _, _, candidates in self.parts)

    def _materialise(self) -> Dict[str, float]:
        built = self._built
        if built is None:
            built = {}
            for ids, scores, candidates in self.parts:
                built.update(
                    zip(
                        map(ids.__getitem__, candidates),
                        map(scores.__getitem__, candidates),
                    )
                )
            if None in built:
                raise StaleScoresError(
                    "score map read after one of its documents was deleted; "
                    "read it under the lock it was scored under"
                )
            self._built = built
        return built

    # Key reads go to the built dict itself, whose views are the fast ones
    # multi-source fusion iterates (the ``Mapping`` mixins would look every
    # key up again).

    def __getitem__(self, document_id: str) -> float:
        return self._materialise()[document_id]

    def __iter__(self) -> Iterator[str]:
        return iter(self._materialise())

    def __contains__(self, document_id: object) -> bool:
        return document_id in self._materialise()

    def get(self, document_id: str, default=None):
        return self._materialise().get(document_id, default)

    def keys(self):
        return self._materialise().keys()

    def values(self):
        return self._materialise().values()

    def items(self):
        return self._materialise().items()

    def __repr__(self) -> str:
        return f"DenseScores({self._materialise()!r})"


class TextScorer:
    """Interface shared by all text scorers."""

    #: Whether :meth:`score` may wait on something other than the CPU (I/O,
    #: a lock, a remote call).  The sharded scatter only pays for its thread
    #: pool when some shard's scorer may block; the in-memory kernels of this
    #: package set it ``False`` and are run inline on the calling thread.
    may_block = True

    def score(self, query_terms: QueryTerms) -> Mapping[str, float]:
        """Score all documents that match at least one query term."""
        raise NotImplementedError

    def score_document(self, query_terms: QueryTerms, document_id: str) -> float:
        """Score one document (0.0 if it matches no query term)."""
        return self.score(query_terms).get(document_id, 0.0)


class _CachedColumnsScorer(TextScorer):
    """The dense accumulate loop over generation-keyed caches.

    Subclasses supply a term's IDF, its unit-weight contributions and the
    table from document length to length norm.  All three are cached and
    dropped together when the index's ``generation`` moves; a term's
    contribution column is cached only from its second use in a generation
    (module docstring).
    """

    may_block = False

    def __init__(self, index: InvertedIndex) -> None:
        self._index = index
        self._idf_cache: Dict[str, float] = {}
        self._columns_cache: Dict[str, tuple] = {}
        self._length_norms: Dict[int, float] = {}
        self._cache_generation = -1

    def _compute_idf(self, term: str) -> float:
        raise NotImplementedError

    def _norm_table(self) -> Dict[int, float]:
        """The length norm of every distinct document length of the index.

        Built over ``set(document_lengths_array)``, so its size is the
        number of distinct lengths, not the largest one.
        """
        raise NotImplementedError

    def _contributions(self, docs: array, freqs: array, idf: float) -> array:
        """Unit-weight contribution of every posting of one term (a column)."""
        raise NotImplementedError

    def _add_contributions(
        self,
        accumulator: list,
        docs: array,
        freqs: array,
        idf: float,
        query_weight: float,
    ) -> None:
        """Add ``query_weight *`` each contribution to ``accumulator[doc]``.

        The first use of a term in a generation, with no column built: the
        values added are exactly those the cached column's loop adds.
        """
        raise NotImplementedError

    def _accumulate(self, query_terms: QueryTerms) -> tuple:
        """``(accumulator, candidates)``: dense score sums by document index
        and the set of indexes that matched a term.

        The index's ``generation`` is read once per call (over a sharded
        stats view it is a sum over every shard) and every cache is
        invalidated from that one read.  The norm table is replaced before
        the generation is recorded, so a concurrent reader that sees the
        new generation never reads the previous table.
        """
        weights = normalise_query(query_terms)
        index = self._index
        idf_cache, columns_cache = self._idf_cache, self._columns_cache
        generation = index.generation
        if self._cache_generation != generation:
            idf_cache.clear()
            columns_cache.clear()
            self._length_norms = self._norm_table()
            self._cache_generation = generation
        # A plain list is the fastest dense accumulator in CPython: reads
        # return the stored float object directly, with no array unboxing.
        # Sized by the dense table, not document_count: over a sharded
        # stats view the count is global while postings indexes are
        # shard-dense (identical on a monolithic index).
        accumulator = [0.0] * len(index.document_lengths_array)
        candidates: set = set()
        for term, query_weight in weights.items():
            idf = idf_cache.get(term)
            if idf is None:
                idf = idf_cache[term] = self._compute_idf(term)
            if idf == 0.0:
                continue
            columns = columns_cache.get(term)
            if not columns:
                docs, freqs = index.postings_arrays(term)
                if columns is None:
                    # First use in this generation: scored straight from
                    # the postings, and only the sighting is cached.
                    self._add_contributions(accumulator, docs, freqs, idf, query_weight)
                    candidates.update(docs)
                    columns_cache[term] = _SEEN_ONCE
                    continue
                columns = columns_cache[term] = (
                    docs,
                    self._contributions(docs, freqs, idf),
                    frozenset(docs),
                )
            docs, contributions, doc_set = columns
            if query_weight == 1.0:
                for doc, contribution in zip(docs, contributions):
                    accumulator[doc] += contribution
            else:
                for doc, contribution in zip(docs, contributions):
                    accumulator[doc] += query_weight * contribution
            candidates |= doc_set
        return accumulator, candidates


class TfIdfScorer(_CachedColumnsScorer):
    """Cosine-normalised TF-IDF scoring."""

    def _compute_idf(self, term: str) -> float:
        document_frequency = self._index.document_frequency(term)
        if document_frequency == 0:
            return 0.0
        return math.log((self._index.document_count + 1) / (document_frequency + 0.5))

    def _norm_table(self) -> Dict[int, float]:
        """Cosine length norms ``sqrt(max(1, length))``."""
        return {
            length: math.sqrt(max(1.0, float(length)))
            for length in set(self._index.document_lengths_array)
        }

    def _contributions(self, docs: array, freqs: array, idf: float) -> array:
        """``(1 + log(tf)) * idf`` per posting.

        Unit query weights reproduce the historical per-posting expression
        bit-for-bit (``1.0 * x == x``); other weights multiply the
        contribution, at most one ulp from the historical association.
        """
        log_tf = _log_tf
        return array("d", (log_tf(freq) * idf for freq in freqs))

    def _add_contributions(self, accumulator, docs, freqs, idf, query_weight) -> None:
        log_tf = _log_tf
        if query_weight == 1.0:
            for doc, freq in zip(docs, freqs):
                accumulator[doc] += log_tf(freq) * idf
        else:
            for doc, freq in zip(docs, freqs):
                accumulator[doc] += query_weight * (log_tf(freq) * idf)

    def score(self, query_terms: QueryTerms) -> DenseScores:
        """TF-IDF scores with document-length normalisation.

        The norm divides each candidate's accumulator slot in place.
        """
        accumulator, candidates = self._accumulate(query_terms)
        norms = self._length_norms
        lengths = self._index.document_lengths_array
        for doc in candidates:
            accumulator[doc] /= norms[lengths[doc]]
        return DenseScores([(self._index.dense_document_ids(), accumulator, candidates)])


class Bm25Scorer(_CachedColumnsScorer):
    """Okapi BM25 with the standard ``k1``/``b`` parameterisation."""

    def __init__(self, index: InvertedIndex, k1: float = 1.2, b: float = 0.75) -> None:
        if k1 < 0:
            raise ValueError(f"k1 must be non-negative, got {k1}")
        if not 0.0 <= b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {b}")
        super().__init__(index)
        self._k1 = k1
        self._b = b

    @property
    def k1(self) -> float:
        """Term-frequency saturation parameter."""
        return self._k1

    @property
    def b(self) -> float:
        """Length-normalisation parameter."""
        return self._b

    def _compute_idf(self, term: str) -> float:
        document_frequency = self._index.document_frequency(term)
        if document_frequency == 0:
            return 0.0
        numerator = self._index.document_count - document_frequency + 0.5
        denominator = document_frequency + 0.5
        return math.log(1.0 + numerator / denominator)

    def _norm_table(self) -> Dict[int, float]:
        """BM25 denominators ``k1 * (1 - b + b * length / max(1, average))``.

        Over a sharded stats view the lengths are the shard's own and the
        average is the global one, so each document's denominator is
        bit-identical to the one the monolithic index gives it.
        """
        k1, b = self._k1, self._b
        average_length = max(1.0, self._index.average_document_length)
        return {
            length: k1 * (1.0 - b + b * length / average_length)
            for length in set(self._index.document_lengths_array)
        }

    def _contributions(self, docs: array, freqs: array, idf: float) -> array:
        """The complete unit-weight BM25 contribution of every posting.

        ``(idf * (tf * (k1 + 1))) / (tf + k1 * (1 - b + b * length /
        average_length))`` — everything about the posting that does not
        depend on the query.  Because ``1.0 * idf == idf`` exactly,
        unit-weight queries (every plain keyword search) produce
        bit-identical scores to the historical per-posting expression; other
        weights multiply the contribution, which can differ from the
        historical association by at most one ulp.
        """
        norms = self._length_norms
        lengths = self._index.document_lengths_array
        k1_plus_1 = self._k1 + 1.0
        return array(
            "d",
            (
                idf * (freq * k1_plus_1) / (freq + norms[lengths[doc]])
                for doc, freq in zip(docs, freqs)
            ),
        )

    def _add_contributions(self, accumulator, docs, freqs, idf, query_weight) -> None:
        norms = self._length_norms
        lengths = self._index.document_lengths_array
        k1_plus_1 = self._k1 + 1.0
        if query_weight == 1.0:
            for doc, freq in zip(docs, freqs):
                accumulator[doc] += (
                    idf * (freq * k1_plus_1) / (freq + norms[lengths[doc]])
                )
        else:
            for doc, freq in zip(docs, freqs):
                accumulator[doc] += query_weight * (
                    idf * (freq * k1_plus_1) / (freq + norms[lengths[doc]])
                )

    def score(self, query_terms: QueryTerms) -> DenseScores:
        """BM25 scores for all matching documents."""
        accumulator, candidates = self._accumulate(query_terms)
        return DenseScores([(self._index.dense_document_ids(), accumulator, candidates)])

"""The video retrieval engine: multimodal search over a news collection.

The engine is the non-adaptive core every experiment builds on.  It fuses
three evidence sources per query:

* text scores from the inverted index over ASR transcripts (BM25 by default,
  swappable for TF-IDF or language-model scoring),
* visual similarity to any example shots attached to the query, and
* concept-detector scores for any concept weights attached to the query.

Adaptation (profiles, implicit feedback) is deliberately *not* handled here;
the :mod:`repro.core` layer wraps the engine and injects that evidence, so
that baseline and adaptive systems share exactly the same substrate.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import ContextManager, Dict, Iterator, List, Mapping, Optional, Sequence

from repro.collection.documents import Collection
from repro.durability.replay import ReplayCounts, apply_op, op_record
from repro.errors import InvalidArgumentError
from repro.index.compaction import CompactionStats, compact_engine
from repro.index.dedup import NearDuplicateDetector
from repro.index.fusion import normalisation_bounds_of_values, weighted_fusion
from repro.index.inverted_index import InvertedIndex
from repro.index.registry import SCORER_REGISTRY, create_scorer
from repro.index.scoring import DenseScores, TextScorer
from repro.index.tokenizer import Tokenizer
from repro.index.visual import VisualIndex
from repro.retrieval.expansion import RocchioExpander, extract_key_terms
from repro.retrieval.query import Query
from repro.retrieval.result_cache import ResultCache
from repro.retrieval.results import ResultList
from repro.utils.concurrency import ReadWriteLock, checkpoint_if_cancelled
from repro.utils.validation import ensure_number, ensure_positive, ensure_probability


@dataclass(frozen=True)
class EngineConfig:
    """Configuration of the retrieval engine.

    ``text_weight``, ``visual_weight`` and ``concept_weight`` control the
    multimodal fusion; ``scorer`` names the text ranking function in
    :mod:`repro.index.registry` (built in: ``"bm25"``, ``"tfidf"`` and
    ``"lm"``, tuned by ``bm25_k1``/``bm25_b`` and ``lm_mu``).
    ``result_limit`` is the default ranked-list depth per search.
    ``result_cache_size`` is the most fully evaluated searches the engine
    keeps (0 disables the cache).  A W-TinyLFU policy
    (:mod:`repro.retrieval.result_cache`: a 1 % LRU window, an 80/20
    segmented-LRU main cache, admission by a count-min frequency sketch
    that halves every ``10 × result_cache_size`` lookups) chooses which;
    cached entries are invalidated automatically when either index is
    mutated, so served rankings are always identical to a fresh
    evaluation.
    ``near_duplicate_threshold`` (``None`` disables screening) rejects
    incoming documents whose term-frequency cosine similarity to an
    already-live document reaches the threshold — they are silently skipped
    (and counted) before any WAL logging, so durable logs and replicas only
    ever see documents that actually landed.
    """

    scorer: str = "bm25"
    text_weight: float = 1.0
    visual_weight: float = 0.4
    concept_weight: float = 0.3
    result_limit: int = 100
    bm25_k1: float = 1.2
    bm25_b: float = 0.75
    lm_mu: float = 300.0
    result_cache_size: int = 256
    near_duplicate_threshold: Optional[float] = None

    def __post_init__(self) -> None:
        """Refuse ranking parameters outside the domain the ranking assumes:
        an unregistered ``scorer``, fusion weights and ``bm25_k1`` not finite
        and ``>= 0``, ``bm25_b`` outside ``[0, 1]``, ``lm_mu`` not finite and
        ``> 0``, ``result_limit`` not a positive integer,
        ``result_cache_size`` not a non-negative one, and
        ``near_duplicate_threshold`` neither ``None`` nor in ``(0, 1]``."""
        SCORER_REGISTRY.ensure_registered(self.scorer)
        for name in ("text_weight", "visual_weight", "concept_weight", "bm25_k1"):
            ensure_number(getattr(self, name), name)
        ensure_probability(ensure_number(self.bm25_b, "bm25_b"), "bm25_b")
        ensure_number(self.lm_mu, "lm_mu", positive=True)
        ensure_number(self.result_limit, "result_limit", positive=True, integer=True)
        ensure_number(self.result_cache_size, "result_cache_size", integer=True)
        threshold = self.near_duplicate_threshold
        if threshold is not None and not 0.0 < threshold <= 1.0:
            raise InvalidArgumentError(
                f"near_duplicate_threshold must be in (0, 1], got {threshold!r}"
            )


def _cut_start(
    order: List[int], column: Sequence[float], weight: float, low: float,
    span: float, limit: int,
) -> int:
    """The first position in ``order`` whose candidate can rank in the top
    ``limit``; ``order`` holds candidate indexes into ``column`` by
    ascending raw value, and requires ``weight > 0``, ``span > 0`` and
    ``len(order) > limit``.

    The cut is the ``limit``-th largest raw value, and the start walks back
    over the candidates tied with it.  IEEE subtraction of ``low``, division
    by a positive ``span`` and multiplication by a positive ``weight`` are
    each monotone, so a candidate below the cut fuses to no more than the
    cut does and — with at least ``limit`` candidates at or above the cut —
    can only displace one of them by *tying* its fused score and winning on
    shot id.  The largest value below the cut bounds all the others; if even
    it fuses strictly lower, the top ``limit`` of ``order[start:]`` is the
    top ``limit`` of everything, bit for bit.  Otherwise rounding collapsed
    the pair and nothing can be cut: returns 0.
    """
    start = len(order) - limit
    cut = column[order[start]]
    while start and column[order[start - 1]] == cut:
        start -= 1
    if start and weight * ((column[order[start - 1]] - low) / span) == weight * (
        (cut - low) / span
    ):
        return 0
    return start


class VideoRetrievalEngine:
    """Multimodal search over a news-video collection."""

    def __init__(
        self,
        collection: Collection,
        inverted_index: Optional[InvertedIndex] = None,
        visual_index: Optional[VisualIndex] = None,
        config: EngineConfig = EngineConfig(),
        tokenizer: Optional[Tokenizer] = None,
        text_scorer: Optional[TextScorer] = None,
    ) -> None:
        self._collection = collection
        self._tokenizer = tokenizer or Tokenizer()
        self._config = config
        self._inverted_index = inverted_index or InvertedIndex.from_collection(
            collection, tokenizer=self._tokenizer
        )
        self._visual_index = visual_index or VisualIndex.from_collection(collection)
        # An explicit scorer instance takes precedence over the name in the
        # config.
        self._text_scorer = text_scorer or create_scorer(
            config.scorer, self._inverted_index, config
        )
        # Persistent W-TinyLFU cache of fully-evaluated searches, keyed on
        # the query fingerprint plus limit.  Its entries live for one
        # generation pair of the two indexes, so a mutation (add_document /
        # add_shot) implicitly drops every cached result; its frequency
        # sketch outlives them, because popularity belongs to the traffic.
        self._result_cache: "ResultCache[ResultList]" = ResultCache(
            config.result_cache_size, (self._inverted_index, self._visual_index)
        )
        # Read-mostly discipline: searches take the shared side (they never
        # block each other), index mutation takes the exclusive side and
        # bumps the generation counters that invalidate every derived cache.
        self._rw_lock = ReadWriteLock()
        # Optional durability tier (attach_durability): when present, every
        # mutation is WAL-logged before it is applied, and checkpoints run
        # on the manager's cadence — all inside the exclusive writer, so
        # WAL order is exactly the serialization order.
        self._durability = None
        # What the writes applied, counted as replay counts (no skips here).
        self._applied = ReplayCounts()
        # Optional ingest-time near-duplicate screening, seeded from the
        # (possibly pre-built or recovered) live corpus.
        self._dedup: Optional[NearDuplicateDetector] = None
        if config.near_duplicate_threshold is not None:
            self._dedup = NearDuplicateDetector(config.near_duplicate_threshold)
            self._dedup.seed_from_index(self._inverted_index)

    # -- accessors -------------------------------------------------------------

    @property
    def collection(self) -> Collection:
        """The collection being searched."""
        return self._collection

    @property
    def inverted_index(self) -> InvertedIndex:
        """The text index."""
        return self._inverted_index

    @property
    def visual_index(self) -> VisualIndex:
        """The visual index."""
        return self._visual_index

    @property
    def config(self) -> EngineConfig:
        """The engine configuration."""
        return self._config

    @property
    def tokenizer(self) -> Tokenizer:
        """The query/document tokenizer."""
        return self._tokenizer

    # -- read-mostly concurrency discipline ---------------------------------------

    @contextmanager
    def read_access(self) -> Iterator[None]:
        """Shared-side scope for anything that reads the indexes.

        Readers never block each other; they only wait while an exclusive
        writer (:meth:`exclusive_writer`) is active or waiting.  The scope
        is reentrant per thread, so the service can hold it around a whole
        session operation while :meth:`search` takes it again internally.
        """
        with self._rw_lock.read_locked():
            yield

    def exclusive_writer(self) -> ContextManager[None]:
        """Exclusive scope for index mutation.

        Waits for in-flight searches to drain, blocks new ones for the
        duration, and is the only sanctioned way to mutate the engine's
        indexes once the engine is serving traffic.  Mutations bump the
        index ``generation`` counters, which invalidates the result cache
        and every per-term derived cache, so the first search after the
        scope exits sees a fully consistent snapshot.
        """
        return self._rw_lock.write_locked()

    def attach_durability(self, manager) -> None:
        """Attach a :class:`~repro.durability.manager.DurabilityManager`.

        From this point on every write appends its op record through the
        manager's ``log_index_op`` once its checks pass and before it is
        applied, and snapshots are taken on the manager's cadence.  Must be
        called before the engine serves traffic (it is not itself
        synchronised).
        """
        self._durability = manager

    @property
    def durability(self):
        """The attached durability manager, or ``None``."""
        return self._durability

    @property
    def may_block(self) -> bool:
        """Whether a request on this engine may wait on something but the CPU.

        ``True`` when a durability manager is attached — a durable writer
        holds the exclusive lock across WAL fsyncs and checkpoint writes,
        so a reader can wait on I/O — or when the text scorer may block (an
        absent attribute counts as ``True``).  The built-in in-memory
        scorers make it ``False``.  Read per request, so a scorer swapped in mid-run
        changes the answer for the next one.
        """
        return self._durability is not None or getattr(
            self._text_scorer, "may_block", True
        )

    def _commit_locked(self, op: str, item_id: str, payload) -> None:
        """Log (when durable) and apply one write its caller has checked,
        under the writer lock, with ``apply_op``: the function recovery, the
        snapshot fold and replicas replay records with.  The near-duplicate
        screen then consumes the applied op."""
        if self._durability is not None:
            self._durability.log_index_op(op_record(op, item_id, payload))
        apply_op(
            op, item_id, payload, self._inverted_index, self._visual_index, self._applied
        )
        dedup = self._dedup
        if dedup is not None and (op in ("doc", "upd") or payload == "doc"):
            dedup.discard(item_id)
            if op != "del":
                dedup.add(item_id, payload)

    def _maybe_checkpoint_locked(self) -> None:
        if self._durability is not None:
            self._durability.maybe_checkpoint(self)

    def index_document(self, document_id: str, text: str) -> None:
        """Add one transcript document through the writer path."""
        self.index_documents({document_id: text})

    def index_documents(self, documents: Mapping[str, str]) -> None:
        """Add several transcript documents in one exclusive writer scope.

        Every id is checked before any document is logged or applied, so a
        duplicate anywhere in the mapping raises
        :class:`~repro.errors.InvalidArgumentError` with the index, the log
        and the statistics all untouched.  A document the near-duplicate
        screen matches is skipped (and counted), never logged.
        """
        with self.exclusive_writer():
            self._inverted_index.slots.check_new(documents)
            term_frequencies = self._inverted_index.tokenizer.term_frequencies
            dedup = self._dedup
            for document_id, text in documents.items():
                frequencies = term_frequencies(text)
                if dedup is None or dedup.screen(frequencies) is None:
                    self._commit_locked("doc", document_id, frequencies)
            self._maybe_checkpoint_locked()

    def delete_document(self, document_id: str) -> None:
        """Delete one transcript document through the writer path.

        An unknown id raises :class:`~repro.errors.NotIndexedError` (a
        ``KeyError``) before anything is logged.  The
        dense slot is tombstoned, postings are scrubbed and collection
        statistics corrected (see :class:`~repro.index.inverted_index.
        InvertedIndex`), and the generation bump invalidates every cached
        result, so post-delete rankings match a rebuild over the survivors.
        """
        with self.exclusive_writer():
            self._inverted_index.slots.check_live(document_id)
            self._commit_locked("del", document_id, "doc")
            self._maybe_checkpoint_locked()

    def update_document(self, document_id: str, text: str) -> None:
        """Replace one document's transcript through the writer path.

        Logged (and replayed) as delete + re-add: the document moves to a
        fresh dense slot, exactly as a from-scratch replay would place it.
        Updates bypass near-duplicate screening — the caller is explicitly
        replacing known content — but refresh the screened vector.
        """
        with self.exclusive_writer():
            self._inverted_index.slots.check_live(document_id)
            frequencies = self._inverted_index.tokenizer.term_frequencies(text)
            self._commit_locked("upd", document_id, frequencies)
            self._maybe_checkpoint_locked()

    def index_shot(
        self,
        shot_id: str,
        features: Sequence[float],
        concept_scores: Optional[Mapping[str, float]] = None,
    ) -> None:
        """Add one shot's visual evidence through the writer path.

        A duplicate id, features of non-finite norm and features of another
        length than the live shots' raise
        :class:`~repro.errors.InvalidArgumentError` before the WAL append,
        so a refused shot consumes no LSN (and cannot poison every later
        query-by-example search).
        """
        with self.exclusive_writer():
            vector = self._visual_index.check_new_shot(shot_id, features)
            self._commit_locked("shot", shot_id, (vector, concept_scores))
            self._maybe_checkpoint_locked()

    def delete_shot(self, shot_id: str) -> None:
        """Delete one shot's visual evidence through the writer path."""
        with self.exclusive_writer():
            self._visual_index.slots.check_live(shot_id)
            self._commit_locked("del", shot_id, "shot")
            self._maybe_checkpoint_locked()

    def compact(self) -> CompactionStats:
        """Reclaim tombstoned index slots, generation-safely.

        Runs :func:`repro.index.compaction.compact_engine`: preparation
        under the read lock, adoption under the exclusive writer with a
        generation re-check, rankings bit-identical before and after.  Safe
        to call concurrently with searches and writes.
        """
        return compact_engine(self)

    def note_compaction_locked(self) -> None:
        """Called by compaction adoption while the writer lock is held."""
        if self._durability is not None:
            self._durability.note_compaction()

    def near_duplicate_stats(self) -> Optional[Dict[str, float]]:
        """Screening counters, or ``None`` when screening is disabled."""
        dedup = self._dedup
        if dedup is None:
            return None
        return {
            "threshold": dedup.threshold,
            "skipped": float(dedup.skipped_count),
            "tracked": float(dedup.tracked_count),
        }

    # -- scoring -----------------------------------------------------------------

    def _query_term_weights(self, query: Query) -> Dict[str, float]:
        """Weighted index terms for a query: tokenised text plus explicit
        term weights (normalised through the same stemmer)."""
        term_weights: Dict[str, float] = {}
        for token in self._tokenizer.tokenize(query.text):
            term_weights[token] = term_weights.get(token, 0.0) + 1.0
        for term, weight in query.term_weights.items():
            normalised = self._tokenizer.stem_token(term.lower())
            term_weights[normalised] = term_weights.get(normalised, 0.0) + weight
        return term_weights

    def text_scores(self, query: Query) -> Mapping[str, float]:
        """Text-evidence scores for a query (terms from text plus weights).

        The built-in scorers answer with a
        :class:`~repro.index.scoring.DenseScores`: read it by key only
        under the read lock it was scored under (:meth:`read_access`), or
        a delete landing in between makes it raise ``StaleScoresError``.
        """
        term_weights = self._query_term_weights(query)
        if not term_weights:
            return {}
        return self._text_scorer.score(term_weights)

    def visual_scores(self, query: Query) -> Dict[str, float]:
        """Visual-similarity scores for a query's example shots."""
        if not query.example_shot_ids:
            return {}
        combined: Dict[str, float] = {}
        for shot_id in query.example_shot_ids:
            if not self._visual_index.has_shot(shot_id):
                continue
            for candidate_id, similarity in self._visual_index.similar_to_shot(
                shot_id, limit=self._config.result_limit
            ):
                combined[candidate_id] = max(combined.get(candidate_id, 0.0), similarity)
        return combined

    def concept_scores(self, query: Query) -> Dict[str, float]:
        """Concept-detector scores for a query's concept weights."""
        if not query.concept_weights:
            return {}
        return self._visual_index.score_by_concepts(query.concept_weights)

    # -- search ---------------------------------------------------------------------

    @staticmethod
    def _copy_results(results: ResultList) -> ResultList:
        return ResultList(
            query_text=results.query_text,
            items=list(results.items),
            topic_id=results.topic_id,
        )

    def result_cache_stats(self) -> Dict[str, float]:
        """Counters of the persistent result cache: ``hits``, ``misses``,
        ``hit_rate``, ``entries`` of ``capacity``, and the window → main
        admission decisions, ``admitted`` and ``rejected``.

        Counters survive generation-bump invalidations (an invalidated
        lookup counts as a miss), so the hit rate reflects what callers
        actually experienced across index mutations.
        """
        return self._result_cache.stats()

    def search(self, query: Query, limit: Optional[int] = None) -> ResultList:
        """Run a multimodal search and return a ranked result list.

        Concurrent calls are safe and never block one another: evaluation
        runs on the shared side of the engine's read/write discipline, the
        result cache carries its own lock (two threads missing on the same
        key both evaluate and store identical values — the engine is
        deterministic), and an exclusive writer (:meth:`exclusive_writer`)
        is the only thing a search ever waits for.
        """
        with self._rw_lock.read_locked():
            return self._search_read_locked(query, limit)

    def _search_read_locked(self, query: Query, limit: Optional[int]) -> ResultList:
        # Cancellation checkpoint at entry: a request whose deadline already
        # fired stops here, before any cache has been read or written.
        checkpoint_if_cancelled()
        if self._config.result_cache_size == 0:
            return self._search_uncached(query, limit)
        cache_key = query.cache_key() + (limit or self._config.result_limit,)
        # The segments are read once, here, and the miss's slot writes the
        # result into that same object.  A mutation landing during
        # evaluation (a legacy direct index call) moves the clock, so the
        # next lookup builds new segments and these — holding a ranking
        # that may predate the mutation — are never served.
        cached, slot = self._result_cache.lookup(cache_key)
        if cached is not None:
            return self._copy_results(cached)
        results = self._search_uncached(query, limit)
        self._result_cache.insert(slot, self._copy_results(results))
        return results

    def _search_uncached(self, query: Query, limit: Optional[int] = None) -> ResultList:
        if query.is_empty():
            return ResultList(query_text=query.text, items=[], topic_id=query.topic_id)
        score_maps: List[Mapping[str, float]] = []
        weights: List[float] = []
        # Checkpoints between evidence sources: a deadline firing mid-search
        # abandons the evaluation before fusion, so no partial ranking can
        # ever be observed (or cached) by anyone.
        text = self.text_scores(query)
        if text:
            score_maps.append(text)
            weights.append(self._config.text_weight)
        checkpoint_if_cancelled()
        visual = self.visual_scores(query)
        if visual:
            score_maps.append(visual)
            weights.append(self._config.visual_weight)
        checkpoint_if_cancelled()
        concepts = self.concept_scores(query)
        if concepts:
            score_maps.append(concepts)
            weights.append(self._config.concept_weight)
        checkpoint_if_cancelled()
        if not score_maps:
            return ResultList(query_text=query.text, items=[], topic_id=query.topic_id)
        if len(score_maps) == 1:
            return self._single_source_results(query, score_maps[0], weights[0], limit)
        fused = weighted_fusion(score_maps, weights)
        return ResultList.from_scores(
            query_text=query.text,
            scores=fused,
            collection=self._collection,
            limit=limit or self._config.result_limit,
            topic_id=query.topic_id,
        )

    def _single_source_results(
        self,
        query: Query,
        scores: Mapping[str, float],
        weight: float,
        limit: Optional[int],
    ) -> ResultList:
        """Fast path for single-evidence searches (e.g. text-only configs).

        Applies exactly the arithmetic ``weighted_fusion`` would — min-max
        normalisation scaled by the source weight — but straight off the
        dense column of the map (:class:`~repro.index.scoring.DenseScores`;
        a visual or concept dict is wrapped as one).  The candidate indexes
        are sorted once by raw value: the ends of that order give the
        bounds, and the exact cut is a start position into it
        (:func:`_cut_start`).  Only the candidates from the start on are
        decorated into ``(-fused_score, shot_id)`` tuples, the only ones
        whose shot id is read.  No ``{shot_id: score}`` dict is built.
        Called under the read lock the scores were computed under, so the
        lazy id reads are exact.  Equivalence with the general path is
        pinned by the kernel-equivalence tests and
        ``tests/test_dense_scores.py``, the cut's exactness by
        ``tests/test_exact_cut_selection.py``.
        """
        if weight == 0 or not scores:
            return ResultList(query_text=query.text, items=[], topic_id=query.topic_id)
        limit = limit or self._config.result_limit
        dense = DenseScores.of(scores)
        column, ids = dense.scores, dense.ids
        order = sorted(dense.candidates, key=column.__getitem__)
        # The ends of the order are the bounds min/max would give: a stable
        # sort keeps the first minimum first, and a last maximum that
        # differs from the first only in the sign of zero changes ``span``
        # only when it is zero, which both paths read alike.
        low, span = normalisation_bounds_of_values(
            (column[order[0]], column[order[-1]])
        )
        if span == 0.0:
            fused = -(weight * 1.0)
            decorated = [(fused, ids[d]) for d in order]
        else:
            if weight > 0 and len(order) > 2 * limit:
                order = order[_cut_start(order, column, weight, low, span, limit):]
            decorated = [
                (-(weight * ((column[d] - low) / span)), ids[d]) for d in order
            ]
        return ResultList.from_decorated(
            query_text=query.text,
            decorated=decorated,
            collection=self._collection,
            limit=limit,
            topic_id=query.topic_id,
        )

    def search_text(self, text: str, limit: Optional[int] = None,
                    topic_id: Optional[str] = None) -> ResultList:
        """Convenience wrapper for a plain keyword search."""
        return self.search(Query.from_text(text, topic_id=topic_id), limit=limit)

    def more_like_this(self, shot_id: str, limit: int = 20) -> ResultList:
        """Query-by-example: shots similar to a given shot.

        Combines visual similarity with key terms extracted from the shot's
        transcript, which is how "find more like this keyframe" behaves in
        interactive news-video systems.
        """
        ensure_positive(limit, "limit")
        shot = self._collection.shot(shot_id)
        key_terms = extract_key_terms(self._inverted_index, [shot_id], limit=8)
        query = Query(term_weights=key_terms, example_shot_ids=[shot_id])
        results = self.search(query, limit=limit + 1)
        items = [item for item in results if item.shot_id != shot_id][:limit]
        reranked = [item._replace(rank=rank) for rank, item in enumerate(items, start=1)]
        return ResultList(query_text=f"more-like:{shot_id}", items=reranked)

    def close(self) -> None:
        """Release auxiliary resources (syncs and closes any durability tier)."""
        if self._durability is not None:
            self._durability.close()

    def expand_query(
        self,
        query: Query,
        relevant_shot_ids,
        non_relevant_shot_ids=(),
        expansion_terms: int = 20,
    ) -> Query:
        """Apply Rocchio feedback to a query using judged shots."""
        expander = RocchioExpander(
            self._inverted_index, expansion_terms=expansion_terms
        )
        base_terms = self._query_term_weights(query)
        expanded = expander.expand(base_terms, list(relevant_shot_ids), list(non_relevant_shot_ids))
        return query.with_term_weights(expanded)

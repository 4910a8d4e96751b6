"""Sharded index facades: one logical index over N physical shards.

:class:`ShardedInvertedIndex` and :class:`ShardedVisualIndex` present the
read/write API of their monolithic counterparts while storing documents and
shots in per-shard indexes chosen by a :class:`~repro.sharding.router.
ShardRouter`.  What reads only the slot table or the index's own methods
is inherited from the base the monolithic class has too
(:class:`~repro.index.inverted_index.TextIndexBase`,
:class:`~repro.index.visual.VisualIndexBase`).  Four properties make them
drop-in substrates for the retrieval engine and the adaptive layer:

* **Global interning.**  Each facade keeps a global
  :class:`~repro.index.slots.SlotTable` (``slots``) in insertion order,
  numbered exactly like the monolithic index built from the same insertion
  sequence — the adaptation kernel's dense scratch passes run unchanged
  over a sharded engine.  Compaction prepares that table and every shard
  (``compacted_copy``) and adopts them together.
* **Write routing.**  ``add_document`` / ``add_shot`` land on the owning
  shard (a duplicate id is refused by its shard, with the monolithic error
  message).  ``generation`` is the sum of the shard generations — a strict
  logical clock because all mutation is serialised behind the engine's
  exclusive writer — so every value derived per generation above the
  facade (:class:`~repro.index.slots.PerGeneration`) is rebuilt after any
  shard write.
* **Global statistics.**  The text facade's statistics are the
  collection's: ``document_count`` and ``average_document_length`` from
  the global table, ``total_terms`` summed over the shards, and
  ``document_frequency`` / ``collection_frequency`` summed once per term
  and generation.  Each shard's scorer reads them through a
  :class:`~repro.sharding.global_stats.GlobalStatsView` over ``(shard,
  facade)``.
* **Exact gathered reads.**  Cross-shard reads that rank or score
  (``similar_to_vector``, ``similar_to_shot``, ``score_by_concepts``)
  scatter to the shards and merge with the same selection key the
  monolithic code uses, so the gathered result is bit-identical to the
  unsharded evaluation (per-shard top-``limit`` lists always contain the
  global top-``limit`` under the shared ``(-score, id)`` order).

The text facade deliberately does **not** implement ``postings_arrays``:
per-shard postings columns use shard-dense slots, so a scorer must be
built over a per-shard :class:`~repro.sharding.global_stats.GlobalStatsView`,
never over this facade.  Attempting it fails loudly with ``AttributeError``.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.features import FeatureExtractor
from repro.collection.documents import Collection
from repro.index.inverted_index import InvertedIndex, Posting, TextIndexBase
from repro.index.slots import PerGeneration, SlotTable, SlottedIndex
from repro.index.tokenizer import Tokenizer
from repro.index.visual import NeighbourTable, VisualIndex, VisualIndexBase
from repro.sharding.router import ShardRouter
from repro.utils.concurrency import ScatterGather
from repro.utils.validation import ensure_positive

#: Inline (single-worker) gather used when a facade is built standalone.
_INLINE_GATHER = ScatterGather(1)


class _ShardedIndex(SlottedIndex):
    """What both facades share: the router, the shards, a global slot table.

    The global table numbers ids in facade insertion order, tombstones
    included; the shards hold the payload.  The facade's clock is the sum
    of the shard generations, not the table's.
    """

    def __init__(self, router: ShardRouter, shards: list, slots: SlotTable) -> None:
        self._router = router
        self._shards = shards
        self.slots = slots

    @property
    def router(self) -> ShardRouter:
        """The id router deciding shard ownership."""
        return self._router

    @property
    def shard_indexes(self) -> tuple:
        """The physical per-shard indexes."""
        return tuple(self._shards)

    def shard_for(self, item_id: str):
        """The shard index owning an id."""
        return self._shards[self._router.shard_of(item_id)]

    @property
    def generation(self) -> int:
        """Combined mutation clock (sum of shard generations)."""
        return sum(shard.generation for shard in self._shards)

    def compacted_copy(self) -> Tuple[SlotTable, list]:
        """``(global table, shards)``, each freshly compacted.

        Pure preparation — this object is untouched, so the (possibly
        expensive) re-interning can run outside the engine's writer lock.
        """
        return self.slots.compacted(), [shard.compacted_copy() for shard in self._shards]

    def adopt_compacted(self, prepared: Tuple[SlotTable, list]) -> int:
        """Swap a prepared compaction in, preserving shard identities."""
        table, shards = prepared
        for shard, fresh in zip(self._shards, shards):
            shard.adopt_compacted(fresh)
        return self.slots.adopt(table)


class ShardedInvertedIndex(_ShardedIndex, TextIndexBase):
    """One logical inverted index hash-partitioned over N shards."""

    def __init__(self, router: ShardRouter, tokenizer: Optional[Tokenizer] = None) -> None:
        self._tokenizer = tokenizer or Tokenizer()
        super().__init__(
            router,
            [InvertedIndex(tokenizer=self._tokenizer) for _ in range(router.num_shards)],
            SlotTable("document", "indexed"),
        )
        # Per-term sums over the shards, for one combined generation.
        self._document_frequencies: PerGeneration[Dict[str, int]] = PerGeneration(
            self, dict
        )
        self._collection_frequencies: PerGeneration[Dict[str, int]] = PerGeneration(
            self, dict
        )

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_collection(
        cls,
        collection: Collection,
        router: ShardRouter,
        tokenizer: Optional[Tokenizer] = None,
    ) -> "ShardedInvertedIndex":
        """Build a sharded index over every shot transcript in a collection."""
        index = cls(router, tokenizer=tokenizer)
        for shot in collection.iter_shots():
            index.add_document(shot.shot_id, shot.transcript)
        return index

    def add_document_frequencies(
        self, document_id: str, frequencies: Mapping[str, int]
    ) -> None:
        """Index an already-tokenised document on its owning shard.

        The owning shard refuses a duplicate before the global table
        records the id.
        """
        self.shard_for(document_id).add_document_frequencies(document_id, frequencies)
        self.slots.add(document_id)

    # -- mutation ---------------------------------------------------------------

    def delete_document(self, document_id: str) -> None:
        """Remove one document from its owning shard; unknown ids raise.

        The owning shard scrubs its postings; the facade tombstones its
        global slot so global interning matches a monolithic index that saw
        the same delete.
        """
        self.slots.remove(document_id)
        self.shard_for(document_id).delete_document(document_id)

    # -- statistics -------------------------------------------------------------

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct index terms across all shards."""
        vocabulary: set = set()
        for shard in self._shards:
            vocabulary.update(shard.terms())
        return len(vocabulary)

    @property
    def total_terms(self) -> int:
        """Total term occurrences across all shards."""
        return sum(shard.total_terms for shard in self._shards)

    def document_length(self, document_id: str) -> int:
        """Length (term count) of one document."""
        return self.shard_for(document_id).document_length(document_id)

    def document_frequency(self, term: str) -> int:
        """Global document frequency of a term (summed once a generation)."""
        sums = self._document_frequencies.get()
        total = sums.get(term)
        if total is None:
            total = sums[term] = sum(
                shard.document_frequency(term) for shard in self._shards
            )
        return total

    def collection_frequency(self, term: str) -> int:
        """Global collection frequency of a term (summed once a generation)."""
        sums = self._collection_frequencies.get()
        total = sums.get(term)
        if total is None:
            total = sums[term] = sum(
                shard.collection_frequency(term) for shard in self._shards
            )
        return total

    def postings(self, term: str) -> List[Posting]:
        """Object-view postings gathered across shards (per-shard order)."""
        gathered: List[Posting] = []
        for shard in self._shards:
            gathered.extend(shard.postings(term))
        return gathered

    def terms(self) -> List[str]:
        """All index terms (shard order, de-duplicated)."""
        seen: Dict[str, None] = {}
        for shard in self._shards:
            for term in shard.terms():
                seen.setdefault(term, None)
        return list(seen)

    def document_vector(self, document_id: str) -> Dict[str, int]:
        """Term-frequency vector of one document (a copy)."""
        return self.shard_for(document_id).document_vector(document_id)

    def document_vector_view(self, document_id: str) -> Mapping[str, int]:
        """No-copy term-frequency vector of one document (read-only)."""
        return self.shard_for(document_id).document_vector_view(document_id)

    def term_frequency(self, term: str, document_id: str) -> int:
        """Frequency of ``term`` in ``document_id`` (0 if absent)."""
        return self.shard_for(document_id).term_frequency(term, document_id)

    # -- export -----------------------------------------------------------------

    def shard_document_counts(self) -> List[int]:
        """Documents per shard (for balance reporting and benchmarks)."""
        return [shard.document_count for shard in self._shards]

    def __contains__(self, term: str) -> bool:
        return any(term in shard for shard in self._shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedInvertedIndex(shards={self._router.num_shards}, "
            f"documents={self.document_count})"
        )


class ShardedVisualIndex(_ShardedIndex, VisualIndexBase):
    """One logical visual index hash-partitioned over N shards.

    Gathered similarity reads merge per-shard bounded results under the
    same ``(-similarity, shot_id)`` selection key the monolithic index
    uses, so ``similar_to_vector`` / ``similar_to_shot`` return exactly the
    list the unsharded index would.  ``similar_to_shot`` answers from the
    facade's own :class:`~repro.index.visual.NeighbourTable` (global
    neighbours, kept exact by the facade's writes); the shards are only
    ever scanned by vector, so their tables stay empty.
    """

    def __init__(
        self, router: ShardRouter, gather: Optional[ScatterGather] = None
    ) -> None:
        super().__init__(
            router,
            [VisualIndex() for _ in range(router.num_shards)],
            SlotTable("shot", "in visual index"),
        )
        self._gather = gather or _INLINE_GATHER
        self._neighbours = NeighbourTable()

    def __getstate__(self) -> Dict[str, object]:
        # The gather executor owns threads and locks.  A clone gathers
        # inline, like any facade built standalone, until bind_gather().
        state = self.__dict__.copy()
        del state["_gather"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._gather = _INLINE_GATHER

    # -- construction --------------------------------------------------------

    @classmethod
    def from_collection(
        cls,
        collection: Collection,
        router: ShardRouter,
        feature_extractor: Optional[FeatureExtractor] = None,
        gather: Optional[ScatterGather] = None,
    ) -> "ShardedVisualIndex":
        """Build a sharded visual index from a collection."""
        extractor = feature_extractor or FeatureExtractor()
        index = cls(router, gather=gather)
        for shot in collection.iter_shots():
            features = shot.features or extractor.extract(shot.keyframe)
            index.add_shot(shot.shot_id, features, shot.concept_scores)
        return index

    def bind_gather(self, gather: ScatterGather) -> None:
        """Adopt an engine's scatter-gather executor.

        A facade built standalone (e.g. rebuilt from a recovered snapshot)
        gathers inline; the engine that adopts it rebinds it to the shared
        shard pool here, before serving traffic.
        """
        self._gather = gather

    def add_shot(
        self,
        shot_id: str,
        features: Sequence[float],
        concept_scores: Optional[Mapping[str, float]] = None,
    ) -> None:
        """Add one shot's visual evidence on its owning shard.

        Duplicates and features of non-finite norm raise ``ValueError``
        before anything changes: the shard's own ``add_shot`` refuses both
        before the facade records the shot.
        """
        shard = self.shard_for(shot_id)
        shard.add_shot(shot_id, features, concept_scores)
        self.slots.add(shot_id)
        if self._neighbours:
            self._neighbours.shot_added(shot_id, shard.features_of(shot_id))

    def delete_shot(self, shot_id: str) -> None:
        """Remove one shot from its owning shard; unknown ids raise."""
        self.slots.remove(shot_id)
        self.shard_for(shot_id).delete_shot(shot_id)
        if self._neighbours:
            self._neighbours.shot_deleted(shot_id)

    # -- statistics ----------------------------------------------------------

    def features_of(self, shot_id: str) -> Tuple[float, ...]:
        """Feature vector of one shot; an unknown id raises ``KeyError``."""
        return self.shard_for(shot_id).features_of(shot_id)

    def concept_scores_of(self, shot_id: str) -> Dict[str, float]:
        """Concept confidence scores of one shot (a copy)."""
        return self.shard_for(shot_id).concept_scores_of(shot_id)

    def shard_shot_counts(self) -> List[int]:
        """Shots per shard (for balance reporting and benchmarks)."""
        return [shard.shot_count for shard in self._shards]

    # -- search ------------------------------------------------------------------

    def similar_to_vector(
        self, vector: Sequence[float], limit: int = 20, exclude: Sequence[str] = ()
    ) -> List[Tuple[str, float]]:
        """Shots most similar to a feature vector, gathered across shards.

        Each shard returns its own top-``limit`` under ``(-similarity,
        shot_id)``; the global top-``limit`` under the same key is a subset
        of that union, so the merged list is bit-identical to the
        monolithic scan.
        """
        ensure_positive(limit, "limit")
        query = tuple(vector)
        partials = self._gather.map(
            lambda shard: shard.similar_to_vector(query, limit=limit, exclude=exclude),
            self._shards,
        )
        merged = [item for partial in partials for item in partial]
        return heapq.nsmallest(limit, merged, key=lambda item: (-item[1], item[0]))

    def score_by_concepts(
        self, concept_weights: Mapping[str, float]
    ) -> Dict[str, float]:
        """Concept scores gathered across shards (disjoint-union merge)."""
        partials = self._gather.map(
            lambda shard: shard.score_by_concepts(concept_weights), self._shards
        )
        merged: Dict[str, float] = {}
        for partial in partials:
            merged.update(partial)
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedVisualIndex(shards={self._router.num_shards}, "
            f"shots={self.shot_count})"
        )

"""Sharded index facades: one logical index over N physical shards.

:class:`ShardedInvertedIndex` and :class:`ShardedVisualIndex` present the
read/write API of their monolithic counterparts while storing documents and
shots in per-shard indexes chosen by a :class:`~repro.sharding.router.
ShardRouter`.  Three properties make them drop-in substrates for the
retrieval engine and the adaptive layer:

* **Global interning.**  The facades keep their own dense id tables in
  insertion order, so ``doc_index_get`` / ``doc_id_at`` /
  ``document_count`` behave exactly like the monolithic index built from
  the same insertion sequence — the adaptation kernel's dense scratch
  passes run unchanged over a sharded engine.
* **Write routing.**  ``add_document`` / ``add_shot`` land on the owning
  shard (duplicate ids are rejected globally, with the monolithic error
  message).  ``generation`` is the sum of the shard generations — a strict
  logical clock because all mutation is serialised behind the engine's
  exclusive writer — so every generation-keyed derived cache above the
  facade invalidates on any shard write.
* **Exact gathered reads.**  Cross-shard reads that rank or score
  (``similar_to_vector``, ``similar_to_shot``, ``score_by_concepts``)
  scatter to the shards and merge with the same selection key the
  monolithic code uses, so the gathered result is bit-identical to the
  unsharded evaluation (per-shard top-``limit`` lists always contain the
  global top-``limit`` under the shared ``(-score, id)`` order).

The text facade deliberately does **not** implement ``postings_arrays``:
per-shard postings columns use shard-dense indexes, so a
scorer must be built over a per-shard
:class:`~repro.sharding.global_stats.GlobalStatsView`, never over this
facade.  Attempting it fails loudly with ``AttributeError``.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.features import FeatureExtractor, cosine_similarity
from repro.collection.documents import Collection
from repro.index.inverted_index import InvertedIndex, Posting
from repro.index.tokenizer import Tokenizer
from repro.index.visual import NeighbourTable, VisualIndex
from repro.sharding.global_stats import GlobalTextStats
from repro.sharding.router import ShardRouter
from repro.utils.concurrency import ScatterGather
from repro.utils.validation import ensure_positive

#: Inline (single-worker) gather used when a facade is built standalone.
_INLINE_GATHER = ScatterGather(1)


@dataclass
class _CompactedTextState:
    """Prepared compaction for :class:`ShardedInvertedIndex` (see adopt)."""

    shards: List[InvertedIndex]
    doc_ids: List[str]
    doc_index: Dict[str, int]
    doc_lengths: array


@dataclass
class _CompactedVisualState:
    """Prepared compaction for :class:`ShardedVisualIndex` (see adopt)."""

    shards: List[VisualIndex]
    shot_ids: List[str]
    shot_index: Dict[str, int]


class ShardedInvertedIndex:
    """One logical inverted index hash-partitioned over N shards."""

    def __init__(self, router: ShardRouter, tokenizer: Optional[Tokenizer] = None) -> None:
        self._router = router
        self._tokenizer = tokenizer or Tokenizer()
        self._shards = [
            InvertedIndex(tokenizer=self._tokenizer) for _ in range(router.num_shards)
        ]
        self._stats = GlobalTextStats(self._shards)
        # Global dense interning, in insertion order — identical numbering
        # to a monolithic index fed the same documents in the same order.
        # Deleted documents leave a ``None`` tombstone, like the monolith.
        self._doc_ids: List[Optional[str]] = []
        self._doc_index: Dict[str, int] = {}
        self._doc_lengths = array("i")

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

    @property
    def tokenizer(self) -> Tokenizer:
        """The tokenizer shared by every shard."""
        return self._tokenizer

    @property
    def router(self) -> ShardRouter:
        """The id router deciding shard ownership."""
        return self._router

    @property
    def shard_indexes(self) -> Tuple[InvertedIndex, ...]:
        """The physical per-shard indexes."""
        return tuple(self._shards)

    @property
    def stats(self) -> GlobalTextStats:
        """The global statistics aggregator over the shards."""
        return self._stats

    def shard_for(self, document_id: str) -> InvertedIndex:
        """The shard index owning a document id."""
        return self._shards[self._router.shard_of(document_id)]

    def add_document(self, document_id: str, text: str) -> None:
        """Index one document on its owning shard; duplicates raise."""
        self.add_document_frequencies(
            document_id, self._tokenizer.term_frequencies(text)
        )

    def add_document_frequencies(
        self, document_id: str, frequencies: Mapping[str, int]
    ) -> None:
        """Index an already-tokenised document on its owning shard."""
        if document_id in self._doc_index:
            raise ValueError(f"document {document_id!r} already indexed")
        shard = self.shard_for(document_id)
        shard.add_document_frequencies(document_id, frequencies)
        self._doc_index[document_id] = len(self._doc_ids)
        self._doc_ids.append(document_id)
        self._doc_lengths.append(shard.document_length(document_id))

    def add_documents(self, documents: Mapping[str, str]) -> None:
        """Index a mapping of ``document_id -> text`` atomically.

        Mirrors the monolithic index: every id is validated globally before
        any document lands on a shard, so a duplicate anywhere in the batch
        leaves every shard (and the global tables) untouched.
        """
        for document_id in documents:
            if document_id in self._doc_index:
                raise ValueError(f"document {document_id!r} already indexed")
        for document_id, text in documents.items():
            self.add_document(document_id, text)

    # -- mutation ---------------------------------------------------------------

    def delete_document(self, document_id: str) -> None:
        """Remove one document from its owning shard; unknown ids raise.

        The owning shard scrubs its postings; the facade tombstones its
        global dense slot so global interning matches a monolithic index
        that saw the same delete.
        """
        doc_index = self._doc_index.pop(document_id, None)
        if doc_index is None:
            raise KeyError(f"document {document_id!r} not indexed")
        self.shard_for(document_id).delete_document(document_id)
        self._doc_ids[doc_index] = None
        self._doc_lengths[doc_index] = 0

    def update_document(self, document_id: str, text: str) -> None:
        """Replace one document's text; an unknown id raises ``KeyError``."""
        self.update_document_frequencies(
            document_id, self._tokenizer.term_frequencies(text)
        )

    def update_document_frequencies(
        self, document_id: str, frequencies: Mapping[str, int]
    ) -> None:
        """Replace one document (delete + re-add on the owning shard)."""
        if document_id not in self._doc_index:
            raise KeyError(f"document {document_id!r} not indexed")
        self.delete_document(document_id)
        self.add_document_frequencies(document_id, frequencies)

    # -- compaction --------------------------------------------------------------

    @property
    def tombstone_count(self) -> int:
        """Tombstoned global dense slots not yet reclaimed by compaction."""
        return len(self._doc_ids) - len(self._doc_index)

    def compacted_copy(self) -> "_CompactedTextState":
        """Freshly compacted per-shard copies plus rebuilt global tables.

        Pure preparation — this object is untouched, so the (possibly
        expensive) re-interning can run outside the engine's writer lock.
        """
        live_ids = [d for d in self._doc_ids if d is not None]
        doc_index = {document_id: i for i, document_id in enumerate(live_ids)}
        lengths = array(
            "i", (self._doc_lengths[self._doc_index[d]] for d in live_ids)
        )
        return _CompactedTextState(
            shards=[shard.compacted_copy() for shard in self._shards],
            doc_ids=live_ids,
            doc_index=doc_index,
            doc_lengths=lengths,
        )

    def adopt_compacted(self, state: "_CompactedTextState") -> int:
        """Swap a prepared compacted state in, preserving shard identities."""
        reclaimed = len(self._doc_ids) - len(state.doc_ids)
        for shard, fresh in zip(self._shards, state.shards):
            shard.adopt_compacted(fresh)
        self._doc_ids = state.doc_ids
        self._doc_index = state.doc_index
        self._doc_lengths = state.doc_lengths
        return reclaimed

    def compact(self) -> int:
        """Reclaim tombstoned slots in place; no-op when there are none."""
        if self.tombstone_count == 0:
            return 0
        return self.adopt_compacted(self.compacted_copy())

    # -- statistics -------------------------------------------------------------

    @property
    def document_count(self) -> int:
        """Total **live** documents across all shards."""
        return len(self._doc_index)

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
        return self._stats.total_terms

    @property
    def average_document_length(self) -> float:
        """Global mean **live** document length in terms."""
        if not self._doc_index:
            return 0.0
        return self._stats.total_terms / len(self._doc_index)

    @property
    def generation(self) -> int:
        """Combined mutation clock (sum of shard generations)."""
        return self._stats.generation

    def document_length(self, document_id: str) -> int:
        """Length (term count) of one document."""
        return self._doc_lengths[self._doc_index[document_id]]

    def has_document(self, document_id: str) -> bool:
        """True if the document is indexed on any shard."""
        return document_id in self._doc_index

    def document_ids(self) -> List[str]:
        """All **live** document ids, in global insertion order."""
        return [document_id for document_id in self._doc_ids if document_id is not None]

    def document_frequency(self, term: str) -> int:
        """Global document frequency of a term."""
        return self._stats.document_frequency(term)

    def collection_frequency(self, term: str) -> int:
        """Global collection frequency of a term."""
        return self._stats.collection_frequency(term)

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

    # -- dense (global) views -----------------------------------------------------

    def doc_index_of(self, document_id: str) -> int:
        """Global dense index of a document id (raises ``KeyError`` if absent)."""
        return self._doc_index[document_id]

    def doc_id_at(self, doc_index: int) -> str:
        """Document id at a global dense index."""
        return self._doc_ids[doc_index]

    def doc_index_get(self, document_id: str, default: Optional[int] = None):
        """Global dense index of a document id, or ``default`` if absent."""
        return self._doc_index.get(document_id, default)

    def dense_document_ids(self) -> List[str]:
        """The global id table in dense-index order (read-only)."""
        return self._doc_ids

    @property
    def document_lengths_array(self) -> array:
        """Document lengths in global dense-index order (read-only)."""
        return self._doc_lengths

    # -- export -----------------------------------------------------------------

    def iter_postings(self) -> Iterable[Tuple[str, Posting]]:
        """Iterate ``(term, posting)`` pairs shard by shard."""
        for shard in self._shards:
            for term, posting in shard.iter_postings():
                yield term, posting

    def statistics(self) -> Dict[str, float]:
        """Summary statistics for reports."""
        return {
            "documents": float(self.document_count),
            "vocabulary": float(self.vocabulary_size),
            "total_terms": float(self.total_terms),
            "average_document_length": self.average_document_length,
        }

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


class ShardedVisualIndex:
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
        self._router = router
        self._gather = gather or _INLINE_GATHER
        self._shards = [VisualIndex() for _ in range(router.num_shards)]
        self._shot_ids: List[Optional[str]] = []
        self._shot_index: Dict[str, int] = {}
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

    @property
    def router(self) -> ShardRouter:
        """The id router deciding shard ownership."""
        return self._router

    def bind_gather(self, gather: ScatterGather) -> None:
        """Adopt an engine's scatter-gather executor.

        A facade built standalone (e.g. rebuilt from a recovered snapshot)
        gathers inline; the engine that adopts it rebinds it to the shared
        shard pool here, before serving traffic.
        """
        self._gather = gather

    @property
    def shard_indexes(self) -> Tuple[VisualIndex, ...]:
        """The physical per-shard indexes."""
        return tuple(self._shards)

    def shard_for(self, shot_id: str) -> VisualIndex:
        """The shard index owning a shot id."""
        return self._shards[self._router.shard_of(shot_id)]

    def add_shot(
        self,
        shot_id: str,
        features: Sequence[float],
        concept_scores: Optional[Mapping[str, float]] = None,
    ) -> None:
        """Add one shot's visual evidence on its owning shard.

        Duplicates and features of non-finite norm raise ``ValueError``
        before anything changes: the shard's own ``add_shot`` refuses the
        features before the facade records the shot.
        """
        if shot_id in self._shot_index:
            raise ValueError(f"shot {shot_id!r} already in visual index")
        shard = self.shard_for(shot_id)
        shard.add_shot(shot_id, features, concept_scores)
        self._shot_index[shot_id] = len(self._shot_ids)
        self._shot_ids.append(shot_id)
        if self._neighbours:
            self._neighbours.shot_added(shot_id, shard.features_of(shot_id))

    def delete_shot(self, shot_id: str) -> None:
        """Remove one shot from its owning shard; unknown ids raise."""
        shot_index = self._shot_index.pop(shot_id, None)
        if shot_index is None:
            raise KeyError(f"shot {shot_id!r} not in visual index")
        self.shard_for(shot_id).delete_shot(shot_id)
        self._shot_ids[shot_index] = None
        if self._neighbours:
            self._neighbours.shot_deleted(shot_id)

    # -- compaction ----------------------------------------------------------

    @property
    def tombstone_count(self) -> int:
        """Tombstoned global dense slots not yet reclaimed by compaction."""
        return len(self._shot_ids) - len(self._shot_index)

    def compacted_copy(self) -> "_CompactedVisualState":
        """Freshly compacted per-shard copies plus rebuilt global tables."""
        live_ids = [s for s in self._shot_ids if s is not None]
        return _CompactedVisualState(
            shards=[shard.compacted_copy() for shard in self._shards],
            shot_ids=live_ids,
            shot_index={shot_id: i for i, shot_id in enumerate(live_ids)},
        )

    def adopt_compacted(self, state: "_CompactedVisualState") -> int:
        """Swap a prepared compacted state in, preserving shard identities."""
        reclaimed = len(self._shot_ids) - len(state.shot_ids)
        for shard, fresh in zip(self._shards, state.shards):
            shard.adopt_compacted(fresh)
        self._shot_ids = state.shot_ids
        self._shot_index = state.shot_index
        return reclaimed

    def compact(self) -> int:
        """Reclaim tombstoned slots in place; no-op when there are none."""
        if self.tombstone_count == 0:
            return 0
        return self.adopt_compacted(self.compacted_copy())

    # -- statistics ----------------------------------------------------------

    @property
    def shot_count(self) -> int:
        """Total **live** shots across all shards."""
        return len(self._shot_index)

    @property
    def generation(self) -> int:
        """Combined mutation clock (sum of shard generations)."""
        return sum(shard.generation for shard in self._shards)

    def has_shot(self, shot_id: str) -> bool:
        """True if the shot has visual evidence on any shard."""
        return shot_id in self._shot_index

    def shot_ids(self) -> List[str]:
        """All **live** shot ids, in global insertion order."""
        return [shot_id for shot_id in self._shot_ids if shot_id is not None]

    def features_of(self, shot_id: str) -> Tuple[float, ...]:
        """Feature vector of one shot."""
        if shot_id not in self._shot_index:
            raise KeyError(shot_id)
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

    def similar_to_shot(self, shot_id: str, limit: int = 20) -> List[Tuple[str, float]]:
        """Shots most similar to a given shot (the query shot is excluded).

        Served from the neighbour table when it holds the answer; either
        way the list is the caller's own.
        """
        ensure_positive(limit, "limit")
        if shot_id not in self._shot_index:
            raise KeyError(f"shot {shot_id!r} not in visual index")
        cached = self._neighbours.get(shot_id, limit)
        if cached is not None:
            return cached
        features = self.shard_for(shot_id).features_of(shot_id)
        result = self.similar_to_vector(features, limit=limit, exclude=(shot_id,))
        self._neighbours.put(shot_id, limit, features, result)
        return result

    def neighbour_table_info(self) -> Dict[str, int]:
        """Occupancy and hit/miss/correction counters of the neighbour table."""
        return self._neighbours.info()

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

    def similarity(self, first_shot_id: str, second_shot_id: str) -> float:
        """Cosine similarity between two indexed shots (any shards)."""
        return cosine_similarity(
            self.features_of(first_shot_id), self.features_of(second_shot_id)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedVisualIndex(shards={self._router.num_shards}, "
            f"shots={self.shot_count})"
        )

"""The sharded text index: one logical inverted index over N physical shards.

:class:`ShardedInvertedIndex` presents the read/write API of
:class:`~repro.index.inverted_index.InvertedIndex` while storing documents
in per-shard indexes chosen by a :class:`~repro.sharding.router.
ShardRouter`.  What reads only the slot table or the index's own methods is
inherited from the base the monolithic class has too
(:class:`~repro.index.inverted_index.TextIndexBase`).  Shots are not
partitioned: a sharded engine keeps them in one
:class:`~repro.index.visual.VisualIndex`, like any engine, because a
visual read is pure CPU under the GIL and a gather over shards only adds
hand-offs.  Three properties make the facade a drop-in substrate for the
retrieval engine and the adaptive layer:

* **Global interning.**  The facade keeps a global
  :class:`~repro.index.slots.SlotTable` (``slots``) in insertion order,
  numbered exactly like the monolithic index built from the same insertion
  sequence — the adaptation kernel's dense scratch passes run unchanged
  over a sharded engine.  Compaction prepares that table and every shard
  (``compacted_copy``) and adopts them together.
* **Write routing.**  ``add_document`` lands on the owning shard (a
  duplicate id is refused by its shard, with the monolithic error
  message).  ``generation`` is the sum of the shard generations — a strict
  logical clock because all mutation is serialised behind the engine's
  exclusive writer — so every value derived per generation above the
  facade (:class:`~repro.index.slots.PerGeneration`) is rebuilt after any
  shard write.
* **Global statistics.**  The facade's statistics are the collection's:
  ``document_count`` and ``average_document_length`` from the global
  table, ``total_terms`` summed over the shards, and
  ``document_frequency`` / ``collection_frequency`` summed once per term
  and generation.  Each shard's scorer reads them through a
  :class:`~repro.sharding.global_stats.GlobalStatsView` over ``(shard,
  facade)``.

The facade deliberately does **not** implement ``postings_arrays``:
per-shard postings columns use shard-dense slots, so a scorer must be
built over a per-shard :class:`~repro.sharding.global_stats.GlobalStatsView`,
never over this facade.  Attempting it fails loudly with ``AttributeError``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.collection.documents import Collection
from repro.index.inverted_index import InvertedIndex, Posting, TextIndexBase
from repro.index.slots import PerGeneration, SlotTable
from repro.index.tokenizer import Tokenizer
from repro.sharding.router import ShardRouter


class ShardedInvertedIndex(TextIndexBase):
    """One logical inverted index hash-partitioned over N shards.

    The global table numbers ids in facade insertion order, tombstones
    included; the shards hold the payload.  The facade's clock is the sum
    of the shard generations, not the table's.
    """

    def __init__(self, router: ShardRouter, tokenizer: Optional[Tokenizer] = None) -> None:
        self._tokenizer = tokenizer or Tokenizer()
        self._router = router
        self._shards = [
            InvertedIndex(tokenizer=self._tokenizer) for _ in range(router.num_shards)
        ]
        self.slots = SlotTable("document", "indexed")
        # Per-term sums over the shards, for one combined generation.
        self._document_frequencies: PerGeneration[Dict[str, int]] = PerGeneration(
            self, dict
        )
        self._collection_frequencies: PerGeneration[Dict[str, int]] = PerGeneration(
            self, dict
        )

    # -- shards -----------------------------------------------------------------

    @property
    def router(self) -> ShardRouter:
        """The id router deciding shard ownership."""
        return self._router

    @property
    def shard_indexes(self) -> Tuple[InvertedIndex, ...]:
        """The physical per-shard indexes."""
        return tuple(self._shards)

    def shard_for(self, document_id: str) -> InvertedIndex:
        """The shard index owning a document id."""
        return self._shards[self._router.shard_of(document_id)]

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

    # -- clock and compaction ---------------------------------------------------

    @property
    def generation(self) -> int:
        """Combined mutation clock (sum of shard generations)."""
        return sum(shard.generation for shard in self._shards)

    def compacted_copy(self) -> Tuple[SlotTable, List[InvertedIndex]]:
        """``(global table, shards)``, each freshly compacted.

        Pure preparation — this object is untouched, so the (possibly
        expensive) re-interning can run outside the engine's writer lock.
        """
        return self.slots.compacted(), [shard.compacted_copy() for shard in self._shards]

    def adopt_compacted(self, prepared: Tuple[SlotTable, List[InvertedIndex]]) -> int:
        """Swap a prepared compaction in, preserving shard identities."""
        table, shards = prepared
        for shard, fresh in zip(self._shards, shards):
            shard.adopt_compacted(fresh)
        return self.slots.adopt(table)

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

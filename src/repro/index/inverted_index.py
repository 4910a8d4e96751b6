"""In-memory inverted index over shot transcripts.

The index is the text-retrieval substrate every experiment sits on.  It
stores its data in a compact, array-backed layout designed for the access
pattern of the scoring loop:

* document ids are interned to dense slots by the index's
  :class:`~repro.index.slots.SlotTable` (``index.slots``), which also holds
  the tombstones, the generation clock and the compaction protocol;
* postings are stored as parallel ``array('i')`` columns per term
  (``postings_arrays``) — one column of slots, one of term frequencies —
  instead of lists of :class:`Posting` objects;
* document lengths live in one flat ``array('i')``
  (``document_lengths_array``); and
* collection statistics (collection frequency per term, total terms) are
  maintained incrementally on :meth:`add_document`, so they are O(1) reads.

The index keeps no derived scoring tables: the TF-IDF and BM25 scorers hold
theirs (IDF, contribution columns, length norms) for one :attr:`generation`
in a :class:`~repro.index.slots.PerGeneration` cell; the language-model
scorers derive nothing between queries.

The corpus is **mutable**: :meth:`delete_document` tombstones the slot
(zero length, empty vector) and eagerly scrubs the document out of every
postings column while correcting the collection statistics incrementally,
so scorers need no tombstone mask — every integer statistic (document
frequency, collection frequency, total terms, live count) matches an index
rebuilt from scratch over the surviving documents, which keeps rankings
bit-identical to such a rebuild.  :meth:`update_document` is delete +
re-add: the document moves to a fresh slot at the end.

The object API — ``postings()`` returning :class:`Posting` lists,
``document_vector()`` — is kept as thin views over the dense layout.
Scoring functions live in :mod:`repro.index.scoring` and
:mod:`repro.index.language_model`.  Index state reaches disk only through
the durability tier (:mod:`repro.durability`), as WAL records and snapshot
deltas.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress
from typing import Dict, List, Mapping, Optional, Tuple

from repro.collection.documents import Collection
from repro.index.slots import SlotTable, SlottedIndex, rebuild_order
from repro.index.tokenizer import Tokenizer


@dataclass(frozen=True)
class Posting:
    """One entry in a postings list: a document and a term frequency."""

    document_id: str
    term_frequency: int


class InvertedIndex(SlottedIndex):
    """A positional-free inverted index with collection statistics."""

    def __init__(self, tokenizer: Optional[Tokenizer] = None) -> None:
        self._tokenizer = tokenizer or Tokenizer()
        self.slots = SlotTable("document", "indexed")
        # Payload columns, indexed by slot.
        self._doc_lengths = array("i")
        self._doc_vectors: List[Dict[str, int]] = []
        # Postings columns: term -> (slots, term frequencies).
        self._postings_columns: Dict[str, Tuple[array, array]] = {}
        # Incrementally-maintained collection statistics.
        self._collection_frequencies: Dict[str, int] = {}
        self._total_terms = 0

    @property
    def tokenizer(self) -> Tokenizer:
        """The tokenizer used at both index and query time."""
        return self._tokenizer

    def add_document(self, document_id: str, text: str) -> None:
        """Index one document; re-adding an id raises ``ValueError``."""
        self.add_document_frequencies(
            document_id, self._tokenizer.term_frequencies(text)
        )

    def add_documents(self, documents: Mapping[str, str]) -> None:
        """Index a mapping of ``document_id -> text`` atomically.

        Every id is validated against the index before any document is
        applied, so a duplicate anywhere in the batch raises ``ValueError``
        with the index (and its statistics) untouched — all-or-nothing.
        """
        self.slots.check_new(documents)
        for document_id, text in documents.items():
            self.add_document(document_id, text)

    def update_document(self, document_id: str, text: str) -> None:
        """Replace one document's text; an unknown id raises ``KeyError``."""
        self.update_document_frequencies(
            document_id, self._tokenizer.term_frequencies(text)
        )

    def update_document_frequencies(
        self, document_id: str, frequencies: Mapping[str, int]
    ) -> None:
        """Replace one document from a term-frequency map.

        Implemented as delete + re-add (an unknown id raises ``KeyError``
        from the delete, before any change): the document moves to a fresh
        slot at the end — the same slot a from-scratch WAL replay of the
        update would produce.
        """
        self.delete_document(document_id)
        self.add_document_frequencies(document_id, frequencies)

    @property
    def document_count(self) -> int:
        """Number of **live** indexed documents (tombstones excluded)."""
        return self.slots.live_count

    @property
    def average_document_length(self) -> float:
        """Mean **live** document length in terms."""
        documents = self.slots.live_count
        if not documents:
            return 0.0
        return self.total_terms / documents

    def has_document(self, document_id: str) -> bool:
        """True if the document is indexed."""
        return document_id in self.slots

    def document_ids(self) -> List[str]:
        """All **live** document ids, in slot (insertion/replay) order."""
        return self.slots.live_ids()

    def statistics(self) -> Dict[str, float]:
        """Summary statistics for reports."""
        return {
            "documents": float(self.document_count),
            "vocabulary": float(self.vocabulary_size),
            "total_terms": float(self.total_terms),
            "average_document_length": self.average_document_length,
        }

    # -- construction -----------------------------------------------------------

    def add_document_frequencies(
        self, document_id: str, frequencies: Mapping[str, int]
    ) -> None:
        """Index one document from an already-tokenised term-frequency map.

        This is the fast path used when loading persisted snapshots: terms
        are assumed to be normalised already, so no tokenisation runs.
        """
        frequencies = dict(frequencies)
        length = sum(frequencies.values())
        slot = self.slots.add(document_id)
        self._doc_lengths.append(length)
        self._doc_vectors.append(frequencies)
        self._total_terms += length
        collection_frequencies = self._collection_frequencies
        postings_columns = self._postings_columns
        for term, frequency in frequencies.items():
            columns = postings_columns.get(term)
            if columns is None:
                postings_columns[term] = (array("i", (slot,)), array("i", (frequency,)))
            else:
                columns[0].append(slot)
                columns[1].append(frequency)
            collection_frequencies[term] = (
                collection_frequencies.get(term, 0) + frequency
            )

    # -- mutation ---------------------------------------------------------------

    def delete_document(self, document_id: str) -> None:
        """Remove one document; an unknown id raises ``KeyError``.

        The slot is tombstoned (zero length, empty vector) and the document
        is scrubbed out of every postings column it appears in, with
        collection statistics corrected incrementally.  Postings slot
        columns are ascending (appends only ever extend them, deletions
        preserve order), so each scrub is one bisect.
        """
        slot = self.slots.remove(document_id)
        postings_columns = self._postings_columns
        collection_frequencies = self._collection_frequencies
        for term, frequency in self._doc_vectors[slot].items():
            docs, freqs = postings_columns[term]
            position = bisect_left(docs, slot)
            del docs[position]
            del freqs[position]
            if not docs:
                del postings_columns[term]
            remaining = collection_frequencies[term] - frequency
            if remaining:
                collection_frequencies[term] = remaining
            else:
                del collection_frequencies[term]
        self._total_terms -= self._doc_lengths[slot]
        self._doc_lengths[slot] = 0
        self._doc_vectors[slot] = {}

    # -- compaction --------------------------------------------------------------

    def compacted_copy(self) -> "InvertedIndex":
        """A fresh index of the live documents, renumbered densely.

        Deletes scrub postings, so each slots column holds live slots in
        ascending order and is mapped through the old → new slot table;
        per-slot columns keep their live entries and terms a rebuild's
        order, so the copy equals re-adding the live documents in slot
        order.  It shares their term-frequency maps, which nothing mutates
        in place (a delete stores ``{}``, an add a fresh ``dict``).
        """
        fresh = InvertedIndex(tokenizer=self._tokenizer)
        fresh.slots, live, new_slot = self.slots.compacted()
        fresh._doc_lengths = array("i", compress(self._doc_lengths, live))
        fresh._doc_vectors = list(compress(self._doc_vectors, live))
        columns, frequencies = self._postings_columns, self._collection_frequencies
        first = {term: docs[0] for term, (docs, _) in columns.items()}
        renumber = new_slot.__getitem__
        for term in rebuild_order(first, self._doc_vectors):
            docs, freqs = columns[term]
            fresh._postings_columns[term] = (array("i", map(renumber, docs)), freqs[:])
            fresh._collection_frequencies[term] = frequencies[term]
        fresh._total_terms = self._total_terms
        return fresh

    def adopt_compacted(self, fresh: "InvertedIndex") -> int:
        """Swap ``fresh``'s state into **this** object, in place.

        Long-lived references to the index (the scorer, engine fields)
        keep working because the object identity is
        preserved; only the internals move.  Returns the slots reclaimed.
        """
        reclaimed = self.slots.adopt(fresh.slots)
        self._doc_lengths = fresh._doc_lengths
        self._doc_vectors = fresh._doc_vectors
        self._postings_columns = fresh._postings_columns
        self._collection_frequencies = fresh._collection_frequencies
        self._total_terms = fresh._total_terms
        return reclaimed

    @classmethod
    def from_collection(
        cls, collection: Collection, tokenizer: Optional[Tokenizer] = None
    ) -> "InvertedIndex":
        """Build an index over every shot transcript in a collection."""
        index = cls(tokenizer=tokenizer)
        for shot in collection.iter_shots():
            index.add_document(shot.shot_id, shot.transcript)
        return index

    # -- statistics -------------------------------------------------------------

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct index terms."""
        return len(self._postings_columns)

    @property
    def total_terms(self) -> int:
        """Total number of term occurrences in the collection."""
        return self._total_terms

    def document_length(self, document_id: str) -> int:
        """Length (term count) of one document."""
        return self._doc_lengths[self.slots[document_id]]

    def document_frequency(self, term: str) -> int:
        """Number of documents containing the term."""
        columns = self._postings_columns.get(term)
        return len(columns[0]) if columns is not None else 0

    def collection_frequency(self, term: str) -> int:
        """Total occurrences of the term across the collection (O(1))."""
        return self._collection_frequencies.get(term, 0)

    def postings(self, term: str) -> List[Posting]:
        """The postings list for a term (empty if unseen).

        A materialised object view over the dense columns; scoring code
        should prefer :meth:`postings_arrays`.
        """
        columns = self._postings_columns.get(term)
        if columns is None:
            return []
        doc_ids = self.slots.ids
        return [
            Posting(document_id=doc_ids[doc], term_frequency=freq)
            for doc, freq in zip(columns[0], columns[1])
        ]

    def terms(self) -> List[str]:
        """All index terms."""
        return list(self._postings_columns)

    def document_vector(self, document_id: str) -> Dict[str, int]:
        """Term-frequency vector of one document (a copy)."""
        return dict(self.document_vector_view(document_id))

    def document_vector_view(self, document_id: str) -> Mapping[str, int]:
        """Term-frequency vector of one document **without copying**.

        The returned mapping is the index's own structure: treat it as
        read-only.  Used on hot paths (query expansion, centroids) where the
        defensive copy of :meth:`document_vector` dominates.
        """
        slot = self.slots.get(document_id)
        if slot is None:
            return {}
        return self._doc_vectors[slot]

    def term_frequency(self, term: str, document_id: str) -> int:
        """Frequency of ``term`` in ``document_id`` (0 if absent)."""
        return self.document_vector_view(document_id).get(term, 0)

    # -- dense kernel views ------------------------------------------------------

    def postings_arrays(self, term: str) -> Tuple[array, array]:
        """Postings columns for a term: ``(slots, term_frequencies)``.

        Both are the index's own ``array('i')`` columns (read-only); empty
        arrays are returned for unseen terms.
        """
        columns = self._postings_columns.get(term)
        if columns is None:
            return _EMPTY_INT_ARRAY, _EMPTY_INT_ARRAY
        return columns

    @property
    def document_lengths_array(self) -> array:
        """Document lengths in slot order (read-only ``array('i')``)."""
        return self._doc_lengths

    def __contains__(self, term: str) -> bool:
        return term in self._postings_columns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InvertedIndex(documents={self.document_count}, "
            f"vocabulary={self.vocabulary_size})"
        )


_EMPTY_INT_ARRAY = array("i")

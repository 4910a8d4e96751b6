"""In-memory inverted index over shot transcripts.

The index is the text-retrieval substrate every experiment sits on.  Since
the scoring-kernel rework it stores its data in a compact, array-backed
layout designed for the access pattern of the scoring loop:

* document ids are **interned** to dense integer indexes (``doc_index_of`` /
  ``doc_id_at``), so score accumulation can run over flat arrays instead of
  string-keyed dictionaries;
* postings are stored as parallel ``array('i')`` columns per term
  (``postings_arrays``) — one column of document indexes, one of term
  frequencies — instead of lists of :class:`Posting` objects;
* document lengths live in one flat ``array('i')``
  (``document_lengths_array``); and
* collection statistics (collection frequency per term, total terms) are
  maintained incrementally on :meth:`add_document`, so they are O(1) reads.

Derived per-document normalisation tables used by the scorers (BM25 length
denominators, TF-IDF cosine norms) are computed lazily and cached; the
:attr:`generation` counter ticks on every mutation so scorers can invalidate
their own per-term caches (IDF, collection probabilities) cheaply.

The corpus is **mutable**: :meth:`delete_document` tombstones a dense slot
(``None`` id, zero length, empty vector) and eagerly scrubs the document out
of every postings column while correcting the collection statistics
incrementally, so scorers need no tombstone mask — every integer statistic
(document frequency, collection frequency, total terms, live count) matches
an index rebuilt from scratch over the surviving documents, which keeps
rankings bit-identical to such a rebuild.  :meth:`update_document` is
delete + re-add (the document moves to a fresh slot at the end of the dense
space, exactly where a WAL replay would put it).  :meth:`adopt_compacted`
swaps in a freshly re-interned state in place, so long-lived references to
the index object (sharded scorer views, stats views) survive compaction.

The original object API — ``postings()`` returning :class:`Posting` lists,
``document_vector()``, ``iter_postings()`` — is preserved as thin views over
the dense layout, so existing callers and persisted snapshots keep working.
Scoring functions live in :mod:`repro.index.scoring` and
:mod:`repro.index.language_model`; persistence in :mod:`repro.index.storage`.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.collection.documents import Collection
from repro.index.scoring import bm25_norm_table, tfidf_norm_table
from repro.index.tokenizer import Tokenizer


@dataclass(frozen=True)
class Posting:
    """One entry in a postings list: a document and a term frequency."""

    document_id: str
    term_frequency: int


class InvertedIndex:
    """A positional-free inverted index with collection statistics."""

    def __init__(self, tokenizer: Optional[Tokenizer] = None) -> None:
        self._tokenizer = tokenizer or Tokenizer()
        # Dense document interning: index -> id and id -> index.  Deleted
        # documents leave a ``None`` tombstone in the id table (and are
        # popped from ``_doc_index``), so live count == len(_doc_index).
        self._doc_ids: List[Optional[str]] = []
        self._doc_index: Dict[str, int] = {}
        self._doc_lengths = array("i")
        # Per-document term-frequency vectors, indexed by document index.
        self._doc_vectors: List[Dict[str, int]] = []
        # Postings columns: term -> (document indexes, term frequencies).
        self._postings_columns: Dict[str, Tuple[array, array]] = {}
        # Incrementally-maintained collection statistics.
        self._collection_frequencies: Dict[str, int] = {}
        self._total_terms = 0
        # Mutation counter; derived caches check it before serving.
        self._generation = 0
        self._bm25_norms_cache: Dict[Tuple[float, float], array] = {}
        self._tfidf_norms_cache: Optional[array] = None

    # -- construction -----------------------------------------------------------

    @property
    def tokenizer(self) -> Tokenizer:
        """The tokenizer used at both index and query time."""
        return self._tokenizer

    def add_document(self, document_id: str, text: str) -> None:
        """Index one document; re-adding an id raises ``ValueError``."""
        self.add_document_frequencies(
            document_id, self._tokenizer.term_frequencies(text)
        )

    def add_document_frequencies(
        self, document_id: str, frequencies: Mapping[str, int]
    ) -> None:
        """Index one document from an already-tokenised term-frequency map.

        This is the fast path used when loading persisted snapshots: terms
        are assumed to be normalised already, so no tokenisation runs.
        """
        if document_id in self._doc_index:
            raise ValueError(f"document {document_id!r} already indexed")
        frequencies = dict(frequencies)
        doc_index = len(self._doc_ids)
        self._doc_ids.append(document_id)
        self._doc_index[document_id] = doc_index
        length = sum(frequencies.values())
        self._doc_lengths.append(length)
        self._doc_vectors.append(frequencies)
        self._total_terms += length
        collection_frequencies = self._collection_frequencies
        postings_columns = self._postings_columns
        for term, frequency in frequencies.items():
            columns = postings_columns.get(term)
            if columns is None:
                postings_columns[term] = (array("i", (doc_index,)), array("i", (frequency,)))
            else:
                columns[0].append(doc_index)
                columns[1].append(frequency)
            collection_frequencies[term] = (
                collection_frequencies.get(term, 0) + frequency
            )
        self._generation += 1
        self._bm25_norms_cache.clear()
        self._tfidf_norms_cache = None

    def add_documents(self, documents: Mapping[str, str]) -> None:
        """Index a mapping of ``document_id -> text`` atomically.

        Every id is validated against the index before any document is
        applied, so a duplicate anywhere in the batch raises ``ValueError``
        with the index (and its statistics) untouched — all-or-nothing.
        """
        for document_id in documents:
            if document_id in self._doc_index:
                raise ValueError(f"document {document_id!r} already indexed")
        for document_id, text in documents.items():
            self.add_document(document_id, text)

    # -- mutation ---------------------------------------------------------------

    def delete_document(self, document_id: str) -> None:
        """Remove one document; an unknown id raises ``KeyError``.

        The dense slot is tombstoned (``None`` id, zero length, empty
        vector) and the document is scrubbed out of every postings column
        it appears in, with collection statistics corrected incrementally.
        Postings doc columns are ascending in dense index (appends only ever
        extend them, deletions preserve order), so each scrub is one bisect.
        """
        doc_index = self._doc_index.pop(document_id, None)
        if doc_index is None:
            raise KeyError(f"document {document_id!r} not indexed")
        postings_columns = self._postings_columns
        collection_frequencies = self._collection_frequencies
        for term, frequency in self._doc_vectors[doc_index].items():
            docs, freqs = postings_columns[term]
            position = bisect_left(docs, doc_index)
            del docs[position]
            del freqs[position]
            if not docs:
                del postings_columns[term]
            remaining = collection_frequencies[term] - frequency
            if remaining:
                collection_frequencies[term] = remaining
            else:
                del collection_frequencies[term]
        self._total_terms -= self._doc_lengths[doc_index]
        self._doc_ids[doc_index] = None
        self._doc_lengths[doc_index] = 0
        self._doc_vectors[doc_index] = {}
        self._generation += 1
        self._bm25_norms_cache.clear()
        self._tfidf_norms_cache = None

    def update_document(self, document_id: str, text: str) -> None:
        """Replace one document's text; an unknown id raises ``KeyError``."""
        self.update_document_frequencies(
            document_id, self._tokenizer.term_frequencies(text)
        )

    def update_document_frequencies(
        self, document_id: str, frequencies: Mapping[str, int]
    ) -> None:
        """Replace one document from a term-frequency map.

        Implemented as delete + re-add: the document moves to a fresh dense
        slot at the end of the interned space — the same slot a from-scratch
        WAL replay of the update would produce.
        """
        if document_id not in self._doc_index:
            raise KeyError(f"document {document_id!r} not indexed")
        self.delete_document(document_id)
        self.add_document_frequencies(document_id, frequencies)

    # -- compaction --------------------------------------------------------------

    @property
    def tombstone_count(self) -> int:
        """Number of tombstoned (deleted, not yet compacted) dense slots."""
        return len(self._doc_ids) - len(self._doc_index)

    def live_items(self) -> Iterable[Tuple[str, Mapping[str, int]]]:
        """Yield ``(document_id, vector view)`` for live docs in slot order.

        The vectors are the index's own dicts (read-only); slot order is the
        canonical replay order — re-adding these pairs to a fresh index
        reproduces this index's rankings bit-identically.
        """
        doc_vectors = self._doc_vectors
        for doc_index, document_id in enumerate(self._doc_ids):
            if document_id is not None:
                yield document_id, doc_vectors[doc_index]

    def compacted_copy(self) -> "InvertedIndex":
        """A fresh index holding only the live documents, re-interned densely."""
        fresh = InvertedIndex(tokenizer=self._tokenizer)
        for document_id, vector in self.live_items():
            fresh.add_document_frequencies(document_id, vector)
        return fresh

    def adopt_compacted(self, fresh: "InvertedIndex") -> int:
        """Swap ``fresh``'s dense state into **this** object, in place.

        Long-lived references to the index (sharded scorer stats views,
        engine fields) keep working because the
        object identity is preserved; only the internals move.  The
        generation strictly increases so every derived cache re-validates.
        Returns the number of dense slots reclaimed.
        """
        reclaimed = len(self._doc_ids) - len(fresh._doc_ids)
        self._doc_ids = fresh._doc_ids
        self._doc_index = fresh._doc_index
        self._doc_lengths = fresh._doc_lengths
        self._doc_vectors = fresh._doc_vectors
        self._postings_columns = fresh._postings_columns
        self._collection_frequencies = fresh._collection_frequencies
        self._total_terms = fresh._total_terms
        self._generation += 1
        self._bm25_norms_cache.clear()
        self._tfidf_norms_cache = None
        return reclaimed

    def compact(self) -> int:
        """Reclaim tombstoned slots by re-interning live docs in slot order.

        A no-op (state and generation untouched) when there is nothing to
        reclaim.  Returns the number of slots reclaimed.
        """
        if self.tombstone_count == 0:
            return 0
        return self.adopt_compacted(self.compacted_copy())

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
    def document_count(self) -> int:
        """Number of **live** indexed documents (tombstones excluded)."""
        return len(self._doc_index)

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct index terms."""
        return len(self._postings_columns)

    @property
    def total_terms(self) -> int:
        """Total number of term occurrences in the collection."""
        return self._total_terms

    @property
    def average_document_length(self) -> float:
        """Mean **live** document length in terms."""
        if not self._doc_index:
            return 0.0
        return self._total_terms / len(self._doc_index)

    @property
    def generation(self) -> int:
        """Mutation counter; changes on every add, delete, update or compact.

        Scorers key their derived statistics caches (IDF tables, collection
        probabilities) on this value so stale entries are never served.
        """
        return self._generation

    def document_length(self, document_id: str) -> int:
        """Length (term count) of one document."""
        return self._doc_lengths[self._doc_index[document_id]]

    def has_document(self, document_id: str) -> bool:
        """True if the document is indexed."""
        return document_id in self._doc_index

    def document_ids(self) -> List[str]:
        """All **live** document ids, in dense-slot (insertion/replay) order."""
        return [document_id for document_id in self._doc_ids if document_id is not None]

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
        doc_ids = self._doc_ids
        return [
            Posting(document_id=doc_ids[doc], term_frequency=freq)
            for doc, freq in zip(columns[0], columns[1])
        ]

    def terms(self) -> List[str]:
        """All index terms."""
        return list(self._postings_columns)

    def document_vector(self, document_id: str) -> Dict[str, int]:
        """Term-frequency vector of one document (a copy)."""
        doc_index = self._doc_index.get(document_id)
        if doc_index is None:
            return {}
        return dict(self._doc_vectors[doc_index])

    def document_vector_view(self, document_id: str) -> Mapping[str, int]:
        """Term-frequency vector of one document **without copying**.

        The returned mapping is the index's own structure: treat it as
        read-only.  Used on hot paths (query expansion, centroids) where the
        defensive copy of :meth:`document_vector` dominates.
        """
        doc_index = self._doc_index.get(document_id)
        if doc_index is None:
            return {}
        return self._doc_vectors[doc_index]

    def term_frequency(self, term: str, document_id: str) -> int:
        """Frequency of ``term`` in ``document_id`` (0 if absent)."""
        doc_index = self._doc_index.get(document_id)
        if doc_index is None:
            return 0
        return self._doc_vectors[doc_index].get(term, 0)

    # -- dense kernel views ------------------------------------------------------

    def doc_index_of(self, document_id: str) -> int:
        """Dense integer index of a document id (raises ``KeyError`` if absent)."""
        return self._doc_index[document_id]

    def doc_id_at(self, doc_index: int) -> str:
        """Document id at a dense index."""
        return self._doc_ids[doc_index]

    def doc_index_get(self, document_id: str, default: Optional[int] = None):
        """Dense integer index of a document id, or ``default`` if absent.

        The non-raising companion of :meth:`doc_index_of`, used by kernels
        that intern externally-supplied ids (e.g. feedback on shots that
        were never indexed) in a single lookup.
        """
        return self._doc_index.get(document_id, default)

    def dense_document_ids(self) -> List[Optional[str]]:
        """The id table in dense-index order — the index's own list, read-only.

        Tombstoned slots hold ``None``; kernels never observe them because
        deleted documents are scrubbed out of every postings column.
        """
        return self._doc_ids

    def postings_arrays(self, term: str) -> Tuple[array, array]:
        """Postings columns for a term: ``(doc_indexes, term_frequencies)``.

        Both are the index's own ``array('i')`` columns (read-only); empty
        arrays are returned for unseen terms.
        """
        columns = self._postings_columns.get(term)
        if columns is None:
            return _EMPTY_INT_ARRAY, _EMPTY_INT_ARRAY
        return columns

    @property
    def document_lengths_array(self) -> array:
        """Document lengths in dense-index order (read-only ``array('i')``)."""
        return self._doc_lengths

    def bm25_norms(self, k1: float, b: float) -> array:
        """Per-document BM25 length-normalisation denominators.

        ``k1 * (1 - b + b * length / average_length)`` for every document in
        dense-index order, cached per ``(k1, b)`` and invalidated whenever a
        document is added (the average length moves).
        """
        key = (k1, b)
        cached = self._bm25_norms_cache.get(key)
        if cached is not None:
            return cached
        norms = bm25_norm_table(
            self._doc_lengths, self.average_document_length, k1, b
        )
        self._bm25_norms_cache[key] = norms
        return norms

    def tfidf_norms(self) -> array:
        """Per-document cosine length norms ``sqrt(max(1, length))``."""
        cached = self._tfidf_norms_cache
        if cached is not None:
            return cached
        norms = tfidf_norm_table(self._doc_lengths)
        self._tfidf_norms_cache = norms
        return norms

    # -- export -----------------------------------------------------------------

    def iter_postings(self) -> Iterable[Tuple[str, Posting]]:
        """Iterate ``(term, posting)`` pairs, mainly for persistence."""
        doc_ids = self._doc_ids
        for term, (docs, freqs) in self._postings_columns.items():
            for doc, freq in zip(docs, freqs):
                yield term, Posting(document_id=doc_ids[doc], term_frequency=freq)

    def statistics(self) -> Dict[str, float]:
        """Summary statistics for reports."""
        return {
            "documents": float(self.document_count),
            "vocabulary": float(self.vocabulary_size),
            "total_terms": float(self.total_terms),
            "average_document_length": self.average_document_length,
        }

    def __contains__(self, term: str) -> bool:
        return term in self._postings_columns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InvertedIndex(documents={self.document_count}, "
            f"vocabulary={self.vocabulary_size})"
        )


_EMPTY_INT_ARRAY = array("i")

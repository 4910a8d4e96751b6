"""Global collection statistics behind one shard's postings.

Partitioned scoring is only exact if every shard ranks with **collection**
statistics, not shard statistics: BM25/TF-IDF idf needs the global document
count and document frequency, BM25 length normalisation needs the global
average document length, and language-model smoothing needs the global
collection frequency and total term count.  The sharded text facade
(:class:`~repro.sharding.views.ShardedInvertedIndex`) already answers all of
these for the whole collection, with the per-term sums held for one
combined generation (the sum of the shard generations — a valid logical
clock because all index mutation is serialised behind the engine's
exclusive writer, so every write bumps exactly one shard generation and the
sum strictly increases).

:class:`GlobalStatsView` is what a per-shard scorer is built over: it quacks
like an :class:`~repro.index.inverted_index.InvertedIndex` whose postings,
lengths and slot table (``slots``, see :mod:`repro.index.slots`) are one
shard's but whose statistics and ``generation`` are the facade's.  An
unmodified :class:`~repro.index.scoring.Bm25Scorer` /
:class:`~repro.index.scoring.TfIdfScorer` /
:class:`~repro.index.language_model.DirichletLanguageModelScorer` (or any
registry-registered scorer that sticks to the index API) therefore
produces, for the documents of its shard, bit-identical scores to the same
scorer over the monolithic index — the property the cross-shard
equivalence suite pins.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Dict, List, Mapping, Tuple

from repro.index.inverted_index import InvertedIndex, Posting
from repro.index.slots import SlotTable
from repro.index.tokenizer import Tokenizer

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.sharding.views import ShardedInvertedIndex


class GlobalStatsView:
    """One shard's postings behind the global statistics of all shards.

    The view implements the read API scorers use: statistics
    (``document_count``, ``document_frequency``, ``collection_frequency``,
    ``total_terms``, ``average_document_length``, ``generation``) are the
    facade's, while postings columns, the slot table, document lengths and
    per-document vectors are the shard's own.  A BM25 scorer's length
    norms couple the two: it builds them from this view's lengths
    (shard-local) and average document length (global), which is what
    keeps each denominator bit-identical to the monolithic one.

    ``generation`` is the combined clock, so a scorer's derived tables are
    rebuilt when *any* shard is written — global idf moves even when the
    write landed on a different shard.
    """

    def __init__(
        self, shard_index: InvertedIndex, facade: "ShardedInvertedIndex"
    ) -> None:
        self._shard = shard_index
        self._facade = facade

    # -- global statistics -------------------------------------------------------

    @property
    def generation(self) -> int:
        """Combined mutation clock of all shards (see module docstring)."""
        return self._facade.generation

    @property
    def document_count(self) -> int:
        """Global document count (idf must see the whole collection)."""
        return self._facade.document_count

    @property
    def total_terms(self) -> int:
        """Global total term occurrences."""
        return self._facade.total_terms

    @property
    def average_document_length(self) -> float:
        """Global mean document length."""
        return self._facade.average_document_length

    def document_frequency(self, term: str) -> int:
        """Global document frequency."""
        return self._facade.document_frequency(term)

    def collection_frequency(self, term: str) -> int:
        """Global collection frequency."""
        return self._facade.collection_frequency(term)

    # -- shard-local payload -----------------------------------------------------

    @property
    def shard_index(self) -> InvertedIndex:
        """The underlying shard index."""
        return self._shard

    @property
    def tokenizer(self) -> Tokenizer:
        """The shared tokenizer."""
        return self._shard.tokenizer

    def postings_arrays(self, term: str) -> Tuple[array, array]:
        """The shard's postings columns for a term."""
        return self._shard.postings_arrays(term)

    def postings(self, term: str) -> List[Posting]:
        """The shard's object-view postings for a term."""
        return self._shard.postings(term)

    @property
    def slots(self) -> SlotTable:
        """The shard's slot table (its postings' slots are shard-dense)."""
        return self._shard.slots

    @property
    def document_lengths_array(self) -> array:
        """The shard's document lengths in slot order."""
        return self._shard.document_lengths_array

    def has_document(self, document_id: str) -> bool:
        """True if this shard holds the document."""
        return self._shard.has_document(document_id)

    def document_length(self, document_id: str) -> int:
        """Length of one of the shard's documents."""
        return self._shard.document_length(document_id)

    def document_vector(self, document_id: str) -> Dict[str, int]:
        """Term-frequency vector of one of the shard's documents (a copy)."""
        return self._shard.document_vector(document_id)

    def document_vector_view(self, document_id: str) -> Mapping[str, int]:
        """No-copy term-frequency vector of one of the shard's documents."""
        return self._shard.document_vector_view(document_id)

    def term_frequency(self, term: str, document_id: str) -> int:
        """Frequency of ``term`` in one of the shard's documents."""
        return self._shard.term_frequency(term, document_id)

    def terms(self) -> List[str]:
        """The shard's index terms."""
        return self._shard.terms()

    def __contains__(self, term: str) -> bool:
        return term in self._shard

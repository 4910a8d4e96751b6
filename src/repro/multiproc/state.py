"""Shard state export for process workers: descriptors, shm blocks, views.

The process executor cannot ship live :class:`~repro.index.inverted_index.
InvertedIndex` objects to workers — they are mutable, lock-coupled and big.
Instead, :func:`export_shard_state` freezes one shard's dense read state
(document lengths, postings columns, id table, term offsets) into a
:class:`ShardStateDescriptor`: a small picklable record whose heavy integer
columns live in a ``multiprocessing.shared_memory`` block that workers
attach **zero-copy** (``memoryview.cast('i')`` slices over the mapped
buffer).  Where shared memory is unavailable the same columns travel inline
as ``bytes`` in the descriptor — a copy per worker, but semantically
identical.

Global collection statistics travel separately
(:func:`export_global_stats`): they are small, but move on **every** write
to any shard, while a shard's payload moves only when that shard itself is
written.  The split is what makes generation-checked refresh cheap — after
a write, workers re-attach only the shards whose generation moved, plus the
lightweight global record.

Worker processes keep everything they have attached in the module-level
:data:`STATE` registry, keyed by the executor-qualified export key.
:class:`AttachedShardState` bundles an :class:`AttachedShardIndex` (which
quacks like the :class:`~repro.sharding.global_stats.GlobalStatsView` a
per-shard scorer is built over: shard-local postings, **global**
statistics) with a registry-resolved scorer, so scorer term caches persist
across queries within a generation exactly as they do on the thread path.
:func:`score_shard_task` is the scatter task: it scores with the worker's
persistent scorer and returns the partial score map *packed* as two byte
strings (dense indexes + float64 scores, in the worker dict's iteration
order), so the parent rebuilds each ``{doc_id: score}`` partial with its
own id table instead of unpickling string-keyed dicts — preserving both the
values and the dict order the thread path produces.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.index.scoring import bm25_norm_table, tfidf_norm_table

try:  # pragma: no cover - exercised indirectly; absence is the fallback path
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platforms without shm support
    _shared_memory = None

_INT_SIZE = array("i").itemsize
_EMPTY_COLUMN = memoryview(b"").cast("i")


def shared_memory_available() -> bool:
    """True if ``multiprocessing.shared_memory`` can be used here."""
    return _shared_memory is not None


def _attach_unregistered(name: str):
    """Attach to an existing shared-memory block without tracker side effects.

    ``SharedMemory(name=...)`` registers the *attachment* with the resource
    tracker on Python < 3.13 (bpo-38119), which double-books blocks whose
    lifecycle the exporting process owns.  Suppresses registration for the
    duration of the attach; callers must be effectively single-threaded
    (worker processes attach from their request loop, which is).
    """
    try:
        from multiprocessing import resource_tracker
    except ImportError:  # pragma: no cover - no tracker, nothing to suppress
        return _shared_memory.SharedMemory(name=name)
    original_register = resource_tracker.register

    def _skip_shared_memory(rname, rtype):
        if rtype != "shared_memory":  # pragma: no cover - defensive
            original_register(rname, rtype)

    resource_tracker.register = _skip_shared_memory
    try:
        return _shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


class StaleShardStateError(RuntimeError):
    """A worker was asked to score a shard state it does not hold (or holds
    at the wrong generation).  The executor treats this as a bug — publish
    always precedes map on the same FIFO pipe — so it propagates."""


@dataclass(frozen=True)
class GlobalStatsDescriptor:
    """Picklable snapshot of :class:`~repro.sharding.global_stats.GlobalTextStats`.

    Carries the full global document-frequency / collection-frequency maps:
    per-term lookups in workers must see collection-wide values for idf and
    smoothing to stay bit-identical to the monolithic engine.
    """

    key: str
    generation: int
    document_count: int
    total_terms: int
    document_frequencies: Dict[str, int]
    collection_frequencies: Dict[str, int]

    @property
    def average_document_length(self) -> float:
        """Global mean document length (0.0 for an empty collection)."""
        if not self.document_count:
            return 0.0
        return self.total_terms / self.document_count

    def document_frequency(self, term: str) -> int:
        """Global document frequency of a term."""
        return self.document_frequencies.get(term, 0)

    def collection_frequency(self, term: str) -> int:
        """Global collection frequency of a term."""
        return self.collection_frequencies.get(term, 0)


@dataclass(frozen=True)
class ShardStateDescriptor:
    """Picklable, shm-mappable freeze of one shard's dense read state.

    The integer payload is laid out as three consecutive ``int32`` runs —
    ``lengths[document_count] | posting_docs[posting_count] |
    posting_freqs[posting_count]`` — either in the shared-memory block named
    ``shm_name`` or inline in ``payload``.  ``term_offsets`` maps each term
    to its ``(offset, count)`` slice of the postings runs.  ``generation``
    is the **shard's own** clock (the payload changes only when the shard
    is written); global statistics arrive via the ``global_key`` record.
    """

    key: str
    shard_id: int
    generation: int
    global_key: str
    scorer_name: str
    scorer_config: object
    document_ids: Tuple[str, ...]
    term_offsets: Dict[str, Tuple[int, int]]
    posting_count: int
    shm_name: Optional[str] = None
    payload: Optional[bytes] = field(default=None, repr=False)

    @property
    def document_count(self) -> int:
        return len(self.document_ids)

    @property
    def payload_size(self) -> int:
        """Payload size in bytes (lengths run + two postings runs)."""
        return (self.document_count + 2 * self.posting_count) * _INT_SIZE


# -- parent-side export ----------------------------------------------------------


def export_global_stats(key: str, stats) -> GlobalStatsDescriptor:
    """Freeze a :class:`GlobalTextStats` into a picklable descriptor.

    Sums per-term document/collection frequencies across all shards in one
    pass (cheaper and equivalent to priming the stats object's per-term
    caches term by term).
    """
    document_frequencies: Dict[str, int] = {}
    collection_frequencies: Dict[str, int] = {}
    for shard in stats.shard_indexes:
        for term in shard.terms():
            document_frequencies[term] = document_frequencies.get(
                term, 0
            ) + shard.document_frequency(term)
            collection_frequencies[term] = collection_frequencies.get(
                term, 0
            ) + shard.collection_frequency(term)
    return GlobalStatsDescriptor(
        key=key,
        generation=stats.generation,
        document_count=stats.document_count,
        total_terms=stats.total_terms,
        document_frequencies=document_frequencies,
        collection_frequencies=collection_frequencies,
    )


def export_shard_state(
    key: str,
    shard_id: int,
    shard_index,
    global_key: str,
    scorer_name: str,
    scorer_config,
    use_shared_memory: bool = True,
):
    """Freeze one shard into ``(descriptor, shm_block_or_None)``.

    The caller owns the returned shared-memory block's lifecycle: it must
    keep it referenced while any worker may attach and ``close()`` +
    ``unlink()`` it when the export is superseded or the executor shuts
    down.  With ``use_shared_memory=False`` (or where shm is unavailable)
    the payload is embedded in the descriptor instead.
    """
    document_ids = tuple(shard_index.dense_document_ids())
    lengths = shard_index.document_lengths_array
    term_offsets: Dict[str, Tuple[int, int]] = {}
    posting_docs = array("i")
    posting_freqs = array("i")
    offset = 0
    for term in shard_index.terms():
        docs, freqs = shard_index.postings_arrays(term)
        count = len(docs)
        term_offsets[term] = (offset, count)
        posting_docs.extend(docs)
        posting_freqs.extend(freqs)
        offset += count
    payload = lengths.tobytes() + posting_docs.tobytes() + posting_freqs.tobytes()

    shm = None
    shm_name = None
    inline_payload: Optional[bytes] = payload
    if use_shared_memory and shared_memory_available():
        shm = _shared_memory.SharedMemory(create=True, size=max(1, len(payload)))
        shm.buf[: len(payload)] = payload
        shm_name = shm.name
        inline_payload = None

    descriptor = ShardStateDescriptor(
        key=key,
        shard_id=shard_id,
        generation=shard_index.generation,
        global_key=global_key,
        scorer_name=scorer_name,
        scorer_config=scorer_config,
        document_ids=document_ids,
        term_offsets=term_offsets,
        posting_count=len(posting_docs),
        shm_name=shm_name,
        payload=inline_payload,
    )
    return descriptor, shm


def release_shared_block(shm) -> None:
    """Close and unlink an exported block, tolerating repeats and races.

    Unlinking only removes the *name*: existing mappings (the parent's
    attached view, workers still on an older generation) stay valid until
    they are unmapped, which is exactly the hand-over-hand lifecycle the
    executor needs.
    """
    if shm is None:
        return
    try:
        shm.close()
    except (BufferError, OSError):  # pragma: no cover - defensive
        pass
    try:
        shm.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover - already gone
        pass


# -- worker-side attach ----------------------------------------------------------

#: Per-process registry of attached exports, keyed by export key.  In worker
#: processes it is populated by ``load`` messages; the parent process loads
#: the same descriptors so inline execution (single-item maps, post-close
#: fallback) runs against identical state.
STATE: Dict[str, object] = {}


@dataclass
class LoadFailure:
    """Sentinel stored when attaching a descriptor failed; scoring against
    it re-raises the original error so the failure surfaces at the caller."""

    key: str
    error: BaseException


class AttachedShardIndex:
    """A worker-side :class:`GlobalStatsView` twin over exported columns.

    Implements the index read API the text scorers use.  Postings columns,
    document lengths and the dense id table are zero-copy ``memoryview``
    slices of the attached block (or of the inline payload); statistics
    (``document_count``, ``document_frequency``, ``average_document_length``,
    ``generation``, ...) resolve **dynamically** through :data:`STATE` to the
    current global record, so republishing the lightweight global descriptor
    after a write on *any* shard invalidates every generation-keyed scorer
    cache in every worker without re-shipping unchanged shard payloads.
    """

    def __init__(self, descriptor: ShardStateDescriptor, buffer=None) -> None:
        self._descriptor = descriptor
        self._shm = None
        if buffer is not None:
            # The creating process views the export's own mapping directly —
            # no second attachment, no resource-tracker interaction.
            pass
        elif descriptor.shm_name is not None:
            if not shared_memory_available():  # pragma: no cover - defensive
                raise RuntimeError(
                    "descriptor references shared memory but the platform "
                    "has no multiprocessing.shared_memory support"
                )
            # Python < 3.13 registers *attachments* with the resource
            # tracker (bpo-38119).  The parent owns every block's lifecycle
            # (it unlinks on supersede/close), so an attachment-side
            # registration is wrong either way it lands: a worker-private
            # tracker would warn about "leaks" the parent already cleaned
            # up, and a tracker shared with the parent would see the name
            # unregistered twice.  Workers are single-threaded when they
            # attach, so briefly suppressing registration is race-free.
            self._shm = _attach_unregistered(descriptor.shm_name)
            buffer = self._shm.buf
        else:
            buffer = memoryview(descriptor.payload or b"")
        columns = memoryview(buffer)[: descriptor.payload_size].cast("i")
        documents = descriptor.document_count
        postings = descriptor.posting_count
        self._lengths = columns[:documents]
        self._posting_docs = columns[documents : documents + postings]
        self._posting_freqs = columns[documents + postings :]
        self._doc_ids: List[str] = list(descriptor.document_ids)
        self._doc_index: Dict[str, int] = {
            doc_id: index for index, doc_id in enumerate(self._doc_ids)
        }
        self._term_offsets = descriptor.term_offsets
        self._bm25_norms_cache: Dict[Tuple[float, float], Tuple[int, array]] = {}
        self._tfidf_norms_cache: Optional[array] = None

    # -- global statistics (dynamic, via the registry) ----------------------------

    @property
    def _global(self) -> GlobalStatsDescriptor:
        record = STATE.get(self._descriptor.global_key)
        if record is None:
            raise StaleShardStateError(
                f"global statistics {self._descriptor.global_key!r} not loaded"
            )
        if isinstance(record, LoadFailure):
            raise record.error
        return record

    @property
    def generation(self) -> int:
        """Combined clock of all shards — moves on a write to *any* shard,
        which is what invalidates scorer idf/column caches in workers."""
        return self._global.generation

    @property
    def document_count(self) -> int:
        return self._global.document_count

    @property
    def total_terms(self) -> int:
        return self._global.total_terms

    @property
    def average_document_length(self) -> float:
        return self._global.average_document_length

    def document_frequency(self, term: str) -> int:
        return self._global.document_frequency(term)

    def collection_frequency(self, term: str) -> int:
        return self._global.collection_frequency(term)

    # -- shard-local payload -----------------------------------------------------

    @property
    def shard_generation(self) -> int:
        """The exported shard's own clock (payload freshness)."""
        return self._descriptor.generation

    def postings_arrays(self, term: str):
        """Zero-copy postings columns ``(doc_indexes, term_frequencies)``."""
        entry = self._term_offsets.get(term)
        if entry is None:
            return _EMPTY_COLUMN, _EMPTY_COLUMN
        offset, count = entry
        return (
            self._posting_docs[offset : offset + count],
            self._posting_freqs[offset : offset + count],
        )

    def dense_document_ids(self) -> List[str]:
        return self._doc_ids

    @property
    def document_lengths_array(self):
        return self._lengths

    def doc_index_of(self, document_id: str) -> int:
        return self._doc_index[document_id]

    def doc_index_get(self, document_id: str, default: Optional[int] = None):
        return self._doc_index.get(document_id, default)

    def doc_id_at(self, doc_index: int) -> str:
        return self._doc_ids[doc_index]

    def has_document(self, document_id: str) -> bool:
        return document_id in self._doc_index

    def document_length(self, document_id: str) -> int:
        return self._lengths[self._doc_index[document_id]]

    def terms(self) -> List[str]:
        return list(self._term_offsets)

    def __contains__(self, term: str) -> bool:
        return term in self._term_offsets

    # -- derived normalisation tables --------------------------------------------

    def tfidf_norms(self) -> array:
        """The monolithic table over shard-local lengths (bit-identical)."""
        cached = self._tfidf_norms_cache
        if cached is None:
            cached = self._tfidf_norms_cache = tfidf_norm_table(self._lengths)
        return cached

    def bm25_norms(self, k1: float, b: float) -> array:
        """BM25 denominators under the **global** average document length.

        Same table builder as :meth:`GlobalStatsView.bm25_norms`, keyed on
        the combined generation so a write anywhere invalidates the table.
        """
        key = (k1, b)
        generation = self.generation
        cached = self._bm25_norms_cache.get(key)
        if cached is not None and cached[0] == generation:
            return cached[1]
        norms = bm25_norm_table(self._lengths, self.average_document_length, k1, b)
        self._bm25_norms_cache[key] = (generation, norms)
        return norms

    def close(self) -> None:
        """Release the column views and (if any) the shm mapping."""
        self._lengths = self._posting_docs = self._posting_freqs = None
        self._bm25_norms_cache.clear()
        if self._shm is not None:
            try:
                self._shm.close()
            except BufferError:  # pragma: no cover - exported views still alive
                pass
            self._shm = None


class AttachedShardState:
    """One worker's live handle on a shard: attached view + persistent scorer.

    The scorer is resolved through the service registry by name, so custom
    registered scorers work in workers too (under the default ``fork`` start
    method any parent-process registration is inherited; under ``spawn``
    only import-time registrations are visible).  It persists across queries
    so its generation-keyed term caches behave exactly as on the thread
    path.
    """

    def __init__(self, descriptor: ShardStateDescriptor, buffer=None) -> None:
        self.descriptor = descriptor
        self.index = AttachedShardIndex(descriptor, buffer=buffer)
        self.doc_index = self.index._doc_index
        from repro.service.registry import create_scorer

        self.scorer = create_scorer(
            descriptor.scorer_name, self.index, descriptor.scorer_config
        )

    @property
    def generation(self) -> int:
        """Combined generation this state currently resolves to."""
        return self.index.generation

    def close(self) -> None:
        self.scorer = None
        self.index.close()


def load_state(descriptor, buffer=None) -> None:
    """Attach a descriptor into this process's :data:`STATE` registry.

    Replaces (and releases) any previous attachment under the same key —
    the generation-checked refresh path.  Safe to call with either
    descriptor type.  ``buffer`` lets the creating process hand in its own
    mapping of the payload instead of re-attaching by name.
    """
    if isinstance(descriptor, GlobalStatsDescriptor):
        record: object = descriptor
    else:
        record = AttachedShardState(descriptor, buffer=buffer)
    previous = STATE.get(descriptor.key)
    STATE[descriptor.key] = record
    if previous is not None and hasattr(previous, "close"):
        previous.close()


def record_load_failure(key: str, error: BaseException) -> None:
    """Remember that attaching ``key`` failed, so scoring reports it."""
    previous = STATE.get(key)
    STATE[key] = LoadFailure(key, error)
    if previous is not None and hasattr(previous, "close"):
        previous.close()


def drop_state(key: str) -> None:
    """Detach and forget one registry entry (no-op if absent)."""
    record = STATE.pop(key, None)
    if record is not None and hasattr(record, "close"):
        record.close()


# -- the scatter task ------------------------------------------------------------


def score_shard_task(item) -> Tuple[bytes, bytes]:
    """Score one shard in whatever process runs this.

    ``item`` is ``(key, expected_generation, query_weights)``.  The result
    is the partial score map packed as ``(int32 dense_indexes, float64
    scores)`` byte strings in the score dict's iteration order: the parent
    rebuilds ``{doc_id: score}`` from its own id table, so both the float
    values and the dict order match the thread path bit for bit.
    """
    key, expected_generation, query_weights = item
    record = STATE.get(key)
    if record is None:
        raise StaleShardStateError(f"shard state {key!r} not loaded in this process")
    if isinstance(record, LoadFailure):
        raise record.error
    generation = record.generation
    if generation != expected_generation:
        raise StaleShardStateError(
            f"shard state {key!r} is at generation {generation}, "
            f"query expected {expected_generation}"
        )
    scores = record.scorer.score(query_weights)
    doc_index = record.doc_index
    packed_indexes = array("i", map(doc_index.__getitem__, scores))
    packed_scores = array("d", scores.values())
    return packed_indexes.tobytes(), packed_scores.tobytes()


def unpack_shard_scores(document_ids, packed: Tuple[bytes, bytes]) -> Dict[str, float]:
    """Rebuild one shard's ``{doc_id: score}`` partial from a packed result.

    ``document_ids`` is the parent's dense id table for the same shard; the
    packed indexes were produced against an identical table in the worker,
    so insertion order — and therefore merged-dict order downstream — is
    preserved.
    """
    indexes = memoryview(packed[0]).cast("i")
    values = memoryview(packed[1]).cast("d")
    return {
        document_ids[index]: value for index, value in zip(indexes, values)
    }

"""Generation-safe background compaction of tombstoned indexes.

Deletes and updates tombstone dense slots (see :mod:`repro.index.slots`);
scoring stays exact because postings are scrubbed eagerly, but the interned
id space and the per-slot arrays keep growing.  Compaction renumbers the
live items column by column — nothing is re-added — into exactly what a
from-scratch rebuild or WAL replay in slot order would hold, so rankings
are unchanged bit-for-bit, and swaps that state into the *existing* index
objects in place, because the scorer and the engine hold direct
references to them.

The protocol is split so the expensive part never blocks readers:

1. under the engine's **read** lock — concurrent searches keep running —
   record the index generations and prepare compacted copies via
   ``index.compacted_copy()`` (pure reads; writers are held off only for
   this prepare, the same guarantee any long read has);
2. under the engine's **exclusive writer** (which drains in-flight readers
   first — they finish against the pre-compaction state and are never
   invalidated), re-check the generations: if a write slipped in between
   prepare and adoption, throw the prepared state away and retry; otherwise
   adopt.  Adoption is cheap (pointer swaps), so the writer lock is held
   for microseconds regardless of corpus size.

:class:`BackgroundCompactor` wraps the same routine in a daemon thread with
a tombstone-ratio trigger, for deployments that want reclamation without an
operator in the loop.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from repro.errors import InvalidArgumentError


@dataclass(frozen=True)
class CompactionStats:
    """Outcome of one compaction pass."""

    documents_reclaimed: int
    shots_reclaimed: int
    retries: int

    @property
    def reclaimed(self) -> int:
        """Total dense slots reclaimed across both indexes."""
        return self.documents_reclaimed + self.shots_reclaimed


def compact_engine(engine, max_retries: int = 4) -> CompactionStats:
    """Compact an engine's text and visual indexes, generation-safely.

    Safe to call from any thread while readers and writers are active; a
    concurrent write between snapshot and adoption costs one retry.  After
    ``max_retries`` lost races the final attempt runs entirely under the
    writer lock, which cannot lose.  Returns per-index reclaim counts.
    """
    text_index = engine.inverted_index
    visual_index = engine.visual_index
    for attempt in range(max_retries):
        with engine.read_access():
            if text_index.tombstone_count == 0 and visual_index.tombstone_count == 0:
                return CompactionStats(0, 0, attempt)
            generations = (text_index.generation, visual_index.generation)
            prepared_text = text_index.compacted_copy()
            prepared_visual = visual_index.compacted_copy()
        with engine.exclusive_writer():
            if (text_index.generation, visual_index.generation) != generations:
                continue
            return _adopt(engine, prepared_text, prepared_visual, attempt)
    # Writers keep winning the race; prepare under the writer lock instead.
    with engine.exclusive_writer():
        if text_index.tombstone_count == 0 and visual_index.tombstone_count == 0:
            return CompactionStats(0, 0, max_retries)
        return _adopt(
            engine,
            text_index.compacted_copy(),
            visual_index.compacted_copy(),
            max_retries,
        )


def _adopt(engine, prepared_text, prepared_visual, retries: int) -> CompactionStats:
    """Swap prepared states in (caller holds the exclusive writer)."""
    documents = engine.inverted_index.adopt_compacted(prepared_text)
    shots = engine.visual_index.adopt_compacted(prepared_visual)
    engine.note_compaction_locked()
    return CompactionStats(documents, shots, retries)


class BackgroundCompactor:
    """Daemon thread compacting an engine when tombstones accumulate.

    Every ``interval`` seconds (and once more on :meth:`close`) it checks
    the combined tombstone ratio ``tombstones / (live + tombstones)`` and
    runs :func:`compact_engine` when it reaches ``tombstone_ratio``.
    """

    def __init__(
        self,
        engine,
        tombstone_ratio: float = 0.25,
        interval: float = 0.05,
    ) -> None:
        if not 0.0 < tombstone_ratio <= 1.0:
            raise InvalidArgumentError(
                f"tombstone_ratio must be in (0, 1], got {tombstone_ratio!r}"
            )
        self._engine = engine
        self._ratio = tombstone_ratio
        self._interval = interval
        self._wake = threading.Event()
        self._closed = False
        self._passes = 0
        self._reclaimed = 0
        self._lock = threading.Lock()
        self._thread = threading.Thread(
            target=self._run, name="repro-compactor", daemon=True
        )
        self._thread.start()

    @property
    def passes(self) -> int:
        """Compaction passes that actually reclaimed slots."""
        with self._lock:
            return self._passes

    @property
    def reclaimed(self) -> int:
        """Total dense slots reclaimed so far."""
        with self._lock:
            return self._reclaimed

    def _should_compact(self) -> bool:
        text = self._engine.inverted_index
        visual = self._engine.visual_index
        tombstones = text.tombstone_count + visual.tombstone_count
        if tombstones == 0:
            return False
        live = text.document_count + visual.shot_count
        return tombstones / (live + tombstones) >= self._ratio

    def poke(self) -> None:
        """Wake the thread early (e.g. right after a burst of deletes)."""
        self._wake.set()

    def run_once(self) -> Optional[CompactionStats]:
        """Synchronously compact now if the ratio trigger fires."""
        if not self._should_compact():
            return None
        stats = compact_engine(self._engine)
        if stats.reclaimed:
            with self._lock:
                self._passes += 1
                self._reclaimed += stats.reclaimed
        return stats

    def _run(self) -> None:
        while True:
            self._wake.wait(self._interval)
            self._wake.clear()
            if self._closed:
                return
            self.run_once()

    def close(self, final_pass: bool = True) -> None:
        """Stop the thread; optionally run one last reclaim pass."""
        if self._closed:
            return
        self._closed = True
        self._wake.set()
        self._thread.join(timeout=5.0)
        if final_pass:
            self.run_once()

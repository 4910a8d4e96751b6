"""Dense slots: the id ↔ slot table every index is built on.

Each index interns its ids to dense integer **slots** in insertion order, so
its payload (postings, lengths, vectors, norms, concept maps) lives in flat
per-slot columns and the scoring loops run over integers.
:class:`SlotTable` is the one implementation of that interning: the
monolithic :class:`~repro.index.inverted_index.InvertedIndex` and
:class:`~repro.index.visual.VisualIndex` each own one.

* ``ids`` is the slot → id list; ``in``, ``[]`` and :meth:`SlotTable.get`
  look an id's slot up.
* A delete **tombstones** its slot: the id reads ``None`` there and leaves
  the lookup.  So ``live_count`` (ids present) and ``slot_count`` (the
  length of every dense column) differ by ``tombstone_count``: size a dense
  buffer by ``slot_count``, count documents by ``live_count``.
* A new id always takes the next slot, a re-added one too, which is where
  a from-scratch replay of the same writes puts it.
* ``generation`` ticks on every add, remove and adoption.  It is the clock
  an index's derived state is keyed on.
* :meth:`SlotTable.compacted` re-interns the live ids in slot order and
  :meth:`SlotTable.adopt` swaps them in place.  ``ids`` becomes a new list,
  so a reader still holding the old one (a
  :class:`~repro.index.scoring.DenseScores`) reads what it scored.

:class:`SlottedIndex` is the lifecycle the two index classes share over
their table: ``tombstone_count``, ``generation`` and :meth:`SlottedIndex.
compact`, over each class's own ``compacted_copy`` / ``adopt_compacted``
pair — prepare with pure reads, then adopt in place so long-lived
references to the index object survive (:mod:`repro.index.compaction`
runs the two under different locks).

:class:`PerGeneration` is the one place that remembers a generation: a
value derived from one or more clocks (a scorer's IDF/column/norm tables,
the visual scan view, the result cache, the
feedback model's re-rank memo), rebuilt on the first read that sees a
clock move.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, Iterable, List, Optional, TypeVar

from repro.errors import InvalidArgumentError, NotIndexedError

T = TypeVar("T")


class SlotTable:
    """Ids interned to dense slots, with tombstones and a generation clock.

    ``noun`` and ``where`` word the errors: ``"<noun> 'x' already
    <where>"`` (:class:`~repro.errors.InvalidArgumentError`, a
    ``ValueError``) and ``"<noun> 'x' not <where>"``
    (:class:`~repro.errors.NotIndexedError`, a ``KeyError``).  ``ids`` is
    the table's own list: read it, never write it.
    """

    def __init__(self, noun: str, where: str) -> None:
        self._noun = noun
        self._where = where
        self.ids: List[Optional[str]] = []
        self._slot_of: Dict[str, int] = {}
        self.generation = 0

    # -- reads -------------------------------------------------------------------

    def __contains__(self, item_id: object) -> bool:
        return item_id in self._slot_of

    def __getitem__(self, item_id: str) -> int:
        """The slot of a live id; an absent one raises ``KeyError``."""
        try:
            return self._slot_of[item_id]
        except KeyError:
            raise self._missing(item_id) from None

    def get(self, item_id: str) -> Optional[int]:
        """The slot of a live id, or ``None``."""
        return self._slot_of.get(item_id)

    def live_ids(self) -> List[str]:
        """The live ids in slot order (insertion, replay order)."""
        return [item_id for item_id in self.ids if item_id is not None]

    @property
    def live_count(self) -> int:
        """Ids present (tombstones excluded)."""
        return len(self._slot_of)

    @property
    def slot_count(self) -> int:
        """Slots in use, tombstones included: the length of a dense column."""
        return len(self.ids)

    @property
    def tombstone_count(self) -> int:
        """Tombstoned slots not yet reclaimed by compaction."""
        return len(self.ids) - len(self._slot_of)

    # -- writes ------------------------------------------------------------------

    def _duplicate(self, item_id: str) -> InvalidArgumentError:
        return InvalidArgumentError(f"{self._noun} {item_id!r} already {self._where}")

    def _missing(self, item_id: str) -> NotIndexedError:
        return NotIndexedError(f"{self._noun} {item_id!r} not {self._where}")

    def check_new(self, item_ids: Iterable[str]) -> None:
        """Raise the duplicate error if any of ``item_ids`` is present; change nothing."""
        for item_id in item_ids:
            if item_id in self._slot_of:
                raise self._duplicate(item_id)

    def check_live(self, item_id: str) -> None:
        """Raise the missing-id error unless ``item_id`` is present; change nothing."""
        if item_id not in self._slot_of:
            raise self._missing(item_id)

    def add(self, item_id: str) -> int:
        """Intern a new id at the next slot and return the slot."""
        if item_id in self._slot_of:
            raise self._duplicate(item_id)
        slot = len(self.ids)
        self.ids.append(item_id)
        self._slot_of[item_id] = slot
        self.generation += 1
        return slot

    def remove(self, item_id: str) -> int:
        """Tombstone a live id's slot and return it; an absent id raises the missing-id error."""
        slot = self._slot_of.pop(item_id, None)
        if slot is None:
            raise self._missing(item_id)
        self.ids[slot] = None
        self.generation += 1
        return slot

    # -- compaction --------------------------------------------------------------

    def compacted(self) -> "SlotTable":
        """A fresh table of the live ids, re-interned densely in slot order."""
        fresh = SlotTable(self._noun, self._where)
        fresh.ids = self.live_ids()
        fresh._slot_of = {item_id: slot for slot, item_id in enumerate(fresh.ids)}
        return fresh

    def adopt(self, fresh: "SlotTable") -> int:
        """Take ``fresh``'s slots in place; returns the slots reclaimed.

        The generation ticks, so every cache keyed on it re-validates.
        """
        reclaimed = len(self.ids) - len(fresh.ids)
        self.ids = fresh.ids
        self._slot_of = fresh._slot_of
        self.generation += 1
        return reclaimed


class SlottedIndex:
    """The slot lifecycle shared by every index class.

    A subclass sets ``slots`` and implements ``compacted_copy()`` (pure
    reads: a prepared compacted state) and ``adopt_compacted(prepared)``
    (swap it in place; returns the slots reclaimed).
    """

    slots: SlotTable

    @property
    def tombstone_count(self) -> int:
        """Tombstoned (deleted, not yet compacted) dense slots."""
        return self.slots.tombstone_count

    @property
    def generation(self) -> int:
        """Mutation clock; moves on every add, delete, update or compact.

        Scorers and other derived caches key on this value, so stale
        entries are never served.
        """
        return self.slots.generation

    def compact(self) -> int:
        """Reclaim tombstoned slots in place; returns how many.

        Live items keep their slot order, so rankings are unchanged, and
        object identity is kept.  Without tombstones it is a no-op that
        leaves the generation as it is.
        """
        if self.slots.tombstone_count == 0:
            return 0
        return self.adopt_compacted(self.compacted_copy())


class PerGeneration(Generic[T]):
    """A value derived from ``clock`` that lives for one generation of it.

    ``clock`` is anything with a ``generation`` (an index), or a tuple of
    such things, whose generations are then read as
    one tuple.  :meth:`get` reads the clock, then returns the held value
    if it was built at that reading, else ``build()``'s fresh one.  The
    ``(generation, value)`` pair is held as one tuple and swapped whole,
    so a reader never pairs one generation with another's value; racing
    readers at worst build equal values.  The clock is read *before* the
    build, so a value built across a write is stamped with the generation
    it started from and is dropped by the next read.

    A write never touches a value already handed out; it only stops the
    cell serving it.  So a caller that fetches a mutable value (a memo)
    once and fills it after a computation can never put a result computed
    across a write into the value the cell serves next.

    Pickles as an empty cell: the value is derived, so a clone rebuilds it.
    """

    __slots__ = ("_clock", "_build", "_held")

    def __init__(self, clock, build: Callable[[], T]) -> None:
        self._clock = clock
        self._build = build
        self._held: tuple = (None, None)

    def __reduce__(self):
        return (PerGeneration, (self._clock, self._build))

    def get(self) -> T:
        """The value for the clock's current generation."""
        clock = self._clock
        if clock.__class__ is tuple:
            generation = tuple([part.generation for part in clock])
        else:
            generation = clock.generation
        held = self._held
        if held[0] != generation:
            held = self._held = (generation, self._build())
        return held[1]

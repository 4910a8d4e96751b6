"""The engine's result cache: W-TinyLFU over per-generation segments.

Searchers keep re-issuing the popular queries, so what the cache keeps
should follow how often a query comes back, not only how recently.
:class:`ResultCache` runs W-TinyLFU (Einziger, Friedman & Manes, *TinyLFU:
A Highly Efficient Cache Admission Policy*, ACM TOS 2017) at a fixed
number of entries:

* a small LRU **window** (1 % of the capacity, rounded up) takes
  every new result;
* a segmented-LRU **main** cache holds the rest: a hit in its
  **probation** segment promotes the entry to the **protected** segment
  (80 % of main), whose own LRU entry is demoted back to probation when
  it overflows;
* the window's LRU entry enters main only when a count-min sketch of
  4-bit counters (4 rows) rates it *above* probation's LRU entry, which
  it then replaces — a tie keeps the incumbent;
* the sketch counts every lookup and halves every cell after each
  ``10 × capacity`` lookups, so old popularity fades.

These are constants, not options.  The sketch hashes ``repr(key)`` with
CRC-32, never :func:`hash`, so admission decisions and hit counts repeat
exactly under any ``PYTHONHASHSEED``.

Popularity belongs to the traffic, so the sketch lives for the life of
the cache.  The segments hold rankings, which belong to one generation of
the indexes, so they live in a :class:`~repro.index.slots.PerGeneration`
cell: a miss from :meth:`ResultCache.lookup` hands the caller a slot
naming the segments it read, and :meth:`ResultCache.insert` writes into
exactly those.  A ranking evaluated across a write lands in segments no
later lookup reads.
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict
from typing import Dict, Generic, Hashable, Optional, Tuple, TypeVar

from repro.index.slots import PerGeneration

V = TypeVar("V")
#: A key's sketch cell in each row, as indexes into the sketch's table.
Cells = Tuple[int, int, int, int]

#: Share of the capacity the admission window holds (rounded up).
WINDOW_SHARE = 0.01
#: Share of the main cache its protected segment holds; the rest is probation.
PROTECTED_SHARE = 0.8
#: Rows of the count-min sketch.
SKETCH_ROWS = 4
#: The largest count a 4-bit sketch cell holds.
SKETCH_MAX = 15
#: Sketch cells per row for each entry of capacity (rounded up to a power of
#: two), up to ``2 ** SKETCH_MAX_BITS`` cells a row.
SKETCH_WIDTH_PER_ENTRY = 16
SKETCH_MAX_BITS = 20
#: The sketch halves after this many lookups per entry of capacity.
AGING_PERIOD = 10

# ``bytes.translate`` table that halves every cell at once.
_HALVE = bytes(count >> 1 for count in range(256))


class FrequencySketch:
    """A count-min sketch of 4-bit counters that halves as it ages.

    ``SKETCH_ROWS`` rows of a power-of-two width, one byte a cell, each
    saturating at ``SKETCH_MAX``.  A key's cells come from the CRC-32 of its
    ``repr``, so they are the same in every process: a row's cell is the
    top bits of that code times the row's own odd multiplier, so two keys
    sharing a cell in one row rarely share one in another.
    """

    __slots__ = ("_table", "_width", "_shift", "_sample", "_count")

    def __init__(self, capacity: int) -> None:
        bits = (SKETCH_WIDTH_PER_ENTRY * capacity - 1).bit_length()
        bits = min(SKETCH_MAX_BITS, max(4, bits))
        self._width = 1 << bits
        self._shift = 32 - bits
        self._table = bytearray(SKETCH_ROWS * self._width)
        self._sample = AGING_PERIOD * capacity
        self._count = 0

    def cells(self, key: Hashable) -> Cells:
        """``key``'s cell in each row."""
        code = zlib.crc32(repr(key).encode("utf-8"))
        width, shift = self._width, self._shift
        return (
            ((code * 0x9E3779B1) & 0xFFFFFFFF) >> shift,
            width + (((code * 0x85EBCA77) & 0xFFFFFFFF) >> shift),
            2 * width + (((code * 0xC2B2AE3D) & 0xFFFFFFFF) >> shift),
            3 * width + (((code * 0x27D4EB2F) & 0xFFFFFFFF) >> shift),
        )

    def record(self, cells: Cells) -> None:
        """Count one lookup of the key with these ``cells``; every
        ``10 × capacity`` lookups, halve every cell."""
        table = self._table
        for cell in cells:
            if table[cell] < SKETCH_MAX:
                table[cell] += 1
        self._count += 1
        if self._count == self._sample:
            self._table = table.translate(_HALVE)
            self._count = 0

    def estimate(self, cells: Cells) -> int:
        """How often the key with these ``cells`` was looked up, as the
        sketch remembers it."""
        table = self._table
        return min(table[cells[0]], table[cells[1]], table[cells[2]], table[cells[3]])


class Segments(Generic[V]):
    """One generation's entries: the window and main's two segments.

    Each is an ``OrderedDict`` from key to ``(value, cells)``, least
    recently used first; the sketch cells ride along so neither a hit nor
    an admission decision hashes the key again.
    """

    __slots__ = ("window", "probation", "protected")

    def __init__(self) -> None:
        self.window: "OrderedDict[Hashable, Tuple[V, Cells]]" = OrderedDict()
        self.probation: "OrderedDict[Hashable, Tuple[V, Cells]]" = OrderedDict()
        self.protected: "OrderedDict[Hashable, Tuple[V, Cells]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self.window) + len(self.probation) + len(self.protected)


#: What a miss hands to :meth:`ResultCache.insert`: the segments the
#: lookup read, the key and its sketch cells.
Slot = Tuple[Segments, Hashable, Cells]


class ResultCache(Generic[V]):
    """W-TinyLFU over ``capacity`` entries (see the module docstring).

    ``clock`` is what :class:`~repro.index.slots.PerGeneration` reads: the
    segments are rebuilt empty whenever its generation moves.  Thread-safe:
    one lock guards the sketch, the segments and the counters.  Values are
    stored and served as given, so a caller that mutates them copies.
    """

    def __init__(self, capacity: int, clock) -> None:
        self.capacity = capacity
        self._window_size = capacity - int(capacity * (1 - WINDOW_SHARE))
        self._main_size = capacity - self._window_size
        self._protected_size = int(self._main_size * PROTECTED_SHARE)
        self._segments: "PerGeneration[Segments[V]]" = PerGeneration(clock, Segments)
        self._sketch = FrequencySketch(capacity)
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._admitted = 0
        self._rejected = 0

    def lookup(self, key: Hashable) -> Tuple[Optional[V], Optional[Slot]]:
        """``(value, None)`` on a hit; ``(None, slot)`` on a miss, where
        ``slot`` is what :meth:`insert` takes once the value is evaluated.

        Counts the lookup in the sketch and as a hit or a miss.
        """
        with self._lock:
            segments = self._segments.get()
            window, protected = segments.window, segments.protected
            entry = window.get(key)
            if entry is not None:
                window.move_to_end(key)
            else:
                entry = protected.get(key)
                if entry is not None:
                    protected.move_to_end(key)
                else:
                    entry = segments.probation.pop(key, None)
                    if entry is None:
                        cells = self._sketch.cells(key)
                        self._sketch.record(cells)
                        self._misses += 1
                        return None, (segments, key, cells)
                    protected[key] = entry
                    if len(protected) > self._protected_size:
                        demoted, demoted_entry = protected.popitem(last=False)
                        segments.probation[demoted] = demoted_entry
            self._sketch.record(entry[1])
            self._hits += 1
            return entry[0], None

    def insert(self, slot: Slot, value: V) -> None:
        """Hold ``value`` in the segments a missed :meth:`lookup` read,
        evicting to stay within capacity: the window's least recent entry
        moves into main while main has room, and after that only if the
        sketch rates it above probation's least recent entry, which it
        then replaces."""
        segments, key, cells = slot
        with self._lock:
            window, probation = segments.window, segments.probation
            if key in window or key in probation or key in segments.protected:
                return  # two threads missed on one key: equal values, keep one
            window[key] = (value, cells)
            if len(window) <= self._window_size:
                return
            candidate, entry = window.popitem(last=False)
            if len(probation) + len(segments.protected) < self._main_size:
                probation[candidate] = entry
                self._admitted += 1
                return
            victim = next(iter(probation.items()), None)
            estimate = self._sketch.estimate
            if victim is not None and estimate(entry[1]) > estimate(victim[1][1]):
                del probation[victim[0]]
                probation[candidate] = entry
                self._admitted += 1
            else:
                self._rejected += 1

    def stats(self) -> Dict[str, float]:
        """``hits``, ``misses``, ``entries`` (held in the current
        generation), ``capacity``, ``hit_rate`` and the window → main
        admission decisions, ``admitted`` and ``rejected``.

        The counters survive generation bumps (a lookup an invalidation
        turned into a miss counts as one), so the hit rate is what callers
        experienced across index mutations.
        """
        with self._lock:
            hits, misses = self._hits, self._misses
            admitted, rejected = self._admitted, self._rejected
            entries = len(self._segments.get())
        lookups = hits + misses
        return {
            "hits": float(hits),
            "misses": float(misses),
            "entries": float(entries),
            "capacity": float(self.capacity),
            "hit_rate": (hits / lookups) if lookups else 0.0,
            "admitted": float(admitted),
            "rejected": float(rejected),
        }

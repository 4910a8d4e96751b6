"""Visual index: similarity search over keyframe feature vectors and concepts.

Two visual evidence sources are supported, mirroring TRECVID-era systems:

* **feature-space similarity** — "find shots that look like this one",
  used for query-by-example and for propagating implicit feedback from a
  watched shot to visually similar shots; and
* **concept scoring** — "find shots likely to contain *crowd* and *flag*",
  used when a query or profile is mapped onto the concept vocabulary.

Storage is array-backed to match the access pattern of the scoring loops:
shot ids are interned to dense slots by the index's
:class:`~repro.index.slots.SlotTable` (``index.slots``, which also holds the
tombstones, the generation clock and the compaction protocol), feature-vector
L2 norms are precomputed once at ``add_shot`` time, concept scores are
additionally inverted into per-concept postings (``concept -> [(slot, score)]``)
so ``score_by_concepts`` touches only shots that actually carry a queried
concept, and top-k selection uses a bounded heap instead of sorting every
candidate.  ``add_shot`` refuses a vector whose norm is not finite (a NaN
or infinite component, or squares that overflow): a NaN similarity would
outrank every real neighbour.

:meth:`VisualIndex.similar_to_vector` is an exact two-stage scan over the
live slots of the current generation (:class:`_ScanView`):

1. **Pre-filter, in C.**  ``math.dist`` from the query to every vector in
   one ``map``, then a cosine approximation from the law of cosines,
   ``(|q|² + |f|² − d²) / |f|`` (twice ``|q|`` times the cosine), in a few
   more ``map`` passes.  The cut is the ``(limit + len(exclude))``-th
   largest approximation minus a margin :func:`_scan_margin` proves covers
   every rounding error on both sides.
2. **Exact scoring of the survivors** — a handful per scan — with the
   scan's own expression ``sum(map(mul, query, features)) / (query_norm *
   norm)`` (``0.0`` for a zero norm), selected under ``(-similarity,
   shot_id)``.  Every shot of the true answer survives the cut, so the
   result is bit-identical to scoring every shot.

Like :class:`repro.index.inverted_index.InvertedIndex`, the corpus is
mutable: :meth:`delete_shot` tombstones the slot (empty vector, zero norm)
and scrubs the shot out of every concept postings list, so concept scoring
skips dead slots without a mask, the scan's view leaves them out, and
results stay bit-identical to an index rebuilt over the surviving shots.

The neighbours of a shot depend on the index, not on who asks, so
:meth:`VisualIndex.similar_to_shot` keeps its answers in a
:class:`NeighbourTable`: every session, ``engine.visual_scores``,
``recommendations()`` and the news recommender go through that one method
and share one table.  Every engine holds one ``VisualIndex``, so every
engine holds exactly one table.  The table owns *which shots are nearest to a shot*;
what a user's evidence makes of those neighbours is the feedback model's
memo (:mod:`repro.core.feedback_model`).  Writes keep the table exact
rather than dropping it — an add is insorted into the entries it belongs
in, a delete drops only the entries that mention the victim, compaction
moves slots and the table is keyed by ids — so a hit is bit-identical to
the scan it replaces.  :meth:`similar_to_vector` is the one scan path and
never consults the table.
"""

from __future__ import annotations

import heapq
import math
import threading
from array import array
from bisect import bisect_left, insort
from collections import Counter, OrderedDict
from itertools import compress, repeat
from operator import add, is_not, le, mul, sub
from typing import Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.analysis.features import FeatureExtractor, cosine_similarity
from repro.collection.documents import Collection
from repro.errors import InvalidArgumentError
from repro.index.slots import PerGeneration, SlotTable, SlottedIndex, rebuild_order
from repro.utils.validation import ensure_positive

#: Bound on the neighbour pairs one :class:`NeighbourTable` stores: 1 024
#: entries at the feedback model's ``limit=5``.  The adaptive benchmark's
#: working set is 297 such keys; at ~80 bytes a pair a full table is under
#: half a megabyte.  A constant, not an option: nothing needs another value.
NEIGHBOUR_TABLE_PAIRS = 1024 * 5

#: One table entry: the query shot's vector and norm, and its neighbours as
#: ``(-similarity, shot_id)`` in ascending order.
_Entry = Tuple[Tuple[float, ...], float, List[Tuple[float, str]]]


def _l2_norm(vector: Tuple[float, ...]) -> float:
    # sum(map(mul, v, v)) adds the same products in the same order as the
    # historical generator expression, just without per-element bytecode.
    return math.sqrt(sum(map(mul, vector, vector)))


def finite_features(shot_id: str, features: Sequence[float]) -> Tuple[Tuple[float, ...], float]:
    """``(vector, norm)`` of a shot's features; a non-finite norm raises
    :class:`~repro.errors.InvalidArgumentError`.

    The norm is the sum of squares, so this one test refuses NaN and
    infinite components and vectors whose squares overflow.
    """
    vector = tuple(features)
    norm = _l2_norm(vector)
    if not math.isfinite(norm):
        raise InvalidArgumentError(
            f"shot {shot_id!r} has non-finite features (norm {norm})"
        )
    return vector, norm


#: Norms the scan's error bound is proven for; see :func:`_scan_margin`.
_NORM_RANGE = (2.0 ** -250, 2.0 ** 250)


def _scan_margin(dimensions: int, query_norm: float, low: float, high: float) -> float:
    """How far below the cut-off approximation an answer can sit.

    For a query ``q`` and a live vector ``f`` of ``D`` components, with
    ``d = |q − f|``, stage 1 computes ``A = ((q̂² + f̂²) − d̂²) · (1/f̂)`` from
    the stored norms (``q̂``, ``f̂``) and ``d̂ = math.dist(q, f)``; in exact
    arithmetic ``A = 2·q·f·c / f = 2·|q|·c`` for the cosine ``c``.  Stage 2
    computes ``ŝ = fl(Σ̂ q·f / fl(q̂·f̂))``.  Let ``T = 2·q̂·ŝ``: ordering by
    ``T`` is ordering by ``ŝ``.  With ``u = 2⁻⁵³``, to first order:

    * ``math.dist`` rounds each component difference (``u``) and returns the
      norm of the differences within one ulp (``2u``): ``d̂ = d(1 ± 3u)``.
    * ``sum(map(mul, …))`` is naive summation, so the dot product and each
      squared norm are off by at most ``γ_D·Σ|qᵢfᵢ| ≤ D·u·|q|·|f|``; after
      the square root a stored norm is off by ``(D/2 + 1)·u`` relative.
    * Hence ``|ŝ − c| ≤ (2D + 4)·u`` and ``|T − 2|q|c| ≤ (5D + 10)·u·|q|``,
      while the roundings of ``A`` (norm and distance squares, the sum,
      the difference, the reciprocal and the product) give
      ``|A − 2|q|c| ≤ (3D/2 + 22)·u·(|q|² + |f|²)/|f|``.

    As ``2|q|·|f| ≤ |q|² + |f|²``, ``|A − T| ≤ (4D + 27)·u·(q̂² + f̂²)/f̂``,
    which over every positive norm in ``[low, high]`` is at most
    ``E = (4D + 27)·u·(q̂² + high²)/low``.  Zero-norm slots are exact: their
    reciprocal is stored as 0, so ``A = 0 = T``.  When ``k = limit +
    len(exclude)`` approximations are ``≥ a_k``, at least ``limit`` of those
    shots are not excluded and have ``T ≥ a_k − E``; every shot of the
    answer therefore has ``T ≥ a_k − E`` and ``A ≥ a_k − 2E``.  The margin is
    ``2E`` with the constant doubled against the second-order terms —
    ``~1e-13`` for the 32-d features of a generated corpus, against gaps of
    ``~1e-4`` between neighbours.

    The argument needs normal floats with headroom: every positive norm
    and a nonzero query norm in :data:`_NORM_RANGE`.  There, products that
    underflow add at most ``D·2⁻¹⁰⁷⁴``, far below the bound; outside it the
    margin is infinite and every slot is scored exactly.
    """
    floor, ceiling = _NORM_RANGE
    if low < floor or high > ceiling or query_norm > ceiling or 0 < query_norm < floor:
        return math.inf
    rounding = (8 * dimensions + 54) * 2.0 ** -53
    return 2.0 * rounding * (query_norm * query_norm + high * high) / low


class _ScanView(NamedTuple):
    """The live slots of one index generation, laid out for the scan."""

    shot_ids: List[str]
    vectors: List[Tuple[float, ...]]
    norms: List[float]
    squared_norms: List[float]
    #: ``1 / norm``, and 0.0 for a zero norm, so its approximation is 0.
    inverse_norms: List[float]
    dimensions: FrozenSet[int]
    #: Smallest positive norm (``inf`` without one) and largest norm.
    low: float
    high: float


class NeighbourTable:
    """Answers of ``similar_to_shot``, kept exact under writes.

    A bounded LRU keyed by ``(shot_id, limit)`` — ids, not dense slots, so
    compaction never touches it.  An entry holds the query shot's vector and
    norm beside its neighbours as ``(-similarity, shot_id)`` tuples in
    ascending order, which is the scan's own selection order.  That is
    enough to correct the entry when a shot is added, because
    top-k(S ∪ {x}) = top-k(top-k(S) ∪ {x}); a delete cannot be corrected
    (the k+1-th neighbour is unknown), so it drops the entries that name
    the victim and the next query re-scans.

    The lock orders concurrent readers' :meth:`get` / :meth:`put`.  Index
    writes are already exclusive of index reads (the engine's writer lock),
    so a scan can never be stored after a write it did not see.

    Pickles as an empty table: it is a cache, and a lock cannot be sent.
    """

    def __init__(self) -> None:
        self._capacity = NEIGHBOUR_TABLE_PAIRS
        self._entries: "OrderedDict[Tuple[str, int], _Entry]" = OrderedDict()
        self._pairs = 0
        self._hits = 0
        self._misses = 0
        self._corrected = 0
        self._dropped = 0
        self._lock = threading.Lock()

    def __reduce__(self):
        return (NeighbourTable, ())

    def __len__(self) -> int:
        """Entries held; the write path's ``if table:`` is this, unlocked."""
        return len(self._entries)

    def get(self, shot_id: str, limit: int) -> Optional[List[Tuple[str, float]]]:
        """The stored answer as a fresh ``[(shot_id, similarity)]``, or ``None``."""
        key = (shot_id, limit)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._hits += 1
            self._entries.move_to_end(key)
            return [(neighbour_id, -negated) for negated, neighbour_id in entry[2]]

    def put(
        self,
        shot_id: str,
        limit: int,
        vector: Tuple[float, ...],
        result: Sequence[Tuple[str, float]],
    ) -> None:
        """Store a scan's ``result`` for ``shot_id``, whose features are ``vector``.

        An empty result (an index of one shot) is not worth an entry, and
        leaving it out means the pair bound bounds the entries as well.
        """
        if not 0 < len(result) <= self._capacity:
            return
        norm = _l2_norm(vector)
        neighbours = [(-similarity, neighbour_id) for neighbour_id, similarity in result]
        key = (shot_id, limit)
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._pairs -= len(previous[2])
            self._entries[key] = (vector, norm, neighbours)
            self._pairs += len(neighbours)
            self._evict()

    def _evict(self) -> None:
        while self._pairs > self._capacity:
            _, (_, _, neighbours) = self._entries.popitem(last=False)
            self._pairs -= len(neighbours)

    def shot_added(self, shot_id: str, vector: Tuple[float, ...]) -> None:
        """Insort a new shot into every entry whose k-th neighbour it beats.

        The similarity is the scan's own expression, operand order and
        zero-norm rule included.  An entry of another dimensionality is
        dropped instead, so the next query scans and raises as it would
        have without a table.
        """
        dimensions = len(vector)
        norm = _l2_norm(vector)
        with self._lock:
            entries = self._entries
            for key, (query, query_norm, neighbours) in list(entries.items()):
                if len(query) != dimensions:
                    del entries[key]
                    self._pairs -= len(neighbours)
                    self._dropped += 1
                    continue
                if query_norm == 0 or norm == 0:
                    similarity = 0.0
                else:
                    similarity = sum(map(mul, query, vector)) / (query_norm * norm)
                candidate = (-similarity, shot_id)
                if len(neighbours) < key[1]:
                    self._pairs += 1
                elif candidate < neighbours[-1]:
                    neighbours.pop()
                else:
                    continue
                insort(neighbours, candidate)
                self._corrected += 1
            self._evict()

    def shot_deleted(self, shot_id: str) -> None:
        """Drop the entries keyed by ``shot_id`` or listing it."""
        with self._lock:
            entries = self._entries
            for key, (_, _, neighbours) in list(entries.items()):
                if key[0] == shot_id or any(
                    neighbour_id == shot_id for _, neighbour_id in neighbours
                ):
                    del entries[key]
                    self._pairs -= len(neighbours)
                    self._dropped += 1

    def info(self) -> Dict[str, int]:
        """Occupancy and counters (``dropped`` counts writes, not evictions)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "pairs": self._pairs,
                "capacity_pairs": self._capacity,
                "hits": self._hits,
                "misses": self._misses,
                "corrected": self._corrected,
                "dropped": self._dropped,
            }


class VisualIndex(SlottedIndex):
    """Stores one feature vector and one concept-score map per shot."""

    def __init__(self) -> None:
        self.slots = SlotTable("shot", "in visual index")
        # Payload columns, indexed by slot.
        self._vectors: List[Tuple[float, ...]] = []
        self._norms = array("d")
        self._concept_maps: List[Dict[str, float]] = []
        # Live shots by vector length, so check_new_shot needs no scan.
        self._lengths: "Counter[int]" = Counter()
        # Inverted concept postings: concept -> [(slot, score)].
        self._concept_postings: Dict[str, List[Tuple[int, float]]] = {}
        self._neighbours = NeighbourTable()
        self._scan: PerGeneration[_ScanView] = PerGeneration(self, self._build_scan)

    # -- construction --------------------------------------------------------

    def add_shot(
        self,
        shot_id: str,
        features: Sequence[float],
        concept_scores: Optional[Mapping[str, float]] = None,
    ) -> None:
        """Add one shot's visual evidence.

        Duplicates and features of non-finite norm raise
        :class:`~repro.errors.InvalidArgumentError` before anything changes.
        """
        self.slots.check_new((shot_id,))
        vector, norm = finite_features(shot_id, features)
        concepts = dict(concept_scores or {})
        slot = self.slots.add(shot_id)
        self._vectors.append(vector)
        self._norms.append(norm)
        self._lengths[len(vector)] += 1
        self._concept_maps.append(concepts)
        for concept, score in concepts.items():
            self._concept_postings.setdefault(concept, []).append((slot, score))
        if self._neighbours:
            self._neighbours.shot_added(shot_id, vector)

    def check_new_shot(self, shot_id: str, features: Sequence[float]) -> Tuple[float, ...]:
        """The vector of a shot a write may add, or :class:`~repro.errors.
        InvalidArgumentError` for a present id, a non-finite norm or a length
        other than the live shots' (which would make every scan raise)."""
        self.slots.check_new((shot_id,))
        vector, _ = finite_features(shot_id, features)
        lengths = self._lengths
        if lengths and (len(lengths) > 1 or len(vector) not in lengths):
            raise InvalidArgumentError(
                f"shot {shot_id!r} has {len(vector)} features, but a live shot "
                f"has {min(lengths.keys() - {len(vector)})}"
            )
        return vector

    def delete_shot(self, shot_id: str) -> None:
        """Remove one shot; an unknown id raises ``NotIndexedError``.

        The slot is tombstoned and the shot is scrubbed out of every
        concept postings list it appears in, so searches never need a
        tombstone mask.  Concept postings are ``(slot, score)`` in
        ascending slot order (appends only ever extend them, deletions
        preserve order, compaction renumbers monotonically), so each scrub
        is one bisect.
        """
        slot = self.slots.remove(shot_id)
        length = len(self._vectors[slot])
        self._lengths[length] -= 1
        if not self._lengths[length]:
            del self._lengths[length]
        concept_postings = self._concept_postings
        for concept in self._concept_maps[slot]:
            postings = concept_postings[concept]
            del postings[bisect_left(postings, (slot,))]
            if not postings:
                del concept_postings[concept]
        self._vectors[slot] = ()
        self._norms[slot] = 0.0
        self._concept_maps[slot] = {}
        if self._neighbours:
            self._neighbours.shot_deleted(shot_id)

    # -- compaction ----------------------------------------------------------

    def compacted_copy(self) -> "VisualIndex":
        """A fresh index of the live shots, renumbered densely, as
        :meth:`InvertedIndex.compacted_copy` renumbers postings.  It shares
        the vectors (tuples) and concept maps, which nothing mutates in
        place (a delete stores ``{}``, an add a fresh ``dict``)."""
        fresh = VisualIndex()
        fresh.slots, live, new_slot = self.slots.compacted()
        fresh._vectors = list(compress(self._vectors, live))
        fresh._norms = array("d", compress(self._norms, live))
        fresh._concept_maps = list(compress(self._concept_maps, live))
        fresh._lengths = Counter(map(len, fresh._vectors))
        postings = self._concept_postings
        first = {concept: entries[0][0] for concept, entries in postings.items()}
        for concept in rebuild_order(first, self._concept_maps):
            fresh._concept_postings[concept] = [
                (new_slot[slot], score) for slot, score in postings[concept]
            ]
        return fresh

    def adopt_compacted(self, fresh: "VisualIndex") -> int:
        """Swap ``fresh``'s state into this object in place.

        Mirrors :meth:`InvertedIndex.adopt_compacted`.  The neighbour table
        is keyed by shot ids, which compaction keeps, so it stays as it is.
        """
        reclaimed = self.slots.adopt(fresh.slots)
        self._vectors = fresh._vectors
        self._norms = fresh._norms
        self._lengths = fresh._lengths
        self._concept_maps = fresh._concept_maps
        self._concept_postings = fresh._concept_postings
        return reclaimed

    @classmethod
    def from_collection(
        cls,
        collection: Collection,
        feature_extractor: Optional[FeatureExtractor] = None,
    ) -> "VisualIndex":
        """Build a visual index from a collection.

        Shots that have already been analysed (``shot.features`` filled by
        :class:`repro.analysis.pipeline.AnalysisPipeline`) are used as-is;
        otherwise features are extracted on the fly.
        """
        extractor = feature_extractor or FeatureExtractor()
        index = cls()
        for shot in collection.iter_shots():
            features = shot.features or extractor.extract(shot.keyframe)
            index.add_shot(shot.shot_id, features, shot.concept_scores)
        return index

    # -- statistics ----------------------------------------------------------

    @property
    def shot_count(self) -> int:
        """Number of **live** indexed shots (tombstones excluded)."""
        return self.slots.live_count

    def has_shot(self, shot_id: str) -> bool:
        """True if the shot has visual evidence."""
        return shot_id in self.slots

    def shot_ids(self) -> List[str]:
        """All **live** shot ids, in slot (insertion/replay) order."""
        return self.slots.live_ids()

    def features_of(self, shot_id: str) -> Tuple[float, ...]:
        """Feature vector of one shot; an unknown id raises ``KeyError``."""
        return self._vectors[self.slots[shot_id]]

    def concept_scores_of(self, shot_id: str) -> Dict[str, float]:
        """Concept confidence scores of one shot (a copy)."""
        slot = self.slots.get(shot_id)
        if slot is None:
            return {}
        return dict(self._concept_maps[slot])

    # -- search -----------------------------------------------------------------

    def _build_scan(self) -> _ScanView:
        """The live slots of this generation, built on the first scan after a write.

        Readers racing to build it build equal views; writes are exclusive
        of scans, so a view never mixes two generations.
        """
        slots = self.slots
        live = list(map(is_not, slots.ids, repeat(None)))
        vectors = list(compress(self._vectors, live))
        norms = list(compress(self._norms, live))
        return _ScanView(
            shot_ids=list(compress(slots.ids, live)),
            vectors=vectors,
            norms=norms,
            squared_norms=list(map(mul, norms, norms)),
            inverse_norms=[1.0 / norm if norm else 0.0 for norm in norms],
            dimensions=frozenset(map(len, vectors)),
            low=min(filter(None, norms), default=math.inf),
            high=max(norms, default=0.0),
        )

    def similar_to_vector(
        self, vector: Sequence[float], limit: int = 20, exclude: Sequence[str] = ()
    ) -> List[Tuple[str, float]]:
        """Shots most similar to an arbitrary feature vector.

        The two-stage scan of the module docstring.  A live shot of another
        dimensionality raises :class:`~repro.errors.InvalidArgumentError`
        (a ``ValueError``), excluded or not.
        """
        ensure_positive(limit, "limit")
        excluded = set(exclude)
        query = tuple(vector)
        query_dimensions = len(query)
        query_norm = math.sqrt(sum(map(mul, query, query)))
        view = self._scan.get()
        if view.dimensions - {query_dimensions}:
            other = next(len(f) for f in view.vectors if len(f) != query_dimensions)
            raise InvalidArgumentError(
                f"vectors must have equal length, got {query_dimensions} and {other}"
            )
        shot_ids, vectors, norms = view.shot_ids, view.vectors, view.norms
        depth = limit + len(exclude)
        margin = _scan_margin(query_dimensions, query_norm, view.low, view.high)
        if depth < len(shot_ids) and margin < math.inf:
            distances = list(map(math.dist, repeat(query), vectors))
            approximations = list(
                map(
                    mul,
                    map(
                        sub,
                        map(add, repeat(query_norm * query_norm), view.squared_norms),
                        map(mul, distances, distances),
                    ),
                    view.inverse_norms,
                )
            )
            cut = heapq.nlargest(depth, approximations)[-1] - margin
            survivors = compress(range(len(shot_ids)), map(le, repeat(cut), approximations))
        else:
            survivors = range(len(shot_ids))
        scored: List[Tuple[str, float]] = []
        for slot in survivors:
            shot_id = shot_ids[slot]
            if shot_id in excluded:
                continue
            norm = norms[slot]
            if query_norm == 0 or norm == 0:
                similarity = 0.0
            else:
                similarity = sum(map(mul, query, vectors[slot])) / (query_norm * norm)
            scored.append((shot_id, similarity))
        return heapq.nsmallest(limit, scored, key=lambda item: (-item[1], item[0]))

    def similar_to_shot(self, shot_id: str, limit: int = 20) -> List[Tuple[str, float]]:
        """Shots most similar to a given shot (the query shot is excluded).

        Served from the :class:`NeighbourTable` when it holds the answer;
        either way the list is the caller's own.
        """
        ensure_positive(limit, "limit")
        vector = self.features_of(shot_id)
        cached = self._neighbours.get(shot_id, limit)
        if cached is not None:
            return cached
        result = self.similar_to_vector(vector, limit=limit, exclude=(shot_id,))
        self._neighbours.put(shot_id, limit, vector, result)
        return result

    def neighbour_table_info(self) -> Dict[str, int]:
        """Occupancy and hit/miss/correction counters of the neighbour table."""
        return self._neighbours.info()

    def similarity(self, first_shot_id: str, second_shot_id: str) -> float:
        """Cosine similarity between two indexed shots."""
        return cosine_similarity(
            self.features_of(first_shot_id), self.features_of(second_shot_id)
        )

    def score_by_concepts(
        self, concept_weights: Mapping[str, float]
    ) -> Dict[str, float]:
        """Score every shot by a weighted sum of its concept confidences."""
        shot_ids = self.slots.ids
        accumulator = [0.0] * len(shot_ids)
        touched: List[int] = []
        seen = bytearray(len(shot_ids))
        for concept, weight in concept_weights.items():
            for slot, score in self._concept_postings.get(concept, ()):
                accumulator[slot] += weight * score
                if not seen[slot]:
                    seen[slot] = 1
                    touched.append(slot)
        scores: Dict[str, float] = {}
        for slot in sorted(touched):
            total = accumulator[slot]
            if total != 0.0:
                scores[shot_ids[slot]] = total
        return scores

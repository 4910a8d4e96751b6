"""Ranked result lists returned by the retrieval engine.

A :class:`ResultList` is what the interface layer renders and what the
evaluation metrics score.  Each :class:`ResultItem` carries enough metadata
(story, video, headline, category, duration) for a simulated user to decide
whether to interact with it without dereferencing the collection.

A hit is an immutable named tuple: the engine builds one per ranked shot on
every uncached search, and the result cache keeps them, so a hit is one
tuple of its eight fields with no per-instance dictionary.
"""

from __future__ import annotations

import heapq
from dataclasses import FrozenInstanceError, dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence

from repro.collection.documents import Collection


class _ResultFields(NamedTuple):
    shot_id: str
    score: float
    rank: int
    story_id: str = ""
    video_id: str = ""
    headline: str = ""
    category: str = ""
    duration_seconds: float = 0.0


class ResultItem(_ResultFields):
    """One entry in a ranked result list (the service's ``SearchHit``).

    Fields after ``rank`` are the shot's presentation record
    (:meth:`Collection.presentation_records`) in the same order.
    Assignment raises :class:`dataclasses.FrozenInstanceError`; use
    ``_replace`` for a changed copy.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def as_dict(self) -> Dict[str, object]:
        """Plain-dictionary view for logging and JSON transports."""
        return self._asdict()


#: The presentation record of a shot the collection does not know (an
#: ingested document): the field defaults.
_NO_RECORD = tuple(_ResultFields._field_defaults.values())


@dataclass
class ResultList:
    """A ranked list of shots for one query."""

    query_text: str
    items: List[ResultItem] = field(default_factory=list)
    topic_id: Optional[str] = None

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[ResultItem]:
        return iter(self.items)

    def __getitem__(self, index: int) -> ResultItem:
        return self.items[index]

    def shot_ids(self) -> List[str]:
        """The ranked shot ids."""
        return [item.shot_id for item in self.items]

    def scores(self) -> Dict[str, float]:
        """A ``{shot_id: score}`` view of the list."""
        return {item.shot_id: item.score for item in self.items}

    def top(self, count: int) -> List[ResultItem]:
        """The first ``count`` items."""
        return self.items[:count]

    def rank_of(self, shot_id: str) -> Optional[int]:
        """1-based rank of a shot, or ``None`` if absent."""
        for item in self.items:
            if item.shot_id == shot_id:
                return item.rank
        return None

    def contains(self, shot_id: str) -> bool:
        """True if the shot appears anywhere in the list."""
        return any(item.shot_id == shot_id for item in self.items)

    @classmethod
    def from_scores(
        cls,
        query_text: str,
        scores: Dict[str, float],
        collection: Optional[Collection] = None,
        limit: int = 100,
        topic_id: Optional[str] = None,
    ) -> "ResultList":
        """Build a ranked list from a score map.

        Ties are broken by shot id so rankings are deterministic.  Selection
        negates scores into ``(-score, shot_id)`` tuples so the sort runs on
        C tuple comparisons (no per-element key function); only the top
        ``limit`` survive.  When a collection is supplied, presentation
        metadata is filled in from the collection's cached per-shot
        presentation records.
        """
        return cls.from_decorated(
            query_text,
            [(-score, shot_id) for shot_id, score in scores.items()],
            collection=collection,
            limit=limit,
            topic_id=topic_id,
        )

    @classmethod
    def from_decorated(
        cls,
        query_text: str,
        decorated: List[tuple],
        collection: Optional[Collection] = None,
        limit: int = 100,
        topic_id: Optional[str] = None,
    ) -> "ResultList":
        """Build a ranked list from pre-negated ``(-score, shot_id)`` tuples.

        The kernel-facing variant of :meth:`from_scores`: callers that
        already hold scores in decorated form (the engine's single-source
        fusion fast path) avoid materialising an intermediate score map.
        ``decorated`` is consumed destructively (sorted in place).  Each
        hit is one tuple: ``(shot_id, score, rank)`` joined to the shot's
        presentation record, or to the field defaults for a shot the
        collection does not know.
        """
        if len(decorated) > 4 * limit:
            decorated = heapq.nsmallest(limit, decorated)
        else:
            decorated.sort()
            decorated = decorated[:limit]
        record_of = (
            collection.presentation_records().get if collection is not None else {}.get
        )
        new_hit = tuple.__new__
        hit_type = ResultItem
        default = _NO_RECORD
        items = [
            new_hit(hit_type, (shot_id, -negated, rank) + record_of(shot_id, default))
            for rank, (negated, shot_id) in enumerate(decorated, start=1)
        ]
        return cls(query_text=query_text, items=items, topic_id=topic_id)


def merge_result_lists(
    lists: Sequence[ResultList], limit: int = 100, query_text: str = ""
) -> ResultList:
    """Merge several result lists by best score per shot (used by recommenders)."""
    best: Dict[str, ResultItem] = {}
    for result_list in lists:
        for item in result_list:
            current = best.get(item.shot_id)
            if current is None or item.score > current.score:
                best[item.shot_id] = item
    ranked = heapq.nsmallest(
        limit, best.values(), key=lambda item: (-item.score, item.shot_id)
    )
    items = [item._replace(rank=rank) for rank, item in enumerate(ranked, start=1)]
    return ResultList(query_text=query_text, items=items)

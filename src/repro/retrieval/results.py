"""Ranked result lists returned by the retrieval engine.

A :class:`ResultList` is what the interface layer renders and what the
evaluation metrics score.  Each :class:`ResultItem` carries enough metadata
(keyframe, story headline, duration) for a simulated user to decide whether
to interact with it without dereferencing the collection.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.collection.documents import Collection


@dataclass(frozen=True)
class ResultItem:
    """One entry in a ranked result list (the service's ``SearchHit``)."""

    shot_id: str
    score: float
    rank: int
    story_id: str = ""
    video_id: str = ""
    headline: str = ""
    category: str = ""
    duration_seconds: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        """Plain-dictionary view for logging and JSON transports."""
        return {
            "shot_id": self.shot_id,
            "score": self.score,
            "rank": self.rank,
            "story_id": self.story_id,
            "video_id": self.video_id,
            "headline": self.headline,
            "category": self.category,
            "duration_seconds": self.duration_seconds,
        }


# Fast construction path for the result-list hot loop: installing a complete
# field dictionary on a bare instance skips the frozen-dataclass __init__
# (eight guarded object.__setattr__ calls per item).  Equivalence with normal
# construction is pinned by the kernel-equivalence tests.
_NEW_ITEM = ResultItem.__new__
_SET_ATTRIBUTE = object.__setattr__


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
        prototype records.
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
        ``decorated`` is consumed destructively (sorted in place).
        """
        if len(decorated) > 4 * limit:
            decorated = heapq.nsmallest(limit, decorated)
        else:
            decorated.sort()
            decorated = decorated[:limit]
        records = collection.presentation_records() if collection is not None else {}
        records_get = records.get
        items: List[ResultItem] = []
        append = items.append
        new_item = _NEW_ITEM
        set_attribute = _SET_ATTRIBUTE
        copy_record = dict
        item_type = ResultItem
        for rank, (negated_score, shot_id) in enumerate(decorated, start=1):
            record = records_get(shot_id)
            if record is not None:
                fields = copy_record(record)
                fields["score"] = -negated_score
                fields["rank"] = rank
                item = new_item(item_type)
                set_attribute(item, "__dict__", fields)
                append(item)
            else:
                append(ResultItem(shot_id=shot_id, score=-negated_score, rank=rank))
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
    items = [
        ResultItem(
            shot_id=item.shot_id,
            score=item.score,
            rank=rank,
            story_id=item.story_id,
            video_id=item.video_id,
            headline=item.headline,
            category=item.category,
            duration_seconds=item.duration_seconds,
        )
        for rank, item in enumerate(ranked, start=1)
    ]
    return ResultList(query_text=query_text, items=items)

"""Broadcast capture simulation.

The framework the paper proposes "for recording, analysing, indexing and
retrieving news videos such as the BBC One O'Clock News" starts with a
recording step: every day a bulletin is captured off air and pushed through
the analysis/indexing pipeline.  The :class:`BroadcastRecorder` simulates
that arrival process over a synthetic collection: bulletins become available
in broadcast-date order, so downstream components (index, recommender) can
be exercised incrementally exactly as they would be in production.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.collection.documents import Collection, Video


@dataclass(frozen=True)
class RecordedBulletin:
    """One captured bulletin ready for analysis and indexing."""

    video: Video
    broadcast_date: str
    story_count: int
    shot_count: int
    duration_seconds: float


class BroadcastRecorder:
    """Replays a collection's bulletins in broadcast order."""

    def __init__(self, collection: Collection) -> None:
        self._collection = collection
        self._videos = sorted(
            collection.videos(), key=lambda video: (video.broadcast_date, video.video_id)
        )
        self._cursor = 0

    @property
    def total_bulletins(self) -> int:
        """How many bulletins the schedule contains."""
        return len(self._videos)

    @property
    def recorded_count(self) -> int:
        """How many bulletins have been recorded so far."""
        return self._cursor

    def has_pending(self) -> bool:
        """True if bulletins remain to be recorded."""
        return self._cursor < len(self._videos)

    def record_next(self) -> Optional[RecordedBulletin]:
        """Record the next bulletin in the schedule (None when exhausted)."""
        if not self.has_pending():
            return None
        video = self._videos[self._cursor]
        self._cursor += 1
        shots = self._collection.shots_of_video(video.video_id)
        return RecordedBulletin(
            video=video,
            broadcast_date=video.broadcast_date,
            story_count=video.story_count,
            shot_count=len(shots),
            duration_seconds=video.duration_seconds,
        )

    def record_all(self) -> List[RecordedBulletin]:
        """Record every remaining bulletin."""
        bulletins: List[RecordedBulletin] = []
        while self.has_pending():
            bulletin = self.record_next()
            if bulletin is not None:
                bulletins.append(bulletin)
        return bulletins

    def __iter__(self) -> Iterator[RecordedBulletin]:
        while self.has_pending():
            bulletin = self.record_next()
            if bulletin is None:
                break
            yield bulletin

    def bulletins_by_date(self) -> Dict[str, List[Video]]:
        """All bulletins grouped by broadcast date (regardless of cursor)."""
        grouped: Dict[str, List[Video]] = {}
        for video in self._videos:
            grouped.setdefault(video.broadcast_date, []).append(video)
        return grouped

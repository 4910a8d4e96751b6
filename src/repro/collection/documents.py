"""Data model for the synthetic news-video collection.

The structure mirrors what TRECVID-style video retrieval systems operate on:

``Video`` (a recorded news bulletin)
    → ``NewsStory`` (a topically coherent segment of the bulletin)
        → ``Shot`` (the retrieval unit, with one representative ``Keyframe``)

Shots carry the artefacts retrieval actually consumes: an ASR-like transcript,
low-level visual features (filled in by :mod:`repro.analysis`), ground-truth
semantic concept labels, and the hidden attributes the generator used to
create them (category, search-topic relevance) which back the relevance
judgements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import InvalidArgumentError


@dataclass
class Keyframe:
    """A representative still image for a shot.

    Real systems store a JPEG; we store the *latent visual signal* the
    analysis substrate turns into feature vectors: a point in a latent space
    whose location encodes category and topic identity plus noise.
    """

    keyframe_id: str
    shot_id: str
    latent_signal: Tuple[float, ...]
    timestamp: float = 0.0


@dataclass
class Shot:
    """The basic retrieval unit: a contiguous camera take within a story."""

    shot_id: str
    video_id: str
    story_id: str
    start_seconds: float
    end_seconds: float
    transcript: str
    keyframe: Keyframe
    category: str
    concepts: Tuple[str, ...] = ()
    topic_relevance: Dict[str, int] = field(default_factory=dict)
    features: Optional[Tuple[float, ...]] = None
    concept_scores: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Shot length in seconds."""
        return self.end_seconds - self.start_seconds

    def is_relevant_to(self, topic_id: str) -> bool:
        """True if the generator marked this shot relevant to ``topic_id``."""
        return self.topic_relevance.get(topic_id, 0) > 0

    def relevance_grade(self, topic_id: str) -> int:
        """Graded relevance (0 = not relevant) of this shot for ``topic_id``."""
        return self.topic_relevance.get(topic_id, 0)


@dataclass
class NewsStory:
    """A topically coherent news story within a bulletin."""

    story_id: str
    video_id: str
    category: str
    headline: str
    shot_ids: List[str] = field(default_factory=list)
    search_topic_id: Optional[str] = None
    summary: str = ""

    @property
    def shot_count(self) -> int:
        """Number of shots in the story."""
        return len(self.shot_ids)


@dataclass
class Video:
    """A recorded news bulletin (e.g. one day's One O'Clock News)."""

    video_id: str
    broadcast_date: str
    story_ids: List[str] = field(default_factory=list)
    duration_seconds: float = 0.0
    channel: str = "synthetic-news"

    @property
    def story_count(self) -> int:
        """Number of stories in the bulletin."""
        return len(self.story_ids)


class Collection:
    """An in-memory news-video collection with indexed accessors.

    The collection is the shared substrate of the whole library: the text and
    visual indexes are built from it, simulated users browse it, and
    relevance judgements refer to its shot identifiers.
    """

    def __init__(
        self,
        videos: Sequence[Video],
        stories: Sequence[NewsStory],
        shots: Sequence[Shot],
        name: str = "synthetic-news-collection",
    ) -> None:
        self.name = name
        self._videos: Dict[str, Video] = {video.video_id: video for video in videos}
        self._stories: Dict[str, NewsStory] = {story.story_id: story for story in stories}
        self._shots: Dict[str, Shot] = {shot.shot_id: shot for shot in shots}
        self._shot_order: List[str] = [shot.shot_id for shot in shots]
        self._presentation_records: Optional[
            Dict[str, Tuple[str, str, str, str, float]]
        ] = None
        self._validate()

    # -- construction helpers ---------------------------------------------

    def _validate(self) -> None:
        for story in self._stories.values():
            if story.video_id not in self._videos:
                raise InvalidArgumentError(
                    f"story {story.story_id} references unknown video {story.video_id}"
                )
            for shot_id in story.shot_ids:
                if shot_id not in self._shots:
                    raise InvalidArgumentError(
                        f"story {story.story_id} references unknown shot {shot_id}"
                    )
        for shot in self._shots.values():
            if shot.story_id not in self._stories:
                raise InvalidArgumentError(
                    f"shot {shot.shot_id} references unknown story {shot.story_id}"
                )

    # -- sizes --------------------------------------------------------------

    @property
    def video_count(self) -> int:
        """Number of bulletins."""
        return len(self._videos)

    @property
    def story_count(self) -> int:
        """Number of news stories."""
        return len(self._stories)

    @property
    def shot_count(self) -> int:
        """Number of shots (retrieval units)."""
        return len(self._shots)

    def __len__(self) -> int:
        return self.shot_count

    # -- accessors -----------------------------------------------------------

    def video(self, video_id: str) -> Video:
        """Look up a bulletin by id."""
        return self._videos[video_id]

    def story(self, story_id: str) -> NewsStory:
        """Look up a story by id."""
        return self._stories[story_id]

    def shot(self, shot_id: str) -> Shot:
        """Look up a shot by id."""
        return self._shots[shot_id]

    def has_shot(self, shot_id: str) -> bool:
        """True if the shot id exists in the collection."""
        return shot_id in self._shots

    def videos(self) -> List[Video]:
        """All bulletins, in insertion (broadcast) order."""
        return list(self._videos.values())

    def stories(self) -> List[NewsStory]:
        """All stories, in insertion order."""
        return list(self._stories.values())

    def shots(self) -> List[Shot]:
        """All shots, in insertion order."""
        return [self._shots[shot_id] for shot_id in self._shot_order]

    def shot_ids(self) -> List[str]:
        """All shot identifiers, in insertion order."""
        return list(self._shot_order)

    def iter_shots(self) -> Iterator[Shot]:
        """Iterate over shots without materialising the list."""
        for shot_id in self._shot_order:
            yield self._shots[shot_id]

    def presentation_records(self) -> Dict[str, Tuple[str, str, str, str, float]]:
        """Per-shot presentation metadata for result-list construction.

        Maps ``shot_id`` to the tuple ``(story_id, video_id, headline,
        category, duration)``: the fields a result item carries after
        ``(shot_id, score, rank)``, in that order, so a hit is those three
        values joined to the record.  Built lazily once (the collection is
        immutable after construction) so the result-list hot path avoids
        per-item shot/story lookups.
        """
        records = self._presentation_records
        if records is None:
            records = {}
            for shot_id in self._shot_order:
                shot = self._shots[shot_id]
                records[shot_id] = (
                    shot.story_id,
                    shot.video_id,
                    self._stories[shot.story_id].headline,
                    shot.category,
                    shot.duration,
                )
            self._presentation_records = records
        return records

    def shots_of_story(self, story_id: str) -> List[Shot]:
        """Shots belonging to a story, in narrative order."""
        story = self.story(story_id)
        return [self._shots[shot_id] for shot_id in story.shot_ids]

    def shots_of_video(self, video_id: str) -> List[Shot]:
        """Shots belonging to a bulletin, in narrative order."""
        video = self.video(video_id)
        shots: List[Shot] = []
        for story_id in video.story_ids:
            shots.extend(self.shots_of_story(story_id))
        return shots

    def stories_of_video(self, video_id: str) -> List[NewsStory]:
        """Stories belonging to a bulletin, in running order."""
        video = self.video(video_id)
        return [self._stories[story_id] for story_id in video.story_ids]

    def story_of_shot(self, shot_id: str) -> NewsStory:
        """The story a shot belongs to."""
        return self.story(self.shot(shot_id).story_id)

    def neighbours_of_shot(self, shot_id: str, window: int = 1) -> List[Shot]:
        """Shots adjacent (within ``window`` positions) in the same story.

        Used by browsing simulations and by the implicit graph: a user who
        plays one shot frequently also inspects its temporal neighbours.
        """
        story = self.story_of_shot(shot_id)
        position = story.shot_ids.index(shot_id)
        neighbour_ids = [
            story.shot_ids[index]
            for index in range(max(0, position - window), min(len(story.shot_ids), position + window + 1))
            if story.shot_ids[index] != shot_id
        ]
        return [self._shots[neighbour_id] for neighbour_id in neighbour_ids]

    # -- category / relevance views ------------------------------------------

    def categories(self) -> List[str]:
        """Sorted list of categories present in the collection."""
        return sorted({shot.category for shot in self._shots.values()})

    def shots_in_category(self, category: str) -> List[Shot]:
        """All shots whose story belongs to ``category``."""
        return [shot for shot in self.shots() if shot.category == category]

    def relevant_shots(self, topic_id: str) -> List[Shot]:
        """Shots the generator marked relevant to a search topic."""
        return [shot for shot in self.shots() if shot.is_relevant_to(topic_id)]

    # -- statistics ------------------------------------------------------------

    def statistics(self) -> Dict[str, float]:
        """Summary statistics used by README examples and log analysis."""
        shots = self.shots()
        total_duration = sum(shot.duration for shot in shots)
        transcript_terms = sum(len(shot.transcript.split()) for shot in shots)
        return {
            "videos": float(self.video_count),
            "stories": float(self.story_count),
            "shots": float(self.shot_count),
            "total_duration_seconds": total_duration,
            "mean_shot_duration_seconds": total_duration / max(1, len(shots)),
            "transcript_terms": float(transcript_terms),
            "mean_terms_per_shot": transcript_terms / max(1, len(shots)),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Collection(name={self.name!r}, videos={self.video_count}, "
            f"stories={self.story_count}, shots={self.shot_count})"
        )

"""Persisting collections, topics and qrels to disk.

A generated corpus can be saved once and reloaded by later experiments (or
shipped to another machine) without re-running the generator.  The snapshot
is a directory of JSON files:

``collection.json``
    Videos, stories and shots (including transcripts, latent signals,
    ground-truth concepts and topic relevance).
``topics.json``
    The search topics.
``qrels.txt``
    TREC-format relevance judgements.
``manifest.json``
    Seed, generation parameters and format version.

Derived artefacts (features, concept scores) are *not* stored: they are
cheap to recompute and depend on the analysis configuration, so snapshots
stay analysis-agnostic.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Union

from repro.collection.documents import Collection, Keyframe, NewsStory, Shot, Video
from repro.collection.qrels import Qrels
from repro.collection.topics import Topic, TopicSet
from repro.errors import InvalidArgumentError
from repro.utils.serialization import read_json, write_json

PathLike = Union[str, Path]

_FORMAT_VERSION = 1


def _shot_to_dict(shot: Shot) -> Dict[str, object]:
    return {
        "shot_id": shot.shot_id,
        "video_id": shot.video_id,
        "story_id": shot.story_id,
        "start_seconds": shot.start_seconds,
        "end_seconds": shot.end_seconds,
        "transcript": shot.transcript,
        "category": shot.category,
        "concepts": list(shot.concepts),
        "topic_relevance": dict(shot.topic_relevance),
        "keyframe": {
            "keyframe_id": shot.keyframe.keyframe_id,
            "latent_signal": list(shot.keyframe.latent_signal),
            "timestamp": shot.keyframe.timestamp,
        },
    }


def _shot_from_dict(record: Dict[str, object]) -> Shot:
    keyframe_record = dict(record["keyframe"])
    shot_id = str(record["shot_id"])
    return Shot(
        shot_id=shot_id,
        video_id=str(record["video_id"]),
        story_id=str(record["story_id"]),
        start_seconds=float(record["start_seconds"]),
        end_seconds=float(record["end_seconds"]),
        transcript=str(record["transcript"]),
        category=str(record["category"]),
        concepts=tuple(record.get("concepts", ())),
        topic_relevance={
            str(topic): int(grade)
            for topic, grade in dict(record.get("topic_relevance", {})).items()
        },
        keyframe=Keyframe(
            keyframe_id=str(keyframe_record["keyframe_id"]),
            shot_id=shot_id,
            latent_signal=tuple(float(v) for v in keyframe_record["latent_signal"]),
            timestamp=float(keyframe_record.get("timestamp", 0.0)),
        ),
    )


def save_collection(collection: Collection, path: PathLike) -> None:
    """Write a collection snapshot to a JSON file."""
    payload = {
        "format_version": _FORMAT_VERSION,
        "kind": "collection",
        "name": collection.name,
        "videos": [
            {
                "video_id": video.video_id,
                "broadcast_date": video.broadcast_date,
                "story_ids": list(video.story_ids),
                "duration_seconds": video.duration_seconds,
                "channel": video.channel,
            }
            for video in collection.videos()
        ],
        "stories": [
            {
                "story_id": story.story_id,
                "video_id": story.video_id,
                "category": story.category,
                "headline": story.headline,
                "shot_ids": list(story.shot_ids),
                "search_topic_id": story.search_topic_id,
                "summary": story.summary,
            }
            for story in collection.stories()
        ],
        "shots": [_shot_to_dict(shot) for shot in collection.shots()],
    }
    write_json(path, payload)


def load_collection(path: PathLike) -> Collection:
    """Read a collection snapshot written by :func:`save_collection`."""
    payload = read_json(path)
    if payload.get("kind") != "collection":
        raise InvalidArgumentError(f"{path} does not contain a collection snapshot")
    if payload.get("format_version") != _FORMAT_VERSION:
        raise InvalidArgumentError(
            f"unsupported collection format version {payload.get('format_version')}"
        )
    videos = [
        Video(
            video_id=str(record["video_id"]),
            broadcast_date=str(record["broadcast_date"]),
            story_ids=list(record.get("story_ids", [])),
            duration_seconds=float(record.get("duration_seconds", 0.0)),
            channel=str(record.get("channel", "synthetic-news")),
        )
        for record in payload["videos"]
    ]
    stories = [
        NewsStory(
            story_id=str(record["story_id"]),
            video_id=str(record["video_id"]),
            category=str(record["category"]),
            headline=str(record["headline"]),
            shot_ids=list(record.get("shot_ids", [])),
            search_topic_id=record.get("search_topic_id"),
            summary=str(record.get("summary", "")),
        )
        for record in payload["stories"]
    ]
    shots = [_shot_from_dict(record) for record in payload["shots"]]
    return Collection(videos, stories, shots, name=str(payload.get("name", "collection")))


def save_topics(topics: TopicSet, path: PathLike) -> None:
    """Write a topic set to a JSON file."""
    payload = {
        "format_version": _FORMAT_VERSION,
        "kind": "topics",
        "topics": [
            {
                "topic_id": topic.topic_id,
                "title": topic.title,
                "description": topic.description,
                "category": topic.category,
                "query_terms": list(topic.query_terms),
            }
            for topic in topics
        ],
    }
    write_json(path, payload)


def load_topics(path: PathLike) -> TopicSet:
    """Read a topic set written by :func:`save_topics`."""
    payload = read_json(path)
    if payload.get("kind") != "topics":
        raise InvalidArgumentError(f"{path} does not contain a topic snapshot")
    return TopicSet(
        [
            Topic(
                topic_id=str(record["topic_id"]),
                title=str(record["title"]),
                description=str(record["description"]),
                category=str(record["category"]),
                query_terms=list(record.get("query_terms", [])),
            )
            for record in payload["topics"]
        ]
    )


def save_corpus(corpus, directory: PathLike) -> Path:
    """Save a :class:`~repro.collection.generator.SyntheticCorpus` to a directory.

    Returns the directory path.  The vocabulary and centroids are not stored;
    they are regenerable from the manifest's seed and configuration and are
    only needed to *extend* a collection, not to search it.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_collection(corpus.collection, directory / "collection.json")
    save_topics(corpus.topics, directory / "topics.json")
    corpus.qrels.save(directory / "qrels.txt")
    write_json(
        directory / "manifest.json",
        {
            "format_version": _FORMAT_VERSION,
            "kind": "corpus-manifest",
            "seed": corpus.seed,
            "config": {
                "days": corpus.config.days,
                "stories_per_day": corpus.config.stories_per_day,
                "topic_count": corpus.config.topic_count,
                "categories": list(corpus.config.categories),
            },
        },
    )
    return directory


class StoredCorpus:
    """A corpus reloaded from disk: collection, topics and qrels."""

    def __init__(self, collection: Collection, topics: TopicSet, qrels: Qrels,
                 manifest: Dict[str, object]) -> None:
        self.collection = collection
        self.topics = topics
        self.qrels = qrels
        self.manifest = manifest

    @property
    def seed(self) -> int:
        """The seed recorded in the manifest."""
        return int(self.manifest.get("seed", -1))


def load_corpus(directory: PathLike) -> StoredCorpus:
    """Load a corpus saved by :func:`save_corpus`."""
    directory = Path(directory)
    manifest = read_json(directory / "manifest.json")
    if manifest.get("kind") != "corpus-manifest":
        raise InvalidArgumentError(f"{directory} does not contain a corpus manifest")
    return StoredCorpus(
        collection=load_collection(directory / "collection.json"),
        topics=load_topics(directory / "topics.json"),
        qrels=Qrels.load(directory / "qrels.txt"),
        manifest=manifest,
    )

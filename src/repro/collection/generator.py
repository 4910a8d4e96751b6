"""Synthetic TRECVID-like news-video collection generator.

The generator is the substitution for the TRECVID broadcast-news data the
paper's proposed experiments rely on.  It produces, from a single seed:

* a :class:`~repro.collection.documents.Collection` of bulletins, stories,
  shots and keyframes with ASR-like transcripts and latent visual signals;
* a :class:`~repro.collection.topics.TopicSet` of search topics; and
* ground-truth :class:`~repro.collection.qrels.Qrels` relating them.

The generative story is:

1. Choose search topics; each topic belongs to a news category and owns a
   set of discriminative terms drawn from that category's language model.
2. For each broadcast day, emit one bulletin containing several stories.
   Each story belongs to a category; with some probability it is *about* one
   of the search topics in that category, in which case most of its shots are
   relevant to the topic (grade 1 or 2).
3. Each shot gets a transcript (category/background/topic term mixture put
   through ASR noise), a latent visual signal near its category/topic
   centroid, and ground-truth semantic concepts.

Because relevance is assigned during generation, qrels are exact and free,
which is the property that lets simulated-user experiments be scored without
human assessors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.collection.documents import Collection, Keyframe, NewsStory, Shot, Video
from repro.collection.qrels import Qrels
from repro.collection.topics import Topic, TopicSet
from repro.collection.transcripts import AsrNoiseModel, TranscriptGenerator
from repro.collection.vocabulary import DEFAULT_CATEGORIES, Vocabulary, build_vocabulary
from repro.errors import InvalidArgumentError
from repro.utils.rng import RandomSource
from repro.utils.validation import ensure_positive, ensure_probability

#: Semantic concepts detectable in news video, keyed by the categories in
#: which they typically occur.  These play the role of the TRECVID high-level
#: feature (concept) vocabulary.
CATEGORY_CONCEPTS: Dict[str, Tuple[str, ...]] = {
    "politics": ("person", "face", "indoor", "government_leader", "flag", "crowd"),
    "sports": ("person", "crowd", "outdoor", "stadium", "sports_event", "running"),
    "business": ("person", "indoor", "charts", "building", "meeting"),
    "science": ("indoor", "laboratory", "computer_screen", "person"),
    "technology": ("computer_screen", "indoor", "person", "charts"),
    "health": ("person", "indoor", "hospital", "face"),
    "weather": ("outdoor", "sky", "maps", "charts"),
    "entertainment": ("person", "face", "crowd", "music_performance", "indoor"),
    "crime": ("person", "outdoor", "police", "vehicle", "urban"),
    "world": ("outdoor", "crowd", "person", "urban", "flag"),
}

#: Dimensionality of the latent visual signal attached to keyframes.
LATENT_DIMENSIONS = 16


@dataclass(frozen=True)
class CollectionConfig:
    """Parameters controlling the size and difficulty of the collection.

    The defaults produce a small, fast collection suitable for unit tests;
    benchmarks scale ``days`` and ``topic_count`` up.
    """

    days: int = 10
    stories_per_day: int = 8
    shots_per_story_min: int = 3
    shots_per_story_max: int = 8
    words_per_shot_min: int = 20
    words_per_shot_max: int = 60
    topic_count: int = 12
    topic_story_probability: float = 0.45
    min_stories_per_topic: int = 2
    highly_relevant_probability: float = 0.35
    off_topic_shot_probability: float = 0.15
    categories: Tuple[str, ...] = DEFAULT_CATEGORIES
    terms_per_category: int = 120
    background_terms: int = 400
    query_terms_per_topic: int = 6
    transcript_category_weight: float = 0.45
    transcript_topic_weight: float = 0.15
    asr_noise: AsrNoiseModel = field(default_factory=AsrNoiseModel)
    shot_duration_mean: float = 18.0
    shot_duration_sigma: float = 6.0

    def __post_init__(self) -> None:
        ensure_positive(self.days, "days")
        ensure_positive(self.stories_per_day, "stories_per_day")
        ensure_positive(self.topic_count, "topic_count")
        ensure_positive(self.shots_per_story_min, "shots_per_story_min")
        if self.shots_per_story_max < self.shots_per_story_min:
            raise InvalidArgumentError("shots_per_story_max must be >= shots_per_story_min")
        if self.words_per_shot_max < self.words_per_shot_min:
            raise InvalidArgumentError("words_per_shot_max must be >= words_per_shot_min")
        ensure_probability(self.topic_story_probability, "topic_story_probability")
        if self.min_stories_per_topic < 0:
            raise InvalidArgumentError("min_stories_per_topic must be non-negative")
        ensure_probability(self.transcript_category_weight, "transcript_category_weight")
        ensure_probability(self.transcript_topic_weight, "transcript_topic_weight")
        if self.transcript_category_weight + self.transcript_topic_weight > 1.0:
            raise InvalidArgumentError(
                "transcript_category_weight + transcript_topic_weight must not exceed 1.0"
            )
        ensure_probability(self.highly_relevant_probability, "highly_relevant_probability")
        ensure_probability(self.off_topic_shot_probability, "off_topic_shot_probability")
        if len(self.categories) == 0:
            raise InvalidArgumentError("categories must not be empty")

    @classmethod
    def small(cls) -> "CollectionConfig":
        """A tiny collection for fast unit tests."""
        return cls(days=4, stories_per_day=5, topic_count=6)

    @classmethod
    def standard(cls) -> "CollectionConfig":
        """The default benchmark collection (roughly TRECVID-BBC scale ratios)."""
        return cls(days=30, stories_per_day=10, topic_count=24)


@dataclass
class SyntheticCorpus:
    """Bundle of everything the generator produces for one seed."""

    collection: Collection
    topics: TopicSet
    qrels: Qrels
    vocabulary: Vocabulary
    config: CollectionConfig
    seed: int
    category_centroids: Dict[str, Tuple[float, ...]] = field(default_factory=dict)
    topic_centroids: Dict[str, Tuple[float, ...]] = field(default_factory=dict)

    def summary(self) -> Dict[str, float]:
        """Headline statistics for reports and examples."""
        stats = self.collection.statistics()
        stats["topics"] = float(len(self.topics))
        stats["judged_pairs"] = float(len(self.qrels))
        stats["mean_relevant_per_topic"] = (
            sum(self.qrels.relevant_count(topic_id) for topic_id in self.qrels.topics())
            / max(1, len(self.qrels.topics()))
        )
        return stats


class CollectionGenerator:
    """Deterministic generator for :class:`SyntheticCorpus` instances."""

    def __init__(self, config: Optional[CollectionConfig] = None, seed: int = 13) -> None:
        self._config = config or CollectionConfig()
        self._seed = int(seed)

    @property
    def config(self) -> CollectionConfig:
        """The generation parameters."""
        return self._config

    @property
    def seed(self) -> int:
        """The root seed."""
        return self._seed

    # -- public API -------------------------------------------------------------

    def generate(self) -> SyntheticCorpus:
        """Generate the full corpus: collection, topics and qrels."""
        root = RandomSource(self._seed).spawn("collection-generator")
        vocabulary = build_vocabulary(
            root.spawn("vocabulary"),
            categories=self._config.categories,
            terms_per_category=self._config.terms_per_category,
            background_terms=self._config.background_terms,
        )
        topics = self._generate_topics(root.spawn("topics"), vocabulary)
        category_centroids = self._generate_centroids(
            root.spawn("category-centroids"), list(self._config.categories)
        )
        topic_centroids = self._generate_topic_centroids(
            root.spawn("topic-centroids"), topics, category_centroids
        )
        transcripts = TranscriptGenerator(
            vocabulary,
            self._config.asr_noise,
            category_weight=self._config.transcript_category_weight,
            topic_weight=self._config.transcript_topic_weight,
        )
        videos, stories, shots, qrels = self._generate_documents(
            root.spawn("documents"),
            vocabulary,
            topics,
            transcripts,
            category_centroids,
            topic_centroids,
        )
        collection = Collection(videos, stories, shots)
        return SyntheticCorpus(
            collection=collection,
            topics=topics,
            qrels=qrels,
            vocabulary=vocabulary,
            config=self._config,
            seed=self._seed,
            category_centroids=category_centroids,
            topic_centroids=topic_centroids,
        )

    # -- topics -------------------------------------------------------------------

    def _generate_topics(self, rng: RandomSource, vocabulary: Vocabulary) -> TopicSet:
        topics: List[Topic] = []
        categories = list(self._config.categories)
        for index in range(self._config.topic_count):
            category = categories[index % len(categories)]
            model = vocabulary.model_for(category)
            # Discriminative terms: a contiguous slice of the category's
            # central terms, offset per topic so topics in the same category
            # remain distinguishable.
            offset = (index // len(categories)) * self._config.query_terms_per_topic
            terms = model.terms[offset : offset + self._config.query_terms_per_topic]
            if len(terms) < self._config.query_terms_per_topic:
                terms = model.top_terms(self._config.query_terms_per_topic)
            topic_id = f"T{index + 1:03d}"
            title = " ".join(terms[:3])
            description = (
                f"Find shots of {category} news reporting on " + " ".join(terms)
            )
            topics.append(
                Topic(
                    topic_id=topic_id,
                    title=title,
                    description=description,
                    category=category,
                    query_terms=list(terms),
                )
            )
        return TopicSet(topics)

    # -- latent visual space ---------------------------------------------------------

    def _generate_centroids(
        self, rng: RandomSource, categories: Sequence[str]
    ) -> Dict[str, Tuple[float, ...]]:
        centroids: Dict[str, Tuple[float, ...]] = {}
        for category in categories:
            child = rng.spawn(category)
            centroids[category] = tuple(
                child.gauss(0.0, 1.0) for _ in range(LATENT_DIMENSIONS)
            )
        return centroids

    def _generate_topic_centroids(
        self,
        rng: RandomSource,
        topics: TopicSet,
        category_centroids: Dict[str, Tuple[float, ...]],
    ) -> Dict[str, Tuple[float, ...]]:
        centroids: Dict[str, Tuple[float, ...]] = {}
        for topic in topics:
            child = rng.spawn(topic.topic_id)
            base = category_centroids[topic.category]
            centroids[topic.topic_id] = tuple(
                value + child.gauss(0.0, 0.5) for value in base
            )
        return centroids

    # -- documents ----------------------------------------------------------------------

    def _generate_documents(
        self,
        rng: RandomSource,
        vocabulary: Vocabulary,
        topics: TopicSet,
        transcripts: TranscriptGenerator,
        category_centroids: Dict[str, Tuple[float, ...]],
        topic_centroids: Dict[str, Tuple[float, ...]],
    ) -> Tuple[List[Video], List[NewsStory], List[Shot], Qrels]:
        videos: List[Video] = []
        stories: List[NewsStory] = []
        shots: List[Shot] = []
        qrels = Qrels()
        topics_by_category: Dict[str, List[Topic]] = {}
        for topic in topics:
            topics_by_category.setdefault(topic.category, []).append(topic)

        categories = list(self._config.categories)
        # A queue of topics still owed their guaranteed minimum number of
        # on-topic stories.  Topical story slots service this queue first so
        # that every search topic has relevant material even in tiny
        # collections; once drained, topical stories pick a topic matching
        # their category at random.
        coverage_queue: List[Topic] = []
        for _ in range(self._config.min_stories_per_topic):
            coverage_queue.extend(topics.topics())
        coverage_queue = rng.spawn("coverage").shuffled(coverage_queue)

        shot_counter = 0
        story_counter = 0
        for day in range(self._config.days):
            video_id = f"V{day + 1:04d}"
            video_rng = rng.spawn("video", day)
            broadcast_date = self._date_for_day(day)
            video = Video(video_id=video_id, broadcast_date=broadcast_date)
            clock = 0.0
            for slot in range(self._config.stories_per_day):
                story_counter += 1
                story_id = f"S{story_counter:05d}"
                story_rng = video_rng.spawn("story", slot)
                topic: Optional[Topic] = None
                if coverage_queue and story_rng.boolean(self._config.topic_story_probability):
                    topic = coverage_queue.pop()
                    category = topic.category
                else:
                    category = categories[story_rng.zipf_index(len(categories), exponent=0.8)]
                    candidates = topics_by_category.get(category, [])
                    if candidates and story_rng.boolean(self._config.topic_story_probability):
                        topic = story_rng.choice(candidates)
                headline_terms = (
                    topic.query_terms[:3]
                    if topic is not None
                    else vocabulary.model_for(category).top_terms(3)
                )
                story = NewsStory(
                    story_id=story_id,
                    video_id=video_id,
                    category=category,
                    headline=" ".join(headline_terms),
                    search_topic_id=topic.topic_id if topic is not None else None,
                    summary=(
                        f"{category} story broadcast on {broadcast_date}"
                        + (f" about topic {topic.topic_id}" if topic is not None else "")
                    ),
                )
                shot_count = story_rng.randint(
                    self._config.shots_per_story_min, self._config.shots_per_story_max
                )
                for shot_index in range(shot_count):
                    shot_counter += 1
                    shot_id = f"SH{shot_counter:06d}"
                    shot_rng = story_rng.spawn("shot", shot_index)
                    duration = max(
                        3.0,
                        shot_rng.gauss(
                            self._config.shot_duration_mean,
                            self._config.shot_duration_sigma,
                        ),
                    )
                    word_count = shot_rng.randint(
                        self._config.words_per_shot_min, self._config.words_per_shot_max
                    )
                    # Is this particular shot on the story's topic?
                    on_topic = topic is not None and not shot_rng.boolean(
                        self._config.off_topic_shot_probability
                    )
                    topic_terms: Sequence[str] = topic.query_terms if on_topic and topic else ()
                    transcript = transcripts.transcript_for_shot(
                        shot_rng.spawn("transcript"),
                        category=category,
                        word_count=word_count,
                        topic_terms=topic_terms,
                    )
                    centroid = (
                        topic_centroids[topic.topic_id]
                        if on_topic and topic is not None
                        else category_centroids[category]
                    )
                    signal_rng = shot_rng.spawn("signal")
                    latent_signal = tuple(
                        value + signal_rng.gauss(0.0, 0.6) for value in centroid
                    )
                    keyframe = Keyframe(
                        keyframe_id=f"{shot_id}_KF",
                        shot_id=shot_id,
                        latent_signal=latent_signal,
                        timestamp=clock + duration / 2.0,
                    )
                    concepts = self._concepts_for(shot_rng.spawn("concepts"), category)
                    topic_relevance: Dict[str, int] = {}
                    if on_topic and topic is not None:
                        grade = 2 if shot_rng.boolean(
                            self._config.highly_relevant_probability
                        ) else 1
                        topic_relevance[topic.topic_id] = grade
                        qrels.add(topic.topic_id, shot_id, grade)
                    shot = Shot(
                        shot_id=shot_id,
                        video_id=video_id,
                        story_id=story_id,
                        start_seconds=clock,
                        end_seconds=clock + duration,
                        transcript=transcript,
                        keyframe=keyframe,
                        category=category,
                        concepts=concepts,
                        topic_relevance=topic_relevance,
                    )
                    clock += duration
                    shots.append(shot)
                    story.shot_ids.append(shot_id)
                stories.append(story)
                video.story_ids.append(story_id)
            video.duration_seconds = clock
            videos.append(video)
        return videos, stories, shots, qrels

    # -- helpers ---------------------------------------------------------------------------

    @staticmethod
    def _date_for_day(day: int) -> str:
        """A synthetic ISO broadcast date; day 0 is 2008-01-01."""
        month = 1 + (day // 28)
        day_of_month = 1 + (day % 28)
        return f"2008-{month:02d}-{day_of_month:02d}"

    @staticmethod
    def _concepts_for(rng: RandomSource, category: str) -> Tuple[str, ...]:
        pool = CATEGORY_CONCEPTS.get(category, ("person", "indoor"))
        count = rng.randint(2, min(4, len(pool)))
        return tuple(sorted(rng.sample(list(pool), count)))


def generate_corpus(
    seed: int = 13, config: Optional[CollectionConfig] = None
) -> SyntheticCorpus:
    """Convenience wrapper: generate a corpus in one call."""
    return CollectionGenerator(config=config, seed=seed).generate()

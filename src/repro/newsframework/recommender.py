"""Personalised news-story recommendation.

"The idea of this scenario is to automatically identify news stories which
are of interest for the user and to recommend them to him."  The recommender
ranks the stories of a bulletin (or a date range) for one user by combining
three evidence sources, any of which may be absent:

* the user's static profile (category and concept interests),
* the user's own accumulated implicit evidence (shots they engaged with,
  propagated to the stories containing similar material), and
* the community implicit graph built from other users' past sessions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.collection.documents import Collection, NewsStory
from repro.core.feedback_model import ImplicitFeedbackModel
from repro.feedback.graph import ImplicitGraph
from repro.index.fusion import min_max_normalise
from repro.profiles.profile import UserProfile
from repro.retrieval.reranking import story_scores_from_shots
from repro.utils.validation import ensure_positive


@dataclass(frozen=True)
class RecommendationWeights:
    """Relative weights of the three evidence sources."""

    profile: float = 0.4
    personal_implicit: float = 0.4
    community: float = 0.2

    def __post_init__(self) -> None:
        for name in ("profile", "personal_implicit", "community"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} weight must be non-negative")
        if self.profile + self.personal_implicit + self.community == 0:
            raise ValueError("at least one evidence weight must be positive")


@dataclass(frozen=True)
class StoryRecommendation:
    """One recommended story with its score and provenance."""

    story_id: str
    score: float
    rank: int
    category: str
    headline: str
    video_id: str


class NewsRecommender:
    """Ranks news stories for a user."""

    def __init__(
        self,
        collection: Collection,
        feedback_model: Optional[ImplicitFeedbackModel] = None,
        implicit_graph: Optional[ImplicitGraph] = None,
        weights: RecommendationWeights = RecommendationWeights(),
    ) -> None:
        self._collection = collection
        self._feedback_model = feedback_model
        self._graph = implicit_graph
        self._weights = weights

    @property
    def weights(self) -> RecommendationWeights:
        """The evidence weights."""
        return self._weights

    # -- evidence ------------------------------------------------------------------

    def _profile_story_scores(
        self, profile: UserProfile, stories: Sequence[NewsStory]
    ) -> Dict[str, float]:
        scores: Dict[str, float] = {}
        for story in stories:
            affinity = profile.interest_in_category(story.category)
            concept_bonus = 0.0
            shot_count = 0
            for shot in self._collection.shots_of_story(story.story_id):
                shot_count += 1
                for concept in shot.concepts:
                    concept_bonus += profile.interest_in_concept(concept)
            if shot_count:
                affinity += 0.25 * concept_bonus / shot_count
            if affinity > 0:
                scores[story.story_id] = affinity
        return scores

    def _personal_story_scores(
        self, shot_evidence: Mapping[str, float], stories: Sequence[NewsStory]
    ) -> Dict[str, float]:
        if not shot_evidence:
            return {}
        if self._feedback_model is not None:
            # Uncached on purpose: the evidence mapping is rebuilt per call,
            # so memoising it would churn one-shot keys through the model's
            # shared LRU without ever hitting.
            shot_scores = self._feedback_model.rerank_scores_uncached(shot_evidence)
        else:
            shot_scores = dict(shot_evidence)
        story_scores = story_scores_from_shots(
            shot_scores, self._collection, aggregation="max"
        )
        wanted = {story.story_id for story in stories}
        return {
            story_id: score
            for story_id, score in story_scores.items()
            if story_id in wanted and score > 0
        }

    def _community_story_scores(
        self,
        shot_evidence: Mapping[str, float],
        stories: Sequence[NewsStory],
        recent_queries: Sequence[str],
    ) -> Dict[str, float]:
        if self._graph is None:
            return {}
        query_text = recent_queries[-1] if recent_queries else ""
        shot_scores = self._graph.recommendation_scores(
            query_text=query_text, session_shot_evidence=dict(shot_evidence)
        )
        if not shot_scores:
            return {}
        story_scores = story_scores_from_shots(
            shot_scores, self._collection, aggregation="max"
        )
        wanted = {story.story_id for story in stories}
        return {
            story_id: score
            for story_id, score in story_scores.items()
            if story_id in wanted
        }

    # -- recommendation --------------------------------------------------------------

    def recommend(
        self,
        profile: UserProfile,
        stories: Optional[Sequence[NewsStory]] = None,
        shot_evidence: Optional[Mapping[str, float]] = None,
        recent_queries: Sequence[str] = (),
        limit: int = 10,
        exclude_story_ids: Sequence[str] = (),
    ) -> List[StoryRecommendation]:
        """Rank candidate stories for a user.

        ``stories`` defaults to every story in the collection; restrict it
        to one bulletin's stories to build a personalised "today's news"
        rundown.  ``shot_evidence`` is the user's own implicit evidence (may
        be empty for a brand-new user, in which case the profile and the
        community graph carry the recommendation).
        """
        ensure_positive(limit, "limit")
        candidates = list(stories) if stories is not None else self._collection.stories()
        excluded = set(exclude_story_ids)
        candidates = [story for story in candidates if story.story_id not in excluded]
        if not candidates:
            return []
        shot_evidence = dict(shot_evidence or {})

        profile_scores = min_max_normalise(
            self._profile_story_scores(profile, candidates)
        )
        personal_scores = min_max_normalise(
            self._personal_story_scores(shot_evidence, candidates)
        )
        community_scores = min_max_normalise(
            self._community_story_scores(shot_evidence, candidates, recent_queries)
        )

        combined: Dict[str, float] = {}
        for story in candidates:
            score = (
                self._weights.profile * profile_scores.get(story.story_id, 0.0)
                + self._weights.personal_implicit
                * personal_scores.get(story.story_id, 0.0)
                + self._weights.community * community_scores.get(story.story_id, 0.0)
            )
            if score > 0:
                combined[story.story_id] = score

        ranked = sorted(combined.items(), key=lambda item: (-item[1], item[0]))[:limit]
        recommendations: List[StoryRecommendation] = []
        for rank, (story_id, score) in enumerate(ranked, start=1):
            story = self._collection.story(story_id)
            recommendations.append(
                StoryRecommendation(
                    story_id=story_id,
                    score=score,
                    rank=rank,
                    category=story.category,
                    headline=story.headline,
                    video_id=story.video_id,
                )
            )
        return recommendations

    def recommend_for_date(
        self,
        profile: UserProfile,
        broadcast_date: str,
        shot_evidence: Optional[Mapping[str, float]] = None,
        limit: int = 10,
    ) -> List[StoryRecommendation]:
        """Recommend from the stories broadcast on one date."""
        stories: List[NewsStory] = []
        for video in self._collection.videos():
            if video.broadcast_date == broadcast_date:
                stories.extend(self._collection.stories_of_video(video.video_id))
        return self.recommend(
            profile, stories=stories, shot_evidence=shot_evidence, limit=limit
        )

"""The end-to-end news video framework.

This wires together the pieces the paper's framework proposal [10] names —
recording, analysing, indexing and retrieving news videos — plus the
personalised recommendation the scenario is ultimately about.  It is also
the substrate the iTV experiments run on: an iTV user does not search, they
are *presented* with a personalised rundown of recorded stories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.pipeline import AnalysisPipeline
from repro.collection.documents import Collection
from repro.core.adaptive import AdaptiveVideoRetrievalSystem
from repro.core.feedback_model import ImplicitFeedbackModel
from repro.feedback.graph import ImplicitGraph
from repro.newsframework.broadcast import BroadcastRecorder, RecordedBulletin
from repro.newsframework.recommender import (
    NewsRecommender,
    RecommendationWeights,
    StoryRecommendation,
)
from repro.newsframework.segmentation import SegmentationResult, StorySegmenter
from repro.profiles.profile import UserProfile
from repro.retrieval.engine import EngineConfig, VideoRetrievalEngine
from repro.service import RetrievalService, ServiceConfig


@dataclass
class IngestReport:
    """What happened when bulletins were ingested into the framework."""

    bulletins: List[RecordedBulletin] = field(default_factory=list)
    segmentation: List[SegmentationResult] = field(default_factory=list)
    shots_analysed: int = 0

    @property
    def bulletin_count(self) -> int:
        """Number of bulletins ingested."""
        return len(self.bulletins)

    def mean_segmentation_f1(self) -> float:
        """Mean story-boundary F1 across ingested bulletins."""
        if not self.segmentation:
            return 0.0
        return sum(result.f1 for result in self.segmentation) / len(self.segmentation)


class NewsVideoFramework:
    """Recording → analysis → indexing → retrieval → recommendation."""

    def __init__(
        self,
        collection: Collection,
        engine_config: EngineConfig = EngineConfig(),
        recommendation_weights: RecommendationWeights = RecommendationWeights(),
    ) -> None:
        self._collection = collection
        self._recorder = BroadcastRecorder(collection)
        self._analysis = AnalysisPipeline()
        self._segmenter = StorySegmenter()
        self._engine_config = engine_config
        self._recommendation_weights = recommendation_weights
        self._service: Optional[RetrievalService] = None
        self._engine: Optional[VideoRetrievalEngine] = None
        self._system: Optional[AdaptiveVideoRetrievalSystem] = None
        self._graph = ImplicitGraph()
        self._ingested = False

    # -- ingest --------------------------------------------------------------------

    def ingest(self) -> IngestReport:
        """Record every pending bulletin, analyse it and build the indexes."""
        report = IngestReport()
        report.bulletins = self._recorder.record_all()
        analysis_report = self._analysis.run(self._collection)
        report.shots_analysed = analysis_report.shots_processed
        report.segmentation = [
            self._segmenter.evaluate_video(self._collection, bulletin.video.video_id)
            for bulletin in report.bulletins
        ]
        # Index and serve through the shared facade so the framework runs on
        # the same substrate as every other entry point.
        self._service = RetrievalService(
            self._collection,
            config=ServiceConfig(engine=self._engine_config),
        )
        self._engine = self._service.engine
        self._system = self._service.system
        self._ingested = True
        return report

    def _require_ingested(self) -> None:
        if not self._ingested or self._engine is None or self._system is None:
            raise RuntimeError("call ingest() before using the framework")

    # -- components ---------------------------------------------------------------------

    @property
    def collection(self) -> Collection:
        """The underlying collection."""
        return self._collection

    @property
    def engine(self) -> VideoRetrievalEngine:
        """The retrieval engine (available after ingest)."""
        self._require_ingested()
        return self._engine  # type: ignore[return-value]

    @property
    def service(self) -> RetrievalService:
        """The retrieval service (available after ingest)."""
        self._require_ingested()
        return self._service  # type: ignore[return-value]

    @property
    def adaptive_system(self) -> AdaptiveVideoRetrievalSystem:
        """The adaptive retrieval system (available after ingest)."""
        self._require_ingested()
        return self._system  # type: ignore[return-value]

    @property
    def implicit_graph(self) -> ImplicitGraph:
        """The community implicit graph accumulated from past sessions."""
        return self._graph

    def record_past_session(self, queries: List[str], shot_evidence: Dict[str, float]) -> None:
        """Add one past session's behaviour to the community graph."""
        self._graph.add_session(queries, shot_evidence)

    # -- recommendation ---------------------------------------------------------------------

    def recommender(self) -> NewsRecommender:
        """A recommender over the framework's indexes and community graph."""
        self._require_ingested()
        feedback_model = ImplicitFeedbackModel(
            self.engine.inverted_index, visual_index=self.engine.visual_index
        )
        return NewsRecommender(
            self._collection,
            feedback_model=feedback_model,
            implicit_graph=self._graph,
            weights=self._recommendation_weights,
        )

    def daily_rundown(
        self,
        profile: UserProfile,
        broadcast_date: str,
        shot_evidence: Optional[Dict[str, float]] = None,
        limit: int = 10,
    ) -> List[StoryRecommendation]:
        """The personalised story rundown for one user and one broadcast day."""
        return self.recommender().recommend_for_date(
            profile, broadcast_date, shot_evidence=shot_evidence, limit=limit
        )

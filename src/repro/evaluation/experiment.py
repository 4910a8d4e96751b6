"""The experiment runner: simulated user studies end to end.

An *experiment condition* fixes everything about a simulated study — the
adaptation policy, the indicator weighting scheme, the interface, the user
population and the topics — and the runner executes it: for every
(user, topic) pair it creates an adaptive session, lets the session
simulator drive it, and scores the resulting rankings against the corpus
qrels.  Conditions are compared on the mean of per-session metrics, which is
the unit of analysis the paper's proposed studies use (sessions, not bare
topics, because the same topic searched by different users yields different
feedback and therefore different adapted rankings).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.collection.generator import SyntheticCorpus
from repro.core.adaptive import AdaptiveVideoRetrievalSystem
from repro.core.policies import AdaptationPolicy, baseline_policy
from repro.errors import InvalidArgumentError
from repro.service import RetrievalService, ServiceConfig
from repro.evaluation.metrics import evaluate_ranking, mean_metric
from repro.feedback.dwell import DwellTimeModel
from repro.feedback.weighting import WeightingScheme, heuristic_scheme
from repro.interfaces.base import InterfaceModel
from repro.interfaces.desktop import DesktopInterface
from repro.interfaces.itv import ItvInterface
from repro.interfaces.logging import SessionLog
from repro.profiles.profile import UserProfile
from repro.retrieval.engine import EngineConfig
from repro.simulation.population import (
    PopulationMember,
    assign_topics,
    generate_population,
)
from repro.simulation.session import SessionOutcome, SessionSimulator
from repro.simulation.strategies import QueryStrategy, TitleQueryStrategy
from repro.utils.validation import ensure_positive


def default_query_strategy(
    corpus: SyntheticCorpus, vagueness: float = 0.35, vague_term_count: int = 60
) -> TitleQueryStrategy:
    """The query strategy experiments use unless told otherwise.

    Vague substitutions are drawn from common (non-stopword) background
    vocabulary, so a vague query matches material across every category —
    the ambiguity that profile personalisation and implicit feedback are
    meant to resolve.
    """
    background_terms = [
        term
        for term in corpus.vocabulary.background.terms
        if term not in corpus.vocabulary.background.terms[:0]
    ]
    # Skip the stopword head of the background model; keep common content words.
    from repro.collection.vocabulary import STOPWORDS

    content_terms = [term for term in background_terms if term not in STOPWORDS]
    return TitleQueryStrategy(
        vagueness=vagueness, vague_terms=content_terms[:vague_term_count]
    )


def make_interface(name: str) -> InterfaceModel:
    """Build an interface model by name (``"desktop"`` or ``"itv"``)."""
    if name == "desktop":
        return DesktopInterface()
    if name == "itv":
        return ItvInterface()
    raise InvalidArgumentError(
        f"unknown interface {name!r}; expected 'desktop' or 'itv'"
    )


@dataclass
class ExperimentCondition:
    """One experimental condition (a row in a results table)."""

    name: str
    policy: AdaptationPolicy = field(default_factory=baseline_policy)
    scheme: WeightingScheme = field(default_factory=heuristic_scheme)
    interface: str = "desktop"
    user_count: int = 6
    topics_per_user: int = 2
    profile_alignment: float = 0.8
    result_limit: int = 50
    task: Optional[str] = None
    query_vagueness: float = 0.35
    seed: int = 2024

    def __post_init__(self) -> None:
        ensure_positive(self.user_count, "user_count")
        ensure_positive(self.topics_per_user, "topics_per_user")
        ensure_positive(self.result_limit, "result_limit")
        if not 0.0 <= self.query_vagueness <= 1.0:
            raise InvalidArgumentError("query_vagueness must be in [0, 1]")

    def check_against(self, corpus: SyntheticCorpus) -> None:
        """Refuse a condition the corpus cannot serve: each user searches
        ``topics_per_user`` distinct topics (one-line
        :class:`~repro.errors.InvalidArgumentError`)."""
        available = len(corpus.topics)
        if self.topics_per_user > available:
            raise InvalidArgumentError(
                f"condition {self.name!r}: topics_per_user={self.topics_per_user} "
                f"exceeds the corpus's {available} topics"
            )


@dataclass
class SessionRecord:
    """Metrics and artefacts of one simulated session within a condition."""

    user_id: str
    topic_id: str
    metrics: Dict[str, float]
    outcome: SessionOutcome

    @property
    def average_precision(self) -> float:
        """AP of the session's final ranking."""
        return self.metrics["average_precision"]


@dataclass
class ConditionResult:
    """Everything produced by running one condition."""

    condition: ExperimentCondition
    sessions: List[SessionRecord] = field(default_factory=list)

    # -- aggregates ----------------------------------------------------------------

    def mean_metric(self, name: str) -> float:
        """Mean of a per-session metric across the condition."""
        return mean_metric(record.metrics.get(name, 0.0) for record in self.sessions)

    @property
    def mean_average_precision(self) -> float:
        """Mean AP of the final rankings (the condition's headline number)."""
        return self.mean_metric("average_precision")

    @property
    def mean_precision_at_10(self) -> float:
        """Mean precision at 10."""
        return self.mean_metric("precision@10")

    def per_session_metric(self, name: str) -> Dict[str, float]:
        """``{"user:topic": value}`` for paired significance testing."""
        return {
            f"{record.user_id}:{record.topic_id}": record.metrics.get(name, 0.0)
            for record in self.sessions
        }

    def mean_relevant_found(self) -> float:
        """Mean number of distinct relevant shots the users actually found."""
        return mean_metric(
            float(len(record.outcome.relevant_shots_found)) for record in self.sessions
        )

    def mean_events_per_session(self) -> float:
        """Mean number of interaction events per session."""
        return mean_metric(
            float(record.outcome.event_count) for record in self.sessions
        )

    def session_logs(self) -> List[SessionLog]:
        """All interaction logs produced by the condition."""
        return [record.outcome.session_log for record in self.sessions]

    def summary(self) -> Dict[str, float]:
        """The headline row reported by the benchmark harness."""
        return {
            "sessions": float(len(self.sessions)),
            "map": self.mean_average_precision,
            "precision@10": self.mean_metric("precision@10"),
            "ndcg@10": self.mean_metric("ndcg@10"),
            "recall@20": self.mean_metric("recall@20"),
            "relevant_found": self.mean_relevant_found(),
            "events_per_session": self.mean_events_per_session(),
        }


class ExperimentRunner:
    """Runs experiment conditions over one synthetic corpus."""

    def __init__(
        self,
        corpus: SyntheticCorpus,
        dwell_model: Optional[DwellTimeModel] = None,
        simulator_seed: int = 9090,
        service: Optional[RetrievalService] = None,
    ) -> None:
        self._corpus = corpus
        if service is None:
            # The engine's default depth (100), not a service's 50.
            service = RetrievalService.from_corpus(
                corpus, config=ServiceConfig(engine=EngineConfig())
            )
        self._service = service
        self._engine = service.engine
        self._system = service.system
        self._dwell_model = dwell_model
        self._simulator_seed = simulator_seed

    @property
    def corpus(self) -> SyntheticCorpus:
        """The corpus experiments run against."""
        return self._corpus

    @property
    def service(self) -> RetrievalService:
        """The retrieval service conditions run through."""
        return self._service

    @property
    def system(self) -> AdaptiveVideoRetrievalSystem:
        """The shared adaptive system under test."""
        return self._system

    # -- execution ----------------------------------------------------------------------

    def _population(
        self, condition: ExperimentCondition
    ) -> Tuple[List[PopulationMember], Dict[str, List]]:
        members = generate_population(
            condition.user_count,
            seed=condition.seed,
            topics=self._corpus.topics,
            profile_alignment=condition.profile_alignment,
        )
        assignment = assign_topics(
            members,
            self._corpus.topics,
            topics_per_user=condition.topics_per_user,
            seed=condition.seed + 1,
        )
        return members, assignment

    def run_condition(
        self,
        condition: ExperimentCondition,
        strategy: Optional[QueryStrategy] = None,
        population: Optional[Sequence[PopulationMember]] = None,
        assignment: Optional[Mapping[str, Sequence]] = None,
    ) -> ConditionResult:
        """Execute one condition and return its per-session records.

        A pre-built population/assignment can be supplied so that different
        conditions (e.g. baseline vs adaptive) are evaluated over *exactly*
        the same users and topics — the paired design every comparison in
        the benchmark harness uses.
        """
        condition.check_against(self._corpus)
        if population is None or assignment is None:
            population, assignment = self._population(condition)
        if strategy is None:
            strategy = default_query_strategy(
                self._corpus, vagueness=condition.query_vagueness
            )
        interface = make_interface(condition.interface)
        simulator = SessionSimulator(
            collection=self._corpus.collection,
            qrels=self._corpus.qrels,
            interface=interface,
            dwell_model=self._dwell_model,
            seed=self._simulator_seed + condition.seed,
        )
        result = ConditionResult(condition=condition)
        for member in population:
            for topic in assignment[member.user.user_id]:
                profile = member.profile if condition.policy.use_profile else UserProfile(
                    user_id=member.user.user_id
                )
                session = self._system.create_session(
                    profile=profile,
                    policy=condition.policy,
                    scheme=condition.scheme,
                    topic_id=topic.topic_id,
                    result_limit=condition.result_limit,
                )
                outcome = simulator.run(
                    session=session,
                    topic=topic,
                    user=member.user,
                    strategy=strategy,
                    task=condition.task,
                    session_id=(
                        f"{condition.name}-{member.user.user_id}-{topic.topic_id}"
                        f"-{condition.interface}"
                    ),
                )
                final_ranking = outcome.final_results() or []
                metrics = evaluate_ranking(
                    final_ranking,
                    self._corpus.qrels.judgements_for(topic.topic_id),
                )
                result.sessions.append(
                    SessionRecord(
                        user_id=member.user.user_id,
                        topic_id=topic.topic_id,
                        metrics=metrics,
                        outcome=outcome,
                    )
                )
        return result

    def run_conditions(
        self,
        conditions: Sequence[ExperimentCondition],
        strategy: Optional[QueryStrategy] = None,
        shared_population: bool = True,
    ) -> Dict[str, ConditionResult]:
        """Run several conditions, optionally over a shared population.

        Every condition is checked against the corpus before any runs.
        """
        for condition in conditions:
            condition.check_against(self._corpus)
        results: Dict[str, ConditionResult] = {}
        population = assignment = None
        if shared_population and conditions:
            population, assignment = self._population(conditions[0])
        for condition in conditions:
            results[condition.name] = self.run_condition(
                condition,
                strategy=strategy,
                population=population,
                assignment=assignment,
            )
        return results


def comparison_table(
    results: Mapping[str, ConditionResult], metrics: Sequence[str] = ("map", "precision@10")
) -> List[Dict[str, object]]:
    """Tabulate condition summaries for printing by the benchmark harness."""
    rows: List[Dict[str, object]] = []
    for name, result in results.items():
        summary = result.summary()
        row: Dict[str, object] = {"condition": name}
        for metric in metrics:
            row[metric] = round(summary.get(metric, 0.0), 4)
        rows.append(row)
    return rows

"""The adaptive video retrieval model.

This is the paper's target artefact: a retrieval system that "automatically
adapts retrieval results based on the user's preferences", where preferences
come from two sources — a static user profile and the implicit relevance
feedback observed during the session — combined under an ostensive
(recency-weighted) evidence model.

Architecture
------------

:class:`AdaptiveVideoRetrievalSystem` owns the shared, user-independent
pieces (the retrieval engine, ontology, implicit feedback model, evidence
combiner) and hands out per-user :class:`AdaptiveSession` objects.  A
session is a small state machine:

1. ``submit_query(text)`` — personalises the query with the profile (if the
   policy allows), expands it with terms from implicit/explicit feedback,
   runs the engine, folds profile + feedback evidence into the ranking and
   returns the adapted result list.
2. ``observe(events)`` — ingests interaction events (from a real interface
   or the simulator), updating the implicit accumulator and explicit store.
3. repeat.

The baseline, profile-only, implicit-only and combined systems of the
experiments are all this same class under different
:class:`~repro.core.policies.AdaptationPolicy` values, which guarantees the
comparisons isolate the adaptation behaviour rather than implementation
differences.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.collection.documents import Collection
from repro.core.adaptation_kernel import (
    DenseScratch,
    SharedAdaptationState,
    profile_affinity_shared,
    rerank_and_demote,
)
from repro.core.combination import CombinationConfig, EvidenceCombiner
from repro.core.feedback_model import ImplicitFeedbackModel
from repro.core.policies import AdaptationPolicy, baseline_policy
from repro.feedback.accumulator import EvidenceAccumulator
from repro.feedback.events import InteractionEvent
from repro.feedback.explicit import ExplicitFeedbackStore
from repro.feedback.weighting import WeightingScheme, heuristic_scheme
from repro.profiles.ontology import InterestOntology
from repro.profiles.profile import UserProfile
from repro.profiles.reranker import ProfileReranker
from repro.retrieval.engine import VideoRetrievalEngine
from repro.retrieval.query import Query
from repro.retrieval.results import ResultList


@dataclass
class QueryIteration:
    """One query iteration within a session (for log analysis and replay).

    A session keeps only its most recent one
    (:attr:`AdaptiveSession.last_iteration`); callers that want the whole
    trail collect it after each ``submit_query``.
    """

    query_text: str
    adapted_query: Query
    results: ResultList
    iteration: int
    evidence_snapshot: Dict[str, float] = field(default_factory=dict)


class AdaptiveSession:
    """Per-user, per-task adaptive search session.

    Construction is O(1): every corpus-derived lookup (shot durations,
    categories, concepts) comes from the system's shared
    :class:`~repro.core.adaptation_kernel.SharedAdaptationState`, built
    once and handed to sessions by reference.  Each step of a search runs
    one implementation: incremental ostensive evidence, feedback
    derivations memoised on the evidence digest, and the fused dense
    re-ranking fold of :func:`~repro.core.adaptation_kernel.
    rerank_and_demote`.  The test suite compares whole sessions, bit for
    bit, with a naive reference session kept in
    ``tests/reference/adaptation.py``.

    Retained state is O(1) per search: the session holds an iteration
    counter and the last :class:`QueryIteration`, never the trail, so a
    long-lived serving session does not grow with the searches it has
    served (its evidence stores grow with the distinct shots touched).
    """

    def __init__(
        self,
        system: "AdaptiveVideoRetrievalSystem",
        profile: UserProfile,
        policy: AdaptationPolicy,
        scheme: Optional[WeightingScheme] = None,
        topic_id: Optional[str] = None,
        result_limit: int = 50,
    ) -> None:
        self._system = system
        self._profile = profile
        self._policy = policy
        self._topic_id = topic_id
        self._result_limit = result_limit
        decay = 1.0
        if policy.use_implicit and policy.ostensive_profile == "exponential":
            decay = policy.ostensive_base
        self._accumulator = EvidenceAccumulator(
            scheme=scheme or heuristic_scheme(),
            decay=decay,
            shot_durations=system.shared_state.shot_durations,
            discount_profile=policy.ostensive_profile if policy.use_implicit else None,
            horizon=policy.ostensive_horizon,
        )
        self._explicit = ExplicitFeedbackStore()
        # Order-preserving seen set: dict keys keep first-touch order while
        # membership tests stay O(1).
        self._seen_shots: Dict[str, None] = {}
        self._scratch = DenseScratch()
        self._iteration_count = 0
        self._last_iteration: Optional[QueryIteration] = None
        self._last_query_text: str = ""

    # -- accessors -----------------------------------------------------------------

    @property
    def profile(self) -> UserProfile:
        """The user's static profile."""
        return self._profile

    @property
    def policy(self) -> AdaptationPolicy:
        """The adaptation policy in force."""
        return self._policy

    @property
    def topic_id(self) -> Optional[str]:
        """The search topic this session pursues (when known)."""
        return self._topic_id

    @property
    def iteration_count(self) -> int:
        """Number of query iterations so far."""
        return self._iteration_count

    @property
    def last_iteration(self) -> Optional[QueryIteration]:
        """The most recent completed query iteration (None before the first)."""
        return self._last_iteration

    def seen_shots(self) -> List[str]:
        """Shots the user has interacted with, in first-touch order."""
        return list(self._seen_shots)

    @property
    def seen_shot_count(self) -> int:
        """How many distinct shots the user has interacted with (O(1))."""
        return len(self._seen_shots)

    def implicit_evidence(self) -> Dict[str, float]:
        """Current per-shot implicit evidence."""
        return self._accumulator.evidence()

    def explicit_store(self) -> ExplicitFeedbackStore:
        """The session's explicit feedback store."""
        return self._explicit

    # -- observation ------------------------------------------------------------------

    def observe(self, events: Iterable[InteractionEvent]) -> None:
        """Ingest interaction events produced since the last query iteration."""
        events = list(events)
        if not events:
            return
        seen = self._seen_shots
        for event in events:
            if event.shot_id is not None and event.shot_id not in seen:
                seen[event.shot_id] = None
        if self._policy.use_implicit:
            self._accumulator.observe_batch(events)
        if self._policy.use_explicit:
            self._explicit.record_events(events)

    # -- querying -----------------------------------------------------------------------

    def _evidence_confidence(self) -> float:
        """How much to trust the implicit evidence gathered so far.

        Implicit evidence is noisy and, early in a session, scarce; the
        confidence factor ``m / (m + 2)`` (where ``m`` is the total positive
        evidence mass) keeps a nearly-empty evidence store from hijacking
        the ranking while letting well-supported evidence act at full
        strength.
        """
        mass = self._accumulator.positive_mass()
        mass += float(len(self._explicit.relevant_shots())) if self._policy.use_explicit else 0.0
        return mass / (mass + 2.0)

    def _adapted_query(self, query_text: str) -> Query:
        query = Query.from_text(
            query_text, topic_id=self._topic_id, user_id=self._profile.user_id
        )
        if self._policy.use_profile:
            query = self._system.profile_reranker.personalise_query(query, self._profile)
        if self._policy.use_implicit:
            model = self._system.feedback_model(self._policy)
            expansion = model.expansion_term_weights(
                self._accumulator.evidence_view(),
                digest=self._accumulator.evidence_digest(),
            )
            if expansion:
                confidence = self._evidence_confidence()
                merged = dict(query.term_weights)
                for term, weight in expansion.items():
                    merged[term] = merged.get(term, 0.0) + 0.6 * confidence * weight
                query = query.with_term_weights(merged)
        if self._policy.use_explicit and self._explicit.relevant_shots():
            query = self._system.engine.expand_query(
                query,
                self._explicit.relevant_shots(),
                self._explicit.non_relevant_shots(),
            )
        return query

    def _evidence_scores(self, results: ResultList) -> Dict[str, float]:
        shared = self._system.shared_state
        profile_scores: Dict[str, float] = {}
        implicit_scores: Dict[str, float] = {}
        if self._policy.use_profile and not self._profile.is_empty():
            profile_scores = profile_affinity_shared(
                self._profile, shared, results.shot_ids()
            )
        if self._policy.use_implicit:
            model = self._system.feedback_model(self._policy)
            # The memoised map is handed out as an owned copy, so the
            # explicit-evidence fold below cannot corrupt the cache.
            implicit_scores = model.rerank_scores(
                self._accumulator.evidence_view(),
                digest=self._accumulator.evidence_digest(),
            )
        if self._policy.use_explicit:
            for shot_id, value in self._explicit.evidence_map().items():
                implicit_scores[shot_id] = implicit_scores.get(shot_id, 0.0) + value
        if not profile_scores and not implicit_scores:
            return {}
        return self._system.combiner.combine(
            profile_scores,
            implicit_scores,
            profile=self._profile,
            category_lookup=shared.shot_categories,
        )

    def _adaptation_weight(self) -> float:
        weight = 0.0
        if self._policy.use_profile:
            weight += self._policy.profile_weight
        if self._policy.use_implicit or self._policy.use_explicit:
            weight += self._policy.implicit_weight * self._evidence_confidence()
        return min(0.9, weight)

    def submit_query(self, query_text: str, limit: Optional[int] = None) -> ResultList:
        """Run one (adapted) query iteration and return the ranked results.

        Session state (iteration count, last iteration, last-query text) is
        committed only after the engine search and re-ranking complete, so
        a query abandoned mid-flight — a deadline cancellation, a scorer
        fault — leaves the session exactly as it was: ``refresh_results``
        re-runs the last *successful* query, never the aborted one.
        """
        adapted_query = self._adapted_query(query_text)
        results = self._system.engine.search(
            adapted_query, limit=limit or self._result_limit
        )
        evidence = self._evidence_scores(results)
        demote = self._policy.demote_seen if self._seen_shots else 0.0
        if evidence or demote > 0:
            results = rerank_and_demote(
                results,
                evidence,
                self._adaptation_weight() if evidence else 0.0,
                self._seen_shots,
                demote,
                collection=self._system.collection,
                index=self._system.engine.inverted_index,
                scratch=self._scratch,
            )
        iteration = QueryIteration(
            query_text=query_text,
            adapted_query=adapted_query,
            results=results,
            iteration=self._iteration_count + 1,
            evidence_snapshot=self._accumulator.evidence(),
        )
        self._iteration_count = iteration.iteration
        self._last_iteration = iteration
        self._last_query_text = query_text
        return results

    def refresh_results(self, limit: Optional[int] = None) -> ResultList:
        """Re-run the last query with the evidence accumulated since then."""
        if not self._last_query_text and not self._iteration_count:
            raise RuntimeError("no query has been submitted yet")
        return self.submit_query(self._last_query_text, limit=limit)

    # -- recommendations --------------------------------------------------------------------

    def recommendations(self, limit: int = 10) -> ResultList:
        """Shots recommended from the session's positive evidence alone.

        Useful on interfaces where querying is expensive (iTV): the system
        proposes material similar to what the user has engaged with, without
        requiring a new query.
        """
        evidence = self._accumulator.positive_evidence()
        if self._policy.use_explicit:
            for shot_id in self._explicit.relevant_shots():
                evidence[shot_id] = evidence.get(shot_id, 0.0) + 1.0
        if not evidence:
            return ResultList(query_text="recommendations", items=[])
        # Uncached on purpose: the evidence mapping here is rebuilt per call
        # (positive slice plus explicit bonuses), so memoising it would only
        # churn one-shot keys through the model's shared LRU and evict the
        # digest-keyed entries the search path reuses.
        model = self._system.feedback_model(self._policy)
        scores = model.rerank_scores_uncached(evidence)
        for shot_id in self._seen_shots:
            scores.pop(shot_id, None)
        return ResultList.from_scores(
            query_text="recommendations",
            scores=scores,
            collection=self._system.collection,
            limit=limit,
            topic_id=self._topic_id,
        )


class AdaptiveVideoRetrievalSystem:
    """Factory and shared state for adaptive search sessions.

    .. deprecated::
        Construct a :class:`repro.service.RetrievalService` instead, which
        builds and owns this system and adds typed requests, component
        registries and a bounded multi-user session pool.  Direct
        construction remains supported for the internals (``repro.service``
        itself, the experiment runner) and for backward compatibility.
    """

    def __init__(
        self,
        engine: VideoRetrievalEngine,
        ontology: Optional[InterestOntology] = None,
        combination: CombinationConfig = CombinationConfig(),
        profile_reranker: Optional[ProfileReranker] = None,
    ) -> None:
        self._engine = engine
        self._ontology = ontology or InterestOntology.default()
        self._combiner = EvidenceCombiner(combination)
        self._profile_reranker = profile_reranker or ProfileReranker(
            self._ontology, collection=engine.collection
        )
        self._feedback_models: Dict[str, ImplicitFeedbackModel] = {}
        self._feedback_models_lock = threading.Lock()
        self._shared_state: Optional[SharedAdaptationState] = None
        self._shared_state_lock = threading.Lock()

    # -- shared components -------------------------------------------------------------

    @property
    def engine(self) -> VideoRetrievalEngine:
        """The underlying (non-adaptive) retrieval engine."""
        return self._engine

    @property
    def collection(self) -> Collection:
        """The collection being searched."""
        return self._engine.collection

    @property
    def ontology(self) -> InterestOntology:
        """The interest ontology used for profile personalisation."""
        return self._ontology

    @property
    def combiner(self) -> EvidenceCombiner:
        """The profile/implicit evidence combiner."""
        return self._combiner

    @property
    def profile_reranker(self) -> ProfileReranker:
        """The profile personalisation component."""
        return self._profile_reranker

    @property
    def shared_state(self) -> SharedAdaptationState:
        """Corpus-derived immutables shared by every session (built once).

        One O(corpus) pass on first access; after that, handing the state
        to a new session is a reference copy, which is what keeps
        :meth:`create_session` O(1) under the service's LRU session churn.
        Thread-safe (double-checked under its own lock).
        """
        state = self._shared_state
        if state is None:
            with self._shared_state_lock:
                state = self._shared_state
                if state is None:
                    state = SharedAdaptationState.build(self._engine.collection)
                    self._shared_state = state
        return state

    def feedback_model(self, policy: AdaptationPolicy) -> ImplicitFeedbackModel:
        """The implicit feedback model configured for a policy (cached).

        Thread-safe: concurrent sessions running under the same policy
        share one model instance (the model itself is stateless per call).
        """
        key = f"{policy.expansion_terms}:{policy.visual_propagation}"
        model = self._feedback_models.get(key)
        if model is None:
            with self._feedback_models_lock:
                model = self._feedback_models.get(key)
                if model is None:
                    model = ImplicitFeedbackModel(
                        self._engine.inverted_index,
                        visual_index=self._engine.visual_index,
                        expansion_terms=policy.expansion_terms,
                        visual_propagation=policy.visual_propagation,
                    )
                    self._feedback_models[key] = model
        return model

    # -- sessions ---------------------------------------------------------------------------

    def create_session(
        self,
        profile: Optional[UserProfile] = None,
        policy: Optional[AdaptationPolicy] = None,
        scheme: Optional[WeightingScheme] = None,
        topic_id: Optional[str] = None,
        result_limit: int = 50,
    ) -> AdaptiveSession:
        """Start a new adaptive session for a user.

        With no profile and the default (baseline) policy the session
        behaves exactly like the plain retrieval engine, which is how the
        non-adaptive baselines of the experiments are run.
        """
        return AdaptiveSession(
            system=self,
            profile=profile or UserProfile(user_id="anonymous"),
            policy=policy or baseline_policy(),
            scheme=scheme,
            topic_id=topic_id,
            result_limit=result_limit,
        )

"""Naive reference implementations of the adaptive session's steps.

The serving path (:mod:`repro.core`) runs each step of a search one way:
incremental ostensive evidence, feedback derivations memoised on the
evidence digest, profile affinity over the system's shared per-shot
lookups, and the fused dense re-ranking fold.  This module keeps the naive
version of each step, and the equivalence tests compare the two bit for
bit:

- :class:`ReferenceOstensiveFold` recomputes the ostensive discount from a
  history it keeps itself, on every read;
- :class:`ReferenceAccumulator` turns events into evidence with no caches;
- :func:`profile_affinity` reads affinity from the collection's shot
  objects;
- :func:`demote_seen_shots` and :func:`rerank_then_demote` are the
  two-stage re-ranking fold: ``rerank_with_scores``, a materialised result
  list, then a separate demotion pass;
- :class:`ReferenceSession` is an adaptive session that runs all of the
  above, builds its own per-shot lookups from the collection (O(corpus)
  per session) and calls the feedback model's uncached derivations.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional

from repro.collection.documents import Collection
from repro.core.adaptive import AdaptiveSession, QueryIteration
from repro.core.ostensive import make_discount
from repro.core.policies import baseline_policy
from repro.feedback.indicators import IndicatorExtractor
from repro.feedback.weighting import heuristic_scheme
from repro.profiles.profile import UserProfile
from repro.retrieval.query import Query
from repro.retrieval.reranking import rerank_with_scores
from repro.retrieval.results import ResultList


class ReferenceOstensiveFold:
    """Ostensive evidence, recomputed from the whole history on every read.

    ``uniform`` sums every iteration; ``exponential`` replays the running
    left fold ``total = base * total + delta`` from the first iteration
    (the fold a session applies live, which differs from summing
    ``base ** age`` factor terms in the last ulp); every other profile, and
    a ``discount`` callable, sums ``discount(age) * evidence`` over the ages
    whose factor is positive.
    """

    def __init__(
        self,
        profile: Optional[str] = None,
        base: float = 0.7,
        horizon: int = 6,
        discount: Optional[Callable[[int], float]] = None,
    ) -> None:
        self._profile = profile
        self._base = base
        self._discount = discount or make_discount(profile, base=base, horizon=horizon)
        self.history: List[Dict[str, float]] = []

    def observe_iteration(self, evidence: Mapping[str, float]) -> None:
        self.history.append(dict(evidence))

    def weighted_evidence(self) -> Dict[str, float]:
        combined: Dict[str, float] = {}
        if self._profile == "uniform":
            for iteration_evidence in self.history:
                for item_id, mass in iteration_evidence.items():
                    combined[item_id] = combined.get(item_id, 0.0) + mass
            return combined
        if self._profile == "exponential":
            for iteration_evidence in self.history:
                for item_id in combined:
                    combined[item_id] *= self._base
                for item_id, mass in iteration_evidence.items():
                    combined[item_id] = combined.get(item_id, 0.0) + mass
            return combined
        latest = len(self.history) - 1
        for index, iteration_evidence in enumerate(self.history):
            factor = self._discount(latest - index)
            if factor <= 0:
                continue
            for item_id, mass in iteration_evidence.items():
                combined[item_id] = combined.get(item_id, 0.0) + factor * mass
        return combined


class ReferenceAccumulator:
    """A session's implicit evidence with no caches: every read refolds.

    Reads like :class:`repro.feedback.accumulator.EvidenceAccumulator`
    (same extractor, scheme and discount-profile defaults), but keeps every
    batch and computes the evidence, its digest and its positive mass from
    scratch on each call.
    """

    def __init__(
        self,
        scheme=None,
        decay: float = 1.0,
        shot_durations: Optional[Mapping[str, float]] = None,
        discount_profile: Optional[str] = None,
        horizon: int = 6,
    ) -> None:
        self._scheme = scheme or heuristic_scheme()
        self._extractor = IndicatorExtractor()
        self.shot_durations = shot_durations if shot_durations is not None else {}
        if discount_profile is None:
            discount_profile = "uniform" if decay == 1.0 else "exponential"
        self.fold = ReferenceOstensiveFold(discount_profile, base=decay, horizon=horizon)

    def observe_batch(self, events: Iterable) -> None:
        events = list(events)
        if not events:
            return
        per_shot = self._extractor.per_shot_indicator_strengths(
            events, self.shot_durations
        )
        self.fold.observe_iteration(self._scheme.evidence_map(per_shot))

    def evidence(self) -> Dict[str, float]:
        return self.fold.weighted_evidence()

    def evidence_digest(self):
        return tuple(self.evidence().items())

    def positive_evidence(self) -> Dict[str, float]:
        return {shot_id: mass for shot_id, mass in self.evidence().items() if mass > 0}

    def positive_mass(self) -> float:
        return sum(self.positive_evidence().values())


def profile_affinity(
    profile: UserProfile, collection: Collection, shot_ids
) -> Dict[str, float]:
    """Profile affinity scores, read from the collection's shot objects."""
    scores: Dict[str, float] = {}
    for shot_id in shot_ids:
        if not collection.has_shot(shot_id):
            continue
        shot = collection.shot(shot_id)
        affinity = profile.interest_in_category(shot.category)
        for concept in shot.concepts:
            affinity += 0.25 * profile.interest_in_concept(concept)
        if affinity > 0:
            scores[shot_id] = affinity
    return scores


def demote_seen_shots(
    results: ResultList,
    seen_shot_ids,
    penalty: float = 0.5,
    collection: Optional[Collection] = None,
) -> ResultList:
    """Min-max normalise the scores and multiply each seen shot's by
    ``1 - penalty``."""
    seen = set(seen_shot_ids)
    scores = results.scores()
    if not scores:
        return results
    low = min(scores.values())
    high = max(scores.values())
    span = (high - low) or 1.0
    adjusted = {}
    for shot_id, score in scores.items():
        normalised = (score - low) / span
        if shot_id in seen:
            normalised *= 1.0 - penalty
        adjusted[shot_id] = normalised
    return ResultList.from_scores(
        query_text=results.query_text,
        scores=adjusted,
        collection=collection,
        limit=len(results),
        topic_id=results.topic_id,
    )


def rerank_then_demote(
    results: ResultList,
    evidence_scores: Mapping[str, float],
    weight: float,
    seen_shot_ids,
    penalty: float,
    collection: Optional[Collection] = None,
) -> ResultList:
    """The two-stage fold :func:`repro.core.adaptation_kernel.rerank_and_demote`
    fuses: interpolate the evidence, materialise the list, then demote."""
    if evidence_scores:
        results = rerank_with_scores(results, evidence_scores, weight, collection=collection)
    if penalty > 0 and seen_shot_ids:
        results = demote_seen_shots(
            results, seen_shot_ids, penalty=penalty, collection=collection
        )
    return results


class ReferenceSession(AdaptiveSession):
    """An adaptive session on the naive path.

    It builds its own shot durations and categories from the collection,
    accumulates evidence in a :class:`ReferenceAccumulator`, calls the
    feedback model's uncached derivations, reads profile affinity with
    :func:`profile_affinity` and re-ranks with :func:`rerank_then_demote`.
    What it shares with :class:`~repro.core.adaptive.AdaptiveSession` is
    what the serving path has only one way of doing: observation, the
    evidence confidence, the adaptation weight and recommendations.
    """

    def __init__(
        self,
        system,
        profile: UserProfile,
        policy,
        scheme=None,
        topic_id: Optional[str] = None,
        result_limit: int = 50,
    ) -> None:
        super().__init__(
            system, profile, policy, scheme=scheme, topic_id=topic_id,
            result_limit=result_limit,
        )
        durations: Dict[str, float] = {}
        self.shot_categories: Dict[str, str] = {}
        for shot in system.collection.iter_shots():
            durations[shot.shot_id] = shot.duration
            self.shot_categories[shot.shot_id] = shot.category
        decay = 1.0
        if policy.use_implicit and policy.ostensive_profile == "exponential":
            decay = policy.ostensive_base
        self._accumulator = ReferenceAccumulator(
            scheme=scheme,
            decay=decay,
            shot_durations=durations,
            discount_profile=policy.ostensive_profile if policy.use_implicit else None,
            horizon=policy.ostensive_horizon,
        )

    def _adapted_query(self, query_text: str) -> Query:
        query = Query.from_text(
            query_text, topic_id=self._topic_id, user_id=self._profile.user_id
        )
        if self._policy.use_profile:
            query = self._system.profile_reranker.personalise_query(query, self._profile)
        if self._policy.use_implicit:
            model = self._system.feedback_model(self._policy)
            expansion = model.expansion_term_weights_uncached(self._accumulator.evidence())
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
        profile_scores: Dict[str, float] = {}
        implicit_scores: Dict[str, float] = {}
        if self._policy.use_profile and not self._profile.is_empty():
            profile_scores = profile_affinity(
                self._profile, self._system.collection, results.shot_ids()
            )
        if self._policy.use_implicit:
            model = self._system.feedback_model(self._policy)
            implicit_scores = model.rerank_scores_uncached(self._accumulator.evidence())
        if self._policy.use_explicit:
            for shot_id, value in self._explicit.evidence_map().items():
                implicit_scores[shot_id] = implicit_scores.get(shot_id, 0.0) + value
        if not profile_scores and not implicit_scores:
            return {}
        return self._system.combiner.combine(
            profile_scores,
            implicit_scores,
            profile=self._profile,
            category_lookup=self.shot_categories,
        )

    def submit_query(self, query_text: str, limit: Optional[int] = None) -> ResultList:
        adapted_query = self._adapted_query(query_text)
        results = self._system.engine.search(
            adapted_query, limit=limit or self._result_limit
        )
        evidence = self._evidence_scores(results)
        results = rerank_then_demote(
            results,
            evidence,
            self._adaptation_weight(),
            self._seen_shots,
            self._policy.demote_seen,
            collection=self._system.collection,
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


def reference_session(
    system,
    profile: Optional[UserProfile] = None,
    policy=None,
    scheme=None,
    topic_id: Optional[str] = None,
    result_limit: int = 50,
) -> ReferenceSession:
    """:meth:`AdaptiveVideoRetrievalSystem.create_session`, on the naive path."""
    return ReferenceSession(
        system,
        profile=profile or UserProfile(user_id="anonymous"),
        policy=policy or baseline_policy(),
        scheme=scheme,
        topic_id=topic_id,
        result_limit=result_limit,
    )

"""Tests for the adaptive retrieval core: ostensive model, policies, feedback
model, evidence combination and the adaptive session itself."""

from __future__ import annotations

import pytest

from repro.core import (
    AdaptationPolicy,
    AdaptiveVideoRetrievalSystem,
    CombinationConfig,
    EvidenceCombiner,
    ImplicitFeedbackModel,
    OstensiveAccumulator,
    SharedAdaptationState,
    baseline_policy,
    combined_policy,
    compare_profiles,
    explicit_policy,
    exponential_discount,
    implicit_only_policy,
    linear_discount,
    make_discount,
    profile_affinity_shared,
    profile_only_policy,
    reciprocal_discount,
    standard_policies,
    uniform_discount,
)
from repro.feedback import EventKind, InteractionEvent, heuristic_scheme
from repro.index import InvertedIndex, VisualIndex
from repro.profiles import UserProfile
from repro.retrieval import VideoRetrievalEngine
from repro.utils.concurrency import OperationCancelledError


class TestOstensiveDiscounts:
    def test_uniform(self):
        assert uniform_discount(0) == uniform_discount(5) == 1.0

    def test_exponential_decreasing(self):
        assert exponential_discount(0) == 1.0
        assert exponential_discount(1) > exponential_discount(2)

    def test_reciprocal(self):
        assert reciprocal_discount(0) == 1.0
        assert reciprocal_discount(3) == pytest.approx(0.25)

    def test_linear_hits_zero(self):
        assert linear_discount(6, horizon=6) == 0.0
        assert linear_discount(3, horizon=6) == pytest.approx(0.5)

    def test_negative_age_rejected(self):
        for function in (uniform_discount, reciprocal_discount):
            with pytest.raises(ValueError):
                function(-1)

    def test_make_discount(self):
        assert make_discount("exponential", base=0.5)(1) == 0.5
        assert make_discount("uniform")(10) == 1.0
        with pytest.raises(ValueError):
            make_discount("quadratic")

    def test_ostensive_accumulator_recency_weighting(self):
        accumulator = OstensiveAccumulator(discount=make_discount("exponential", base=0.5))
        accumulator.observe_iteration({"old": 1.0})
        accumulator.observe_iteration({"new": 1.0})
        evidence = accumulator.weighted_evidence()
        assert evidence["new"] == 1.0
        assert evidence["old"] == 0.5
        assert accumulator.iteration_count == 2

    def test_compare_profiles_shapes(self):
        history = [{"a": 1.0}, {"b": 1.0}, {"b": 1.0}]
        results = compare_profiles(history)
        assert set(results) == {"uniform", "exponential", "reciprocal", "linear"}
        assert results["uniform"]["a"] == 1.0
        assert results["exponential"]["a"] < results["uniform"]["a"]


class TestPolicies:
    def test_presets_flags(self):
        assert not baseline_policy().use_profile and not baseline_policy().use_implicit
        assert profile_only_policy().use_profile
        assert implicit_only_policy().use_implicit
        assert combined_policy().use_profile and combined_policy().use_implicit
        assert explicit_policy().use_explicit

    def test_standard_policies_unique_names(self):
        names = [policy.name for policy in standard_policies()]
        assert len(names) == len(set(names)) == 4

    def test_with_overrides(self):
        policy = combined_policy().with_overrides(implicit_weight=0.5)
        assert policy.implicit_weight == 0.5
        assert policy.use_profile

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptationPolicy(name="x", profile_weight=1.5)
        with pytest.raises(ValueError):
            AdaptationPolicy(name="x", expansion_terms=-1)

    def test_describe(self):
        description = combined_policy().describe()
        assert description["name"] == "combined"
        assert description["use_implicit"] is True


class TestImplicitFeedbackModel:
    def test_expansion_terms_from_positive_evidence(self, small_corpus):
        index = InvertedIndex.from_collection(small_corpus.collection)
        model = ImplicitFeedbackModel(index, expansion_terms=5)
        topic = small_corpus.topics.topics()[0]
        relevant = sorted(small_corpus.qrels.relevant_shots(topic.topic_id))[:3]
        terms = model.expansion_term_weights({shot_id: 1.0 for shot_id in relevant})
        assert 0 < len(terms) <= 5
        assert max(terms.values()) <= 1.0

    def test_no_positive_evidence_no_expansion(self, small_corpus):
        index = InvertedIndex.from_collection(small_corpus.collection)
        model = ImplicitFeedbackModel(index)
        assert model.expansion_term_weights({"s": -1.0}) == {}
        assert ImplicitFeedbackModel(index, expansion_terms=0).expansion_term_weights(
            {"s": 1.0}
        ) == {}

    def test_rerank_scores_propagate_to_similar_shots(self, small_corpus):
        index = InvertedIndex.from_collection(small_corpus.collection)
        visual = VisualIndex.from_collection(small_corpus.collection)
        model = ImplicitFeedbackModel(index, visual_index=visual, visual_propagation=0.5)
        shot_id = small_corpus.collection.shot_ids()[0]
        scores = model.rerank_scores({shot_id: 1.0})
        assert scores[shot_id] >= 1.0
        assert len(scores) > 1  # neighbours received propagated evidence

    def test_negative_evidence_not_propagated(self, small_corpus):
        index = InvertedIndex.from_collection(small_corpus.collection)
        visual = VisualIndex.from_collection(small_corpus.collection)
        model = ImplicitFeedbackModel(index, visual_index=visual, visual_propagation=0.5)
        shot_id = small_corpus.collection.shot_ids()[0]
        scores = model.rerank_scores({shot_id: -1.0})
        assert list(scores) == [shot_id]

    def test_no_visual_index_no_propagation(self, small_corpus):
        index = InvertedIndex.from_collection(small_corpus.collection)
        model = ImplicitFeedbackModel(index)
        shot_id = small_corpus.collection.shot_ids()[0]
        assert list(model.rerank_scores({shot_id: 1.0})) == [shot_id]


class TestEvidenceCombiner:
    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            CombinationConfig(strategy="magic")

    def test_linear_combination(self):
        combiner = EvidenceCombiner(CombinationConfig(strategy="linear",
                                                      profile_weight=0.5,
                                                      implicit_weight=0.5))
        combined = combiner.combine({"a": 1.0}, {"b": 1.0})
        assert combined["a"] == pytest.approx(0.5)
        assert combined["b"] == pytest.approx(0.5)

    def test_cold_start_shifts_with_evidence_mass(self):
        combiner = EvidenceCombiner(CombinationConfig(strategy="cold_start",
                                                      cold_start_evidence_scale=2.0))
        sparse = combiner.combine({"p": 1.0}, {"i": 0.1})
        rich = combiner.combine({"p": 1.0}, {"i": 20.0})
        # With little implicit evidence the profile dominates; with a lot the
        # implicit side does.
        assert sparse["p"] > sparse["i"]
        assert rich["i"] > rich["p"]

    def test_profile_gate_scales_implicit_by_category_interest(self, small_corpus):
        collection = small_corpus.collection
        sports_shot = next(s for s in collection.shots() if s.category == "sports")
        other_shot = next(s for s in collection.shots() if s.category != "sports")
        profile = UserProfile.single_interest("u", "sports", 1.0)
        combiner = EvidenceCombiner(CombinationConfig(strategy="profile_gate",
                                                      gate_floor=0.1))
        combined = combiner.combine(
            {},
            {sports_shot.shot_id: 1.0, other_shot.shot_id: 1.0},
            profile=profile,
            category_lookup=SharedAdaptationState.build(collection).shot_categories,
        )
        assert combined[sports_shot.shot_id] > combined[other_shot.shot_id]

    def test_profile_affinity_helper(self, small_corpus):
        collection = small_corpus.collection
        profile = UserProfile.single_interest("u", "sports", 1.0)
        sports_ids = [s.shot_id for s in collection.shots_in_category("sports")[:3]]
        affinity = profile_affinity_shared(
            profile, SharedAdaptationState.build(collection), sports_ids
        )
        assert all(value > 0 for value in affinity.values())


class TestAdaptiveSession:
    def _play_events(self, shot_ids, session_id="s"):
        events = []
        for index, shot_id in enumerate(shot_ids):
            events.append(InteractionEvent(kind=EventKind.PLAY_CLICK, timestamp=float(index),
                                           shot_id=shot_id, session_id=session_id))
            events.append(InteractionEvent(kind=EventKind.PLAY_COMPLETE,
                                           timestamp=float(index) + 0.5,
                                           shot_id=shot_id, session_id=session_id))
        return events

    def test_baseline_session_matches_plain_engine(self, medium_corpus, adaptive_system):
        topic = medium_corpus.topics.topics()[0]
        session = adaptive_system.create_session(policy=baseline_policy(),
                                                 topic_id=topic.topic_id)
        query_text = " ".join(topic.query_terms[:2])
        adapted = session.submit_query(query_text)
        plain = adaptive_system.engine.search_text(query_text, limit=50)
        assert adapted.shot_ids() == plain.shot_ids()

    def test_baseline_ignores_feedback(self, medium_corpus, adaptive_system):
        topic = medium_corpus.topics.topics()[0]
        session = adaptive_system.create_session(policy=baseline_policy(),
                                                 topic_id=topic.topic_id)
        query_text = " ".join(topic.query_terms[:2])
        first = session.submit_query(query_text)
        session.observe(self._play_events(first.shot_ids()[:3]))
        second = session.submit_query(query_text)
        assert first.shot_ids() == second.shot_ids()
        assert session.implicit_evidence() == {}

    def test_implicit_feedback_changes_ranking(self, medium_corpus, adaptive_system):
        topic = medium_corpus.topics.topics()[0]
        relevant = sorted(medium_corpus.qrels.relevant_shots(topic.topic_id))
        session = adaptive_system.create_session(policy=implicit_only_policy(),
                                                 topic_id=topic.topic_id)
        query_text = topic.query_terms[0]
        first = session.submit_query(query_text)
        session.observe(self._play_events(relevant[:4]))
        second = session.submit_query(query_text)
        assert first.shot_ids() != second.shot_ids()
        assert session.implicit_evidence()

    def test_implicit_feedback_on_relevant_shots_improves_ranking(
        self, medium_corpus, adaptive_system
    ):
        from repro.evaluation import average_precision

        topic = medium_corpus.topics.topics()[2]
        relevant = sorted(medium_corpus.qrels.relevant_shots(topic.topic_id))
        judgements = medium_corpus.qrels.judgements_for(topic.topic_id)
        query_text = topic.query_terms[0]

        baseline_session = adaptive_system.create_session(policy=baseline_policy(),
                                                          topic_id=topic.topic_id)
        baseline_ap = average_precision(
            baseline_session.submit_query(query_text).shot_ids(), judgements
        )

        session = adaptive_system.create_session(policy=implicit_only_policy(),
                                                 topic_id=topic.topic_id)
        session.submit_query(query_text)
        session.observe(self._play_events(relevant[:5]))
        adapted_ap = average_precision(
            session.submit_query(query_text).shot_ids(), judgements
        )
        assert adapted_ap >= baseline_ap

    def test_profile_only_session_promotes_profile_category(
        self, medium_corpus, adaptive_system
    ):
        topic = medium_corpus.topics.topics()[0]
        profile = UserProfile.single_interest("u", topic.category, 1.0)
        session = adaptive_system.create_session(
            profile=profile, policy=profile_only_policy(), topic_id=topic.topic_id
        )
        results = session.submit_query(topic.query_terms[0])
        assert len(results) > 0
        top_categories = [
            medium_corpus.collection.shot(item.shot_id).category
            for item in results.top(5)
        ]
        assert top_categories.count(topic.category) >= 3

    def test_explicit_policy_uses_judgements(self, medium_corpus, adaptive_system):
        topic = medium_corpus.topics.topics()[1]
        relevant = sorted(medium_corpus.qrels.relevant_shots(topic.topic_id))
        session = adaptive_system.create_session(policy=explicit_policy(),
                                                 topic_id=topic.topic_id)
        first = session.submit_query(topic.query_terms[0])
        events = [
            InteractionEvent(kind=EventKind.MARK_RELEVANT, timestamp=1.0, shot_id=shot_id)
            for shot_id in relevant[:3]
        ]
        session.observe(events)
        assert session.explicit_store().judgement_count() == 3
        second = session.submit_query(topic.query_terms[0])
        assert second.shot_ids() != first.shot_ids()

    def test_recommendations_from_evidence(self, medium_corpus, adaptive_system):
        topic = medium_corpus.topics.topics()[0]
        relevant = sorted(medium_corpus.qrels.relevant_shots(topic.topic_id))
        session = adaptive_system.create_session(policy=implicit_only_policy(),
                                                 topic_id=topic.topic_id)
        session.submit_query(topic.query_terms[0])
        session.observe(self._play_events(relevant[:3]))
        recommendations = session.recommendations(limit=5)
        assert len(recommendations) > 0
        # Recommendations exclude the shots the user already saw.
        assert not set(recommendations.shot_ids()) & set(relevant[:3])

    def test_recommendations_empty_without_evidence(self, adaptive_system):
        session = adaptive_system.create_session(policy=implicit_only_policy())
        assert len(session.recommendations()) == 0

    def test_refresh_requires_query(self, adaptive_system):
        session = adaptive_system.create_session(policy=baseline_policy())
        with pytest.raises(RuntimeError):
            session.refresh_results()

    def test_iterations_recorded(self, medium_corpus, adaptive_system):
        topic = medium_corpus.topics.topics()[0]
        session = adaptive_system.create_session(policy=implicit_only_policy(),
                                                 topic_id=topic.topic_id)
        assert session.last_iteration is None
        first_results = session.submit_query(topic.query_terms[0])
        first = session.last_iteration
        session.submit_query(" ".join(topic.query_terms[:2]))
        second = session.last_iteration
        assert session.iteration_count == 2
        assert first.iteration == 1
        assert first.results is first_results
        assert second.iteration == 2
        assert second.query_text == " ".join(topic.query_terms[:2])

    def test_aborted_query_leaves_session_untouched(
        self, medium_corpus, adaptive_system, monkeypatch
    ):
        topic = medium_corpus.topics.topics()[0]
        relevant = sorted(medium_corpus.qrels.relevant_shots(topic.topic_id))
        session = adaptive_system.create_session(policy=implicit_only_policy(),
                                                 topic_id=topic.topic_id)
        engine = adaptive_system.engine
        real_search = engine.search

        def aborted_search(query, limit=None):
            real_search(query, limit=limit)  # the work happens, then the abort
            raise OperationCancelledError("deadline exceeded")

        def abort(query_text):
            with monkeypatch.context() as patch:
                patch.setattr(engine, "search", aborted_search)
                with pytest.raises(OperationCancelledError):
                    session.submit_query(query_text)

        # Aborted before any query succeeded: still a fresh session.
        abort("poisoned query")
        assert session.iteration_count == 0
        assert session.last_iteration is None
        with pytest.raises(RuntimeError):
            session.refresh_results()

        session.submit_query(topic.query_terms[0])
        session.observe(self._play_events(relevant[:2]))
        committed = session.last_iteration
        abort("poisoned query")
        assert session.iteration_count == 1
        assert session.last_iteration is committed
        # refresh re-runs the last *successful* query as iteration 2.
        session.refresh_results()
        assert session.iteration_count == 2
        assert session.last_iteration.iteration == 2
        assert session.last_iteration.query_text == topic.query_terms[0]

    def test_seen_shots_tracked(self, medium_corpus, adaptive_system):
        topic = medium_corpus.topics.topics()[0]
        session = adaptive_system.create_session(policy=implicit_only_policy(),
                                                 topic_id=topic.topic_id)
        session.submit_query(topic.query_terms[0])
        session.observe(self._play_events(["X1", "X2"]))
        assert session.seen_shots() == ["X1", "X2"]

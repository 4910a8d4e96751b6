"""Tests for simulated users, query strategies, the session simulator,
populations and log replay."""

from __future__ import annotations

import threading

import pytest

from repro.core import baseline_policy, implicit_only_policy
from repro.evaluation import ExperimentCondition, ExperimentRunner, make_interface
from repro.feedback import EventKind
from repro.simulation import (
    DriftingQueryStrategy,
    JudgementModel,
    SessionSimulator,
    SimulatedUser,
    TitleQueryStrategy,
    assign_topics,
    build_graph_from_logs,
    casual_user,
    diligent_user,
    generate_population,
    indicator_observations_from_logs,
    lazy_user,
    replay_evidence,
    shot_durations_from_collection,
    standard_personas,
)
from repro.utils.rng import RandomSource


class TestSimulatedUser:
    def test_personas_ordered_by_diligence(self):
        assert diligent_user().surrogate_error_rate < casual_user().surrogate_error_rate
        assert casual_user().surrogate_error_rate < lazy_user().surrogate_error_rate
        assert diligent_user().patience_pages > lazy_user().patience_pages

    def test_standard_personas(self):
        personas = standard_personas()
        assert len(personas) == 3
        assert len({p.user_id for p in personas}) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulatedUser(user_id="u", surrogate_error_rate=1.5)
        with pytest.raises(ValueError):
            SimulatedUser(user_id="u", patience_pages=0)

    def test_with_overrides(self):
        user = diligent_user().with_overrides(user_id="other", play_propensity=0.5)
        assert user.user_id == "other"
        assert user.play_propensity == 0.5


class TestJudgementModel:
    def test_zero_error_is_truthful(self):
        model = JudgementModel(surrogate_error_rate=0.0, post_play_error_rate=0.0)
        rng = RandomSource(1).spawn("j")
        assert model.judge_from_surrogate(rng, True) is True
        assert model.judge_from_surrogate(rng, False) is False
        assert model.judge_after_playing(rng, True) is True

    def test_full_error_inverts(self):
        model = JudgementModel(surrogate_error_rate=1.0, post_play_error_rate=1.0)
        rng = RandomSource(1).spawn("j")
        assert model.judge_from_surrogate(rng, True) is False
        assert model.judge_after_playing(rng, False) is True

    def test_unrepresentative_keyframe_degrades_judgement(self):
        model = JudgementModel(surrogate_error_rate=0.1)
        rng = RandomSource(1).spawn("j")
        errors_good = sum(
            not model.judge_from_surrogate(rng, True, representativeness=1.0)
            for _ in range(500)
        )
        errors_bad = sum(
            not model.judge_from_surrogate(rng, True, representativeness=0.0)
            for _ in range(500)
        )
        assert errors_bad > errors_good


class TestQueryStrategies:
    def test_title_strategy_initial_query(self, small_corpus):
        topic = small_corpus.topics.topics()[0]
        strategy = TitleQueryStrategy()
        query = strategy.initial_query(topic, RandomSource(1).spawn("q"), 2)
        assert query.split() == topic.query_terms[:2]

    def test_title_strategy_reformulation_adds_terms(self, small_corpus):
        topic = small_corpus.topics.topics()[0]
        strategy = TitleQueryStrategy()
        rng = RandomSource(1).spawn("q")
        first = strategy.initial_query(topic, rng, 2)
        second = strategy.reformulate(topic, rng, [first], 1)
        assert second is not None
        assert len(second.split()) == 3
        assert first in second

    def test_title_strategy_vagueness_substitutes(self, small_corpus):
        topic = small_corpus.topics.topics()[0]
        strategy = TitleQueryStrategy(vagueness=1.0, vague_terms=["generic"])
        query = strategy.initial_query(topic, RandomSource(1).spawn("q"), 3)
        assert query == "generic generic generic"

    def test_title_strategy_eventually_stops(self, small_corpus):
        topic = small_corpus.topics.topics()[0]
        strategy = TitleQueryStrategy()
        rng = RandomSource(1).spawn("q")
        queries = [strategy.initial_query(topic, rng, len(topic.query_terms))]
        for _ in range(len(topic.query_terms) + 3):
            next_query = strategy.reformulate(topic, rng, queries, 1)
            if next_query is None:
                break
            queries.append(next_query)
        assert next_query is None

    def test_drifting_strategy_switches_topic(self, small_corpus):
        topics = small_corpus.topics.topics()
        first, second = topics[0], topics[1]
        strategy = DriftingQueryStrategy(first_topic=first, second_topic=second,
                                         shift_after=1)
        rng = RandomSource(1).spawn("q")
        initial = strategy.initial_query(first, rng, 2)
        assert set(initial.split()) <= set(first.query_terms)
        shifted = strategy.reformulate(first, rng, [initial], 1)
        assert set(shifted.split()) <= set(second.query_terms)

    def test_drifting_strategy_validation(self, small_corpus):
        topics = small_corpus.topics.topics()
        with pytest.raises(ValueError):
            DriftingQueryStrategy(first_topic=topics[0], second_topic=topics[1],
                                  shift_after=0)


class TestSessionSimulator:
    @pytest.fixture()
    def desktop_outcome(self, medium_corpus, adaptive_system):
        topic = medium_corpus.topics.topics()[0]
        simulator = SessionSimulator(
            collection=medium_corpus.collection,
            qrels=medium_corpus.qrels,
            interface=make_interface("desktop"),
            seed=303,
        )
        session = adaptive_system.create_session(
            policy=implicit_only_policy(), topic_id=topic.topic_id
        )
        return simulator.run(session, topic, diligent_user()), topic

    def test_outcome_structure(self, desktop_outcome):
        outcome, topic = desktop_outcome
        assert outcome.queries_issued
        assert outcome.iterations
        assert outcome.event_count > 0
        assert outcome.total_time_seconds > 0
        assert outcome.session_log.topic_id == topic.topic_id
        assert outcome.session_log.interface == "desktop"

    def test_log_contains_session_markers(self, desktop_outcome):
        outcome, _topic = desktop_outcome
        kinds = [event.kind for event in outcome.session_log.events]
        assert kinds[0] is EventKind.SESSION_STARTED
        assert kinds[-1] is EventKind.SESSION_ENDED
        assert EventKind.QUERY_SUBMITTED in kinds

    def test_relevant_found_are_actually_relevant(self, desktop_outcome, medium_corpus):
        outcome, topic = desktop_outcome
        for shot_id in outcome.relevant_shots_found:
            assert medium_corpus.qrels.is_relevant(topic.topic_id, shot_id)

    def test_events_respect_interface_capabilities(self, medium_corpus, adaptive_system):
        topic = medium_corpus.topics.topics()[0]
        itv = make_interface("itv")
        simulator = SessionSimulator(
            collection=medium_corpus.collection,
            qrels=medium_corpus.qrels,
            interface=itv,
            seed=303,
        )
        session = adaptive_system.create_session(
            policy=implicit_only_policy(), topic_id=topic.topic_id
        )
        outcome = simulator.run(session, topic, diligent_user())
        for event in outcome.session_log.events:
            if event.kind in (EventKind.SESSION_STARTED, EventKind.SESSION_ENDED):
                continue
            assert itv.supports(event.kind), event.kind

    def test_simulation_deterministic_given_seed(self, medium_corpus, adaptive_system):
        topic = medium_corpus.topics.topics()[1]

        def run_once():
            simulator = SessionSimulator(
                collection=medium_corpus.collection,
                qrels=medium_corpus.qrels,
                interface=make_interface("desktop"),
                seed=404,
            )
            session = adaptive_system.create_session(
                policy=baseline_policy(), topic_id=topic.topic_id
            )
            outcome = simulator.run(session, topic, casual_user())
            return [(e.kind.value, e.shot_id) for e in outcome.session_log.events]

        assert run_once() == run_once()

    def test_desktop_emits_more_events_than_itv(self, medium_corpus, adaptive_system):
        topic = medium_corpus.topics.topics()[0]
        user = diligent_user()

        def run_on(interface_name):
            simulator = SessionSimulator(
                collection=medium_corpus.collection,
                qrels=medium_corpus.qrels,
                interface=make_interface(interface_name),
                seed=505,
            )
            session = adaptive_system.create_session(
                policy=baseline_policy(), topic_id=topic.topic_id
            )
            return simulator.run(session, topic, user)

        desktop = run_on("desktop")
        itv = run_on("itv")
        assert desktop.implicit_event_count > itv.implicit_event_count


class TestPopulation:
    def test_population_size_and_unique_ids(self, small_corpus):
        members = generate_population(9, seed=3, topics=small_corpus.topics)
        assert len(members) == 9
        assert len({member.user.user_id for member in members}) == 9

    def test_population_profiles_have_interests(self, small_corpus):
        members = generate_population(6, seed=3, topics=small_corpus.topics)
        assert all(member.profile.category_interests for member in members)

    def test_population_without_topics_has_empty_profiles(self):
        members = generate_population(3, seed=3)
        assert all(not member.profile.category_interests for member in members)

    def test_population_deterministic(self, small_corpus):
        first = generate_population(5, seed=8, topics=small_corpus.topics)
        second = generate_population(5, seed=8, topics=small_corpus.topics)
        assert [m.user.surrogate_error_rate for m in first] == [
            m.user.surrogate_error_rate for m in second
        ]

    def test_assign_topics_counts(self, small_corpus):
        members = generate_population(5, seed=3, topics=small_corpus.topics)
        assignment = assign_topics(members, small_corpus.topics, topics_per_user=2, seed=4)
        assert set(assignment) == {member.user.user_id for member in members}
        assert all(len(topics) == 2 for topics in assignment.values())

    def test_more_topics_than_the_corpus_has_is_refused_promptly(self, small_corpus):
        # It used to draw distinct topics forever; a daemon thread bounds
        # the wall clock so a regression fails instead of hanging.
        topics = small_corpus.topics
        members = generate_population(2, seed=3, topics=topics)
        outcome = {}

        def assign():
            try:
                assign_topics(members, topics, topics_per_user=len(topics) + 1, seed=4)
            except ValueError as error:
                outcome["error"] = str(error)

        thread = threading.Thread(target=assign, daemon=True)
        thread.start()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert outcome["error"] == (
            f"topics_per_user={len(topics) + 1} exceeds the {len(topics)} topics available"
        )
        assignment = assign_topics(members, topics, topics_per_user=len(topics), seed=4)
        assert all(
            len({topic.topic_id for topic in chosen}) == len(topics)
            for chosen in assignment.values()
        )

    def test_experiment_condition_is_checked_against_the_corpus(self, small_corpus):
        runner = ExperimentRunner(small_corpus)
        too_many = len(small_corpus.topics) + 1
        condition = ExperimentCondition("wide", user_count=1, topics_per_user=too_many)
        message = (
            f"condition 'wide': topics_per_user={too_many} exceeds the "
            f"corpus's {len(small_corpus.topics)} topics"
        )
        with pytest.raises(ValueError) as excinfo:
            runner.run_condition(condition)
        assert str(excinfo.value) == message
        fine = ExperimentCondition("fine", user_count=1, topics_per_user=1)
        with pytest.raises(ValueError):
            runner.run_conditions([fine, condition])

    def test_assign_topics_prefers_profile_category(self, small_corpus):
        members = generate_population(8, seed=3, topics=small_corpus.topics)
        assignment = assign_topics(members, small_corpus.topics, topics_per_user=1, seed=4)
        matches = 0
        possible = 0
        for member in members:
            preferred = member.profile.top_categories(1)
            if not preferred or not small_corpus.topics.by_category(preferred[0]):
                continue
            possible += 1
            if assignment[member.user.user_id][0].category == preferred[0]:
                matches += 1
        if possible:
            assert matches / possible > 0.5


class TestReplay:
    @pytest.fixture()
    def logged_sessions(self, medium_corpus, adaptive_system):
        simulator = SessionSimulator(
            collection=medium_corpus.collection,
            qrels=medium_corpus.qrels,
            interface=make_interface("desktop"),
            seed=606,
        )
        logs = []
        for topic in medium_corpus.topics.topics()[:3]:
            session = adaptive_system.create_session(
                policy=baseline_policy(), topic_id=topic.topic_id
            )
            outcome = simulator.run(session, topic, diligent_user())
            logs.append(outcome.session_log)
        return logs

    def test_indicator_observations_from_logs(self, logged_sessions, medium_corpus):
        durations = shot_durations_from_collection(medium_corpus.collection)
        observations = indicator_observations_from_logs(logged_sessions, durations)
        assert len(observations) == 3
        topic_id, per_shot = observations[0]
        assert topic_id.startswith("T")
        assert per_shot

    def test_replay_evidence_matches_live_accumulation_shape(self, logged_sessions,
                                                             medium_corpus):
        durations = shot_durations_from_collection(medium_corpus.collection)
        evidence = replay_evidence(logged_sessions[0], shot_durations=durations)
        assert evidence
        assert any(value > 0 for value in evidence.values())

    def test_replay_with_decay_weights_recent_evidence_more(self, logged_sessions,
                                                            medium_corpus):
        durations = shot_durations_from_collection(medium_corpus.collection)
        static = replay_evidence(logged_sessions[0], decay=1.0, shot_durations=durations)
        decayed = replay_evidence(logged_sessions[0], decay=0.5, shot_durations=durations)
        assert set(decayed) == set(static)
        assert sum(decayed.values()) <= sum(static.values()) + 1e-9

    def test_build_graph_from_logs(self, logged_sessions, medium_corpus):
        durations = shot_durations_from_collection(medium_corpus.collection)
        graph = build_graph_from_logs(logged_sessions, shot_durations=durations)
        assert graph.session_count == 3
        assert graph.node_count > 0

"""Additional adaptive-model tests: seen-shot demotion, full policy, custom
combination strategies and iteration snapshots."""

from __future__ import annotations

import pytest

from repro.core import (
    AdaptiveVideoRetrievalSystem,
    CombinationConfig,
    combined_policy,
    full_policy,
    implicit_only_policy,
)
from repro.feedback import EventKind, InteractionEvent, uniform_scheme
from repro.profiles import UserProfile


def _play(shot_id, timestamp=0.0):
    return [
        InteractionEvent(kind=EventKind.PLAY_CLICK, timestamp=timestamp, shot_id=shot_id),
        InteractionEvent(kind=EventKind.PLAY_COMPLETE, timestamp=timestamp + 1.0,
                         shot_id=shot_id),
    ]


class TestSeenShotDemotion:
    def test_demote_seen_pushes_inspected_shots_down(self, medium_corpus, adaptive_system):
        topic = medium_corpus.topics.topics()[0]
        policy = implicit_only_policy().with_overrides(demote_seen=0.8)
        session = adaptive_system.create_session(policy=policy, topic_id=topic.topic_id)
        query = " ".join(topic.query_terms[:2])
        first = session.submit_query(query)
        top_shot = first.shot_ids()[0]
        # The user plays the top result; with heavy demotion it should no
        # longer occupy the top rank on the next iteration.
        session.observe(_play(top_shot))
        second = session.submit_query(query)
        assert second.rank_of(top_shot) is None or second.rank_of(top_shot) > 1


class TestFullPolicy:
    def test_full_policy_uses_all_evidence_sources(self, medium_corpus, adaptive_system):
        topic = medium_corpus.topics.topics()[1]
        relevant = sorted(medium_corpus.qrels.relevant_shots(topic.topic_id))
        profile = UserProfile.single_interest("u", topic.category, 0.8)
        session = adaptive_system.create_session(
            profile=profile, policy=full_policy(), topic_id=topic.topic_id
        )
        session.submit_query(topic.query_terms[0])
        events = _play(relevant[0]) + [
            InteractionEvent(kind=EventKind.MARK_RELEVANT, timestamp=5.0,
                             shot_id=relevant[1]),
        ]
        session.observe(events)
        assert session.implicit_evidence()
        assert session.explicit_store().judgement_count() == 1
        results = session.submit_query(topic.query_terms[0])
        assert len(results) > 0


class TestCustomCombination:
    @pytest.mark.parametrize("strategy", ["linear", "cold_start", "profile_gate"])
    def test_all_strategies_work_in_a_session(self, medium_corpus, strategy):
        system = AdaptiveVideoRetrievalSystem(
            __import__("repro.retrieval", fromlist=["VideoRetrievalEngine"])
            .VideoRetrievalEngine(medium_corpus.collection),
            combination=CombinationConfig(strategy=strategy),
        )
        topic = medium_corpus.topics.topics()[0]
        relevant = sorted(medium_corpus.qrels.relevant_shots(topic.topic_id))
        profile = UserProfile.single_interest("u", topic.category, 0.9)
        session = system.create_session(profile=profile, policy=combined_policy(),
                                        topic_id=topic.topic_id)
        session.submit_query(topic.query_terms[0])
        session.observe(_play(relevant[0]))
        results = session.submit_query(topic.query_terms[0])
        assert len(results) > 0


class TestIterationSnapshots:
    def test_evidence_snapshot_recorded_per_iteration(self, medium_corpus, adaptive_system):
        topic = medium_corpus.topics.topics()[0]
        relevant = sorted(medium_corpus.qrels.relevant_shots(topic.topic_id))
        session = adaptive_system.create_session(
            policy=implicit_only_policy(), scheme=uniform_scheme(),
            topic_id=topic.topic_id,
        )
        session.submit_query(topic.query_terms[0])
        first = session.last_iteration
        session.observe(_play(relevant[0]))
        session.submit_query(topic.query_terms[0])
        second = session.last_iteration
        # The first snapshot is a copy: later evidence does not leak into it.
        assert first.evidence_snapshot == {}
        assert relevant[0] in second.evidence_snapshot

    def test_adapted_query_carries_expansion_terms(self, medium_corpus, adaptive_system):
        topic = medium_corpus.topics.topics()[0]
        relevant = sorted(medium_corpus.qrels.relevant_shots(topic.topic_id))
        session = adaptive_system.create_session(
            policy=implicit_only_policy(), topic_id=topic.topic_id
        )
        session.submit_query(topic.query_terms[0])
        session.observe(_play(relevant[0]) + _play(relevant[1], timestamp=10.0))
        session.submit_query(topic.query_terms[0])
        adapted = session.last_iteration.adapted_query
        assert adapted.term_weights  # expansion terms were added

"""Tests for interaction events, indicators, weighting schemes, dwell, explicit store."""

from __future__ import annotations

import pytest

from repro.collection import Qrels
from repro.feedback import (
    INDICATOR_NAMES,
    DwellObservation,
    DwellTimeClassifier,
    DwellTimeModel,
    EventKind,
    EventStream,
    ExplicitFeedbackStore,
    IndicatorExtractor,
    IndicatorWeightLearner,
    InteractionEvent,
    binary_click_scheme,
    default_schemes,
    heuristic_scheme,
    indicator_counts,
    uniform_scheme,
)
from repro.utils.rng import RandomSource


def _event(kind: EventKind, shot_id="s1", duration=None, rank=1, timestamp=0.0):
    return InteractionEvent(
        kind=kind, timestamp=timestamp, user_id="u1", session_id="sess1",
        shot_id=shot_id, rank=rank, duration=duration,
    )


class TestEvents:
    def test_classification_flags(self):
        assert _event(EventKind.PLAY_CLICK).is_implicit()
        assert not _event(EventKind.PLAY_CLICK).is_explicit()
        assert _event(EventKind.MARK_RELEVANT).is_explicit()
        assert _event(EventKind.SKIP_RESULT).is_negative()
        assert not _event(EventKind.PLAY_CLICK).is_negative()

    def test_round_trip_dict(self):
        event = _event(EventKind.PLAY_PROGRESS, duration=12.5)
        event.payload["page"] = 2
        restored = InteractionEvent.from_dict(event.as_dict())
        assert restored.kind is EventKind.PLAY_PROGRESS
        assert restored.duration == 12.5
        assert restored.payload == {"page": 2}
        assert restored.rank == 1

    def test_round_trip_without_optional_fields(self):
        event = InteractionEvent(kind=EventKind.SESSION_STARTED, timestamp=0.0)
        restored = InteractionEvent.from_dict(event.as_dict())
        assert restored.shot_id is None
        assert restored.rank is None

    def test_event_stream_filters(self):
        stream = EventStream(
            [
                _event(EventKind.QUERY_SUBMITTED, shot_id=None),
                _event(EventKind.PLAY_CLICK, shot_id="s1"),
                _event(EventKind.MARK_RELEVANT, shot_id="s2"),
                _event(EventKind.PLAY_CLICK, shot_id="s2"),
            ]
        )
        assert len(stream) == 4
        assert len(stream.implicit_events()) == 2
        assert len(stream.explicit_events()) == 1
        assert stream.shots_touched() == ["s1", "s2"]
        assert len(stream.for_shot("s2")) == 2
        assert len(stream.of_kind(EventKind.PLAY_CLICK)) == 2

    def test_event_stream_queries(self):
        stream = EventStream()
        stream.append(
            InteractionEvent(
                kind=EventKind.QUERY_SUBMITTED, timestamp=0.0, query_text="goal match"
            )
        )
        assert stream.queries() == ["goal match"]

    def test_event_stream_between(self):
        stream = EventStream([_event(EventKind.PLAY_CLICK, timestamp=t) for t in (0.0, 5.0, 10.0)])
        assert len(stream.between(1.0, 10.0)) == 1


class TestIndicatorExtractor:
    def test_play_click_fires(self):
        observations = IndicatorExtractor().observations_for_event(_event(EventKind.PLAY_CLICK))
        assert [o.indicator for o in observations] == ["play_click"]
        assert observations[0].strength == 1.0

    def test_play_progress_strength_scales_with_fraction(self):
        extractor = IndicatorExtractor(long_play_fraction=0.5)
        durations = {"s1": 20.0}
        short = extractor.observations_for_event(
            _event(EventKind.PLAY_PROGRESS, duration=2.0), durations
        )[0]
        long = extractor.observations_for_event(
            _event(EventKind.PLAY_PROGRESS, duration=15.0), durations
        )[0]
        assert short.strength < long.strength
        assert long.strength == 1.0  # capped

    def test_play_complete_fires_two_indicators(self):
        observations = IndicatorExtractor().observations_for_event(
            _event(EventKind.PLAY_COMPLETE)
        )
        assert {o.indicator for o in observations} == {"play_complete", "play_duration"}

    def test_hover_threshold(self):
        extractor = IndicatorExtractor(hover_threshold_seconds=2.0)
        below = extractor.observations_for_event(_event(EventKind.HOVER_RESULT, duration=1.0))
        above = extractor.observations_for_event(_event(EventKind.HOVER_RESULT, duration=3.0))
        assert below == []
        assert above[0].indicator == "hover"

    def test_explicit_events_map_to_explicit_indicators(self):
        extractor = IndicatorExtractor()
        positive = extractor.observations_for_event(_event(EventKind.REMOTE_RATE_UP))
        negative = extractor.observations_for_event(_event(EventKind.MARK_NOT_RELEVANT))
        assert positive[0].indicator == "explicit_positive"
        assert negative[0].indicator == "explicit_negative"

    def test_event_without_shot_ignored(self):
        assert IndicatorExtractor().observations_for_event(
            _event(EventKind.PLAY_CLICK, shot_id=None)
        ) == []

    def test_per_shot_strengths_take_maximum(self):
        extractor = IndicatorExtractor()
        events = [
            _event(EventKind.PLAY_PROGRESS, duration=3.0),
            _event(EventKind.PLAY_PROGRESS, duration=30.0),
        ]
        strengths = extractor.per_shot_indicator_strengths(events, {"s1": 30.0})
        assert strengths["s1"]["play_duration"] == 1.0

    def test_indicator_counts(self):
        extractor = IndicatorExtractor()
        observations = extractor.extract(
            [_event(EventKind.PLAY_CLICK), _event(EventKind.PLAY_CLICK), _event(EventKind.SEEK_VIDEO)]
        )
        counts = indicator_counts(observations)
        assert counts["play_click"] == 2
        assert counts["seek"] == 1
        assert counts["metadata"] == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            IndicatorExtractor(long_play_fraction=0.0)
        with pytest.raises(ValueError):
            IndicatorExtractor(hover_threshold_seconds=-1)


class TestWeightingSchemes:
    def test_uniform_counts_all_indicators(self):
        scheme = uniform_scheme()
        assert all(scheme.weight(name) == 1.0 for name in INDICATOR_NAMES)

    def test_binary_click_only_counts_clicks(self):
        scheme = binary_click_scheme()
        assert scheme.evidence_for_shot({"play_click": 1.0, "metadata": 1.0}) == 1.0

    def test_negative_indicators_subtract(self):
        scheme = uniform_scheme()
        assert scheme.evidence_for_shot({"play_click": 1.0, "skip": 1.0}) == 0.0
        assert scheme.evidence_for_shot({"explicit_negative": 1.0}) == -1.0

    def test_evidence_map(self):
        scheme = heuristic_scheme()
        evidence = scheme.evidence_map(
            {"s1": {"play_complete": 1.0}, "s2": {"browse": 1.0}}
        )
        assert evidence["s1"] > evidence["s2"]

    def test_default_schemes_named_uniquely(self):
        names = [scheme.name for scheme in default_schemes()]
        assert len(names) == len(set(names))

    def test_heuristic_orders_effort(self):
        scheme = heuristic_scheme()
        assert scheme.weight("playlist") > scheme.weight("browse")
        assert scheme.weight("play_complete") > scheme.weight("play_click")


class TestWeightLearner:
    def test_learner_downweights_random_indicator(self):
        """An indicator that fires regardless of relevance should get ~0 weight,
        one that fires only on relevant shots should get a high weight."""
        qrels = Qrels()
        for i in range(20):
            qrels.add("T1", f"rel{i}", 1)
        observations = []
        per_shot = {}
        for i in range(20):
            per_shot[f"rel{i}"] = {"play_complete": 1.0, "browse": 1.0}
        for i in range(20):
            per_shot[f"non{i}"] = {"browse": 1.0}
        observations.append(("T1", per_shot))
        learned = IndicatorWeightLearner(smoothing=0.5).learn(observations, qrels)
        assert learned.weight("play_complete") > 0.7
        assert learned.weight("browse") < 0.2

    def test_precisions_default_half_for_unseen(self):
        learner = IndicatorWeightLearner()
        precisions = learner.indicator_precisions([], Qrels())
        assert precisions["play_click"] == pytest.approx(0.5)

    def test_negative_indicator_learned_against_non_relevance(self):
        qrels = Qrels()
        qrels.add("T1", "rel1", 1)
        per_shot = {"rel1": {"skip": 1.0}, "non1": {"skip": 1.0}, "non2": {"skip": 1.0}}
        learner = IndicatorWeightLearner(smoothing=0.0)
        precisions = learner.indicator_precisions([("T1", per_shot)], qrels)
        assert precisions["skip"] == pytest.approx(2.0 / 3.0)


class TestDwell:
    def test_relevant_shots_watched_longer_on_average(self):
        model = DwellTimeModel()
        rng = RandomSource(5).spawn("dwell")
        relevant = [model.sample_duration(rng, True) for _ in range(300)]
        non_relevant = [model.sample_duration(rng, False) for _ in range(300)]
        assert sum(relevant) / len(relevant) > sum(non_relevant) / len(non_relevant)

    def test_duration_capped_by_shot_length(self):
        model = DwellTimeModel(relevant_median=100.0)
        rng = RandomSource(5).spawn("dwell")
        assert all(
            model.sample_duration(rng, True, shot_duration=10.0) <= 10.0
            for _ in range(50)
        )

    def test_task_multiplier(self):
        model = DwellTimeModel.with_task_effects()
        assert model.multiplier_for_task("background_browsing") > 1.0
        assert model.multiplier_for_task("fact_check") < 1.0
        assert model.multiplier_for_task(None) == 1.0
        assert model.multiplier_for_task("unknown_task") == 1.0

    def test_classifier_metrics(self):
        observations = [
            DwellObservation("s1", 30.0, True),
            DwellObservation("s2", 25.0, True),
            DwellObservation("s3", 3.0, False),
            DwellObservation("s4", 20.0, False),
        ]
        metrics = DwellTimeClassifier(threshold_seconds=12.0).evaluate(observations)
        assert metrics["precision"] == pytest.approx(2 / 3)
        assert metrics["recall"] == pytest.approx(1.0)
        assert metrics["observations"] == 4

    def test_best_threshold(self):
        observations = [
            DwellObservation("s1", 30.0, True),
            DwellObservation("s2", 3.0, False),
        ]
        threshold, accuracy = DwellTimeClassifier().best_threshold(
            observations, [1.0, 10.0, 50.0]
        )
        assert accuracy == 1.0
        assert threshold == 10.0

    def test_model_validation(self):
        with pytest.raises(ValueError):
            DwellTimeModel(relevant_median=0)
        with pytest.raises(ValueError):
            DwellTimeClassifier(threshold_seconds=0)


class TestExplicitStore:
    def test_record_and_latest_wins(self):
        store = ExplicitFeedbackStore()
        store.record("s1", True)
        store.record("s1", False)
        assert store.non_relevant_shots() == ["s1"]
        assert store.relevant_shots() == []
        assert store.judgement_count() == 2

    def test_record_events(self):
        store = ExplicitFeedbackStore()
        events = [
            _event(EventKind.MARK_RELEVANT, shot_id="s1"),
            _event(EventKind.REMOTE_RATE_DOWN, shot_id="s2"),
            _event(EventKind.PLAY_CLICK, shot_id="s3"),
        ]
        recorded = store.record_events(events)
        assert recorded == 2
        assert store.relevant_shots() == ["s1"]
        assert store.non_relevant_shots() == ["s2"]

    def test_evidence_map_signs(self):
        store = ExplicitFeedbackStore()
        store.record("pos", True)
        store.record("neg", False)
        evidence = store.evidence_map(positive_weight=2.0, negative_weight=1.0)
        assert evidence["pos"] == 2.0
        assert evidence["neg"] == -1.0

    def test_event_without_shot_not_recorded(self):
        store = ExplicitFeedbackStore()
        assert not store.record_event(_event(EventKind.MARK_RELEVANT, shot_id=None))

    @pytest.mark.parametrize("seed", range(8))
    def test_incremental_store_matches_rebuild_from_list(self, seed):
        """Differential against the store's former implementation: append
        every judgement, rebuild the latest-wins map from the list on read.
        Judge / re-judge / flip sequences over a small shot pool must leave
        the same lists and the same evidence map, key order included."""
        rng = RandomSource(seed).spawn("explicit-differential")
        pool = [f"s{index}" for index in range(rng.randint(1, 12))]
        store = ExplicitFeedbackStore()
        judgements = []

        def latest():
            rebuilt = {}
            for shot_id, relevant in judgements:
                rebuilt[shot_id] = relevant
            return rebuilt

        for _ in range(rng.randint(1, 120)):
            shot_id = rng.choice(pool)
            previous = latest().get(shot_id)
            # Half the re-judgements are forced flips, half a fresh coin.
            if previous is None or rng.boolean(0.5):
                relevant = rng.boolean(0.5)
            else:
                relevant = not previous
            store.record(shot_id, relevant)
            judgements.append((shot_id, relevant))
            reference = latest()
            assert store.relevant_shots() == [s for s, r in reference.items() if r]
            assert store.non_relevant_shots() == [s for s, r in reference.items() if not r]
            assert list(store.evidence_map(2.0, 0.5).items()) == [
                (s, 2.0 if r else -0.5) for s, r in reference.items()
            ]
            assert store.judged_shots() == set(reference)
            assert store.judgement_count() == len(store) == len(judgements)

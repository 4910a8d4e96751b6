"""End-to-end integration tests reproducing (in miniature) the paper's studies."""

from __future__ import annotations

import pytest

from repro.collection import CollectionConfig, generate_corpus
from repro.core import (
    baseline_policy,
    combined_policy,
    implicit_only_policy,
)
from repro.evaluation import (
    ExperimentCondition,
    ExperimentRunner,
    LogAnalyser,
    compare_per_topic,
)
from repro.feedback import IndicatorWeightLearner, heuristic_scheme, uniform_scheme
from repro.interfaces import InteractionLogger
from repro.simulation import (
    indicator_observations_from_logs,
    shot_durations_from_collection,
)


@pytest.fixture(scope="module")
def study_corpus():
    return generate_corpus(
        seed=23, config=CollectionConfig(days=10, stories_per_day=8, topic_count=10)
    )


@pytest.fixture(scope="module")
def study_runner(study_corpus):
    return ExperimentRunner(study_corpus)


@pytest.fixture(scope="module")
def policy_results(study_runner):
    conditions = [
        ExperimentCondition(name="baseline", policy=baseline_policy(),
                            user_count=6, topics_per_user=2, seed=5),
        ExperimentCondition(name="implicit", policy=implicit_only_policy(),
                            user_count=6, topics_per_user=2, seed=5),
        ExperimentCondition(name="combined", policy=combined_policy(),
                            user_count=6, topics_per_user=2, seed=5),
    ]
    return study_runner.run_conditions(conditions)


class TestAdaptiveImprovesRetrieval:
    """Miniature of experiment E1/E4: adaptation should beat the baseline."""

    def test_implicit_beats_baseline(self, policy_results):
        assert (
            policy_results["implicit"].mean_average_precision
            > policy_results["baseline"].mean_average_precision
        )

    def test_combined_at_least_matches_implicit(self, policy_results):
        assert (
            policy_results["combined"].mean_average_precision
            >= 0.95 * policy_results["implicit"].mean_average_precision
        )

    def test_paired_comparison_has_positive_mean_difference(self, policy_results):
        baseline = policy_results["baseline"].per_session_metric("average_precision")
        adaptive = policy_results["combined"].per_session_metric("average_precision")
        result = compare_per_topic(baseline, adaptive, method="t-test")
        assert result.mean_difference > 0


class TestLogfileAnalysisWorkflow:
    """Miniature of the paper's core methodology: run sessions, write logs,
    read them back, analyse indicators and learn weights."""

    def test_full_log_round_trip_and_analysis(self, tmp_path, study_corpus, policy_results):
        logs = policy_results["implicit"].session_logs()
        logger = InteractionLogger()
        paths = logger.write_sessions(logs, tmp_path / "logs")
        assert len(paths) == len(logs)

        restored = logger.read_sessions(tmp_path / "logs")
        assert len(restored) == len(logs)

        durations = shot_durations_from_collection(study_corpus.collection)
        analyser = LogAnalyser(shot_durations=durations)
        report = analyser.analyse(restored, qrels=study_corpus.qrels)
        assert report.session_count == len(logs)
        table = report.indicator_precision_table()
        assert table
        # Engagement indicators should be informative: the best indicator's
        # precision must exceed the overall relevant rate by a clear margin.
        best_indicator, best_precision, _count = table[0]
        assert best_precision > 0.5

    def test_weight_learning_from_logs(self, study_corpus, policy_results):
        logs = policy_results["implicit"].session_logs()
        durations = shot_durations_from_collection(study_corpus.collection)
        observations = indicator_observations_from_logs(logs, durations)
        learned = IndicatorWeightLearner().learn(observations, study_corpus.qrels)
        # Strong engagement signals should receive higher learned weights than
        # weak browsing signals.
        assert learned.weight("play_complete") >= learned.weight("browse")
        assert any(weight > 0 for weight in learned.weights.values())


class TestInterfaceComparison:
    """Miniature of experiment E5: desktop vs iTV interaction economics."""

    @pytest.fixture(scope="class")
    def interface_results(self, study_runner):
        conditions = [
            ExperimentCondition(name="desktop", policy=implicit_only_policy(),
                                interface="desktop", user_count=4, topics_per_user=2,
                                seed=11),
            ExperimentCondition(name="itv", policy=implicit_only_policy(),
                                interface="itv", user_count=4, topics_per_user=2,
                                seed=11),
        ]
        return study_runner.run_conditions(conditions)

    def test_desktop_yields_more_implicit_feedback(self, interface_results):
        desktop_logs = interface_results["desktop"].session_logs()
        itv_logs = interface_results["itv"].session_logs()
        desktop_implicit = sum(
            1 for log in desktop_logs for event in log.events if event.is_implicit()
        ) / len(desktop_logs)
        itv_implicit = sum(
            1 for log in itv_logs for event in log.events if event.is_implicit()
        ) / len(itv_logs)
        assert desktop_implicit > itv_implicit

    def test_itv_explicit_share_higher(self, interface_results):
        def explicit_share(logs):
            explicit = sum(
                1 for log in logs for event in log.events if event.is_explicit()
            )
            implicit = sum(
                1 for log in logs for event in log.events if event.is_implicit()
            )
            return explicit / max(1, explicit + implicit)

        assert explicit_share(interface_results["itv"].session_logs()) > explicit_share(
            interface_results["desktop"].session_logs()
        )

    def test_itv_users_issue_fewer_queries(self, interface_results):
        def queries_per_session(result):
            return sum(
                len(record.outcome.queries_issued) for record in result.sessions
            ) / len(result.sessions)

        assert queries_per_session(interface_results["itv"]) <= queries_per_session(
            interface_results["desktop"]
        )


class TestSchemeComparison:
    """Miniature of experiment E3: weighting schemes are not equivalent."""

    def test_schemes_produce_different_outcomes(self, study_runner):
        conditions = [
            ExperimentCondition(name="uniform", policy=implicit_only_policy(),
                                scheme=uniform_scheme(), user_count=3,
                                topics_per_user=2, seed=13),
            ExperimentCondition(name="heuristic", policy=implicit_only_policy(),
                                scheme=heuristic_scheme(), user_count=3,
                                topics_per_user=2, seed=13),
        ]
        results = study_runner.run_conditions(conditions)
        uniform_map = results["uniform"].mean_average_precision
        heuristic_map = results["heuristic"].mean_average_precision
        assert uniform_map > 0 and heuristic_map > 0
        assert uniform_map != pytest.approx(heuristic_map)

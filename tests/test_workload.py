"""Tests for the deterministic multi-user workload harness (repro.workload).

Covers script generation (pure function of spec + topics), the load
driver's canonical event log (digest independent of thread count, byte-
identical across replays), and the ``repro loadtest`` CLI command.
"""

from __future__ import annotations

import io

import pytest

from repro.cli import main as cli_main
from repro.collection import save_corpus
from repro.service import RetrievalService
from repro.utils.rng import RandomSource
from repro.workload import (
    FEEDBACK,
    SEARCH,
    ServiceLoadDriver,
    WorkloadSpec,
    generate_workload,
)
from repro.workload.driver import _synthesise_feedback


@pytest.fixture()
def spec() -> WorkloadSpec:
    return WorkloadSpec(users=5, queries_per_user=2, seed=4242)


@pytest.fixture()
def factory(small_corpus):
    return lambda: RetrievalService.from_corpus(small_corpus)


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(users=0)
        with pytest.raises(ValueError):
            WorkloadSpec(queries_per_user=0)
        with pytest.raises(ValueError):
            WorkloadSpec(feedback_top_k=-1)
        with pytest.raises(ValueError):
            WorkloadSpec(policy="")

    def test_with_overrides(self, spec):
        assert spec.with_overrides(users=9).users == 9
        assert spec.with_overrides(users=9).seed == spec.seed


class TestGenerator:
    def test_scripts_are_pure_function_of_inputs(self, small_corpus, spec):
        first = generate_workload(spec, small_corpus.topics)
        second = generate_workload(spec, small_corpus.topics)
        assert [w.user_id for w in first] == [w.user_id for w in second]
        for a, b in zip(first, second):
            assert a.topic.topic_id == b.topic.topic_id
            assert [(s.kind, s.step, s.query) for s in a.steps] == [
                (s.kind, s.step, s.query) for s in b.steps
            ]

    def test_interleaving_and_counts(self, small_corpus, spec):
        workloads = generate_workload(spec, small_corpus.topics)
        assert len(workloads) == spec.users
        for workload in workloads:
            kinds = [step.kind for step in workload.steps]
            assert kinds == [SEARCH, FEEDBACK] * spec.queries_per_user
            assert workload.search_count == spec.queries_per_user
            for step in workload.steps:
                if step.kind == SEARCH:
                    assert step.query  # always a concrete query string

    def test_different_seeds_differ(self, small_corpus, spec):
        a = generate_workload(spec, small_corpus.topics)
        b = generate_workload(spec.with_overrides(seed=spec.seed + 1),
                              small_corpus.topics)
        # Populations are jittered per seed; at least the scripted queries
        # or topics must differ somewhere.
        assert [(w.topic.topic_id, [s.query for s in w.steps]) for w in a] != [
            (w.topic.topic_id, [s.query for s in w.steps]) for w in b
        ]


class TestFeedbackSynthesis:
    def test_deterministic_for_fixed_stream(self, factory, small_corpus, spec):
        service = factory()
        workloads = generate_workload(spec, small_corpus.topics)
        workload = workloads[0]
        info = service.open_session(workload.user_id, policy=workload.policy,
                                    topic_id=workload.topic.topic_id)
        from repro.service import SearchRequest

        response = service.search(
            SearchRequest(user_id=workload.user_id,
                          query=workload.steps[0].query,
                          session_id=info.session_id)
        )
        first = _synthesise_feedback(
            workload.user, response, RandomSource(1).spawn("f"),
            service.qrels, workload.topic.topic_id, 5,
        )
        second = _synthesise_feedback(
            workload.user, response, RandomSource(1).spawn("f"),
            service.qrels, workload.topic.topic_id, 5,
        )
        assert [(e.kind, e.shot_id, e.timestamp, e.duration) for e in first] == [
            (e.kind, e.shot_id, e.timestamp, e.duration) for e in second
        ]


@pytest.mark.concurrency
class TestDriver:
    def test_digest_independent_of_worker_count(self, factory, spec):
        sequential = ServiceLoadDriver(factory, max_workers=1).run(spec)
        parallel = ServiceLoadDriver(factory, max_workers=8).run(spec)
        assert sequential.canonical_log() == parallel.canonical_log()
        assert sequential.digest() == parallel.digest()

    def test_replay_verifies_determinism(self, factory, spec):
        driver = ServiceLoadDriver(factory, max_workers=6)
        digests = driver.verify_determinism(spec, runs=2)
        assert len(set(digests)) == 1

    def test_canonical_order_and_structure(self, factory, spec):
        result = ServiceLoadDriver(factory, max_workers=4).run(spec)
        keys = [(record["user"], record["seq"]) for record in result.records]
        assert keys == sorted(keys)
        # open + (search + feedback) * queries + close, per user.
        per_user = 2 * spec.queries_per_user + 2
        assert len(result.records) == spec.users * per_user
        assert result.request_count == spec.users * (2 * spec.queries_per_user + 1)
        actions = {record["action"] for record in result.records}
        assert actions == {"open", "search", "feedback", "close"}
        searches = [r for r in result.records if r["action"] == "search"]
        assert all(record["results"] > 0 for record in searches)
        assert result.throughput_rps > 0

    def test_write_log_round_trip(self, factory, spec, tmp_path):
        driver = ServiceLoadDriver(factory, max_workers=3)
        first = driver.run(spec).write_log(tmp_path / "a" / "run.jsonl")
        second = driver.run(spec).write_log(tmp_path / "b" / "run.jsonl")
        assert first.read_bytes() == second.read_bytes()

    def test_sessions_closed_after_run(self, factory, spec):
        service_holder = []

        def counting_factory():
            service = factory()
            service_holder.append(service)
            return service

        ServiceLoadDriver(counting_factory, max_workers=4).run(spec)
        assert service_holder[0].session_count == 0

    def test_open_sessions_kept_when_requested(self, factory, spec):
        service_holder = []

        def counting_factory():
            service = factory()
            service_holder.append(service)
            return service

        ServiceLoadDriver(counting_factory, max_workers=4).run(
            spec.with_overrides(close_sessions=False)
        )
        assert service_holder[0].session_count == spec.users


@pytest.mark.concurrency
class TestLoadtestCli:
    @pytest.fixture()
    def corpus_dir(self, small_corpus, tmp_path):
        directory = tmp_path / "corpus"
        save_corpus(small_corpus, directory)
        return str(directory)

    def test_loadtest_twice_byte_identical_logs(self, corpus_dir, tmp_path):
        logs = [tmp_path / "run1.jsonl", tmp_path / "run2.jsonl"]
        for log in logs:
            out = io.StringIO()
            code = cli_main(
                ["loadtest", "--corpus", corpus_dir, "--users", "4",
                 "--queries", "2", "--workers", "6", "--seed", "7",
                 "--log", str(log)],
                out=out,
            )
            assert code == 0
            assert "canonical log digest:" in out.getvalue()
        assert logs[0].read_bytes() == logs[1].read_bytes()

    def test_loadtest_verify_flag(self, corpus_dir):
        out = io.StringIO()
        code = cli_main(
            ["loadtest", "--corpus", corpus_dir, "--users", "3",
             "--queries", "1", "--workers", "4", "--seed", "11", "--verify"],
            out=out,
        )
        assert code == 0
        assert "deterministic" in out.getvalue()


@pytest.mark.shard
class TestShardedWorkloadEquivalence:
    """Replaying one workload script sharded vs unsharded is byte-identical.

    The canonical event log records query texts, iteration counts, feedback
    event kinds and the top ranked ``(shot_id, score)`` pairs — so digest
    equality means a service configured with shard segments reproduced every
    adapted ranking of the single-engine path bit for bit, across the whole
    search/feedback/close lifecycle.
    """

    def test_sharded_and_unsharded_digests_identical(self, small_corpus, spec):
        from repro.service import ServiceConfig
        from repro.workload import generate_workload

        # One pre-generated script replayed against both services, so any
        # divergence is attributable to the serving path alone.
        workloads = generate_workload(spec, small_corpus.topics)
        baseline = ServiceLoadDriver(
            lambda: RetrievalService.from_corpus(small_corpus), max_workers=4
        ).run(spec, workloads)
        sharded = ServiceLoadDriver(
            lambda: RetrievalService.from_corpus(
                small_corpus, config=ServiceConfig(num_shards=3)
            ),
            max_workers=4,
        ).run(spec, workloads)
        assert baseline.canonical_log() == sharded.canonical_log()
        assert baseline.digest() == sharded.digest()

    @pytest.mark.parametrize("num_shards", (2, 4))
    def test_sharded_loadtest_cli_digest_matches_unsharded(
        self, small_corpus, tmp_path, num_shards
    ):
        from repro.collection import save_corpus

        directory = tmp_path / "corpus"
        save_corpus(small_corpus, directory)
        logs = {}
        for shards in (1, num_shards):
            log = tmp_path / f"shards{shards}.jsonl"
            out = io.StringIO()
            code = cli_main(
                ["loadtest", "--corpus", str(directory), "--users", "4",
                 "--queries", "2", "--workers", "4", "--seed", "7",
                 "--shards", str(shards), "--log", str(log)],
                out=out,
            )
            assert code == 0
            logs[shards] = log.read_bytes()
        assert logs[1] == logs[num_shards]


class TestContinuousMix:
    @staticmethod
    def _spec(**overrides):
        from repro.workload import ContinuousMixSpec

        base = dict(
            epochs=4,
            mutations_per_epoch=6,
            searches_per_epoch=4,
            feedback_per_epoch=1,
            compact_every=2,
            search_workers=2,
            seed=7,
        )
        base.update(overrides)
        return ContinuousMixSpec(**base)

    def test_spec_validation(self):
        from repro.workload import ContinuousMixSpec

        with pytest.raises(ValueError):
            ContinuousMixSpec(epochs=0)
        with pytest.raises(ValueError):
            ContinuousMixSpec(delete_ratio=1.2)
        with pytest.raises(ValueError):
            ContinuousMixSpec(delete_ratio=0.6, update_ratio=0.6)
        with pytest.raises(ValueError):
            ContinuousMixSpec(searches_per_epoch=-1)

    def test_log_independent_of_search_workers(self, small_corpus, factory):
        from repro.workload import run_continuous_mix

        logs = []
        for workers in (1, 4):
            service = factory()
            try:
                result = run_continuous_mix(
                    service, self._spec(search_workers=workers)
                )
                logs.append(result.canonical_log())
            finally:
                service.close()
        assert logs[0] == logs[1]

    def test_sharded_matches_monolithic(self, small_corpus):
        from repro.service import ServiceConfig
        from repro.workload import run_continuous_mix

        results = []
        for num_shards in (1, 3):
            service = RetrievalService(
                small_corpus.collection,
                config=ServiceConfig(num_shards=num_shards, result_cache_size=0),
            )
            try:
                results.append(run_continuous_mix(service, self._spec()))
            finally:
                service.close()
        assert results[0].canonical_log() == results[1].canonical_log()
        assert results[0].state_digest == results[1].state_digest

    def test_counts_cover_every_op_family(self, factory):
        from repro.workload import run_continuous_mix

        service = factory()
        try:
            result = run_continuous_mix(
                service, self._spec(epochs=6, mutations_per_epoch=10)
            )
        finally:
            service.close()
        counts = result.counts
        assert counts["ingest-doc"] > 0 and counts["ingest-shot"] > 0
        assert counts["del-doc"] + counts["del-shot"] > 0
        assert counts["upd"] > 0
        assert counts["search"] == 6 * self._spec().searches_per_epoch
        assert counts["feedback"] > 0
        assert counts["compact"] == 3
        assert counts["reclaimed"] > 0
        assert not result.stopped_early
        # Every record family shows up in the canonical log, and the log
        # digest is reproducible from the lines.
        ops = {record["op"] for record in result.records}
        assert {"ingest-doc", "search", "compact"} <= ops
        assert result.canonical_lines()[-1] == (
            '{"state_digest":"%s"}' % result.state_digest
        )

    def test_stop_lsn_requires_durable_service(self, factory):
        from repro.workload import run_continuous_mix

        service = factory()
        try:
            with pytest.raises(ValueError):
                run_continuous_mix(service, self._spec(), stop_lsn=5)
            with pytest.raises(ValueError):
                run_continuous_mix(service, self._spec(), stop_lsn=-1)
        finally:
            service.close()

    @pytest.mark.durability
    def test_durable_mix_recovers_to_final_digest(self, small_corpus, tmp_path):
        from repro.durability import RecoveryManager
        from repro.service import ServiceConfig
        from repro.workload import run_continuous_mix

        config = ServiceConfig(
            durability_dir=str(tmp_path / "d"),
            snapshot_interval_ops=8,
            fsync_policy="never",
            result_cache_size=0,
        )
        service = RetrievalService(small_corpus.collection, config=config)
        try:
            result = run_continuous_mix(service, self._spec())
        finally:
            service.close()
        state = RecoveryManager(tmp_path / "d").recover()
        assert state.state_digest() == result.state_digest

    @pytest.mark.durability
    def test_stop_lsn_prefix_matches_point_in_time_recovery(
        self, small_corpus, tmp_path
    ):
        # The SIGKILL oracle's clean-prefix arm: a run stopped at LSN L
        # must land on the same digest PITR recovers at cut L from the
        # full run's log.
        from repro.durability import RecoveryManager
        from repro.service import ServiceConfig
        from repro.workload import run_continuous_mix

        def _config(directory, interval):
            return ServiceConfig(
                durability_dir=str(directory),
                snapshot_interval_ops=interval,
                fsync_policy="never",
                result_cache_size=0,
            )

        # Full run keeps its whole WAL (no post-bootstrap checkpoints) so
        # every early cut stays feasible for point-in-time recovery.
        full = RetrievalService(
            small_corpus.collection, config=_config(tmp_path / "full", 10_000)
        )
        try:
            run_continuous_mix(full, self._spec())
            cut = full.engine.durability.wal.last_lsn // 2
        finally:
            full.close()
        prefix = RetrievalService(
            small_corpus.collection, config=_config(tmp_path / "prefix", 6)
        )
        try:
            stopped = run_continuous_mix(prefix, self._spec(), stop_lsn=cut)
            assert stopped.stopped_early
            assert prefix.engine.durability.wal.last_lsn == cut
        finally:
            prefix.close()
        state = RecoveryManager(tmp_path / "full", stop_lsn=cut).recover()
        assert state.state_digest() == stopped.state_digest

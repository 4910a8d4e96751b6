"""The replication tier under fire: tailing, staleness, failover, chaos.

The replication contract: a replica's state is always a **true prefix**
of the primary's write history — bit-identical (same canonical digest,
same rankings) to the primary at the same applied LSN — and failover
promotion loses nothing beyond the acknowledged gap-free prefix.
Injected faults: primaries killed mid-ingest (abandoned, never closed),
torn WAL tails, compaction racing a tailing replica, stale replicas
refusing bounded-staleness reads, concurrent-write promotion races, and
the full seeded chaos schedule.

All tests carry the ``replication`` marker (``pytest -m replication``).
"""

from __future__ import annotations

import itertools
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import cli
from repro.durability import (
    RecoveryError,
    RecoveryManager,
    engine_state_digest,
    verify_directory,
)
from repro.durability.wal import SEGMENT_FILENAME, WalSegment, encode_op
from repro.feedback import EventKind, InteractionEvent
from repro.obs import MetricsRegistry
from repro.replication import (
    ChaosEvent,
    ChaosSchedule,
    NoReplicaAvailableError,
    PrimaryUnavailableError,
    ReplicaLaggingError,
    ReplicaServer,
    ReplicatedService,
    ReplicationError,
    run_replicated_loadtest,
)
from repro.replication.replica import CATCH_UP_TIMEOUT_SECONDS
from repro.retrieval import EngineConfig
from repro.service import (
    FeedbackBatch,
    RetrievalService,
    SearchRequest,
    ServiceConfig,
)
from repro.workload.ingest import (
    apply_ingest,
    service_feature_dim,
    synthetic_ingest_ops,
)

from legacy_layout import split_into_segments

#: A service's default ranking (depth 50) with the result cache off.
UNCACHED = EngineConfig(result_limit=50, result_cache_size=0)

pytestmark = pytest.mark.replication

SEED = 13

QUERIES = ("election protest flood", "summit economy", "wildfire strike")


def _durable_config(directory, interval=10_000, scorer="bm25"):
    return ServiceConfig(
        engine=EngineConfig(scorer=scorer, result_limit=50, result_cache_size=0),
        durability_dir=str(directory),
        snapshot_interval_ops=interval,
        fsync_policy="never",
    )


def _ops(service, count, seed=SEED):
    return synthetic_ingest_ops(
        count, seed=seed, feature_dim=service_feature_dim(service)
    )


def _prefix_digests(corpus, count):
    """Digest of an uninterrupted in-memory run after each op prefix."""
    service = RetrievalService(corpus.collection, config=ServiceConfig(engine=UNCACHED))
    digests = [engine_state_digest(service.engine)]
    for op in _ops(service, count):
        apply_ingest(service, [op])
        digests.append(engine_state_digest(service.engine))
    service.close()
    return digests


def _ranking(results):
    return [(item.shot_id, item.score) for item in results]


def _corpus_queries(corpus, count=3):
    """Queries drawn from the corpus's own transcripts (non-empty hits)."""
    queries = []
    for shot in corpus.collection.iter_shots():
        words = [w for w in shot.transcript.lower().split() if len(w) > 3]
        if len(words) >= 2:
            queries.append(" ".join(words[:3]))
        if len(queries) == count:
            break
    assert queries, "corpus has no usable transcripts"
    return queries


class TestReplicaTailing:
    @pytest.mark.parametrize("scorer", ("bm25", "tfidf", "lm"))
    @pytest.mark.parametrize("segments", (1, 4))
    def test_replica_reads_bit_identical(
        self, analysed_corpus, tmp_path, scorer, segments
    ):
        # The acceptance differential: at the same applied LSN, replica
        # rankings and state digest must be byte-identical to the
        # primary's, across scorers — also for a replica that opened the
        # directory in an older build's split layout before the primary's
        # attach converted it.
        config = _durable_config(tmp_path / "dur", scorer=scorer)
        replica = None
        if segments > 1:
            older = RetrievalService.from_corpus(analysed_corpus, config=config)
            apply_ingest(older, _ops(older, 4, seed=SEED + 1))
            older.close()
            split_into_segments(tmp_path / "dur", segments)
            replica = ReplicaServer(tmp_path / "dur", corpus=analysed_corpus, config=config)
        primary = RetrievalService.from_corpus(analysed_corpus, config=config)
        if replica is None:
            replica = ReplicaServer(
                tmp_path / "dur", corpus=analysed_corpus, config=config
            )
        try:
            apply_ingest(primary, _ops(primary, 10))
            replica.catch_up()
            assert replica.applied_lsn == primary.engine.durability.wal.last_lsn
            assert replica.state_digest() == engine_state_digest(primary.engine)
            rankings = []
            for query in _corpus_queries(analysed_corpus):
                rankings.append(_ranking(replica.search(query, limit=20)))
                assert rankings[-1] == _ranking(
                    primary.engine.search_text(query, limit=20)
                )
            assert any(rankings)  # the differential compared real hits
        finally:
            replica.close()
            primary.close()

    def test_incremental_polls_apply_only_new_records(
        self, analysed_corpus, tmp_path
    ):
        config = _durable_config(tmp_path / "dur")
        primary = RetrievalService.from_corpus(analysed_corpus, config=config)
        replica = ReplicaServer(
            tmp_path / "dur", corpus=analysed_corpus, config=config
        )
        try:
            total = 0
            for op in _ops(primary, 8):
                apply_ingest(primary, [op])
                total += replica.poll()
            assert total == 8
            assert replica.poll() == 0  # nothing new: polls are incremental
            stats = replica.statistics()
            assert stats["records_applied"] == 8
            assert stats["restarts"] == 0
        finally:
            replica.close()
            primary.close()

    def test_torn_tail_never_applied(self, analysed_corpus, tmp_path):
        # A primary killed mid-append leaves a torn final record; the
        # replica must stop at the durable prefix, never decode garbage.
        directory = tmp_path / "dur"
        references = _prefix_digests(analysed_corpus, 6)
        primary = RetrievalService.from_corpus(
            analysed_corpus, config=_durable_config(directory)
        )
        apply_ingest(primary, _ops(primary, 6))
        # Abandon the primary (simulated kill: no close, no checkpoint),
        # then tear the last record's frame.
        segment_path = directory / SEGMENT_FILENAME
        data = segment_path.read_bytes()
        segment_path.write_bytes(data[:-7])
        replica = ReplicaServer(directory, corpus=analysed_corpus)
        try:
            replica.catch_up()
            assert replica.applied_lsn == 5
            assert replica.state_digest() == references[5]
        finally:
            replica.close()

    def test_feedback_ships_nothing_and_leaves_index_state(
        self, analysed_corpus, tmp_path
    ):
        config = _durable_config(tmp_path / "dur")
        primary = RetrievalService.from_corpus(analysed_corpus, config=config)
        replica = ReplicaServer(
            tmp_path / "dur", corpus=analysed_corpus, config=config
        )
        try:
            apply_ingest(primary, _ops(primary, 2))
            replica.catch_up()
            digest_before = replica.state_digest()
            info = primary.open_session("alice")
            response = primary.search(
                SearchRequest(
                    user_id="alice",
                    query=QUERIES[0],
                    session_id=info.session_id,
                )
            )
            hit = response.top(1)[0]
            lsn = primary.engine.durability.wal.last_lsn
            primary.submit_feedback(
                FeedbackBatch(
                    user_id="alice",
                    events=[
                        InteractionEvent(
                            kind=EventKind.PLAY_CLICK,
                            timestamp=1.0,
                            shot_id=hit.shot_id,
                            rank=hit.rank,
                        )
                    ],
                    session_id=info.session_id,
                )
            )
            # Feedback adapts the primary's session only: nothing is logged.
            assert primary.engine.durability.wal.last_lsn == lsn
            assert replica.poll() == 0
            assert replica.state_digest() == digest_before
            assert replica.applied_lsn == lsn
        finally:
            replica.close()
            primary.close()


class TestBoundedStaleness:
    def test_stale_replica_refuses_with_lag(self, analysed_corpus, tmp_path):
        config = _durable_config(tmp_path / "dur")
        primary = RetrievalService.from_corpus(analysed_corpus, config=config)
        replica = ReplicaServer(
            tmp_path / "dur", corpus=analysed_corpus, config=config
        )
        try:
            apply_ingest(primary, _ops(primary, 5))
            primary_lsn = primary.engine.durability.wal.last_lsn
            with pytest.raises(ReplicaLaggingError) as excinfo:
                replica.search(
                    QUERIES[0], primary_lsn=primary_lsn, max_lag_lsn=2
                )
            assert excinfo.value.lag_lsn == 5
            replica.catch_up()
            # Caught up: the same bounded read now succeeds.
            assert replica.search(
                QUERIES[0], primary_lsn=primary_lsn, max_lag_lsn=0
            )
        finally:
            replica.close()
            primary.close()

    def test_time_bound_uses_injected_clock(self, analysed_corpus, tmp_path):
        config = _durable_config(tmp_path / "dur")
        primary = RetrievalService.from_corpus(analysed_corpus, config=config)
        now = [0.0]
        replica = ReplicaServer(
            tmp_path / "dur",
            corpus=analysed_corpus,
            config=config,
            clock=lambda: now[0],
        )
        try:
            replica.poll()
            now[0] = 10.0
            with pytest.raises(ReplicaLaggingError) as excinfo:
                replica.search(QUERIES[0], max_lag_seconds=5.0)
            assert excinfo.value.lag_seconds == pytest.approx(10.0)
            replica.poll()  # refreshes the staleness clock
            assert replica.search(QUERIES[0], max_lag_seconds=5.0) is not None
        finally:
            replica.close()
            primary.close()

    def test_catch_up_gives_up_after_the_timeout(self, analysed_corpus, tmp_path):
        # A target past anything on disk is never reached.  Each reading
        # of the injected clock jumps a quarter of the timeout, so a few
        # empty rounds pass CATCH_UP_TIMEOUT_SECONDS and the replica
        # refuses with the lag that remains.
        config = _durable_config(tmp_path / "dur")
        primary = RetrievalService.from_corpus(analysed_corpus, config=config)
        apply_ingest(primary, _ops(primary, 3))
        ticks = itertools.count(step=CATCH_UP_TIMEOUT_SECONDS / 4)
        replica = ReplicaServer(
            tmp_path / "dur",
            corpus=analysed_corpus,
            config=config,
            replica_id="r1",
            clock=lambda: next(ticks),
        )
        try:
            with pytest.raises(ReplicaLaggingError) as excinfo:
                replica.catch_up(target_lsn=10)
            assert excinfo.value.lag_lsn == 7
            assert str(excinfo.value) == (
                "replica 'r1' did not reach lsn 10 within 10.000s (applied lsn 3)"
            )
        finally:
            replica.close()
            primary.close()


class TestCompactionGuard:
    def test_truncate_clamped_to_slowest_acknowledged_lsn(
        self, analysed_corpus, tmp_path
    ):
        primary = RetrievalService.from_corpus(
            analysed_corpus, config=_durable_config(tmp_path / "dur")
        )
        try:
            apply_ingest(primary, _ops(primary, 10))
            wal = primary.engine.durability.wal
            wal.register_replica("r1", acknowledged_lsn=3)
            wal.truncate_through(8)
            records, _ = wal.scan_all()
            lsns = [int(record["lsn"]) for record in records]
            # Records 4..10 survive: the guard held back everything the
            # replica has not acknowledged, snapshot coverage or not.
            assert lsns == list(range(4, 11))
            wal.acknowledge_replica("r1", 8)
            wal.truncate_through(8)
            records, _ = wal.scan_all()
            assert [int(r["lsn"]) for r in records] == [9, 10]
            wal.unregister_replica("r1")
            wal.truncate_through(10)
            assert wal.scan_all()[0] == []
        finally:
            primary.close()

    def test_registered_replica_survives_live_compaction(
        self, analysed_corpus, tmp_path
    ):
        # Checkpoint-while-tailing, guarded arm: a registered replica
        # polling across concurrent compactions finishes every segment it
        # reads — no snapshot restarts, digest equality at the end.
        config = _durable_config(tmp_path / "dur", interval=6)
        primary = RetrievalService.from_corpus(analysed_corpus, config=config)
        service = ReplicatedService(primary)
        try:
            replica = service.add_replica("r1")
            for op in _ops(primary, 30):
                apply_ingest(service, [op])
                service.poll_replicas()
            assert replica.statistics()["restarts"] == 0
            assert replica.state_digest() == engine_state_digest(
                primary.engine
            )
        finally:
            service.close()

    def test_unregistered_replica_restarts_from_snapshot(
        self, analysed_corpus, tmp_path
    ):
        # Checkpoint-while-tailing, unguarded arm: compaction truncates
        # the log in front of a replica that is not pinning it; the
        # replica must restart cleanly from the newest snapshot — never
        # stitch a torn view across the truncation.
        config = _durable_config(tmp_path / "dur", interval=5)
        primary = RetrievalService.from_corpus(analysed_corpus, config=config)
        replica = ReplicaServer(
            tmp_path / "dur", corpus=analysed_corpus, config=config
        )
        try:
            apply_ingest(primary, _ops(primary, 23))  # several compactions
            replica.catch_up()
            assert replica.statistics()["restarts"] >= 1
            assert replica.applied_lsn == primary.engine.durability.wal.last_lsn
            assert replica.state_digest() == engine_state_digest(
                primary.engine
            )
        finally:
            replica.close()
            primary.close()


class TestPromotion:
    def test_promotion_after_kill_preserves_digest(
        self, analysed_corpus, tmp_path
    ):
        config = _durable_config(tmp_path / "dur")
        primary = RetrievalService.from_corpus(analysed_corpus, config=config)
        service = ReplicatedService(primary)
        try:
            service.add_replica("r1")
            service.add_replica("r2")
            apply_ingest(service, _ops(primary, 12))
            service.poll_replicas()
            service.kill_primary()
            with pytest.raises(PrimaryUnavailableError):
                service.index_documents({"blocked": "no primary"})
            result = service.promote()
            assert result.digests_match
            assert result.promoted_lsn == result.replica_lsn == 12
            # The promoted primary is writable and the surviving replica
            # keeps following it.
            apply_ingest(service, _ops(service.primary, 14)[12:])
            service.poll_replicas()
            survivor = service.replica(service.replica_ids[0])
            assert survivor.state_digest() == engine_state_digest(
                service.primary.engine
            )
        finally:
            service.close()

    def test_promotion_repairs_torn_tail(self, analysed_corpus, tmp_path):
        directory = tmp_path / "dur"
        references = _prefix_digests(analysed_corpus, 8)
        primary = RetrievalService.from_corpus(
            analysed_corpus, config=_durable_config(directory)
        )
        apply_ingest(primary, _ops(primary, 8))
        # Abandoned mid-append: torn final record on disk.
        segment_path = directory / SEGMENT_FILENAME
        segment_path.write_bytes(segment_path.read_bytes()[:-5])
        replica = ReplicaServer(directory, corpus=analysed_corpus)
        result = replica.promote()
        try:
            assert result.replica_lsn == 7
            assert result.digests_match
            assert result.promoted_digest == references[7]
            # The repaired log accepts writes again, LSNs continuing
            # densely from the durable prefix.
            result.service.index_documents({"post-promotion": "doc works"})
            assert result.service.engine.durability.wal.last_lsn == 8
        finally:
            result.service.close()

    def test_promotion_race_with_concurrent_writes(
        self, analysed_corpus, tmp_path
    ):
        # A writer hammers the primary while another thread kills it and
        # promotes: every acknowledged write must survive into the
        # promoted state (clean-run oracle over the acked prefix).
        config = _durable_config(tmp_path / "dur")
        primary = RetrievalService.from_corpus(analysed_corpus, config=config)
        service = ReplicatedService(primary)
        ops = _ops(primary, 40)
        acked = []
        started = threading.Event()

        def writer():
            for index, op in enumerate(ops):
                try:
                    apply_ingest(service, [op])
                except PrimaryUnavailableError:
                    break
                acked.append(index)
                if index == 10:
                    started.set()

        thread = threading.Thread(target=writer)
        try:
            service.add_replica("r1")
            thread.start()
            started.wait(timeout=30)
            service.kill_primary()
            thread.join(timeout=30)
            assert not thread.is_alive()
            result = service.promote()
            assert result.promoted_lsn >= result.replica_lsn
            # Oracle: a clean in-memory run of exactly the acked ops.
            clean = RetrievalService.from_corpus(
                analysed_corpus,
                config=ServiceConfig(engine=UNCACHED),
            )
            apply_ingest(clean, [ops[i] for i in sorted(acked)])
            assert engine_state_digest(service.primary.engine) == (
                engine_state_digest(clean.engine)
            )
            clean.close()
        finally:
            thread.join(timeout=5)
            service.close()

    def test_promote_refuses_while_primary_alive(
        self, analysed_corpus, tmp_path
    ):
        primary = RetrievalService.from_corpus(
            analysed_corpus, config=_durable_config(tmp_path / "dur")
        )
        service = ReplicatedService(primary)
        try:
            service.add_replica("r1")
            with pytest.raises(ReplicationError):
                service.promote()
        finally:
            service.close()

    def test_promoted_replica_is_closed(self, analysed_corpus, tmp_path):
        config = _durable_config(tmp_path / "dur")
        primary = RetrievalService.from_corpus(analysed_corpus, config=config)
        apply_ingest(primary, _ops(primary, 3))
        primary.close()
        replica = ReplicaServer(tmp_path / "dur", corpus=analysed_corpus)
        result = replica.promote()
        try:
            assert replica.closed
            with pytest.raises(ReplicationError):
                replica.search(QUERIES[0])
        finally:
            result.service.close()


class TestRouterReads:
    def test_reads_fan_out_round_robin(self, analysed_corpus, tmp_path):
        config = _durable_config(tmp_path / "dur")
        primary = RetrievalService.from_corpus(analysed_corpus, config=config)
        metrics = MetricsRegistry()
        service = ReplicatedService(primary, metrics=metrics)
        try:
            r1 = service.add_replica("r1")
            r2 = service.add_replica("r2")
            apply_ingest(service, _ops(primary, 4))
            service.poll_replicas()
            query = _corpus_queries(analysed_corpus, count=1)[0]
            reference = service.search_ranked(query, limit=5)
            assert len(reference) > 0
            for _ in range(3):
                # Every rotation position returns the identical ranking.
                assert _ranking(
                    service.search_ranked(query, limit=5)
                ) == _ranking(reference)
            assert metrics.counter("replica_reads") == 4
            assert metrics.counter("primary_reads") == 0
            assert not r1.closed and not r2.closed
        finally:
            service.close()

    def test_stale_replicas_fall_through_to_primary(
        self, analysed_corpus, tmp_path
    ):
        config = _durable_config(tmp_path / "dur")
        primary = RetrievalService.from_corpus(analysed_corpus, config=config)
        metrics = MetricsRegistry()
        service = ReplicatedService(primary, max_lag_lsn=0, metrics=metrics)
        try:
            service.add_replica("r1")
            service.add_replica("r2")
            # Ingest without polling: every replica violates the zero-lag
            # bound, so the read retries through the set and falls through
            # to the primary.
            apply_ingest(service, _ops(primary, 4))
            query = _corpus_queries(analysed_corpus, count=1)[0]
            result = service.search_ranked(query, limit=5)
            assert _ranking(result) == _ranking(
                primary.engine.search_text(query, limit=5)
            )
            assert len(result) > 0
            assert metrics.counter("replica_read_stale") >= 2
            assert metrics.counter("replica_read_retries") >= 1
            assert metrics.counter("primary_reads") == 1
        finally:
            service.close()

    def test_no_replica_and_no_primary_raises(self, analysed_corpus, tmp_path):
        primary = RetrievalService.from_corpus(
            analysed_corpus, config=_durable_config(tmp_path / "dur")
        )
        service = ReplicatedService(primary)
        try:
            service.kill_primary()
            with pytest.raises(NoReplicaAvailableError):
                service.search_ranked(QUERIES[0])
        finally:
            service.close()

    def test_lag_gauges_published_per_replica(self, analysed_corpus, tmp_path):
        primary = RetrievalService.from_corpus(
            analysed_corpus, config=_durable_config(tmp_path / "dur")
        )
        metrics = MetricsRegistry()
        service = ReplicatedService(primary, metrics=metrics)
        try:
            service.add_replica("r1")
            apply_ingest(service, _ops(primary, 4))
            service.poll_replicas()
            gauges = metrics.snapshot()["gauges"]
            assert gauges["replica_lag.r1"] == 0.0
            assert gauges["replica_applied_lsn.r1"] == 4.0
        finally:
            service.close()


class TestPointInTimeRecovery:
    def test_digest_at_every_feasible_cut(self, analysed_corpus, tmp_path):
        directory = tmp_path / "dur"
        count = 8
        references = _prefix_digests(analysed_corpus, count)
        primary = RetrievalService.from_corpus(
            analysed_corpus, config=_durable_config(directory)
        )
        apply_ingest(primary, _ops(primary, count))
        primary.close()
        for cut in range(count + 1):
            state = RecoveryManager(directory, stop_lsn=cut).recover()
            assert state.applied_lsn == cut
            assert state.wal_records_beyond_stop == count - cut
            assert state.state_digest() == references[cut]

    def test_cut_inside_snapshot_only_range_errors(
        self, analysed_corpus, tmp_path
    ):
        directory = tmp_path / "dur"
        primary = RetrievalService.from_corpus(
            analysed_corpus, config=_durable_config(directory, interval=4)
        )
        apply_ingest(primary, _ops(primary, 12))
        primary.close()
        watermark = RecoveryManager(directory).recover().snapshot_lsn
        assert watermark > 1
        with pytest.raises(RecoveryError, match="compacted away"):
            RecoveryManager(directory, stop_lsn=1).recover()
        # The watermark itself is the earliest feasible cut.
        state = RecoveryManager(directory, stop_lsn=watermark).recover()
        assert state.applied_lsn == watermark

    def test_cut_beyond_durable_prefix_recovers_prefix(
        self, analysed_corpus, tmp_path
    ):
        directory = tmp_path / "dur"
        primary = RetrievalService.from_corpus(
            analysed_corpus, config=_durable_config(directory)
        )
        apply_ingest(primary, _ops(primary, 5))
        primary.close()
        state = RecoveryManager(directory, stop_lsn=99).recover()
        assert state.applied_lsn == 5
        assert state.wal_records_beyond_stop == 0

    def test_cut_and_hole_are_accounted_separately(self, analysed_corpus, tmp_path):
        directory = tmp_path / "dur"
        primary = RetrievalService.from_corpus(
            analysed_corpus, config=_durable_config(directory)
        )
        apply_ingest(primary, _ops(primary, 6))
        primary.close()
        segment = WalSegment(directory / SEGMENT_FILENAME)
        entries, _ = segment.scan_entries()
        segment.rewrite([e.payload for e in entries if e.lsn != 4])  # hole at 4

        def accounting(cut):
            state = RecoveryManager(directory, stop_lsn=cut).recover()
            return (
                state.applied_lsn,
                state.wal_records_beyond_stop,
                state.wal_dropped_records,
            )

        assert accounting(None) == (3, 0, 2)
        # Whichever ends the replay first names the excluded records: a cut
        # at or before the last record in front of the hole ...
        assert accounting(2) == (2, 3, 0)
        assert accounting(3) == (3, 2, 0)
        # ... or the hole, which also swallows what lies past a later cut.
        assert accounting(5) == (3, 0, 2)

    def test_recover_cli_to_lsn(self, analysed_corpus, tmp_path, capsys):
        import io

        directory = tmp_path / "dur"
        primary = RetrievalService.from_corpus(
            analysed_corpus, config=_durable_config(directory)
        )
        apply_ingest(primary, _ops(primary, 6))
        primary.close()
        out = io.StringIO()
        assert cli.main(["recover", str(directory), "--to-lsn", "4"], out=out) == 0
        text = out.getvalue()
        assert "ingested-ops: 4" in text
        assert "point-in-time cut: stopped at lsn 4" in text


class TestVerifyCommand:
    def _ingested_directory(self, corpus, directory, count=8, interval=10_000):
        primary = RetrievalService.from_corpus(
            corpus, config=_durable_config(directory, interval=interval)
        )
        apply_ingest(primary, _ops(primary, count))
        primary.close()

    def test_clean_directory_passes(self, analysed_corpus, tmp_path):
        directory = tmp_path / "dur"
        self._ingested_directory(analysed_corpus, directory)
        report = verify_directory(directory)
        assert report.ok
        assert report.max_gap_free_lsn == 8
        assert not report.problems

    def test_detects_torn_tail_and_exits_nonzero(
        self, analysed_corpus, tmp_path
    ):
        import io

        directory = tmp_path / "dur"
        self._ingested_directory(analysed_corpus, directory)
        segment_path = directory / SEGMENT_FILENAME
        segment_path.write_bytes(segment_path.read_bytes()[:-3])
        report = verify_directory(directory)
        assert not report.ok
        assert any("torn" in problem.lower() for problem in report.problems)
        out = io.StringIO()
        assert cli.main(["verify", str(directory)], out=out) == 1
        assert "DAMAGED" in out.getvalue()

    def test_detects_wal_hole(self, analysed_corpus, tmp_path):
        directory = tmp_path / "dur"
        self._ingested_directory(analysed_corpus, directory)
        segment = WalSegment(directory / SEGMENT_FILENAME)
        records, _ = segment.scan()
        assert len(records) >= 3
        payloads = [encode_op(record) for record in records]
        segment.rewrite(payloads[:1] + payloads[2:])  # drop a middle record
        report = verify_directory(directory)
        assert not report.ok
        assert report.gap is not None
        assert any("hole" in problem for problem in report.problems)
        # The gap-free prefix ends just before the hole.
        assert report.max_gap_free_lsn == int(records[0]["lsn"])

    def test_verify_cli_clean_exit(self, analysed_corpus, tmp_path):
        import io

        directory = tmp_path / "dur"
        self._ingested_directory(analysed_corpus, directory)
        out = io.StringIO()
        assert cli.main(["verify", str(directory)], out=out) == 0
        assert "integrity: ok" in out.getvalue()

    def test_reports_the_chain_recovery_folds(self, analysed_corpus, tmp_path):
        import io

        # Interval 3 over 10 adds with a delete and a compaction after the
        # fourth: cp1 (3 ops), cp2 the rebase the compaction asks for (in
        # place of an ops checkpoint), cp3 (3 ops), two records left in
        # the WAL — recovery folds cp2..cp3.
        directory = tmp_path / "dur"
        primary = RetrievalService.from_corpus(
            analysed_corpus, config=_durable_config(directory, interval=3)
        )
        ops = _ops(primary, 10)
        apply_ingest(primary, ops[:4])
        primary.delete_document(next(op[1] for op in ops if op[0] == "doc"))
        primary.compact()
        apply_ingest(primary, ops[4:])
        statistics = primary.engine.durability.statistics()
        primary.close()
        assert statistics["checkpoints"] == 4  # bootstrap + cp1..cp3
        assert statistics["rebases"] == 1
        assert statistics["chain_ops_since_rebase"] == 3
        report = verify_directory(directory)
        assert report.ok
        assert (
            report.chain_base_id,
            report.chain_manifests,
            report.chain_op_records,
        ) == (2, 2, 3)
        out = io.StringIO()
        assert cli.main(["verify", str(directory)], out=out) == 0
        assert "chain: 2 manifests since rebase cp2, 3 op records" in out.getvalue()


class TestOneDurablePrefix:
    """Recovery, ``repro verify`` and a tailing replica split the log with
    one function, so on a damaged log all three stop at the same LSN: a
    promoted replica holds the state a restart of the primary recovers."""

    @staticmethod
    def _damaged(corpus, directory, damage):
        """Six ingests (LSNs 1..6), then one kind of damage to the log."""
        primary = RetrievalService.from_corpus(corpus, config=_durable_config(directory))
        apply_ingest(primary, _ops(primary, 6))
        primary.close()
        path = directory / SEGMENT_FILENAME
        payloads = [encode_op(record) for record in WalSegment(path).scan()[0]]
        assert len(payloads) == 6
        if damage == "hole":
            WalSegment(path).rewrite(payloads[:2] + payloads[3:])
        elif damage == "torn-tail":
            path.write_bytes(path.read_bytes()[:-3])
        else:  # a second copy of LSN 3, in an older build's second segment
            WalSegment(directory / "wal-shard-0001.log").rewrite([payloads[2]])

    @pytest.mark.parametrize(
        "damage, prefix", [("hole", 2), ("torn-tail", 5), ("duplicate", 2)]
    )
    def test_recovery_verify_and_a_replica_agree(
        self, analysed_corpus, tmp_path, damage, prefix
    ):
        directory = tmp_path / "dur"
        self._damaged(analysed_corpus, directory, damage)
        recovered = RecoveryManager(directory).recover().applied_lsn
        report = verify_directory(directory)
        replica = ReplicaServer(directory, corpus=analysed_corpus)
        try:
            bootstrapped = replica.applied_lsn
            replica.catch_up()
            polled = replica.applied_lsn
        finally:
            replica.close()
        assert (recovered, report.max_gap_free_lsn, bootstrapped, polled) == (
            prefix, prefix, prefix, prefix,
        )
        assert not report.ok

    def test_a_duplicate_is_reported_where_the_prefix_ends(
        self, analysed_corpus, tmp_path
    ):
        directory = tmp_path / "dur"
        self._damaged(analysed_corpus, directory, "duplicate")
        report = verify_directory(directory)
        assert report.gap == (3, 3)
        assert report.problems == [
            "hole in the WAL LSN stream: expected lsn 3, found 3 twice — records "
            "past the hole are beyond the durable prefix"
        ]
        assert (report.records_in_prefix, report.records_beyond_prefix) == (2, 5)
        assert (
            "gap: expected lsn 3, found 3 twice — the durable prefix ends before "
            "the hole"
        ) in report.lines()


class TestChaosHarness:
    def test_schedule_is_deterministic(self):
        first = ChaosSchedule.generate(23, 80, ["replica-1", "replica-2"])
        second = ChaosSchedule.generate(23, 80, ["replica-1", "replica-2"])
        assert first == second
        assert any(e.action == "kill_primary" for e in first.events)
        assert any(e.action == "promote" for e in first.events)
        assert all(0 <= e.at_op < 80 for e in first.events)

    @settings(max_examples=200, deadline=None)
    # The one-op plan used to kill a replica at op 1, which never fires.
    @example(seed=7, total_ops=1, replicas=1, kill_primary=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        total_ops=st.integers(1, 64),
        replicas=st.integers(0, 3),
        kill_primary=st.booleans(),
    )
    def test_schedule_fires_every_event_in_order(
        self, seed, total_ops, replicas, kill_primary
    ):
        replica_ids = [f"replica-{index + 1}" for index in range(replicas)]
        events = ChaosSchedule.generate(
            seed, total_ops, replica_ids, kill_primary=kill_primary
        ).events
        assert all(0 <= event.at_op < total_ops for event in events)
        assert [e.at_op for e in events] == sorted(e.at_op for e in events)
        plan = [(event.action, event.target) for event in events]
        pairs = [("kill_replica", "restart_replica", r) for r in replica_ids]
        if kill_primary:
            pairs.append(("kill_primary", "promote", None))
        assert len(plan) == 2 * len(pairs)
        for kill, revive, target in pairs:
            assert plan.index((kill, target)) < plan.index((revive, target))

    def test_event_validation(self):
        with pytest.raises(ValueError):
            ChaosEvent(at_op=-1, action="promote")
        with pytest.raises(ValueError):
            ChaosEvent(at_op=0, action="meteor")

    @pytest.fixture(scope="class")
    def chaos_report(self, analysed_corpus, tmp_path_factory):
        config = ServiceConfig(
            engine=UNCACHED,
            fsync_policy="never",
            snapshot_interval_ops=16,
        )
        schedule = ChaosSchedule.generate(23, 50, ["replica-1", "replica-2"])
        return run_replicated_loadtest(
            analysed_corpus,
            tmp_path_factory.mktemp("chaos") / "dur",
            config=config,
            num_replicas=2,
            ingest_ops=50,
            seed=5,
            chaos=schedule,
        )

    def test_chaos_run_oracle_holds(self, chaos_report):
        report = chaos_report
        assert report["replicas_match"]
        assert report["oracle_match"]
        assert report["acked_ops"] + report["failed_ops"] == 50
        assert len(report["promotions"]) == 1
        assert report["promotions"][0]["digests_match"]
        outcomes = {
            (event["action"], event["outcome"])
            for event in report["chaos_events"]
        }
        assert ("kill_primary", "killed") in outcomes
        assert ("promote", "promoted") in outcomes

    def test_chaos_run_report_is_pinned(self, chaos_report):
        # The whole observable outcome of the seeded run above: op and read
        # counts, lag summaries, fired events, the promotion, and the
        # router's counters and gauges.  A routing or lag-reporting change
        # that moves any of them is a behaviour change.
        report = chaos_report
        assert {
            key: report[key]
            for key in ("acked_ops", "failed_ops", "reads_ok", "reads_failed", "final_lsn")
        } == {
            "acked_ops": 46,
            "failed_ops": 4,
            "reads_ok": 50,
            "reads_failed": 0,
            "final_lsn": 46,
        }
        settled = {"count": 0.0, "min": 0.0, "mean": 0.0, "p95": 0.0, "max": 0.0}
        assert report["lag"] == {
            "replica-1": dict(settled, count=30.0),
            "replica-2": dict(settled, count=38.0),
        }
        assert report["chaos_events"] == [
            {"at_op": 3, "action": "kill_replica", "target": "replica-1", "outcome": "killed"},
            {"at_op": 11, "action": "restart_replica", "target": "replica-1", "outcome": "restarted"},
            {"at_op": 13, "action": "kill_replica", "target": "replica-2", "outcome": "killed"},
            {"at_op": 25, "action": "restart_replica", "target": "replica-2", "outcome": "restarted"},
            {"at_op": 34, "action": "kill_primary", "target": None, "outcome": "killed"},
            {"at_op": 38, "action": "promote", "target": None, "outcome": "promoted"},
        ]
        assert report["promotions"] == [
            {
                "replica_id": "replica-1",
                "replica_lsn": 34,
                "promoted_lsn": 34,
                "digests_match": True,
                "records_dropped": 0,
            }
        ]
        metrics = report["metrics"]
        assert metrics["counters"] == {"promotions": 1, "replica_reads": 50}
        # replica-1 was promoted at lsn 34: its gauges stop there.
        assert metrics["gauges"] == {
            "promoted_lsn": 34.0,
            "replica_applied_lsn.replica-1": 34.0,
            "replica_applied_lsn.replica-2": 46.0,
            "replica_lag.replica-1": 0.0,
            "replica_lag.replica-2": 0.0,
        }

    def test_clean_run_matches_full_ingest(self, analysed_corpus, tmp_path):
        # Without chaos every op is acked, so the oracle covers the full
        # stream and every replica converges on the primary digest.
        report = run_replicated_loadtest(
            analysed_corpus,
            tmp_path / "dur",
            config=ServiceConfig(engine=UNCACHED, fsync_policy="never"),
            num_replicas=2,
            ingest_ops=20,
            seed=5,
        )
        assert report["failed_ops"] == 0
        assert report["replicas_match"] and report["oracle_match"]
        assert report["final_lsn"] == 20


class TestTenantMetrics:
    def test_registry_breaks_latency_down_per_tenant(self):
        registry = MetricsRegistry()
        registry.observe_latency("search", 0.010, tenant="acme")
        registry.observe_latency("search", 0.020, tenant="acme")
        registry.observe_latency("search", 0.030, tenant="globex")
        registry.observe_latency("feedback", 0.005)  # no tenant attribution
        snapshot = registry.snapshot()
        assert snapshot["endpoints"]["search"]["count"] == 3.0
        tenants = snapshot["tenants"]
        assert tenants["acme"]["search"]["count"] == 2.0
        assert tenants["acme"]["search"]["max"] == pytest.approx(0.020)
        assert tenants["globex"]["search"]["count"] == 1.0
        assert "feedback" not in tenants.get("acme", {})


class TestMutationReplication:
    def test_deletes_and_updates_ship_to_replica(self, analysed_corpus, tmp_path):
        # The mutable-corpus record kinds travel the same WAL the ingest
        # records do: after del/upd/delshot the replica must be
        # bit-identical to the primary at the same LSN.
        config = _durable_config(tmp_path / "dur")
        primary = RetrievalService.from_corpus(analysed_corpus, config=config)
        replica = ReplicaServer(
            tmp_path / "dur", corpus=analysed_corpus, config=config
        )
        try:
            ops = _ops(primary, 10)
            apply_ingest(primary, ops)
            doc_ids = [op[1] for op in ops if op[0] == "doc"]
            shot_ids = [op[1] for op in ops if op[0] == "shot"]
            primary.delete_document(doc_ids[0])
            primary.update_document(doc_ids[1], "ceasefire summit rewrite")
            primary.delete_shot(shot_ids[0])
            replica.catch_up()
            assert replica.applied_lsn == primary.engine.durability.wal.last_lsn
            assert replica.state_digest() == engine_state_digest(primary.engine)
            assert not replica.engine.inverted_index.has_document(doc_ids[0])
            assert not replica.engine.visual_index.has_shot(shot_ids[0])
            assert _ranking(replica.search("ceasefire summit rewrite")) == _ranking(
                primary.engine.search_text("ceasefire summit rewrite")
            )
        finally:
            replica.close()
            primary.close()

    def test_replayed_mutations_are_idempotent_on_replica(
        self, analysed_corpus, tmp_path
    ):
        # A replica restarting from an older snapshot re-applies records it
        # already consumed; deletes of already-absent ids must not wedge it.
        config = _durable_config(tmp_path / "dur", interval=4)
        primary = RetrievalService.from_corpus(analysed_corpus, config=config)
        try:
            ops = _ops(primary, 12)
            apply_ingest(primary, ops)
            doc_ids = [op[1] for op in ops if op[0] == "doc"]
            primary.delete_document(doc_ids[2])
            primary.update_document(doc_ids[3], "verdict launch rewrite")
            replica = ReplicaServer(
                tmp_path / "dur", corpus=analysed_corpus, config=config
            )
            try:
                replica.catch_up()
                assert replica.state_digest() == engine_state_digest(
                    primary.engine
                )
            finally:
                replica.close()
        finally:
            primary.close()

    def test_promotion_after_mutations_preserves_digest(
        self, analysed_corpus, tmp_path
    ):
        primary = RetrievalService.from_corpus(
            analysed_corpus, config=_durable_config(tmp_path / "dur")
        )
        service = ReplicatedService(primary)
        try:
            ops = _ops(primary, 10)
            apply_ingest(service, ops)
            doc_ids = [op[1] for op in ops if op[0] == "doc"]
            service.add_replica("r1")
            service.delete_document(doc_ids[0])
            service.update_document(doc_ids[1], "summit blackout rewrite")
            service.poll_replicas()
            expected = engine_state_digest(service.primary.engine)
            service.kill_primary()
            result = service.promote("r1")
            assert result.digests_match
            assert engine_state_digest(service.primary.engine) == expected
        finally:
            service.close()


class TestCompactionPinRelease:
    def test_remove_replica_unclamps_wal_truncation(
        self, analysed_corpus, tmp_path
    ):
        # Satellite regression: a removed replica's last acknowledged LSN
        # must stop clamping truncate_through — otherwise the WAL retains
        # every segment past that LSN forever.
        primary = RetrievalService.from_corpus(
            analysed_corpus, config=_durable_config(tmp_path / "dur")
        )
        service = ReplicatedService(primary)
        try:
            service.add_replica("r1")  # registered at LSN 0, never polls
            apply_ingest(service, _ops(primary, 8))
            wal = primary.engine.durability.wal
            wal.truncate_through(wal.last_lsn)
            # The lagging replica pins everything it has not acknowledged.
            assert len(wal.scan_all()[0]) == 8
            service.remove_replica("r1")
            assert "r1" not in wal.replica_acknowledgements()
            wal.truncate_through(wal.last_lsn)
            assert wal.scan_all()[0] == []
        finally:
            service.close()

    def test_remove_replica_during_failover_window_releases_pin(
        self, analysed_corpus, tmp_path
    ):
        # The pin lives in the durability manager of the primary the
        # replica was registered with.  Removing the replica while no
        # primary is alive must still release that pin — the manager's
        # directory outlives the crashed process and a promoted successor
        # (or recovery) keeps honouring its registrations.
        primary = RetrievalService.from_corpus(
            analysed_corpus, config=_durable_config(tmp_path / "dur")
        )
        service = ReplicatedService(primary)
        try:
            wal = primary.engine.durability.wal
            service.add_replica("r1")
            service.add_replica("r2")
            apply_ingest(service, _ops(primary, 6))
            service.poll_replicas()
            service.kill_primary()
            assert not service.primary_alive
            service.remove_replica("r2")
            assert "r2" not in wal.replica_acknowledgements()
            assert "r1" in wal.replica_acknowledgements()
        finally:
            service.close()

    def test_poll_after_remove_does_not_resurrect_ack(
        self, analysed_corpus, tmp_path
    ):
        # poll_replicas must re-check membership before acknowledging:
        # acking an unregistered replica raises WalError out of the whole
        # polling round.
        primary = RetrievalService.from_corpus(
            analysed_corpus, config=_durable_config(tmp_path / "dur")
        )
        service = ReplicatedService(primary)
        try:
            service.add_replica("r1")
            service.add_replica("r2")
            apply_ingest(service, _ops(primary, 4))
            service.remove_replica("r1")
            applied = service.poll_replicas()
            assert "r1" not in applied
            assert applied["r2"] == 4
            wal = primary.engine.durability.wal
            assert "r1" not in wal.replica_acknowledgements()
        finally:
            service.close()

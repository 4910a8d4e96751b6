"""Async serving edge tests: deadlines, admission control, quotas, metrics.

Four layers, bottom up:

1. The cancellation substrate — :class:`CancellationToken` semantics and
   thread-local scoping.
2. The serving primitives in isolation — token buckets and fair-share
   quotas under a fake clock, log-bucket latency histograms, the metrics
   registry.
3. The :class:`ServingFrontend` end to end — completed requests are
   bit-identical to the direct facade path, deadlines cancel stragglers
   in both the queued and running stages, rejections are typed and
   counted, timed-out requests never poison the engine caches, and the
   eviction-vs-cancellation race leaves the session pool consistent.
   In-memory requests are evaluated on the loop's thread and durable or
   possibly blocking ones on the worker pool; four mutants of the real
   source show those checks have teeth.  Bad deadlines are refused at
   every entry point before admission.
4. The workload driver's async client mode — canonical digests stay
   byte-identical to threaded runs when nothing fails, and failures stay
   out of the canonical log.

Everything is seeded and event-driven (threading.Event / fake clocks);
the only real-time waits are sub-second deadline expiries.
"""

from __future__ import annotations

import asyncio
import inspect
import math
import random
import sys
import textwrap
import threading
import time

import pytest

from repro.errors import InvalidArgumentError
from repro.feedback import EventKind, InteractionEvent
from repro.index import Bm25Scorer
from repro.obs import metrics as obs_metrics
from repro.retrieval import EngineConfig
from repro.retrieval.engine import VideoRetrievalEngine
from repro.service import (
    FeedbackBatch,
    RetrievalService,
    SearchRequest,
    ServiceConfig,
    SessionNotFoundError,
    register_scorer,
)
from repro.service.registry import SCORER_REGISTRY
from repro.service.sessions import SessionExpiredError
from repro.serving import (
    AdmissionRejectedError,
    DeadlineExceededError,
    DrainingError,
    LatencyTrack,
    MetricsRegistry,
    QueueFullError,
    QuotaExceededError,
    ServingConfig,
    ServingFrontend,
    TenantQuota,
    TenantQuotaManager,
    TokenBucket,
)
from repro.utils.concurrency import (
    CancellationToken,
    OperationCancelledError,
    cancellation_scope,
    checkpoint_if_cancelled,
    current_cancellation_token,
)
from repro.workload import ServiceLoadDriver, WorkloadSpec

pytestmark = pytest.mark.serving


def _topic_query(corpus, index: int = 0):
    topic = corpus.topics.topics()[index]
    return topic, " ".join(topic.query_terms[:2])


class _FakeClock:
    """A manually advanced monotonic clock for deterministic timing tests."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class _BlockingScorer:
    """A scorer that parks on an event until the test releases it.

    It has no ``may_block``, so the frontend evaluates its requests on the
    worker pool, and it checkpoints the request's token while it waits, as
    a scorer waiting on I/O should: a fired deadline unwinds it.
    """

    def __init__(self, inner, gate: threading.Event, started: threading.Event):
        self.inner = inner
        self.gate = gate
        self.started = started

    def score(self, query_terms):
        self.started.set()
        give_up = time.monotonic() + 30.0
        while not self.gate.wait(0.01) and time.monotonic() < give_up:
            checkpoint_if_cancelled()
        return self.inner.score(query_terms)


def _swap_scorer(service, wrap):
    """Replace the engine's text scorer by ``wrap(original)``; returns the
    original (put it back with ``_swap_scorer(service, lambda _: original)``)."""
    engine = service.engine
    original = engine._text_scorer
    engine._text_scorer = wrap(original)
    return original


# ---------------------------------------------------------------------------
# 1. Cancellation substrate
# ---------------------------------------------------------------------------


class TestCancellationToken:
    def test_explicit_cancel_first_reason_wins(self):
        token = CancellationToken()
        assert not token.cancelled
        token.cancel("first")
        token.cancel("second")
        assert token.cancelled
        assert token.reason == "first"
        with pytest.raises(OperationCancelledError, match="first"):
            token.checkpoint()

    def test_deadline_self_fires_on_clock(self):
        clock = _FakeClock()
        token = CancellationToken(deadline=5.0, clock=clock)
        assert not token.cancelled
        assert token.remaining() == 5.0
        clock.advance(4.0)
        token.checkpoint()  # still inside the deadline
        clock.advance(2.0)
        assert token.remaining() == 0.0
        assert token.cancelled
        assert token.reason == "deadline exceeded"

    def test_cancel_on_one_thread_is_seen_by_checkpoint_on_another(self):
        token = CancellationToken()
        started, outcome = threading.Event(), []

        def worker():
            started.set()
            give_up = time.monotonic() + 30.0
            try:
                while time.monotonic() < give_up:
                    token.checkpoint()
                    time.sleep(0.001)
            except OperationCancelledError as error:
                outcome.append(error.reason)

        thread = threading.Thread(target=worker)
        thread.start()
        assert started.wait(30.0)
        token.cancel("from the loop")
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert outcome == ["from the loop"]

    def test_checkpoint_passes_without_cancellation(self):
        CancellationToken().checkpoint()
        checkpoint_if_cancelled()  # no ambient token: must be a no-op

    def test_scope_installs_and_restores_token(self):
        outer, inner = CancellationToken(), CancellationToken()
        assert current_cancellation_token() is None
        with cancellation_scope(outer):
            assert current_cancellation_token() is outer
            with cancellation_scope(inner):
                assert current_cancellation_token() is inner
            assert current_cancellation_token() is outer
        assert current_cancellation_token() is None

    def test_checkpoint_if_cancelled_uses_ambient_token(self):
        token = CancellationToken()
        token.cancel("ambient")
        with cancellation_scope(token):
            with pytest.raises(OperationCancelledError, match="ambient"):
                checkpoint_if_cancelled()


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = _FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2, clock=clock)
        assert bucket.try_acquire() == (True, 0.0)
        assert bucket.try_acquire() == (True, 0.0)
        acquired, retry_after = bucket.try_acquire()
        assert not acquired
        assert retry_after == pytest.approx(0.5)
        clock.advance(0.5)
        assert bucket.try_acquire() == (True, 0.0)

    def test_refill_caps_at_burst(self):
        clock = _FakeClock()
        bucket = TokenBucket(rate=10.0, burst=3, clock=clock)
        clock.advance(100.0)
        assert bucket.available() == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0)


class TestTenantQuotaManager:
    def test_unknown_tenant_unthrottled_but_accounted(self):
        manager = TenantQuotaManager(ServingConfig(), clock=_FakeClock())
        assert manager.admit("anyone") == (None, 0.0)
        assert manager.in_flight("anyone") == 1
        manager.release("anyone")
        assert manager.in_flight("anyone") == 0

    def test_rate_limit_enforced_per_tenant(self):
        clock = _FakeClock()
        config = ServingConfig(
            tenant_quotas={"alice": TenantQuota(rate=1.0, burst=1)}
        )
        manager = TenantQuotaManager(config, clock=clock)
        reason, _ = manager.admit("alice")
        assert reason is None
        reason, retry_after = manager.admit("alice")
        assert reason == "rate limit exceeded"
        assert retry_after == pytest.approx(1.0)
        # The refused admission must not have consumed an in-flight slot.
        assert manager.in_flight("alice") == 1
        # Other tenants are isolated from alice's bucket.
        assert manager.admit("bob") == (None, 0.0)

    def test_fair_share_cap_and_rollback(self):
        config = ServingConfig(default_quota=TenantQuota(max_in_flight=2))
        manager = TenantQuotaManager(config, clock=_FakeClock())
        assert manager.admit("alice") == (None, 0.0)
        assert manager.admit("alice") == (None, 0.0)
        reason, _ = manager.admit("alice")
        assert reason is not None and "fair-share" in reason
        assert manager.in_flight("alice") == 2
        manager.release("alice")
        assert manager.admit("alice") == (None, 0.0)

    def test_explicit_quota_overrides_default(self):
        config = ServingConfig(
            default_quota=TenantQuota(max_in_flight=1),
            tenant_quotas={"vip": TenantQuota(max_in_flight=5)},
        )
        manager = TenantQuotaManager(config, clock=_FakeClock())
        for _ in range(5):
            assert manager.admit("vip") == (None, 0.0)
        assert manager.admit("vip")[0] is not None


class TestMetrics:
    def test_exact_quantiles_for_small_streams(self):
        registry = MetricsRegistry()
        for value in [0.1, 0.2, 0.3, 0.4, 0.5]:
            registry.observe_latency("search", value)
        track = registry.snapshot()["endpoints"]["search"]
        assert track["count"] == 5
        assert track["p50"] == pytest.approx(0.3)
        assert track["max"] == pytest.approx(0.5)

    @pytest.mark.parametrize("shape", ["lognormal", "bimodal", "uniform"])
    def test_histogram_quantiles_within_one_percent(self, shape):
        """Past the exact buffer, each quantile is within 1 % of the value
        at its rank q·(n−1), on any shape, zeros included."""
        rng = random.Random(f"histogram:{shape}")
        draw = {
            "lognormal": lambda: rng.lognormvariate(-7.0, 1.5),
            "bimodal": lambda: rng.gauss(0.0004, 0.00005) if rng.random() < 0.7
            else rng.gauss(0.02, 0.003),
            "uniform": lambda: rng.uniform(0.0, 0.05),
        }[shape]
        values = [0.0 if rng.random() < 0.01 else abs(draw()) for _ in range(20_000)]
        track = LatencyTrack()
        for value in values:
            track.observe(value)
        snapshot = track.snapshot()
        ordered = sorted(values)
        assert snapshot["count"] == len(values)
        assert snapshot["max"] == ordered[-1]
        for quantile in (0.5, 0.95, 0.99):
            exact = ordered[int(quantile * (len(ordered) - 1))]
            assert abs(snapshot[f"p{int(quantile * 100)}"] - exact) <= 0.01 * exact
        assert snapshot["p50"] <= snapshot["p95"] <= snapshot["p99"] <= snapshot["max"]

    def test_histogram_answers_a_zero_rank_with_zero(self):
        track = LatencyTrack()
        for _ in range(100):
            track.observe(0.0)
        track.observe(0.5)
        snapshot = track.snapshot()
        assert (snapshot["p50"], snapshot["p99"], snapshot["max"]) == (0.0, 0.0, 0.5)

    def test_histogram_reads_the_value_at_the_rank(self):
        """101 observations: rank 0.5·100 = 50 is the first of the 51 slow ones."""
        track = LatencyTrack()
        for value in [0.001] * 50 + [0.1] * 51:
            track.observe(value)
        assert track.snapshot()["p50"] == pytest.approx(0.1, rel=0.01)

    @pytest.mark.parametrize("step", range(8))
    def test_histogram_never_reads_above_the_max(self, step):
        """Constant streams across one bucket: its midpoint is above some."""
        value = 0.001 * 1.003**step
        track = LatencyTrack()
        for _ in range(100):
            track.observe(value)
        snapshot = track.snapshot()
        for key in ("p50", "p95", "p99"):
            assert value * 0.99 <= snapshot[key] <= snapshot["max"] == value

    def test_concurrent_observations_are_all_counted(self):
        track = LatencyTrack()

        def observe_many(offset):
            for index in range(5_000):
                track.observe((offset + index % 100) / 1000.0)

        threads = [threading.Thread(target=observe_many, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        snapshot = track.snapshot()
        assert snapshot["count"] == 20_000
        assert sum(track._buckets.values()) + track._zeros == 20_000
        assert snapshot["max"] == pytest.approx(0.102)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -5.0, -1e-12])
    def test_refuses_a_non_finite_or_negative_latency(self, value):
        registry = MetricsRegistry()
        registry.observe_latency("search", 0.5, tenant="alice")
        before = registry.snapshot()
        with pytest.raises(InvalidArgumentError):
            registry.observe_latency("search", value, tenant="bob")
        with pytest.raises(InvalidArgumentError):
            registry.observe_latency("feedback", value)
        with pytest.raises(InvalidArgumentError):
            registry.observe_queue_wait(value)
        track = LatencyTrack()
        with pytest.raises(InvalidArgumentError):
            track.observe(value)
        assert registry.snapshot() == before
        assert track.snapshot() == {"count": 0.0}
        registry.observe_latency("search", 1.5)
        assert registry.snapshot()["endpoints"]["search"]["mean"] == 1.0

    def test_tenant_tracks_plateau(self):
        registry = MetricsRegistry()
        for index in range(10_000):
            registry.observe_latency("search", 0.001, tenant=f"tenant-{index:05d}")
        snapshot = registry.snapshot()
        assert len(snapshot["tenants"]) == obs_metrics.TENANT_TRACKS == 1024
        assert min(snapshot["tenants"]) == f"tenant-{10_000 - 1024:05d}"
        assert snapshot["endpoints"]["search"]["count"] == 10_000
        assert snapshot["counters"]["tenant_tracks_evicted"] == 8_976

    def test_tenant_tracks_keep_the_most_recently_observed(self, monkeypatch):
        monkeypatch.setattr(obs_metrics, "TENANT_TRACKS", 2)
        registry = MetricsRegistry()
        for tenant in ("alice", "bob", "alice", "carol"):
            registry.observe_latency("search", 0.001, tenant=tenant)
        snapshot = registry.snapshot()
        assert sorted(snapshot["tenants"]) == ["alice", "carol"]
        assert snapshot["tenants"]["alice"]["search"]["count"] == 2
        assert snapshot["counters"] == {"tenant_tracks_evicted": 1}

    def test_registry_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.increment("admitted")
        registry.increment("admitted")
        registry.observe_queue_wait(0.01)
        registry.set_gauge("queue_depth", 3.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"admitted": 2}
        assert snapshot["gauges"] == {"queue_depth": 3.0}
        assert snapshot["queue_wait"]["count"] == 1
        assert registry.counter("admitted") == 2
        assert registry.counter("never") == 0

    def test_empty_track_snapshot(self):
        assert MetricsRegistry().snapshot()["queue_wait"] == {"count": 0.0}


class TestServingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServingConfig(max_concurrency=0)
        with pytest.raises(ValueError):
            ServingConfig(max_queue_depth=-1)
        with pytest.raises(ValueError):
            ServingConfig(default_deadline_seconds=0.0)
        with pytest.raises(ValueError):
            ServingConfig(drain_grace_seconds=-1.0)
        with pytest.raises(TypeError):
            ServingConfig(tenant_quotas={"alice": object()})
        with pytest.raises(ValueError):
            TenantQuota(rate=-1.0)

    def test_quota_resolution(self):
        vip = TenantQuota(max_in_flight=9)
        default = TenantQuota(max_in_flight=1)
        config = ServingConfig(default_quota=default, tenant_quotas={"vip": vip})
        assert config.quota_for("vip") is vip
        assert config.quota_for("anyone") is default
        assert ServingConfig().quota_for("anyone") is None


# ---------------------------------------------------------------------------
# 3. The frontend end to end
# ---------------------------------------------------------------------------


@pytest.fixture()
def fresh_service(small_corpus) -> RetrievalService:
    """A fresh in-memory service over the shared corpus."""
    service = RetrievalService.from_corpus(small_corpus)
    yield service
    service.close()


class TestFrontendEquivalence:
    def test_served_search_bit_identical_to_direct(self, small_corpus):
        topic, query = _topic_query(small_corpus)
        direct_service = RetrievalService.from_corpus(small_corpus)
        direct_service.open_session("alice", policy="implicit",
                                    topic_id=topic.topic_id)
        direct = direct_service.search(
            SearchRequest(user_id="alice", query=query, topic_id=topic.topic_id)
        )

        served_service = RetrievalService.from_corpus(small_corpus)
        served_service.open_session("alice", policy="implicit",
                                    topic_id=topic.topic_id)
        with ServingFrontend(served_service) as frontend:
            served = asyncio.run(
                frontend.search(
                    SearchRequest(user_id="alice", query=query,
                                  topic_id=topic.topic_id)
                )
            )
        assert direct.hits == served.hits
        direct_service.close()
        served_service.close()

    def test_just_under_deadline_identical_to_no_deadline(self, small_corpus):
        """Satellite: a deadline that does not fire must not perturb ranking."""
        topic, query = _topic_query(small_corpus)

        def run(deadline):
            service = RetrievalService.from_corpus(small_corpus)
            service.open_session("alice", policy="implicit",
                                 topic_id=topic.topic_id)
            with ServingFrontend(service) as frontend:
                response = asyncio.run(
                    frontend.search(
                        SearchRequest(user_id="alice", query=query,
                                      topic_id=topic.topic_id),
                        deadline_seconds=deadline,
                    )
                )
            service.close()
            return response

        assert run(None).hits == run(30.0).hits

    def test_frontend_config_is_the_one_passed(self, small_corpus):
        service = RetrievalService.from_corpus(small_corpus)
        with ServingFrontend(service, ServingConfig(max_concurrency=2)) as frontend:
            assert frontend.config.max_concurrency == 2
        with ServingFrontend(service) as frontend:
            assert frontend.config == ServingConfig()
        service.close()


class TestDeadlines:
    def _install_straggler(self, service):
        gate = threading.Event()
        started = threading.Event()
        original = _swap_scorer(
            service, lambda scorer: _BlockingScorer(scorer, gate, started)
        )
        return gate, started, original

    def test_running_deadline_cancels_straggler(self, small_corpus, fresh_service):
        topic, query = _topic_query(small_corpus)
        fresh_service.open_session("alice", topic_id=topic.topic_id)
        gate, started, _ = self._install_straggler(fresh_service)
        try:
            with ServingFrontend(fresh_service) as frontend:
                begin = time.monotonic()
                with pytest.raises(DeadlineExceededError) as excinfo:
                    asyncio.run(
                        frontend.search(
                            SearchRequest(user_id="alice", query=query,
                                          topic_id=topic.topic_id),
                            deadline_seconds=0.2,
                        )
                    )
                elapsed = time.monotonic() - begin
                assert started.is_set()
                assert excinfo.value.stage == "running"
                # Client-visible latency is deadline + poll epsilon, not the
                # straggler's duration.
                assert elapsed < 2.0
                assert frontend.metrics.counter("deadline_running") == 1
        finally:
            gate.set()

    def test_timed_out_request_does_not_poison_result_cache(
        self, small_corpus
    ):
        """Satellite: a cancelled query must write nothing into the caches."""
        topic, query = _topic_query(small_corpus)

        def build():
            service = RetrievalService.from_corpus(small_corpus)
            service.open_session("alice", topic_id=topic.topic_id)
            return service

        # Reference: the same query on a never-disturbed service.
        reference = build()
        expected = reference.search(
            SearchRequest(user_id="alice", query=query, topic_id=topic.topic_id)
        )
        reference.close()

        service = build()
        gate, started, original = self._install_straggler(service)
        try:
            with ServingFrontend(service) as frontend:
                with pytest.raises(DeadlineExceededError):
                    asyncio.run(
                        frontend.search(
                            SearchRequest(user_id="alice", query=query,
                                          topic_id=topic.topic_id),
                            deadline_seconds=0.2,
                        )
                    )
            stats = service.engine.result_cache_stats()
            assert stats["entries"] == 0  # nothing cached by the aborted query
        finally:
            gate.set()
        # Let the abandoned straggler finish before re-querying.
        _swap_scorer(service, lambda _: original)
        retry = service.search(
            SearchRequest(user_id="alice", query=query, topic_id=topic.topic_id)
        )
        assert retry.hits == expected.hits
        # The iteration counter must not count the aborted query either.
        assert retry.iteration == 1
        service.close()

    def test_aborted_query_does_not_corrupt_refresh(self, small_corpus):
        """A cancelled query must not become the session's 'last query'."""
        topic, query = _topic_query(small_corpus)
        service = RetrievalService.from_corpus(small_corpus)
        info = service.open_session("alice", topic_id=topic.topic_id)
        good = service.search(
            SearchRequest(user_id="alice", query=query, topic_id=topic.topic_id)
        )
        gate, _started, original = self._install_straggler(service)
        try:
            with ServingFrontend(service) as frontend:
                with pytest.raises(DeadlineExceededError):
                    asyncio.run(
                        frontend.search(
                            SearchRequest(user_id="alice", query="poisoned query",
                                          topic_id=topic.topic_id),
                            deadline_seconds=0.2,
                        )
                    )
        finally:
            gate.set()
        _swap_scorer(service, lambda _: original)
        session = service.adaptive_session(info.session_id)
        refreshed = session.refresh_results()
        # refresh re-runs the last *successful* query, not the aborted one.
        assert [hit.shot_id for hit in good.hits][:10] == refreshed.shot_ids()[:10]
        service.close()

    def test_queued_deadline_never_touches_engine(self, small_corpus, fresh_service):
        topic, query = _topic_query(small_corpus)
        fresh_service.open_session("alice", topic_id=topic.topic_id)
        fresh_service.open_session("bob", topic_id=topic.topic_id)
        gate, started, _ = self._install_straggler(fresh_service)
        config = ServingConfig(max_concurrency=1)
        try:
            with ServingFrontend(fresh_service, config) as frontend:

                async def scenario():
                    occupier = asyncio.create_task(
                        frontend.search(
                            SearchRequest(user_id="alice", query=query,
                                          topic_id=topic.topic_id)
                        )
                    )
                    await asyncio.get_running_loop().run_in_executor(
                        None, started.wait, 10.0
                    )
                    with pytest.raises(DeadlineExceededError) as excinfo:
                        await frontend.search(
                            SearchRequest(user_id="bob", query=query,
                                          topic_id=topic.topic_id),
                            deadline_seconds=0.1,
                        )
                    assert excinfo.value.stage == "queued"
                    gate.set()
                    await occupier

                asyncio.run(scenario())
                assert frontend.metrics.counter("deadline_queued") == 1
                assert frontend.metrics.counter("completed") == 1
        finally:
            gate.set()


# -- where the frontend evaluates a request -------------------------------------

#: Registry name of :class:`_RecordingScorer` over BM25 (see the fixture).
_RECORDING = "inline-recording"


class _RecordingScorer:
    """An in-memory wrapper that says so, noting the thread each score runs on."""

    may_block = False

    def __init__(self, inner, seen):
        self.inner = inner
        self.seen = seen

    def score(self, query_terms):
        self.seen.append(threading.current_thread().name)
        return self.inner.score(query_terms)


class _PassThroughScorer:
    """A duck-typed wrapper: no ``may_block``, so the frontend must assume it may."""

    def __init__(self, inner):
        self.inner = inner

    def score(self, query_terms):
        return self.inner.score(query_terms)


class _ClockAdvancingScorer:
    """An in-memory scorer whose scoring takes ``seconds`` of a fake clock."""

    may_block = False

    def __init__(self, inner, clock, seconds):
        self.inner = inner
        self.clock = clock
        self.seconds = seconds

    def score(self, query_terms):
        self.clock.advance(self.seconds)
        return self.inner.score(query_terms)


class _FailingScorer:
    """An in-memory scorer that raises."""

    may_block = False

    def score(self, query_terms):
        raise RuntimeError("scorer exploded")


@pytest.fixture()
def recording_scorer():
    """Register :data:`_RECORDING`; yields the list of scoring threads."""
    seen = []
    register_scorer(
        _RECORDING, lambda index, config: _RecordingScorer(Bm25Scorer(index), seen)
    )
    yield seen
    SCORER_REGISTRY.unregister(_RECORDING)


def _record_facade_threads(service):
    """Note the thread each facade search / feedback call runs on."""
    seen = []
    for endpoint in ("search", "submit_feedback"):
        def recorded(request, inner=getattr(service, endpoint)):
            seen.append(threading.current_thread().name)
            return inner(request)

        setattr(service, endpoint, recorded)
    return seen


def _serve_threads():
    return {t for t in threading.enumerate() if t.name.startswith("serve")}


def _search_then_feedback(frontend, query, **kwargs):
    """One search and one feedback batch on its top hit, through the edge."""

    async def scenario():
        response = await frontend.search(
            SearchRequest(user_id="alice", query=query), **kwargs
        )
        hit = response.hits[0]
        event = InteractionEvent(
            kind=EventKind.PLAY_CLICK, timestamp=1.0, shot_id=hit.shot_id, rank=hit.rank
        )
        await frontend.submit_feedback(
            FeedbackBatch(user_id="alice", events=(event,)), **kwargs
        )

    asyncio.run(scenario())


def _outcome(awaitable):
    """What ``asyncio.run`` returns, or the exception it raised."""
    try:
        return asyncio.run(awaitable)
    except Exception as error:  # noqa: BLE001 - the checks inspect it
        return error


def _in_memory_service(corpus):
    service = RetrievalService.from_corpus(corpus)
    service.open_session("alice", policy="baseline")
    return service


def _check_durable_service_uses_the_pool(corpus, tmp_path):
    _topic, query = _topic_query(corpus)
    service = RetrievalService.from_corpus(
        corpus, config=ServiceConfig(durability_dir=str(tmp_path / "durable"))
    )
    try:
        service.open_session("alice", policy="baseline")
        seen = _record_facade_threads(service)
        with ServingFrontend(service) as frontend:
            _search_then_feedback(frontend, query)
        assert len(seen) == 2 and all(name.startswith("serve") for name in seen)
    finally:
        service.close()


def _check_duck_typed_scorer_uses_the_pool(corpus):
    """A scorer that may block sends the next request to the pool."""
    service = _in_memory_service(corpus)
    try:
        here = threading.current_thread().name
        original = service.engine._text_scorer
        seen = _record_facade_threads(service)
        with ServingFrontend(service) as frontend:
            for index, wrapped in enumerate((False, True, False)):
                _swap_scorer(
                    service,
                    lambda _: _PassThroughScorer(original) if wrapped else original,
                )
                _, query = _topic_query(corpus, index)
                seen.clear()
                assert asyncio.run(
                    frontend.search(SearchRequest(user_id="alice", query=query))
                ).hits
                expected = "serve" if wrapped else here
                assert len(seen) == 1 and seen[0].startswith(expected), (index, seen)
    finally:
        service.close()


def _check_inline_failure_pays_back(corpus):
    """A scorer exception on the inline path: counted, slot and quota paid back."""
    _topic, query = _topic_query(corpus)
    service = _in_memory_service(corpus)
    original = _swap_scorer(service, lambda _: _FailingScorer())
    config = ServingConfig(
        max_concurrency=1, default_quota=TenantQuota(max_in_flight=1)
    )
    try:
        with ServingFrontend(service, config) as frontend:
            error = _outcome(frontend.search(SearchRequest(user_id="alice", query=query)))
            assert isinstance(error, RuntimeError) and "scorer exploded" in str(error)
            snapshot = frontend.metrics_snapshot()
            assert snapshot["counters"]["errors"] == 1
            assert snapshot["gauges"]["in_flight"] == 0.0
            _swap_scorer(service, lambda _: original)
            # The one slot and alice's one in-flight allowance are free again:
            # a leaked slot would time out queued, a leaked quota be refused.
            retry = _outcome(
                frontend.search(
                    SearchRequest(user_id="alice", query=query), deadline_seconds=5.0
                )
            )
            assert not isinstance(retry, Exception), retry
            assert frontend.metrics.counter("completed") == 1
    finally:
        service.close()


def _check_post_deadline_result_is_refused(corpus):
    """A result that finished past its deadline, with no later checkpoint."""
    _topic, query = _topic_query(corpus)
    service = _in_memory_service(corpus)
    clock = _FakeClock()
    search = service.search

    def slow_search(request):
        response = search(request)
        clock.advance(10.0)  # after every engine checkpoint
        return response

    service.search = slow_search
    try:
        with ServingFrontend(service, clock=clock) as frontend:
            error = _outcome(
                frontend.search(
                    SearchRequest(user_id="alice", query=query), deadline_seconds=1.0
                )
            )
            assert isinstance(error, DeadlineExceededError), error
            assert error.stage == "running"
            assert frontend.metrics.counter("deadline_running") == 1
            assert frontend.metrics.counter("completed") == 0
    finally:
        service.close()


class TestEvaluationPath:
    """In-memory requests run on the loop's thread; anything else on the pool."""

    @pytest.mark.parametrize("num_shards", (1, 4))
    def test_in_memory_requests_run_on_the_loop_thread(
        self, small_corpus, recording_scorer, num_shards
    ):
        _topic, query = _topic_query(small_corpus)
        service = RetrievalService.from_corpus(
            small_corpus,
            config=ServiceConfig(
                engine=EngineConfig(scorer=_RECORDING, result_limit=50),
                num_shards=num_shards,
            ),
        )
        service.open_session("alice", policy="baseline")
        here = threading.current_thread().name
        before = _serve_threads()
        try:
            assert not service.engine.may_block
            facade = _record_facade_threads(service)
            with ServingFrontend(service) as frontend:
                _search_then_feedback(frontend, query, deadline_seconds=30.0)
                counters = frontend.metrics.snapshot()["counters"]
            assert facade == [here, here]
            assert recording_scorer == [here]  # one scorer, whatever num_shards
            assert not _serve_threads() - before
            assert counters["completed"] == 2 and "deadline_running" not in counters
        finally:
            service.close()

    def test_edge_builds_no_condition_and_observes_three_tracks(
        self, small_corpus, monkeypatch
    ):
        """A request costs the edge no ``threading.Condition`` (a token is a
        plain flag) and exactly three latency observations: queue wait,
        endpoint and tenant."""
        _topic, query = _topic_query(small_corpus)
        service = RetrievalService.from_corpus(small_corpus)
        conditions, observed = [], []
        condition, observe = threading.Condition, LatencyTrack.observe

        def counting_condition(*args, **kwargs):
            conditions.append(1)
            return condition(*args, **kwargs)

        def counting_observe(track, seconds):
            observed.append(seconds)
            observe(track, seconds)

        async def serve(frontend):
            monkeypatch.setattr(threading, "Condition", counting_condition)
            monkeypatch.setattr(LatencyTrack, "observe", counting_observe)
            try:
                for _ in range(200):
                    await frontend.search(
                        SearchRequest(user_id="alice", query=query), deadline_seconds=30.0
                    )
            finally:
                monkeypatch.undo()

        try:
            with ServingFrontend(service) as frontend:
                asyncio.run(serve(frontend))
                snapshot = frontend.metrics.snapshot()
            assert snapshot["counters"]["completed"] == 200
            assert conditions == []
            assert len(observed) == 3 * 200
        finally:
            service.close()

    def test_may_block_reads_durability_and_the_scorer(self, small_corpus, tmp_path):
        monolithic = RetrievalService.from_corpus(small_corpus)
        in_memory = _in_memory_service(small_corpus)
        durable = RetrievalService.from_corpus(
            small_corpus, config=ServiceConfig(durability_dir=str(tmp_path / "d"))
        )
        try:
            assert not monolithic.engine.may_block
            assert not in_memory.engine.may_block
            assert durable.engine.may_block
            assert not durable.engine._text_scorer.may_block
            original = _swap_scorer(in_memory, _PassThroughScorer)
            assert in_memory.engine.may_block
            _swap_scorer(in_memory, lambda _: original)
            assert not in_memory.engine.may_block
        finally:
            for service in (monolithic, in_memory, durable):
                service.close()

    def test_durable_service_uses_the_pool(self, small_corpus, tmp_path):
        _check_durable_service_uses_the_pool(small_corpus, tmp_path)

    def test_duck_typed_scorer_uses_the_pool_until_restored(self, small_corpus):
        _check_duck_typed_scorer_uses_the_pool(small_corpus)

    def test_inline_deadline_fires_at_an_engine_checkpoint(self, small_corpus):
        _topic, query = _topic_query(small_corpus)
        service = _in_memory_service(small_corpus)
        clock = _FakeClock()
        _swap_scorer(service, lambda scorer: _ClockAdvancingScorer(scorer, clock, 5.0))
        config = ServingConfig(default_quota=TenantQuota(max_in_flight=1))
        try:
            with ServingFrontend(service, config, clock=clock) as frontend:
                error = _outcome(
                    frontend.search(
                        SearchRequest(user_id="alice", query=query), deadline_seconds=1.0
                    )
                )
                assert isinstance(error, DeadlineExceededError)
                assert error.stage == "running"
                assert "cancelled at checkpoint" in str(error)
                snapshot = frontend.metrics_snapshot()
                assert snapshot["counters"]["deadline_running"] == 1
                assert snapshot["gauges"]["in_flight"] == 0.0
                assert snapshot["result_cache"]["entries"] == 0
                (info,) = service.list_sessions("alice")
                assert info.iteration_count == 0
                # alice's one in-flight allowance was paid back.
                response = asyncio.run(
                    frontend.search(SearchRequest(user_id="alice", query=query))
                )
                assert response.iteration == 1
        finally:
            service.close()

    def test_result_past_its_deadline_is_refused(self, small_corpus):
        _check_post_deadline_result_is_refused(small_corpus)

    def test_scorer_failure_is_counted_and_paid_back(self, small_corpus):
        _check_inline_failure_pays_back(small_corpus)

    @pytest.mark.parametrize(
        "owner, function, original, mutated, check",
        [
            pytest.param(
                ServingFrontend, "_serve",
                "try:\n                result = evaluate()\n            finally:",
                "if True:\n                result = evaluate()\n            if True:",
                "failure", id="inline-skips-release",
            ),
            pytest.param(
                VideoRetrievalEngine, "may_block",
                "self._durability is not None or ", "",
                "durable", id="predicate-ignores-durability",
            ),
            pytest.param(
                VideoRetrievalEngine, "may_block",
                'self._text_scorer, "may_block", True',
                'self._text_scorer, "may_block", False',
                "scorer", id="duck-typed-scorer-counts-as-in-memory",
            ),
            pytest.param(
                ServingFrontend, "_serve",
                "result = fn()\n            token.checkpoint()",
                "result = fn()",
                "deadline", id="post-deadline-result-delivered",
            ),
        ],
    )
    def test_checks_fail_on_mutants(
        self, monkeypatch, small_corpus, tmp_path, owner, function, original, mutated, check
    ):
        attribute = owner.__dict__[function]
        target = attribute.fget if isinstance(attribute, property) else attribute
        source = textwrap.dedent(inspect.getsource(target))
        assert source.count(original) == 1
        namespace = dict(vars(inspect.getmodule(owner)))
        exec(source.replace(original, mutated), namespace)
        monkeypatch.setattr(owner, function, namespace[function])
        checks = {
            "failure": lambda: _check_inline_failure_pays_back(small_corpus),
            "durable": lambda: _check_durable_service_uses_the_pool(small_corpus, tmp_path),
            "scorer": lambda: _check_duck_typed_scorer_uses_the_pool(small_corpus),
            "deadline": lambda: _check_post_deadline_result_is_refused(small_corpus),
        }
        with pytest.raises(AssertionError):
            checks[check]()


class TestDeadlineValidation:
    """Zero, negative, NaN and infinite deadlines are refused everywhere."""

    BAD = (0.0, -1.0, math.nan, math.inf, -math.inf)

    @pytest.mark.parametrize("deadline", BAD)
    def test_frontend_refuses_before_admission(self, small_corpus, deadline):
        _topic, query = _topic_query(small_corpus)
        service = RetrievalService.from_corpus(small_corpus)
        service.open_session("alice", policy="baseline")
        config = ServingConfig(
            max_concurrency=1,
            default_deadline_seconds=30.0,
            default_quota=TenantQuota(max_in_flight=1),
        )
        try:
            with ServingFrontend(service, config) as frontend:
                with pytest.raises(ValueError, match="deadline_seconds must be positive and finite"):
                    asyncio.run(
                        frontend.search(
                            SearchRequest(user_id="alice", query=query),
                            deadline_seconds=deadline,
                        )
                    )
                snapshot = frontend.metrics_snapshot()
                assert snapshot["counters"] == {}
                assert snapshot["gauges"]["queue_depth"] == 0.0
                assert snapshot["gauges"]["in_flight"] == 0.0
                # Neither the one slot nor alice's one allowance was taken.
                assert asyncio.run(
                    frontend.search(SearchRequest(user_id="alice", query=query))
                ).hits
        finally:
            service.close()

    @pytest.mark.parametrize("deadline", BAD)
    def test_serving_config_refuses(self, deadline):
        with pytest.raises(ValueError, match="default_deadline_seconds must be positive and finite"):
            ServingConfig(default_deadline_seconds=deadline)

    @pytest.mark.parametrize("deadline", BAD)
    def test_load_driver_refuses(self, small_corpus, deadline):
        with pytest.raises(ValueError, match="deadline_seconds must be positive and finite"):
            ServiceLoadDriver(
                lambda: RetrievalService.from_corpus(small_corpus),
                serving=ServingConfig(default_deadline_seconds=deadline),
            )


class TestAdmission:
    def test_queue_full_is_typed_and_counted(self, small_corpus, fresh_service):
        topic, query = _topic_query(small_corpus)
        fresh_service.open_session("alice", topic_id=topic.topic_id)
        fresh_service.open_session("bob", topic_id=topic.topic_id)
        fresh_service.open_session("carol", topic_id=topic.topic_id)
        gate, started, _ = self._straggler(fresh_service)
        # One slot, a waiting room of one: request #1 runs (parked on the
        # straggler), #2 fills the queue, #3 must be refused, not buffered.
        config = ServingConfig(max_concurrency=1, max_queue_depth=1)
        try:
            with ServingFrontend(fresh_service, config) as frontend:

                async def scenario():
                    occupier = asyncio.create_task(
                        frontend.search(
                            SearchRequest(user_id="alice", query=query,
                                          topic_id=topic.topic_id)
                        )
                    )
                    await asyncio.get_running_loop().run_in_executor(
                        None, started.wait, 10.0
                    )
                    queued = asyncio.create_task(
                        frontend.search(
                            SearchRequest(user_id="bob", query=query,
                                          topic_id=topic.topic_id)
                        )
                    )
                    # One scheduler pass runs bob's admission (it happens
                    # before his first await), filling the waiting room.
                    await asyncio.sleep(0)
                    with pytest.raises(QueueFullError) as excinfo:
                        await frontend.search(
                            SearchRequest(user_id="carol", query=query,
                                          topic_id=topic.topic_id)
                        )
                    assert excinfo.value.retry_after >= 0.0
                    assert isinstance(excinfo.value, AdmissionRejectedError)
                    gate.set()
                    await asyncio.gather(occupier, queued)

                asyncio.run(scenario())
                assert frontend.metrics.counter("rejected_queue_full") == 1
                assert frontend.metrics.counter("completed") == 2
        finally:
            gate.set()

    def _straggler(self, service):
        gate = threading.Event()
        started = threading.Event()
        _swap_scorer(service, lambda scorer: _BlockingScorer(scorer, gate, started))
        return gate, started, None

    def test_quota_rejection_is_typed_and_counted(self, small_corpus):
        topic, query = _topic_query(small_corpus)
        service = RetrievalService.from_corpus(small_corpus)
        service.open_session("alice", topic_id=topic.topic_id)
        config = ServingConfig(
            tenant_quotas={"alice": TenantQuota(rate=0.001, burst=1)}
        )
        with ServingFrontend(service, config) as frontend:

            async def scenario():
                first = await frontend.search(
                    SearchRequest(user_id="alice", query=query,
                                  topic_id=topic.topic_id)
                )
                assert len(first.hits) > 0
                with pytest.raises(QuotaExceededError) as excinfo:
                    await frontend.search(
                        SearchRequest(user_id="alice", query=query,
                                      topic_id=topic.topic_id)
                    )
                assert excinfo.value.tenant == "alice"
                assert excinfo.value.retry_after > 0.0

            asyncio.run(scenario())
            assert frontend.metrics.counter("rejected_quota") == 1
            assert frontend.metrics.counter("completed") == 1
        service.close()

    def test_draining_rejects_new_requests(self, small_corpus):
        topic, query = _topic_query(small_corpus)
        service = RetrievalService.from_corpus(small_corpus)
        service.open_session("alice", topic_id=topic.topic_id)
        with ServingFrontend(service) as frontend:

            async def scenario():
                response = await frontend.search(
                    SearchRequest(user_id="alice", query=query,
                                  topic_id=topic.topic_id)
                )
                assert len(response.hits) > 0
                assert await frontend.drain() is True
                with pytest.raises(DrainingError):
                    await frontend.search(
                        SearchRequest(user_id="alice", query=query,
                                      topic_id=topic.topic_id)
                    )

            asyncio.run(scenario())
            assert frontend.draining
            assert frontend.metrics.counter("rejected_draining") == 1
        service.close()

    def test_drain_waits_for_in_flight_work(self, small_corpus, fresh_service):
        topic, query = _topic_query(small_corpus)
        fresh_service.open_session("alice", topic_id=topic.topic_id)
        gate, started, _ = self._straggler(fresh_service)
        try:
            with ServingFrontend(fresh_service) as frontend:

                async def scenario():
                    in_flight = asyncio.create_task(
                        frontend.search(
                            SearchRequest(user_id="alice", query=query,
                                          topic_id=topic.topic_id)
                        )
                    )
                    await asyncio.get_running_loop().run_in_executor(
                        None, started.wait, 10.0
                    )
                    gate.set()
                    drained = await frontend.aclose()
                    assert drained is True
                    response = await in_flight
                    assert len(response.hits) >= 0

                asyncio.run(scenario())
        finally:
            gate.set()

    def test_metrics_snapshot_includes_gauges_and_cache(self, small_corpus):
        topic, query = _topic_query(small_corpus)
        service = RetrievalService.from_corpus(small_corpus)
        service.open_session("alice", topic_id=topic.topic_id)
        with ServingFrontend(service) as frontend:
            asyncio.run(
                frontend.search(
                    SearchRequest(user_id="alice", query=query,
                                  topic_id=topic.topic_id)
                )
            )
            snapshot = frontend.metrics_snapshot()
        assert snapshot["gauges"]["queue_depth"] == 0.0
        assert snapshot["gauges"]["in_flight"] == 0.0
        assert snapshot["counters"]["completed"] == 1
        assert snapshot["endpoints"]["search"]["count"] == 1
        cache = snapshot["result_cache"]
        assert "hit_rate" in cache
        # One search overflows no admission window: no decision yet.
        assert cache["admitted"] == cache["rejected"] == 0.0
        service.close()

    def test_rejection_hint_reads_one_track(self, small_corpus, monkeypatch):
        """A rejection reads one endpoint's count and mean, no tenant's quantiles."""
        _topic, query = _topic_query(small_corpus)
        service = RetrievalService.from_corpus(small_corpus)
        config = ServingConfig(max_concurrency=4, max_queue_depth=0)
        try:
            with ServingFrontend(service, config) as frontend:
                for index in range(64):
                    frontend.metrics.observe_latency(
                        "search", 0.1 + index / 100.0, tenant=f"tenant-{index}"
                    )
                mean = frontend.metrics.snapshot()["endpoints"]["search"]["mean"]
                snapshotted = []
                snapshot = LatencyTrack.snapshot
                monkeypatch.setattr(
                    LatencyTrack,
                    "snapshot",
                    lambda track: snapshotted.append(track) or snapshot(track),
                )
                with pytest.raises(QueueFullError) as excinfo:
                    asyncio.run(
                        frontend.search(SearchRequest(user_id="alice", query=query))
                    )
                assert snapshotted == []
                # The hint the whole-snapshot read gave: (depth + 1) * mean / slots.
                assert excinfo.value.retry_after == max(0.05, (0 + 1) * mean / 4)
                assert excinfo.value.retry_after > 0.05
        finally:
            service.close()


class TestEvictionCancellationRace:
    def test_deadline_cancel_vs_eviction_leaves_pool_consistent(
        self, small_corpus
    ):
        """Satellite: a victim cancelled mid-search must not deadlock or leak.

        Session A's in-flight search blocks on a straggler scorer while two
        new sessions overflow the pool (capacity 2) and evict A.  Eviction
        must wait for A's request, the deadline must unwind that request
        promptly (freeing A's lock), and afterwards A is cleanly expired
        with no slot leaked.
        """
        topic, query = _topic_query(small_corpus)
        service = RetrievalService.from_corpus(
            small_corpus, config=ServiceConfig(max_sessions=2)
        )
        info_a = service.open_session("alice", topic_id=topic.topic_id)
        gate = threading.Event()
        started = threading.Event()
        _swap_scorer(service, lambda scorer: _BlockingScorer(scorer, gate, started))

        eviction_done = threading.Event()

        def overflow_pool():
            started.wait(timeout=30.0)
            # Two fresh sessions push capacity past 2: alice is the LRU
            # victim, and add() blocks until her in-flight request ends.
            service.open_session("bob", topic_id=topic.topic_id)
            service.open_session("carol", topic_id=topic.topic_id)
            eviction_done.set()

        evictor = threading.Thread(target=overflow_pool)
        evictor.start()
        try:
            with ServingFrontend(service) as frontend:
                with pytest.raises(DeadlineExceededError):
                    asyncio.run(
                        frontend.search(
                            SearchRequest(
                                user_id="alice",
                                query=query,
                                session_id=info_a.session_id,
                                topic_id=topic.topic_id,
                            ),
                            deadline_seconds=0.2,
                        )
                    )
            # The cancelled request released alice's session lock, so the
            # eviction completes promptly instead of deadlocking.
            assert eviction_done.wait(timeout=10.0)
            evictor.join(timeout=10.0)
            assert not evictor.is_alive()
            # No slot leaked: exactly the two survivors remain, and alice
            # is reported as expired (evicted), not merely unknown.
            assert service.session_count == 2
            with pytest.raises(SessionExpiredError):
                service.search(
                    SearchRequest(
                        user_id="alice",
                        query=query,
                        session_id=info_a.session_id,
                        topic_id=topic.topic_id,
                    )
                )
        finally:
            gate.set()
            evictor.join(timeout=10.0)
            service.close()

    def test_expired_session_error_is_session_not_found(self):
        # The serving edge surfaces eviction races as the facade's own
        # typed error; pin the subclassing contract the clients rely on.
        assert issubclass(SessionExpiredError, SessionNotFoundError)


# ---------------------------------------------------------------------------
# 4. Workload driver serve mode
# ---------------------------------------------------------------------------


class TestDriverServeMode:
    def _factory(self, corpus):
        return lambda: RetrievalService.from_corpus(corpus)

    def test_serve_digest_matches_threaded_digest(self, small_corpus):
        spec = WorkloadSpec(seed=5, users=3, queries_per_user=2)
        factory = self._factory(small_corpus)
        threaded = ServiceLoadDriver(factory, max_workers=4).run(spec)
        served = ServiceLoadDriver(factory, serving=ServingConfig()).run(spec)
        assert threaded.digest() == served.digest()
        assert served.extras["serving_failures"] == {}
        assert served.extras["serving_drained"] is True
        metrics = served.extras["serving_metrics"]
        assert metrics["counters"]["completed"] == metrics["counters"]["admitted"]
        assert "shard_fanout" not in metrics

    def test_failed_requests_stay_out_of_canonical_log(self, small_corpus):
        spec = WorkloadSpec(seed=5, users=2, queries_per_user=2)
        factory = self._factory(small_corpus)
        # A deadline no search can meet: every search times out, so the
        # canonical log holds only the session open/close records.
        driver = ServiceLoadDriver(
            factory, serving=ServingConfig(default_deadline_seconds=1e-9)
        )
        result = driver.run(spec)
        failures = result.extras["serving_failures"]
        assert sum(failures.values()) > 0
        assert set(failures) <= {"DeadlineExceededError"}
        actions = {record["action"] for record in result.records}
        assert "search" not in actions
        assert "feedback" not in actions

    def test_serve_rejects_non_positive_deadline(self, small_corpus):
        with pytest.raises(ValueError):
            ServiceLoadDriver(
                self._factory(small_corpus),
                serving=ServingConfig(default_deadline_seconds=0.0),
            )


# ---------------------------------------------------------------------------
# 5. CLI serve mode
# ---------------------------------------------------------------------------


class TestServeCli:
    @pytest.fixture(scope="class")
    def corpus_dir(self, small_corpus, tmp_path_factory):
        from repro.collection import save_corpus

        directory = tmp_path_factory.mktemp("serving-corpus") / "corpus"
        save_corpus(small_corpus, directory)
        return str(directory)

    def _digest(self, output: str) -> str:
        for line in output.splitlines():
            if line.startswith("canonical log digest:"):
                return line.split(":", 1)[1].strip()
        raise AssertionError(f"no digest line in:\n{output}")

    def test_serve_digest_matches_direct(self, corpus_dir):
        import io

        from repro.cli import main

        base = ["loadtest", "--corpus", corpus_dir, "--users", "3",
                "--queries", "2", "--seed", "7"]
        direct_out, serve_out = io.StringIO(), io.StringIO()
        assert main(base, out=direct_out) == 0
        assert main(base + ["--serve"], out=serve_out) == 0
        assert self._digest(direct_out.getvalue()) == self._digest(serve_out.getvalue())
        assert "serving edge:" in serve_out.getvalue()
        assert "failures: none" in serve_out.getvalue()
        assert "drained cleanly: yes" in serve_out.getvalue()

    def test_serve_stats_report(self, corpus_dir):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(
            ["loadtest", "--corpus", corpus_dir, "--users", "2",
             "--queries", "2", "--seed", "7", "--serve-stats"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "serving stats:" in text
        assert "endpoint latency:" in text
        assert "search" in text and "p99=" in text
        assert "queue-wait" in text
        assert "shard-fanout" not in text
        assert "counters:" in text and "completed=" in text
        assert "result cache:" in text and "hit rate" in text
        assert " admitted / " in text and " rejected)" in text

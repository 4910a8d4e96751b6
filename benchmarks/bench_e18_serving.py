"""E18 — Serving edge: deadlines bound tail latency without costing fidelity.

The async serving edge (``repro.serving``) claims three things this bench
pins before timing anything:

1. **Fidelity** — driving the seeded workload through the serving edge
   produces the byte-identical canonical log digest of the direct threaded
   driver.
2. **Tail-latency control** — with a straggler scorer injected (every
   ``STRAGGLER_EVERY``-th call stalls for ``STRAGGLER_SECONDS``, far past
   the deadline),
   per-request deadlines cancel the stalled work cooperatively: the
   client-observed p99 across *all* requests (completions and timeouts)
   stays within ``DEADLINE_SECONDS + DEADLINE_EPSILON``, two orders of
   magnitude under the straggler's stall.
3. **Typed backpressure** — flooding a deliberately tiny frontend
   (1 evaluation slot, waiting room of 2, a rate-limited tenant) yields
   typed :class:`~repro.serving.errors.AdmissionRejectedError` subclasses
   whose counts match the metrics registry, never silent buffering.

Rows:

* ``serve``     — serving-edge throughput on the clean workload (guarded).
  Its scorer is in-memory, so this row measures the *inline* path: each
  request is evaluated on the event loop's thread.
* ``deadline``  — straggler + deadline: completions, timeout counts, p99.
  The straggler is a registered duck-typed scorer that may block, so this
  row measures the *pool* path.
* ``admission`` — flood outcomes: completed / queue-full / quota counts.
  Inline requests never wait, so a gated duck-typed scorer holds the one
  slot (pool path) while the flood is admitted.

``BENCH_e18.json`` carries the ``smoke_baseline`` section guarded by
``check_bench_regression.py``.  Run with ``--write-baseline`` to refresh on
representative hardware, or ``--smoke`` for the quick CI sanity check.
"""

from __future__ import annotations

import asyncio
import threading
import time

from _common import Bench

from repro.index import Bm25Scorer
from repro.retrieval import EngineConfig
from repro.service import (
    RetrievalService,
    SearchRequest,
    ServiceConfig,
    register_scorer,
)
from repro.service.registry import SCORER_REGISTRY
from repro.serving import (
    AdmissionRejectedError,
    DeadlineExceededError,
    QueueFullError,
    QuotaExceededError,
    ServingConfig,
    ServingFrontend,
    TenantQuota,
)
from repro.utils.concurrency import checkpoint_if_cancelled
from repro.workload import ServiceLoadDriver, WorkloadSpec

#: Per-request deadline of the straggler scenario.
DEADLINE_SECONDS = 0.15

#: Client-observed slack past the deadline: cooperative cancellation
#: unwinds at ~20ms checkpoints, plus event-loop and CI scheduler jitter.
DEADLINE_EPSILON = 0.25

#: How long the injected straggler stalls — far past the deadline, so an
#: uncancelled straggler would blow the p99 assertion by an order of
#: magnitude.
STRAGGLER_SECONDS = 2.0

#: Every Nth call of the slow scorer stalls.
STRAGGLER_EVERY = 5


class _StragglerScorer:
    """Wraps the BM25 scorer; every Nth call stalls (cooperatively)."""

    def __init__(self, inner, every: int, seconds: float) -> None:
        self.inner = inner
        self.every = every
        self.seconds = seconds
        self.stalls = 0
        self._calls = 0
        self._lock = threading.Lock()

    def score(self, query_terms):
        with self._lock:
            self._calls += 1
            slow = self._calls % self.every == 0
            if slow:
                self.stalls += 1
        if slow:
            stall_until = time.monotonic() + self.seconds
            while time.monotonic() < stall_until:
                # The stall honours checkpoints the way real evidence
                # stages do, so a fired deadline unwinds it in ~one poll.
                checkpoint_if_cancelled()
                time.sleep(0.01)
        return self.inner.score(query_terms)


class _GatedScorer:
    """Wraps the BM25 scorer; every call parks until the gate opens.

    Duck-typed (no ``may_block``), so its requests go to the worker pool
    and hold their slot while parked.
    """

    def __init__(self, inner, gate: threading.Event) -> None:
        self.inner = inner
        self.gate = gate

    def score(self, query_terms):
        self.gate.wait(timeout=30.0)
        return self.inner.score(query_terms)


def _service(corpus) -> RetrievalService:
    return RetrievalService.from_corpus(corpus)


def _wrapped_service(corpus, wrap):
    """``(service, scorer)``: a service whose scorer is ``wrap(bm25)``,
    built through the scorer registry like any registered scorer."""
    built = []

    def factory(index, config):
        built.append(wrap(Bm25Scorer(index, k1=config.bm25_k1, b=config.bm25_b)))
        return built[-1]

    register_scorer("e18-wrapped", factory)
    try:
        service = RetrievalService.from_corpus(
            corpus,
            config=ServiceConfig(
                engine=EngineConfig(scorer="e18-wrapped", result_limit=50),
            ),
        )
    finally:
        SCORER_REGISTRY.unregister("e18-wrapped")
    return service, built[0]


def _requests(corpus, count: int):
    """``count`` single-user search requests over the corpus's own topics."""
    topics = corpus.topics.topics()
    requests = []
    for index in range(count):
        topic = topics[index % len(topics)]
        requests.append(
            SearchRequest(
                user_id=f"user-{index}",
                query=" ".join(topic.query_terms[:3]),
                topic_id=topic.topic_id,
            )
        )
    return requests


def _assert_digest_equivalence(corpus, users: int = 4) -> None:
    """Serving-edge digest byte-identical to the direct threaded driver."""
    spec = WorkloadSpec(seed=97, users=users, queries_per_user=2)

    def factory():
        return _service(corpus)

    direct = ServiceLoadDriver(factory, max_workers=4).run(spec)
    served = ServiceLoadDriver(factory, serving=ServingConfig()).run(spec)
    assert direct.digest() == served.digest(), (
        f"serving edge diverged from the direct driver: "
        f"{served.digest()} != {direct.digest()}"
    )
    assert served.extras["serving_failures"] == {}, (
        f"clean workload saw failures: {served.extras['serving_failures']}"
    )


def _serve_row(corpus, rounds: int, request_count: int):
    """Clean serving-edge throughput (the guarded metric)."""
    service = _service(corpus)
    requests = _requests(corpus, request_count)
    for request in requests:
        service.open_session(request.user_id, topic_id=request.topic_id)
    try:
        with ServingFrontend(service) as frontend:

            async def one_round():
                await asyncio.gather(
                    *(frontend.search(request) for request in requests)
                )

            asyncio.run(one_round())  # warm caches and the worker pool
            start = time.perf_counter()
            for _ in range(rounds):
                asyncio.run(one_round())
            elapsed = time.perf_counter() - start
        total = rounds * request_count
        return {
            "row": "serve",
            "requests": total,
            "seconds": elapsed,
            "qps": total / elapsed if elapsed else 0.0,
        }
    finally:
        service.close()


def _deadline_row(corpus, request_count: int):
    """Straggler scorer + per-request deadline: the tail-latency scenario."""
    service, straggler = _wrapped_service(
        corpus,
        lambda scorer: _StragglerScorer(scorer, STRAGGLER_EVERY, STRAGGLER_SECONDS),
    )
    requests = _requests(corpus, request_count)
    for request in requests:
        service.open_session(request.user_id, topic_id=request.topic_id)
    latencies = []
    outcomes = {"completed": 0, "deadline": 0}
    # Wider slot pool than the default: a stalled search pins its slot
    # until the deadline fires, and requests for the same query wait
    # behind the in-flight computation — 8 slots keep untouched queries
    # flowing so the row exercises running-stage cancellation, not just
    # queue-stage expiry.
    config = ServingConfig(max_concurrency=8)
    try:
        with ServingFrontend(service, config) as frontend:

            async def one(request):
                begin = time.monotonic()
                try:
                    await frontend.search(
                        request, deadline_seconds=DEADLINE_SECONDS
                    )
                    outcome = "completed"
                except DeadlineExceededError:
                    outcome = "deadline"
                return time.monotonic() - begin, outcome

            async def flood():
                return await asyncio.gather(*(one(r) for r in requests))

            for latency, outcome in asyncio.run(flood()):
                latencies.append(latency)
                outcomes[outcome] += 1
            deadline_running = frontend.metrics.counter("deadline_running")
            deadline_queued = frontend.metrics.counter("deadline_queued")
    finally:
        service.close()
    latencies.sort()
    p99 = latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))]
    return {
        "row": "deadline",
        "requests": len(requests),
        "completed": outcomes["completed"],
        "timeouts": outcomes["deadline"],
        "stalls": straggler.stalls,
        "deadline_running": deadline_running,
        "deadline_queued": deadline_queued,
        "p99_s": p99,
        "max_s": latencies[-1],
    }


def _admission_row(corpus):
    """Flood a tiny frontend: rejections must be typed and counted."""
    gate = threading.Event()
    service, _ = _wrapped_service(corpus, lambda scorer: _GatedScorer(scorer, gate))
    requests = _requests(corpus, 16)
    for request in requests:
        service.open_session(request.user_id, topic_id=request.topic_id)
    config = ServingConfig(
        max_concurrency=1,
        max_queue_depth=2,
        tenant_quotas={"user-0": TenantQuota(rate=0.001, burst=1)},
    )
    outcomes = {"completed": 0, "queue_full": 0, "quota": 0}
    try:
        with ServingFrontend(service, config) as frontend:

            async def one(request):
                try:
                    await frontend.search(request)
                    return "completed"
                except QueueFullError:
                    return "queue_full"
                except QuotaExceededError:
                    return "quota"

            async def flood():
                # user-0 twice: the second trip must hit the rate limit.
                victims = [requests[0]] + requests + [requests[0]]
                results = asyncio.gather(*(one(r) for r in victims))
                # One scheduler pass runs every admission (each happens
                # before the request's first await) while the first
                # request holds the slot, parked on the gate.
                await asyncio.sleep(0)
                gate.set()
                return await results

            for outcome in asyncio.run(flood()):
                outcomes[outcome] += 1
            counters = frontend.metrics.snapshot()["counters"]
    finally:
        gate.set()
        service.close()
    assert outcomes["queue_full"] > 0, "flood never filled the waiting room"
    assert outcomes["quota"] > 0, "rate-limited tenant was never refused"
    assert counters.get("rejected_queue_full", 0) == outcomes["queue_full"]
    assert counters.get("rejected_quota", 0) == outcomes["quota"]
    assert issubclass(QueueFullError, AdmissionRejectedError)
    assert issubclass(QuotaExceededError, AdmissionRejectedError)
    return {"row": "admission", "requests": 18, **outcomes}


def _sanity_check(tables, smoke) -> None:
    assert tables["serve"]["qps"] > 0
    deadline = tables["deadline"]
    assert deadline["stalls"] > 0, "the straggler never fired"
    assert deadline["timeouts"] > 0, "no request ever hit the deadline"
    assert deadline["completed"] > 0, "every request timed out"
    budget = DEADLINE_SECONDS + DEADLINE_EPSILON
    assert deadline["p99_s"] <= budget, (
        f"client p99 {deadline['p99_s']:.3f}s exceeds deadline budget "
        f"{budget:.3f}s — stragglers are not being cancelled"
    )
    assert deadline["max_s"] < STRAGGLER_SECONDS, (
        f"worst request took {deadline['max_s']:.3f}s — a straggler ran "
        f"to completion on the client path"
    )


def run_experiment(bench_corpus, rounds: int, request_count: int):
    _assert_digest_equivalence(bench_corpus)
    return {
        "serve": _serve_row(bench_corpus, rounds=rounds, request_count=request_count),
        "deadline": _deadline_row(bench_corpus, request_count=request_count),
        "admission": _admission_row(bench_corpus),
    }


BENCH = Bench(
    name="e18",
    run_experiment=run_experiment,
    smoke={"rounds": 2, "request_count": 24},
    full={"rounds": 4, "request_count": 48},
    tables={
        "serve": "E18: serving-edge throughput (clean workload)",
        "deadline": "E18: straggler scorer under per-request deadlines",
        "admission": "E18: admission flood (typed rejections)",
    },
    sanity_check=_sanity_check,
    guarded=lambda tables: {"serve_qps": tables["serve"]["qps"]},
    note=(
        "Async serving edge over an in-memory service. serve = "
        "clean-workload throughput through the frontend, evaluated inline "
        "on the event loop (digest verified byte-identical to the direct "
        "threaded driver before timing). deadline = the scorer stalls 2s on "
        "every 5th call while requests carry a 150ms deadline (pool "
        "path); the client-observed p99 across completions AND timeouts "
        "must stay within deadline + epsilon, proving cooperative "
        "cancellation bounds the tail. admission = flood of a 1-slot "
        "frontend whose slot a gated scorer holds, with a rate-limited "
        "tenant; rejections are typed "
        "AdmissionRejectedError subclasses whose counts match the metrics "
        "registry."
    ),
)

test_e18_serving = BENCH.as_test()

if __name__ == "__main__":
    raise SystemExit(BENCH.main())

"""The async serving edge over :class:`~repro.service.RetrievalService`.

:class:`ServingFrontend` is the deployment boundary ROADMAP item 3 asks
for: an asyncio frontend that admits, schedules, deadline-bounds and
accounts requests against the (threaded, deterministic) service facade
underneath.  The request path is:

1. **Admission** (synchronous, cheap): draining check, per-tenant quota
   (token-bucket rate + fair-share in-flight cap), then the bounded queue
   depth.  Refusals raise a typed
   :class:`~repro.serving.errors.AdmissionRejectedError` subclass with a
   ``retry_after`` hint — backpressure is explicit, never an unbounded
   buffer.
2. **Queueing**: the admitted request waits for one of ``max_concurrency``
   slots on an :class:`asyncio.Semaphore`; a free slot is taken without
   suspending.  A deadline that fires while queued raises
   :class:`~repro.serving.errors.DeadlineExceededError` (stage
   ``"queued"``) without ever touching the engine.
3. **Evaluation**: the request runs under a
   :class:`~repro.utils.concurrency.CancellationToken` installed in
   thread-local scope, in one of two places, decided per request from
   :attr:`~repro.retrieval.engine.VideoRetrievalEngine.may_block`:

   * *Inline*, when the engine cannot block (an in-memory scorer and no
     durability manager): the request is evaluated on
     the event loop's own thread — no worker hand-off, no completion
     wake-up, no deadline timer.  Its deadline self-fires at the engine's
     checkpoints.  The trade-off: while an in-memory evaluation runs
     (a fraction of a millisecond), the loop is busy; under the GIL it
     was busy anyway, and a free slot is taken without suspending, so a
     client that issues requests back to back holds the loop until it
     awaits something else.
   * *On the worker pool* otherwise (durable engines, whose readers can
     wait on a writer's fsync; wrapped, registered or duck-typed
     scorers).  One completion callback pays the slot back and resolves
     the awaited future, and the loop's deadline timer gives the client
     its timeout at the deadline while the abandoned worker unwinds at
     its next checkpoint and releases its slot.

   Both paths share the request body and the outcome mapping: a token
   that fires at a checkpoint, or a result that finishes past its
   deadline, becomes ``DeadlineExceededError(stage="running")``.
4. **Accounting**: per-endpoint latency quantiles (p50/p95/p99), queue
   wait, cache hit rates and every
   admission/rejection outcome land in the
   :class:`~repro.obs.MetricsRegistry`
   (:meth:`ServingFrontend.metrics_snapshot`).

Determinism: the frontend never reorders, splits or merges the work a
request submits — each request maps to exactly one facade call on one
thread — so rankings for *completed* requests are bit-identical to
calling :class:`~repro.service.RetrievalService` directly.  The serving
tests and the E18 benchmark pin that with canonical digests.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, Dict, Optional, TypeVar

from repro.obs import MetricsRegistry
from repro.serving.config import ServingConfig
from repro.serving.errors import (
    DeadlineExceededError,
    DrainingError,
    QueueFullError,
    QuotaExceededError,
)
from repro.serving.quotas import TenantQuotaManager
from repro.utils.concurrency import CancellationToken, OperationCancelledError, cancellation_scope
from repro.utils.validation import ensure_deadline

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service embeds us)
    from repro.service.service import RetrievalService
    from repro.service.types import FeedbackBatch, SearchRequest, SearchResponse, SessionInfo

T = TypeVar("T")

#: Fallback retry-after hint (seconds) before any latency has been observed.
_DEFAULT_RETRY_HINT = 0.05


class ServingFrontend:
    """Deadline-aware, admission-controlled async edge over one service.

    The frontend owns a worker pool of ``max_concurrency`` threads, started
    only once a request that may block arrives; the service underneath
    stays the single source of truth for sessions and rankings.  All
    coroutine methods must be awaited from one event loop
    at a time (the slot semaphore is loop-bound; an idle frontend rebinds
    automatically, so separate ``asyncio.run`` invocations work).
    """

    def __init__(
        self,
        service: "RetrievalService",
        config: Optional[ServingConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._service = service
        self._config = config or ServingConfig()
        self._clock = clock
        self._metrics = MetricsRegistry()
        self._quotas = TenantQuotaManager(self._config, clock=clock)
        self._executor = ThreadPoolExecutor(
            max_workers=self._config.max_concurrency, thread_name_prefix="serve"
        )
        self._state_lock = threading.Lock()
        self._waiting = 0  # admitted, not yet holding a slot
        self._running = 0  # holding a slot (includes abandoned stragglers)
        self._draining = False
        self._closed = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._slots: Optional[asyncio.Semaphore] = None

    # -- accessors ----------------------------------------------------------------

    @property
    def service(self) -> "RetrievalService":
        """The facade this frontend serves."""
        return self._service

    @property
    def config(self) -> ServingConfig:
        """The serving limits in force."""
        return self._config

    @property
    def metrics(self) -> MetricsRegistry:
        """The live metrics registry."""
        return self._metrics

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` (or :meth:`close`) has been called."""
        return self._draining

    # -- endpoints ----------------------------------------------------------------

    async def search(
        self, request: "SearchRequest", deadline_seconds: Optional[float] = None
    ) -> "SearchResponse":
        """One adaptive search through the serving edge.

        ``deadline_seconds`` overrides the config default; ``None`` with no
        config default means the request may run indefinitely.  Anything
        but ``None`` or a finite value > 0 raises ``ValueError`` before
        admission.
        """
        return await self._serve(
            "search",
            request.user_id,
            lambda: self._service.search(request),
            deadline_seconds,
        )

    async def submit_feedback(
        self, batch: "FeedbackBatch", deadline_seconds: Optional[float] = None
    ) -> "SessionInfo":
        """Route one feedback batch through the serving edge."""
        return await self._serve(
            "feedback",
            batch.user_id,
            lambda: self._service.submit_feedback(batch),
            deadline_seconds,
        )

    # -- request path -------------------------------------------------------------

    def _slots_for_loop(self) -> asyncio.Semaphore:
        """The slot semaphore, rebound if an *idle* frontend changed loops."""
        loop = asyncio.get_running_loop()
        if self._loop is not loop:
            with self._state_lock:
                busy = self._waiting + self._running
            if busy:
                raise RuntimeError(
                    "ServingFrontend is bound to a different event loop "
                    "with requests in flight"
                )
            self._loop = loop
            self._slots = asyncio.Semaphore(self._config.max_concurrency)
        assert self._slots is not None
        return self._slots

    def _retry_hint(self, endpoint: str, depth: int) -> float:
        """Crude retry-after estimate: queued work over service throughput."""
        count, mean = self._metrics.endpoint_count_and_mean(endpoint)
        if count:
            return max(
                _DEFAULT_RETRY_HINT,
                (depth + 1) * mean / self._config.max_concurrency,
            )
        return _DEFAULT_RETRY_HINT

    def _admit(self, endpoint: str, tenant: str) -> None:
        """Admission control; on success the caller owes quota + queue slot."""
        if self._draining or self._closed:
            self._metrics.increment("rejected_draining")
            raise DrainingError(self._config.drain_grace_seconds)
        reason, retry_after = self._quotas.admit(tenant)
        if reason is not None:
            self._metrics.increment("rejected_quota")
            raise QuotaExceededError(
                tenant, reason, retry_after or self._retry_hint(endpoint, 0)
            )
        with self._state_lock:
            if self._waiting >= self._config.max_queue_depth:
                depth = self._waiting
            else:
                self._waiting += 1
                return
        self._quotas.release(tenant)
        self._metrics.increment("rejected_queue_full")
        raise QueueFullError(
            depth, self._config.max_queue_depth, self._retry_hint(endpoint, depth)
        )

    async def _serve(
        self,
        endpoint: str,
        tenant: str,
        fn: Callable[[], T],
        deadline_seconds: Optional[float],
    ) -> T:
        # Refused before admission: a bad deadline consumes no quota or slot.
        ensure_deadline(deadline_seconds, "deadline_seconds")
        if deadline_seconds is None:
            deadline_seconds = self._config.default_deadline_seconds
        started = self._clock()
        slots = self._slots_for_loop()
        self._admit(endpoint, tenant)
        token = CancellationToken(
            deadline=None if deadline_seconds is None else started + deadline_seconds,
            clock=self._clock,
        )

        # -- queued: wait for one of the max_concurrency slots ------------------
        try:
            remaining = token.remaining()
            if remaining is None or not slots.locked():
                # A free slot is taken without suspending; only a contended
                # wait needs the deadline's task and timer.
                await slots.acquire()
            elif remaining <= 0:
                raise asyncio.TimeoutError
            else:
                await asyncio.wait_for(slots.acquire(), remaining)
        except asyncio.TimeoutError:
            with self._state_lock:
                self._waiting -= 1
            self._quotas.release(tenant)
            self._metrics.increment("deadline_queued")
            raise DeadlineExceededError(
                deadline_seconds or 0.0, self._clock() - started, stage="queued"
            ) from None
        except BaseException:
            with self._state_lock:
                self._waiting -= 1
            self._quotas.release(tenant)
            raise

        with self._state_lock:
            self._waiting -= 1
            self._running += 1
        self._metrics.observe_queue_wait(self._clock() - started)
        self._metrics.increment("admitted")

        # -- running: here if the engine cannot block, else on the pool ---------
        def evaluate() -> T:
            # The one request body, wherever it runs.  The checkpoint after
            # ``fn`` refuses a result that finished past its deadline even
            # when no engine checkpoint ran after the expiry.
            with cancellation_scope(token):
                token.checkpoint()
                result = fn()
                token.checkpoint()
            return result

        try:
            if self._service.engine.may_block:
                result = await self._evaluate_on_pool(evaluate, tenant, slots, token)
            else:
                try:
                    result = evaluate()
                finally:
                    self._quotas.release(tenant)
                    with self._state_lock:
                        self._running -= 1
                    slots.release()
        except asyncio.TimeoutError:
            # The pool wait's deadline timer won the race.
            token.cancel("deadline exceeded")
            self._metrics.increment("deadline_running")
            raise DeadlineExceededError(
                deadline_seconds or 0.0, self._clock() - started, stage="running"
            ) from None
        except OperationCancelledError as error:
            # The token's deadline was observed at a checkpoint (inline, or
            # on the pool before the wait's timer fired): same type.
            self._metrics.increment("deadline_running")
            raise DeadlineExceededError(
                deadline_seconds or 0.0,
                self._clock() - started,
                stage="running",
                detail=f"cancelled at checkpoint: {error.reason}",
            ) from error
        except asyncio.CancelledError:
            token.cancel("caller cancelled")
            raise
        except Exception:
            self._metrics.increment("errors")
            raise

        self._metrics.increment("completed")
        self._metrics.observe_latency(endpoint, self._clock() - started, tenant=tenant)
        return result

    async def _evaluate_on_pool(
        self,
        evaluate: Callable[[], T],
        tenant: str,
        slots: asyncio.Semaphore,
        token: CancellationToken,
    ) -> T:
        """Run ``evaluate`` on a worker; wait for it until the token's deadline."""
        loop = asyncio.get_running_loop()
        outcome: "asyncio.Future[T]" = loop.create_future()

        def finish(result: Optional[T], error: Optional[BaseException]) -> None:
            # The one loop wake-up of a request: pay the slot back and
            # resolve the awaited future.  A caller that already gave up
            # (deadline, cancellation) cancelled the future, so an abandoned
            # straggler's outcome is dropped, never "never retrieved".
            with self._state_lock:
                self._running -= 1
            slots.release()
            if outcome.done():
                return
            if error is not None:
                outcome.set_exception(error)
            else:
                outcome.set_result(result)

        def worker() -> None:
            # Quota and slot are paid back when the work *actually* ends —
            # success, failure or cooperative cancellation — never earlier,
            # so an abandoned straggler keeps its slot until it unwinds at
            # a checkpoint (which the cancelled token makes imminent).
            result, error = None, None
            try:
                result = evaluate()
            except BaseException as caught:  # delivered to the awaiting caller
                error = caught
            self._quotas.release(tenant)
            try:
                loop.call_soon_threadsafe(finish, result, error)
            except RuntimeError:
                # Loop already closed (e.g. asyncio.run returned while a
                # straggler was still unwinding): the semaphore died
                # with the loop, only the running gauge needs fixing.
                with self._state_lock:
                    self._running -= 1

        self._executor.submit(worker)
        remaining = token.remaining()
        if remaining is None:
            return await outcome
        return await asyncio.wait_for(outcome, remaining)

    # -- metrics ------------------------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, object]:
        """One JSON-serialisable snapshot of every serving metric.

        Includes instantaneous gauges (queue depth, in-flight, draining)
        sampled now, and the engine's result-cache hit statistics.
        """
        with self._state_lock:
            self._metrics.set_gauge("queue_depth", float(self._waiting))
            self._metrics.set_gauge("in_flight", float(self._running))
        self._metrics.set_gauge("draining", 1.0 if self._draining else 0.0)
        snapshot = self._metrics.snapshot()
        snapshot["result_cache"] = self._service.engine.result_cache_stats()
        return snapshot

    # -- lifecycle ----------------------------------------------------------------

    async def drain(self) -> bool:
        """Stop admitting and wait for in-flight requests to finish.

        Returns ``True`` when everything finished within the grace period,
        ``False`` if stragglers remained (they keep running; :meth:`close`
        still waits for their threads).
        """
        self._draining = True
        grace_deadline = self._clock() + self._config.drain_grace_seconds
        while True:
            with self._state_lock:
                busy = self._waiting + self._running
            if busy == 0:
                return True
            if self._clock() >= grace_deadline:
                return False
            await asyncio.sleep(0.005)

    def close(self) -> None:
        """Stop admitting and wait for worker threads.

        Idempotent; the underlying service stays open (it has its own
        ``close``).
        """
        self._draining = True
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True)

    async def aclose(self) -> bool:
        """:meth:`drain` then :meth:`close`; returns the drain verdict."""
        drained = await self.drain()
        self.close()
        return drained

    def __enter__(self) -> "ServingFrontend":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

"""Concurrency primitives for the read-mostly serving path.

The service's hot path is overwhelmingly reads: many user sessions searching
one shared, rarely-mutated index.  :class:`ReadWriteLock` encodes that
discipline — any number of readers proceed together without blocking each
other, while a writer (corpus/index mutation) waits for in-flight readers to
drain and then runs exclusively.  Writers are preferred once waiting, so a
steady stream of searches cannot starve an index update.

:class:`ScatterGather` is the fan-out side of the same serving story: a
partitioned operation (one sub-task per index shard) runs every sub-task on
a small persistent thread pool and collects the results back in sub-task
order, so callers see a deterministic gather regardless of completion
order.

:class:`CancellationToken` is the cooperative-cancellation primitive the
serving edge builds request deadlines on.  A token is observed at explicit
*checkpoints* (:meth:`CancellationToken.checkpoint`) placed on the search
path — between evidence sources in the engine, at every scatter-gather
dispatch and gather — so a request that exceeds its deadline stops at the
next checkpoint instead of running to completion.  Cancellation never
interrupts work mid-mutation: a checkpoint either passes (work continues
unchanged, results bit-identical to an uncancelled run) or raises
:class:`OperationCancelledError` before any externally visible state —
result caches, session iterations — has been touched.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence, TypeVar

from repro.utils.validation import ensure_positive

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

#: How often a gather blocked on a straggler sub-task re-checks its
#: cancellation token.  Bounds the latency between a deadline firing and
#: the request returning to roughly this interval.
_CANCEL_POLL_SECONDS = 0.02


class OperationCancelledError(RuntimeError):
    """Raised at a cancellation checkpoint once the request's token fired.

    Deliberately *not* a subclass of ``concurrent.futures.CancelledError``
    or ``asyncio.CancelledError``: cancellation here is cooperative and
    raised on the worker thread doing the work, and it must propagate
    through ordinary ``except Exception`` cleanup layers predictably.
    """

    def __init__(self, reason: str = "operation cancelled") -> None:
        self.reason = reason
        super().__init__(reason)


class CancellationToken:
    """A thread-safe cancellation flag with an optional deadline.

    The token is *observed*, never enforced: work must call
    :meth:`checkpoint` (or check :attr:`cancelled`) at safe points.  A
    token fires either explicitly (:meth:`cancel`) or implicitly once its
    monotonic ``deadline`` passes — so worker threads notice an expired
    deadline on their own, even if the party that set the deadline never
    gets a chance to call :meth:`cancel`.

    ``clock`` is injectable for deterministic tests; it must be monotonic
    and is compared against ``deadline`` directly.
    """

    def __init__(
        self,
        deadline: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._event = threading.Event()
        self._deadline = deadline
        self._clock = clock
        self._reason = "operation cancelled"

    @property
    def deadline(self) -> Optional[float]:
        """The monotonic deadline, or ``None`` when only explicit."""
        return self._deadline

    @property
    def reason(self) -> str:
        """Why the token fired (meaningful once :attr:`cancelled`)."""
        return self._reason

    def cancel(self, reason: str = "operation cancelled") -> None:
        """Fire the token explicitly (idempotent; first reason wins)."""
        if not self._event.is_set():
            self._reason = reason
            self._event.set()

    @property
    def cancelled(self) -> bool:
        """True once the token fired or its deadline passed."""
        if self._event.is_set():
            return True
        if self._deadline is not None and self._clock() >= self._deadline:
            self._reason = "deadline exceeded"
            self._event.set()
            return True
        return False

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (never negative), or ``None``."""
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - self._clock())

    def checkpoint(self) -> None:
        """Raise :class:`OperationCancelledError` if the token fired."""
        if self.cancelled:
            raise OperationCancelledError(self._reason)


_CURRENT_TOKEN = threading.local()


def current_cancellation_token() -> Optional[CancellationToken]:
    """The calling thread's active cancellation token, if any."""
    return getattr(_CURRENT_TOKEN, "token", None)


@contextmanager
def cancellation_scope(token: Optional[CancellationToken]) -> Iterator[None]:
    """Install ``token`` as the calling thread's active token for the scope.

    Checkpoints on the search path (:func:`checkpoint_if_cancelled`,
    :meth:`ScatterGather.map`) pick the token up implicitly, so deadline
    enforcement needs no plumbing through the engine's call signatures.
    Scopes nest; the previous token is restored on exit.
    """
    previous = getattr(_CURRENT_TOKEN, "token", None)
    _CURRENT_TOKEN.token = token
    try:
        yield
    finally:
        _CURRENT_TOKEN.token = previous


def checkpoint_if_cancelled() -> None:
    """Checkpoint the calling thread's active token (no-op without one)."""
    token = getattr(_CURRENT_TOKEN, "token", None)
    if token is not None:
        token.checkpoint()


class ReadWriteLock:
    """A writer-preferring readers/writer lock.

    Readers acquire the shared side (:meth:`read_locked`): they never block
    one another, only a live or waiting writer.  Writers acquire the
    exclusive side (:meth:`write_locked`): they wait for current readers to
    finish and block new readers from entering while waiting, so mutation
    latency is bounded by the longest in-flight read, not by the arrival
    rate of new reads.

    The read side is reentrant per thread: a thread already holding it may
    acquire it again (e.g. a service request holding the read side calls
    into ``engine.search``, which takes it as well) without deadlocking
    against a waiting writer.  The write side is not reentrant, and a
    thread must not acquire the write side while holding the read side.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._active_readers = 0
        self._writer_active = False
        self._writers_waiting = 0
        self._local = threading.local()

    def acquire_read(self) -> None:
        """Enter the shared (reader) side (reentrant per thread)."""
        depth = getattr(self._local, "read_depth", 0)
        if depth:
            self._local.read_depth = depth + 1
            return
        with self._condition:
            while self._writer_active or self._writers_waiting:
                self._condition.wait()
            self._active_readers += 1
        self._local.read_depth = 1

    def release_read(self) -> None:
        """Leave the shared (reader) side."""
        depth = getattr(self._local, "read_depth", 0)
        if depth > 1:
            self._local.read_depth = depth - 1
            return
        self._local.read_depth = 0
        with self._condition:
            self._active_readers -= 1
            if self._active_readers == 0:
                self._condition.notify_all()

    def acquire_write(self) -> None:
        """Enter the exclusive (writer) side."""
        with self._condition:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._active_readers:
                    self._condition.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        """Leave the exclusive (writer) side."""
        with self._condition:
            self._writer_active = False
            self._condition.notify_all()

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        """``with`` scope holding the shared side."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        """``with`` scope holding the exclusive side."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    @property
    def active_readers(self) -> int:
        """Number of threads currently holding the shared side."""
        with self._condition:
            return self._active_readers

    @property
    def writer_active(self) -> bool:
        """Whether a thread currently holds the exclusive side."""
        with self._condition:
            return self._writer_active


class ScatterGather:
    """Scatter one callable over a list of items and gather results in order.

    Built for per-shard fan-out on the search path: the pool is created
    lazily and reused across calls (a search must not pay thread start-up
    costs), results come back in **item order** (never completion order, so
    merges are deterministic), and the first sub-task exception propagates
    to the caller unchanged.  With ``max_workers`` of 1 — or a single item —
    everything runs inline on the calling thread, which keeps the
    one-shard configuration free of any threading overhead.  A pool pays
    only where sub-tasks wait (I/O, a lock, a sleep): callers whose
    sub-tasks are pure Python computation — the sharded text scorer over
    in-memory kernels — loop inline instead of calling :meth:`map`.

    Worker threads never take engine locks (shard sub-tasks are pure reads
    over the shard's own structures), so scattering from inside the
    engine's shared read scope cannot deadlock against a waiting writer.
    """

    def __init__(self, max_workers: int, thread_name_prefix: str = "scatter") -> None:
        ensure_positive(max_workers, "max_workers")
        self._max_workers = max_workers
        self._thread_name_prefix = thread_name_prefix
        self._pool: "ThreadPoolExecutor | None" = None
        self._closed = False
        self._pool_lock = threading.Lock()
        # Maps currently scattering on the pool.  close() racing a map must
        # never shut the pool down underneath it (ThreadPoolExecutor raises
        # "cannot schedule new futures after shutdown"); the shutdown is
        # deferred to whichever party — close() or the last in-flight map —
        # observes the pool unused last.
        self._inflight = 0

    @property
    def max_workers(self) -> int:
        """Upper bound on concurrent sub-tasks."""
        return self._max_workers

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called (maps then run inline)."""
        with self._pool_lock:
            return self._closed

    def _acquire_pool(self) -> "ThreadPoolExecutor | None":
        """The pool to scatter on, or ``None`` to run inline.

        Checked and (lazily) created under the lock so a ``map`` racing
        :meth:`close` can never resurrect a pool after shutdown — once
        closed, every map runs inline, permanently.  A returned pool is
        pinned (in-flight count) until the matching :meth:`_release_pool`,
        so a concurrent close cannot hand this map a dead pool.
        """
        with self._pool_lock:
            if self._closed or self._max_workers <= 1:
                return None
            pool = self._pool
            if pool is None:
                pool = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix=self._thread_name_prefix,
                )
                self._pool = pool
            self._inflight += 1
            return pool

    def _release_pool(self) -> None:
        """Unpin the pool; run the shutdown a concurrent close deferred."""
        with self._pool_lock:
            self._inflight -= 1
            pool = None
            if self._closed and self._inflight == 0:
                pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def map(
        self,
        task: Callable[[ItemT], ResultT],
        items: Sequence[ItemT],
        cancel_token: Optional[CancellationToken] = None,
    ) -> List[ResultT]:
        """``[task(item) for item in items]``, fanned out over the pool.

        Results are returned in item order; the first failing sub-task's
        exception is re-raised (remaining sub-tasks still run to completion
        on the pool, but their results are discarded).  Safe against a
        concurrent :meth:`close`: a map that already holds the pool finishes
        on it, later maps run inline.

        Cancellation checkpoints: with a ``cancel_token`` (explicit, or the
        calling thread's :func:`current_cancellation_token`), the scatter
        checkpoints before dispatch, every pooled sub-task checkpoints on
        entry — so sub-tasks of a request that already timed out exit
        immediately instead of consuming executor slots — and the gather
        polls the token while waiting on a straggler, raising
        :class:`OperationCancelledError` within ``_CANCEL_POLL_SECONDS`` of
        the token firing (abandoned sub-tasks finish on the pool; their
        results are discarded).  A map that completes without the token
        firing returns exactly what an uncancelled map would.
        """
        items = list(items)
        token = cancel_token if cancel_token is not None else current_cancellation_token()
        if token is not None:
            token.checkpoint()
        pool = self._acquire_pool() if len(items) > 1 else None
        if pool is None:
            if token is None:
                return [task(item) for item in items]
            results: List[ResultT] = []
            for item in items:
                token.checkpoint()
                results.append(task(item))
            return results
        try:
            if token is None:
                futures = [pool.submit(task, item) for item in items]
                return [future.result() for future in futures]

            def run(item: ItemT) -> ResultT:
                # Entry checkpoint: a queued sub-task whose request already
                # timed out frees its slot without doing shard work.  The
                # scope re-installs the token on the pool thread so nested
                # checkpoints inside the task observe it too.
                token.checkpoint()
                with cancellation_scope(token):
                    return task(item)

            futures = [pool.submit(run, item) for item in items]
            gathered: List[ResultT] = []
            for future in futures:
                while True:
                    try:
                        gathered.append(future.result(timeout=_CANCEL_POLL_SECONDS))
                        break
                    except FutureTimeoutError:
                        token.checkpoint()
            return gathered
        finally:
            self._release_pool()

    def close(self) -> None:
        """Shut the pool down (idempotent); subsequent maps run inline.

        Safe to call concurrently with :meth:`map` (and with other closes):
        in-flight maps complete on the pool, whose shutdown is deferred to
        the last of them; maps that arrive after this call run inline.
        """
        with self._pool_lock:
            self._closed = True
            pool = None
            if self._inflight == 0:
                pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

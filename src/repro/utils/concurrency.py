"""Concurrency primitives for the read-mostly serving path.

The service's hot path is overwhelmingly reads: many user sessions searching
one shared, rarely-mutated index.  :class:`ReadWriteLock` encodes that
discipline — any number of readers proceed together without blocking each
other, while a writer (corpus/index mutation) waits for in-flight readers to
drain and then runs exclusively.  Writers are preferred once waiting, so a
steady stream of searches cannot starve an index update.

:class:`CancellationToken` is the cooperative-cancellation primitive the
serving edge builds request deadlines on.  A token is observed at explicit
*checkpoints* (:meth:`CancellationToken.checkpoint`) placed on the search
path — between evidence sources in the engine — so a request that exceeds
its deadline stops at the next checkpoint instead of running to
completion.  Cancellation never
interrupts work mid-mutation: a checkpoint either passes (work continues
unchanged, results bit-identical to an uncancelled run) or raises
:class:`OperationCancelledError` before any externally visible state —
result caches, session iterations — has been touched.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro.errors import ReproError


class OperationCancelledError(RuntimeError, ReproError):
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

    The flag is a plain attribute, not a :class:`threading.Event`: nothing
    waits on a token, and an attribute write is seen by every thread, so a
    token costs no lock or condition per request.
    """

    def __init__(
        self,
        deadline: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._fired = False
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
        if not self._fired:
            self._reason = reason
            self._fired = True

    @property
    def cancelled(self) -> bool:
        """True once the token fired or its deadline passed."""
        if self._fired:
            return True
        if self._deadline is not None and self._clock() >= self._deadline:
            self._reason = "deadline exceeded"
            self._fired = True
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

    Checkpoints on the search path (:func:`checkpoint_if_cancelled`) pick
    the token up implicitly, so deadline
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

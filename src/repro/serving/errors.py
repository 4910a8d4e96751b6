"""Typed errors of the async serving edge.

Admission failures and deadline expiries are *expected* outcomes under
load, not bugs, so they get a typed hierarchy callers can branch on:

* :class:`AdmissionRejectedError` — the request never started; the
  ``retry_after`` hint tells a well-behaved client when capacity is
  plausibly available again.  Subclasses say why: the admission queue was
  full (:class:`QueueFullError`), the tenant exhausted its token bucket or
  fair-share allowance (:class:`QuotaExceededError`), or the frontend is
  draining for shutdown (:class:`DrainingError`).
* :class:`DeadlineExceededError` — the request *was* admitted but its
  deadline fired before a result was produced; the work it started is
  cooperatively cancelled (see
  :class:`~repro.utils.concurrency.CancellationToken`).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ReproError


class AdmissionRejectedError(RuntimeError, ReproError):
    """A request was refused before any retrieval work started.

    ``retry_after`` is a coarse hint in seconds (never negative); clients
    should treat it as the earliest sensible retry time, not a promise.
    """

    def __init__(self, reason: str, retry_after: float = 0.0) -> None:
        self.reason = reason
        self.retry_after = max(0.0, float(retry_after))
        super().__init__(f"{reason} (retry after {self.retry_after:.3f}s)")


class QueueFullError(AdmissionRejectedError):
    """The bounded admission queue is at capacity — explicit backpressure."""

    def __init__(self, depth: int, limit: int, retry_after: float = 0.0) -> None:
        self.depth = depth
        self.limit = limit
        super().__init__(
            f"admission queue full ({depth}/{limit} waiting)", retry_after
        )


class QuotaExceededError(AdmissionRejectedError):
    """The tenant's rate limit or fair-share allowance is exhausted."""

    def __init__(self, tenant: str, reason: str, retry_after: float = 0.0) -> None:
        self.tenant = tenant
        super().__init__(f"tenant {tenant!r}: {reason}", retry_after)


class DrainingError(AdmissionRejectedError):
    """The frontend is draining for shutdown and admits no new work."""

    def __init__(self, retry_after: float = 0.0) -> None:
        super().__init__("frontend is draining: not admitting new requests", retry_after)


class DeadlineExceededError(TimeoutError, ReproError):
    """An admitted request's deadline fired before its result was ready.

    ``elapsed`` is how long the request was in the system when it timed
    out; ``stage`` says where (``"queued"`` — never got a slot — or
    ``"running"`` — cancelled mid-evaluation).
    """

    def __init__(
        self,
        deadline: float,
        elapsed: float,
        stage: str = "running",
        detail: Optional[str] = None,
    ) -> None:
        self.deadline = float(deadline)
        self.elapsed = float(elapsed)
        self.stage = stage
        super().__init__(
            detail
            or (
                f"deadline of {deadline:.3f}s exceeded after {elapsed:.3f}s "
                f"({stage})"
            )
        )

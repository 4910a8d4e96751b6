"""Per-tenant admission quotas: token buckets and fair-share slot caps.

A tenant's sustained admission rate is governed by a classic token bucket
(``rate`` tokens/second refill, ``burst`` capacity), and its share of the
frontend's concurrency slots by an in-flight counter capped at
``max_in_flight``.  Both are resolved from the
:class:`~repro.serving.config.ServingConfig` (explicit per-tenant entries,
else the default quota, else unthrottled).

The clock is injectable (monotonic seconds) so the quota tests are
deterministic — they advance a fake clock instead of sleeping.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional, Tuple

from repro.errors import InvalidArgumentError
from repro.serving.config import ServingConfig, TenantQuota
from repro.utils.validation import ensure_positive

Clock = Callable[[], float]


class TokenBucket:
    """A thread-safe token bucket: ``rate`` tokens/s refill, ``burst`` cap."""

    def __init__(self, rate: float, burst: int, clock: Clock = time.monotonic) -> None:
        ensure_positive(rate, "rate")
        if burst < 1:
            raise InvalidArgumentError(f"burst must be at least 1, got {burst}")
        self._rate = float(rate)
        self._burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._updated = clock()
        self._lock = threading.Lock()

    def _refill_locked(self, now: float) -> None:
        elapsed = now - self._updated
        if elapsed > 0:
            self._tokens = min(self._burst, self._tokens + elapsed * self._rate)
        self._updated = now

    def try_acquire(self, tokens: float = 1.0) -> Tuple[bool, float]:
        """Spend ``tokens`` if available.

        Returns ``(acquired, retry_after)`` — on refusal ``retry_after``
        is how long until the bucket will have refilled enough.
        """
        with self._lock:
            now = self._clock()
            self._refill_locked(now)
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True, 0.0
            deficit = tokens - self._tokens
            return False, deficit / self._rate

    def available(self) -> float:
        """Tokens currently in the bucket (after refill)."""
        with self._lock:
            self._refill_locked(self._clock())
            return self._tokens


class TenantQuotaManager:
    """Resolve, enforce and account per-tenant admission quotas.

    One instance per frontend.  ``admit(tenant)`` answers with
    ``(None, 0.0)`` on success — the tenant's in-flight count is already
    incremented and must be paid back with ``release(tenant)`` exactly
    once — or ``(reason, retry_after)`` on refusal, in which case nothing
    was consumed.
    """

    def __init__(self, config: ServingConfig, clock: Clock = time.monotonic) -> None:
        self._config = config
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: Dict[str, TokenBucket] = {}
        self._in_flight: Dict[str, int] = {}

    def _bucket_for(self, tenant: str, quota: TenantQuota) -> Optional[TokenBucket]:
        if quota.rate is None:
            return None
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = TokenBucket(
                    quota.rate, quota.effective_burst(), clock=self._clock
                )
                self._buckets[tenant] = bucket
            return bucket

    def admit(self, tenant: str) -> Tuple[Optional[str], float]:
        """Try to admit one request for ``tenant``.

        Fair-share (in-flight cap) is checked before the token bucket so a
        refusal for slot pressure does not burn a rate token.
        """
        quota = self._config.quota_for(tenant)
        if quota is None:
            with self._lock:
                self._in_flight[tenant] = self._in_flight.get(tenant, 0) + 1
            return None, 0.0
        with self._lock:
            holding = self._in_flight.get(tenant, 0)
            if quota.max_in_flight is not None and holding >= quota.max_in_flight:
                return (
                    f"fair-share limit reached ({holding}/{quota.max_in_flight} "
                    f"requests in flight)",
                    0.0,
                )
            # Reserve the slot optimistically; rolled back below if the
            # token bucket refuses, so a racing request cannot oversubscribe
            # the cap while this one is still consulting the bucket.
            self._in_flight[tenant] = holding + 1
        bucket = self._bucket_for(tenant, quota)
        if bucket is not None:
            acquired, retry_after = bucket.try_acquire()
            if not acquired:
                self.release(tenant)
                return "rate limit exceeded", retry_after
        return None, 0.0

    def release(self, tenant: str) -> None:
        """Pay back one admitted request's in-flight slot."""
        with self._lock:
            holding = self._in_flight.get(tenant, 0)
            if holding <= 1:
                self._in_flight.pop(tenant, None)
            else:
                self._in_flight[tenant] = holding - 1

    def in_flight(self, tenant: str) -> int:
        """How many admitted requests the tenant currently holds."""
        with self._lock:
            return self._in_flight.get(tenant, 0)

    def total_in_flight(self) -> int:
        """Admitted requests across all tenants."""
        with self._lock:
            return sum(self._in_flight.values())

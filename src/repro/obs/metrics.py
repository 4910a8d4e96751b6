"""Structured metrics: counters, gauges, latency quantiles, queue wait.

Latency distributions are tracked per endpoint by :class:`LatencyTrack`.
Up to :data:`_EXACT_LIMIT` observations a track answers its quantiles
from an exact sorted buffer, so short test runs and smokes see true
values.  Past it, quantiles come from a sparse logarithmic histogram
that every observation lands in with one dict increment, as in DDSketch
(Masson, Rim and Lee, VLDB 2019):

* bucket ``k`` counts the latencies in ``(γ^(k-1), γ^k]``, with
  ``γ = (1 + α) / (1 - α)`` and ``α`` = :data:`RELATIVE_ACCURACY`;
  a latency of exactly zero goes to a separate zero count;
* a quantile ``q`` walks the buckets in order to rank ``q·(n−1)`` and
  returns that bucket's midpoint ``2γ^k / (γ + 1)``, capped at the
  track's max.

Every value in bucket ``k`` lies within ``α`` of its midpoint, so a
reported p50/p95/p99 is within 1 % of the exact latency at its rank, on
any distribution.  The buckets are sparse: one per occupied 2 % band, so
a track spanning 1 µs to 10 s holds at most ~800, and a served
endpoint's track typically 50–200.  There is no sampling and no RNG: a
deterministic observation sequence gives a deterministic snapshot.

The P² estimator (Jain and Chlamtac) that this replaced kept five markers
per quantile and updated them all on every observation: three quantiles
per track and three tracks per served request came to tens of
microseconds of pure Python a request, with no bound on the error.

Everything here is thread-safe: observations arrive from executor worker
threads and from the event loop, snapshots from whoever asks.
"""

from __future__ import annotations

import math
import threading
from bisect import insort
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.errors import InvalidArgumentError

#: Observation count up to which quantiles are answered exactly from a
#: sorted buffer; past it the histogram takes over.
_EXACT_LIMIT = 64

#: The quantiles every latency track estimates.
TRACKED_QUANTILES = (0.5, 0.95, 0.99)

#: Relative error bound of a histogram quantile (``α``).
RELATIVE_ACCURACY = 0.01

_GAMMA = (1.0 + RELATIVE_ACCURACY) / (1.0 - RELATIVE_ACCURACY)
_LOG_GAMMA = math.log(_GAMMA)
#: Bucket ``k``'s midpoint is ``_MIDPOINT * γ**k``.
_MIDPOINT = 2.0 / (_GAMMA + 1.0)

#: Tenants whose per-endpoint tracks a registry keeps: the ones observed
#: most recently.  An evicted tenant's latencies stay in the endpoint
#: tracks.
TENANT_TRACKS = 1024


def _latency(seconds: float) -> float:
    """``seconds`` as a float, refused unless finite and non-negative."""
    value = float(seconds)
    if not 0.0 <= value < math.inf:
        raise InvalidArgumentError(
            f"latency must be a finite number of seconds >= 0, got {seconds!r}"
        )
    return value


def exact_quantile(sorted_values: List[float], quantile: float) -> float:
    """Nearest-rank-with-interpolation quantile of a sorted buffer."""
    if not sorted_values:
        raise ValueError("no observations")
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = quantile * (len(sorted_values) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = rank - low
    return sorted_values[low] * (1.0 - fraction) + sorted_values[high] * fraction


class LatencyTrack:
    """Latency distribution of one endpoint: count/mean/max + quantiles.

    Exact (sorted buffer) up to :data:`_EXACT_LIMIT` observations, a
    log-bucket histogram within :data:`RELATIVE_ACCURACY` beyond.
    Thread-safe.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._exact: List[float] = []
        self._buckets: Dict[int, int] = {}
        self._zeros = 0
        self._count = 0
        self._total = 0.0
        self._max = 0.0

    def observe(self, seconds: float) -> None:
        """Absorb one latency observation (in seconds).

        A negative, infinite or NaN value raises
        :class:`~repro.errors.InvalidArgumentError` and changes nothing.
        """
        seconds = _latency(seconds)
        with self._lock:
            self._count += 1
            self._total += seconds
            if seconds > self._max:
                self._max = seconds
            if self._count <= _EXACT_LIMIT:
                insort(self._exact, seconds)
            if seconds > 0.0:
                key = math.ceil(math.log(seconds) / _LOG_GAMMA)
                self._buckets[key] = self._buckets.get(key, 0) + 1
            else:
                self._zeros += 1

    def _histogram_quantiles(self) -> List[float]:
        # The caller holds the lock.  Ranks ascend, so one walk serves all.
        estimates = []
        keys = iter(sorted(self._buckets))
        seen, estimate = self._zeros, 0.0
        for quantile in TRACKED_QUANTILES:
            rank = quantile * (self._count - 1)
            while seen <= rank:
                key = next(keys)
                seen += self._buckets[key]
                estimate = min(_MIDPOINT * _GAMMA**key, self._max)
            estimates.append(estimate)
        return estimates

    def count_and_mean(self) -> Tuple[int, float]:
        """Observation count and mean, without computing any quantile."""
        with self._lock:
            count = self._count
            return count, (self._total / count if count else 0.0)

    def snapshot(self) -> Dict[str, float]:
        """Count, mean, max and the tracked quantiles, as a plain dict."""
        with self._lock:
            if self._count == 0:
                return {"count": 0.0}
            out: Dict[str, float] = {
                "count": float(self._count),
                "mean": self._total / self._count,
                "max": self._max,
            }
            if self._count <= _EXACT_LIMIT:
                values = [exact_quantile(self._exact, q) for q in TRACKED_QUANTILES]
            else:
                values = self._histogram_quantiles()
            for quantile, value in zip(TRACKED_QUANTILES, values):
                out[f"p{int(quantile * 100)}"] = value
            return out


class MetricsRegistry:
    """All serving metrics behind one snapshot.

    * ``observe_latency(endpoint, seconds, tenant=None)`` — per-endpoint
      latency distributions (p50/p95/p99 via :class:`LatencyTrack`), with
      an optional per-tenant breakdown of the same distributions for the
      :data:`TENANT_TRACKS` tenants observed most recently (each eviction
      counts in ``counters["tenant_tracks_evicted"]``).
    * ``increment(counter)`` — admission/rejection/outcome counters.
    * ``observe_queue_wait(seconds)`` — a dedicated track for
      admission-queue wait.
    * ``set_gauge(name, value)`` — instantaneous values (queue depth,
      in-flight count) sampled at snapshot time by the frontend.

    :meth:`snapshot` returns one nested plain-``dict``/``float`` structure
    (JSON-serialisable as-is) so the CLI and tests can consume it directly.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._latency: Dict[str, LatencyTrack] = {}
        self._tenant_latency: "OrderedDict[str, Dict[str, LatencyTrack]]" = OrderedDict()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._queue_wait = LatencyTrack()

    def observe_latency(
        self, endpoint: str, seconds: float, tenant: Optional[str] = None
    ) -> None:
        """Record one completed request's latency for an endpoint.

        With ``tenant`` set the observation additionally lands in that
        tenant's per-endpoint track, so :meth:`snapshot` can break the
        same distributions down per tenant.  A negative, infinite or NaN
        value raises :class:`~repro.errors.InvalidArgumentError` before
        any track is created.
        """
        seconds = _latency(seconds)
        with self._lock:
            track = self._latency.get(endpoint)
            if track is None:
                track = self._latency[endpoint] = LatencyTrack()
            tenant_track = None
            if tenant is not None:
                tenants = self._tenant_latency
                by_endpoint = tenants.get(tenant)
                if by_endpoint is None:
                    by_endpoint = tenants[tenant] = {}
                    if len(tenants) > TENANT_TRACKS:
                        tenants.popitem(last=False)
                        evicted = self._counters.get("tenant_tracks_evicted", 0)
                        self._counters["tenant_tracks_evicted"] = evicted + 1
                else:
                    tenants.move_to_end(tenant)
                tenant_track = by_endpoint.get(endpoint)
                if tenant_track is None:
                    tenant_track = by_endpoint[endpoint] = LatencyTrack()
        track.observe(seconds)
        if tenant_track is not None:
            tenant_track.observe(seconds)

    def endpoint_count_and_mean(self, endpoint: str) -> Tuple[int, float]:
        """One endpoint's latency count and mean; ``(0, 0.0)`` if unseen.

        A cheap read for the admission path: no other track is touched and
        no quantile is computed.
        """
        with self._lock:
            track = self._latency.get(endpoint)
        return track.count_and_mean() if track is not None else (0, 0.0)

    def observe_queue_wait(self, seconds: float) -> None:
        """Record how long one admitted request waited for a slot."""
        self._queue_wait.observe(seconds)

    def increment(self, counter: str, amount: int = 1) -> None:
        """Bump a named counter."""
        with self._lock:
            self._counters[counter] = self._counters.get(counter, 0) + amount

    def counter(self, name: str) -> int:
        """Current value of a counter (0 if never bumped)."""
        with self._lock:
            return self._counters.get(name, 0)

    def set_gauge(self, name: str, value: float) -> None:
        """Set an instantaneous gauge value."""
        with self._lock:
            self._gauges[name] = float(value)

    def snapshot(self) -> Dict[str, object]:
        """One JSON-serialisable view of every metric."""
        with self._lock:
            latency_tracks = dict(self._latency)
            tenant_tracks = {
                tenant: dict(by_endpoint)
                for tenant, by_endpoint in self._tenant_latency.items()
            }
            counters = dict(self._counters)
            gauges = dict(self._gauges)
        return {
            "endpoints": {
                name: track.snapshot() for name, track in sorted(latency_tracks.items())
            },
            "tenants": {
                tenant: {
                    name: track.snapshot()
                    for name, track in sorted(by_endpoint.items())
                }
                for tenant, by_endpoint in sorted(tenant_tracks.items())
            },
            "counters": {name: counters[name] for name in sorted(counters)},
            "gauges": {name: gauges[name] for name in sorted(gauges)},
            "queue_wait": self._queue_wait.snapshot(),
        }

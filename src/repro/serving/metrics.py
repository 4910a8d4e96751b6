"""Structured serving metrics: counters, latency quantiles, queue wait.

Latency distributions are tracked per endpoint with the P² (P-square)
streaming quantile estimator of Jain & Chlamtac — O(1) memory per tracked
quantile, no sampling and no RNG, so snapshots are deterministic for a
deterministic observation sequence.  For small streams (at most
:data:`_EXACT_LIMIT` observations) the sketch answers from its exact
sorted buffer instead, so short test runs and smokes see true quantiles
rather than extrapolations.

Everything here is thread-safe: observations arrive from executor worker
threads and from the event loop, snapshots from whoever asks.
"""

from __future__ import annotations

import threading
from bisect import insort
from typing import Dict, List, Optional, Tuple

#: Observation count up to which quantiles are answered exactly from a
#: sorted buffer; past it the P² markers take over.
_EXACT_LIMIT = 64

#: The quantiles every latency track estimates.
TRACKED_QUANTILES = (0.5, 0.95, 0.99)


class P2Quantile:
    """One streaming quantile via the P² algorithm (5 markers, O(1) memory).

    Not thread-safe on its own; :class:`LatencyTrack` serialises access.
    """

    def __init__(self, quantile: float) -> None:
        if not 0.0 < quantile < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {quantile}")
        self._q = quantile
        self._heights: List[float] = []
        # Marker positions (1-based, as in the paper) and their desired
        # positions; only meaningful once 5 observations have arrived.
        self._positions = [1, 2, 3, 4, 5]
        self._desired = [1.0, 1.0, 1.0, 1.0, 1.0]
        self._increments = [
            0.0,
            quantile / 2.0,
            quantile,
            (1.0 + quantile) / 2.0,
            1.0,
        ]
        self._count = 0

    @property
    def count(self) -> int:
        """Observations absorbed so far."""
        return self._count

    def observe(self, value: float) -> None:
        """Absorb one observation."""
        value = float(value)
        self._count += 1
        heights = self._heights
        if self._count <= 5:
            insort(heights, value)
            if self._count == 5:
                q = self._q
                self._desired = [
                    1.0,
                    1.0 + 2.0 * q,
                    1.0 + 4.0 * q,
                    3.0 + 2.0 * q,
                    5.0,
                ]
            return
        # Locate the cell the new observation falls into and bump markers.
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while cell < 3 and value >= heights[cell + 1]:
                cell += 1
        positions = self._positions
        for index in range(cell + 1, 5):
            positions[index] += 1
        desired = self._desired
        for index in range(5):
            desired[index] += self._increments[index]
        # Adjust the three interior markers toward their desired positions
        # with the piecewise-parabolic (hence "P²") height update.
        for index in range(1, 4):
            drift = desired[index] - positions[index]
            if (drift >= 1.0 and positions[index + 1] - positions[index] > 1) or (
                drift <= -1.0 and positions[index - 1] - positions[index] < -1
            ):
                step = 1 if drift >= 1.0 else -1
                candidate = self._parabolic(index, step)
                if heights[index - 1] < candidate < heights[index + 1]:
                    heights[index] = candidate
                else:
                    heights[index] = self._linear(index, step)
                positions[index] += step

    def _parabolic(self, index: int, step: int) -> float:
        heights, positions = self._heights, self._positions
        return heights[index] + step / (
            positions[index + 1] - positions[index - 1]
        ) * (
            (positions[index] - positions[index - 1] + step)
            * (heights[index + 1] - heights[index])
            / (positions[index + 1] - positions[index])
            + (positions[index + 1] - positions[index] - step)
            * (heights[index] - heights[index - 1])
            / (positions[index] - positions[index - 1])
        )

    def _linear(self, index: int, step: int) -> float:
        heights, positions = self._heights, self._positions
        return heights[index] + step * (
            heights[index + step] - heights[index]
        ) / (positions[index + step] - positions[index])

    def value(self) -> Optional[float]:
        """The current quantile estimate (``None`` before any observation)."""
        if self._count == 0:
            return None
        if self._count <= 5:
            return _exact_quantile(self._heights, self._q)
        return self._heights[2]


def _exact_quantile(sorted_values: List[float], quantile: float) -> float:
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

    Exact (sorted buffer) up to :data:`_EXACT_LIMIT` observations, P²
    estimates beyond.  Thread-safe.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sketches = [P2Quantile(q) for q in TRACKED_QUANTILES]
        self._exact: List[float] = []
        self._count = 0
        self._total = 0.0
        self._max = 0.0

    def observe(self, seconds: float) -> None:
        """Absorb one latency observation (in seconds)."""
        seconds = float(seconds)
        with self._lock:
            self._count += 1
            self._total += seconds
            if seconds > self._max:
                self._max = seconds
            if len(self._exact) < _EXACT_LIMIT:
                insort(self._exact, seconds)
            for sketch in self._sketches:
                sketch.observe(seconds)

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
            exact = self._count <= len(self._exact)
            for quantile, sketch in zip(TRACKED_QUANTILES, self._sketches):
                key = f"p{int(quantile * 100)}"
                if exact:
                    out[key] = _exact_quantile(self._exact, quantile)
                else:
                    estimate = sketch.value()
                    out[key] = estimate if estimate is not None else 0.0
            return out


class MetricsRegistry:
    """All serving metrics behind one snapshot.

    * ``observe_latency(endpoint, seconds, tenant=None)`` — per-endpoint
      latency distributions (p50/p95/p99 via :class:`LatencyTrack`), with
      an optional per-tenant breakdown of the same distributions.
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
        self._tenant_latency: Dict[str, Dict[str, LatencyTrack]] = {}
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._queue_wait = LatencyTrack()

    def observe_latency(
        self, endpoint: str, seconds: float, tenant: Optional[str] = None
    ) -> None:
        """Record one completed request's latency for an endpoint.

        With ``tenant`` set the observation additionally lands in that
        tenant's per-endpoint track, so :meth:`snapshot` can break the
        same distributions down per tenant.
        """
        with self._lock:
            track = self._latency.get(endpoint)
            if track is None:
                track = self._latency[endpoint] = LatencyTrack()
            tenant_track = None
            if tenant is not None:
                by_endpoint = self._tenant_latency.setdefault(tenant, {})
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

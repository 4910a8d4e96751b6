"""Observability: the metrics every layer reports into.

:class:`MetricsRegistry` holds counters, gauges and per-endpoint
:class:`LatencyTrack` histograms behind one JSON-serialisable snapshot.
The serving edge and the replicated-read router each own one.

A latency track answers p50/p95/p99 exactly up to 64 observations, and
within 1 % of the exact value at the quantile's rank beyond that, from a
sparse logarithmic histogram that costs one dict increment an
observation (see :mod:`repro.obs.metrics`).
"""

from repro.obs.metrics import LatencyTrack, MetricsRegistry, exact_quantile

__all__ = ["LatencyTrack", "MetricsRegistry", "exact_quantile"]

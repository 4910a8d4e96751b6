"""Async serving edge: deadlines, admission control, per-tenant quotas.

The deployment boundary over :class:`~repro.service.RetrievalService`:
:class:`ServingFrontend` admits requests through a bounded queue with
typed backpressure, enforces per-tenant token-bucket rate limits and
fair-share isolation, bounds every request with a cooperative-cancellation
deadline, and accounts it all in a structured metrics registry
(p50/p95/p99 latency histograms, queue wait, cache hits).

Completed requests are bit-identical to the direct facade path — the
edge schedules and bounds work, it never changes what a request computes.
"""

from repro.obs import LatencyTrack, MetricsRegistry
from repro.serving.config import ServingConfig, TenantQuota
from repro.serving.errors import (
    AdmissionRejectedError,
    DeadlineExceededError,
    DrainingError,
    QueueFullError,
    QuotaExceededError,
)
from repro.serving.frontend import ServingFrontend
from repro.serving.quotas import TenantQuotaManager, TokenBucket

__all__ = [
    "ServingConfig",
    "TenantQuota",
    "AdmissionRejectedError",
    "DeadlineExceededError",
    "DrainingError",
    "QueueFullError",
    "QuotaExceededError",
    "ServingFrontend",
    "LatencyTrack",
    "MetricsRegistry",
    "TenantQuotaManager",
    "TokenBucket",
]

"""Configuration of the async serving edge.

Kept free of any ``repro.service`` import on purpose:
:class:`~repro.service.config.ServiceConfig` embeds a
:class:`ServingConfig` (``ServiceConfig(serving=...)``), so this module
sits *below* the service layer in the import graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.errors import InvalidArgumentError
from repro.utils.validation import ensure_deadline, ensure_positive


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits.

    Attributes
    ----------
    rate:
        Sustained admissions per second refilled into the tenant's token
        bucket.  ``None`` disables rate limiting for the tenant.
    burst:
        Bucket capacity — how many admissions the tenant can spend at once
        after idling.  Defaults to ``rate`` rounded up, minimum 1.
    max_in_flight:
        Fair-share isolation: how many of the frontend's concurrency slots
        this tenant may hold simultaneously.  ``None`` means no per-tenant
        cap (the global ``max_concurrency`` still applies).
    """

    rate: Optional[float] = None
    burst: Optional[int] = None
    max_in_flight: Optional[int] = None

    def __post_init__(self) -> None:
        if self.rate is not None and self.rate <= 0:
            raise InvalidArgumentError(f"rate must be positive, got {self.rate}")
        if self.burst is not None:
            ensure_positive(self.burst, "burst")
        if self.max_in_flight is not None:
            ensure_positive(self.max_in_flight, "max_in_flight")

    def effective_burst(self) -> int:
        """The bucket capacity this quota implies."""
        if self.burst is not None:
            return self.burst
        if self.rate is None:
            return 1
        return max(1, int(self.rate + 0.999999))


@dataclass(frozen=True)
class ServingConfig:
    """Limits and defaults of one :class:`~repro.serving.ServingFrontend`.

    Attributes
    ----------
    max_concurrency:
        Requests evaluated simultaneously on the backing service.  Further
        admitted requests wait in the bounded queue.
    max_queue_depth:
        Admitted-but-not-yet-running requests the frontend will hold;
        beyond this, admission fails fast with
        :class:`~repro.serving.errors.QueueFullError` (explicit
        backpressure, never unbounded buffering).
    default_deadline_seconds:
        Deadline applied to requests that do not carry their own.  ``None``
        means no implicit deadline.
    default_quota:
        Quota applied to tenants with no entry in ``tenant_quotas``.
        ``None`` means unknown tenants are unthrottled.
    tenant_quotas:
        Per-tenant overrides, keyed by tenant (user) id.
    drain_grace_seconds:
        How long :meth:`~repro.serving.ServingFrontend.drain` waits for
        in-flight requests before giving up and reporting stragglers.
    """

    max_concurrency: int = 4
    max_queue_depth: int = 64
    default_deadline_seconds: Optional[float] = None
    default_quota: Optional[TenantQuota] = None
    tenant_quotas: Mapping[str, TenantQuota] = field(default_factory=dict)
    drain_grace_seconds: float = 30.0

    def __post_init__(self) -> None:
        ensure_positive(self.max_concurrency, "max_concurrency")
        if self.max_queue_depth < 0:
            raise InvalidArgumentError(
                f"max_queue_depth must be non-negative, got {self.max_queue_depth}"
            )
        ensure_deadline(self.default_deadline_seconds, "default_deadline_seconds")
        if self.drain_grace_seconds < 0:
            raise InvalidArgumentError(
                f"drain_grace_seconds must be non-negative, got "
                f"{self.drain_grace_seconds}"
            )
        # Freeze the mapping into a plain dict copy so a caller mutating the
        # original cannot change an already-validated config underneath us.
        object.__setattr__(self, "tenant_quotas", dict(self.tenant_quotas))
        for tenant, quota in self.tenant_quotas.items():
            if not isinstance(quota, TenantQuota):
                raise TypeError(
                    f"tenant_quotas[{tenant!r}] must be a TenantQuota, "
                    f"got {type(quota).__name__}"
                )

    def quota_for(self, tenant: str) -> Optional[TenantQuota]:
        """The quota governing a tenant (explicit entry, else the default)."""
        return self.tenant_quotas.get(tenant, self.default_quota)

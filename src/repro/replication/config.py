"""Replication configuration: staleness bounds, polling, retry policy.

A deliberately dependency-light value object (stdlib + validation helpers
only) so :class:`~repro.service.config.ServiceConfig` can embed it without
pulling the replica/router machinery — and therefore the service layer —
into its import graph.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import InvalidArgumentError
from repro.utils.validation import ensure_positive


@dataclass(frozen=True)
class ReplicationConfig:
    """Tuning knobs of the replication tier.

    Attributes
    ----------
    max_lag_lsn:
        Default bounded-staleness limit for replica reads: a replica whose
        applied LSN trails the reference point by more than this raises
        :class:`~repro.replication.errors.ReplicaLaggingError`.  ``None``
        (the default) disables the LSN bound.
    max_lag_seconds:
        Default wall-clock staleness limit: a replica that has not
        successfully polled the log within this window refuses reads.
        ``None`` disables the time bound.
    poll_interval_seconds:
        How long a replica's blocking catch-up (`ReplicaServer.catch_up`)
        sleeps between polls that made no progress.
    catch_up_timeout_seconds:
        How long catch-up (and therefore promotion's final drain) keeps
        retrying before giving up on reaching the disk prefix.
    read_retries:
        How many *additional* replicas the router tries after the first
        read attempt fails or refuses for staleness, before falling
        through to the primary.
    retry_backoff_seconds:
        Base backoff between the router's read retries (linear: the n-th
        retry sleeps ``n * retry_backoff_seconds``).  Zero disables
        sleeping (the deterministic tests run with 0).
    """

    max_lag_lsn: Optional[int] = None
    max_lag_seconds: Optional[float] = None
    poll_interval_seconds: float = 0.01
    catch_up_timeout_seconds: float = 10.0
    read_retries: int = 2
    retry_backoff_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.max_lag_lsn is not None and self.max_lag_lsn < 0:
            raise InvalidArgumentError(
                f"max_lag_lsn must be non-negative, got {self.max_lag_lsn}"
            )
        if self.max_lag_seconds is not None and self.max_lag_seconds <= 0:
            raise InvalidArgumentError(
                f"max_lag_seconds must be positive, got {self.max_lag_seconds}"
            )
        ensure_positive(self.poll_interval_seconds, "poll_interval_seconds")
        ensure_positive(self.catch_up_timeout_seconds, "catch_up_timeout_seconds")
        if self.read_retries < 0:
            raise InvalidArgumentError(
                f"read_retries must be non-negative, got {self.read_retries}"
            )
        if self.retry_backoff_seconds < 0:
            raise InvalidArgumentError(
                f"retry_backoff_seconds must be non-negative, "
                f"got {self.retry_backoff_seconds}"
            )

    def with_overrides(self, **overrides: object) -> "ReplicationConfig":
        """A copy of this config with some fields replaced."""
        return replace(self, **overrides)

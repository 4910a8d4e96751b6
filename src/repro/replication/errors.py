"""Typed errors of the replication tier.

All replication failures derive from :class:`ReplicationError` so routers
and harnesses can catch the whole family; :class:`ReplicaLaggingError`
additionally carries the observed lag so callers can decide between
retrying the replica, falling through to the primary, or surfacing the
staleness to the user.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ReproError


class ReplicationError(RuntimeError, ReproError):
    """Base class of every replication-tier failure."""


class ReplicaLaggingError(ReplicationError):
    """A bounded-staleness read found the replica too far behind.

    ``lag_lsn`` is how many LSNs the replica trails the reference point
    (the primary's last allocated LSN when known, otherwise the newest
    LSN visible on disk); ``lag_seconds`` is how long ago the replica
    last polled the log.  Whichever bound was violated is always set;
    the other may be ``None`` when it was not evaluated.
    """

    def __init__(
        self,
        message: str,
        lag_lsn: Optional[int] = None,
        lag_seconds: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.lag_lsn = lag_lsn
        self.lag_seconds = lag_seconds


class ReplicaClosedError(ReplicationError):
    """The replica was closed (or promoted away) and cannot serve."""


class PrimaryUnavailableError(ReplicationError):
    """A write (or primary read) was routed while no primary is alive."""


class PromotionError(ReplicationError):
    """Failover promotion could not complete consistently."""


class NoReplicaAvailableError(ReplicationError):
    """Every replica failed or violated the staleness bound, and no
    primary was available to fall through to."""

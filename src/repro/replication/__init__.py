"""Replication tier: WAL-shipping read replicas, routing, and failover.

- :class:`ReplicaServer` tails a durable primary's directory read-only
  and serves ranked reads behind the staleness bounds each call passes.
- :class:`ReplicatedService` writes to the primary, fans stateless reads
  across its replicas behind the bounds it was built with, and promotes
  the freshest replica when the primary dies.
- :func:`run_replicated_loadtest` drives both under a seeded
  :class:`ChaosSchedule` and checks every acknowledged write survived.

Each setting has one owner: a staleness bound is an argument of the
call or the router that applies it, and the values nobody tunes are
module constants (:data:`~repro.replication.replica.POLL_INTERVAL_SECONDS`,
:data:`~repro.replication.replica.CATCH_UP_TIMEOUT_SECONDS`,
:data:`~repro.replication.router.READ_RETRIES`).
"""

from __future__ import annotations

from repro.replication.chaos import ChaosEvent, ChaosSchedule, run_replicated_loadtest
from repro.replication.errors import (
    NoReplicaAvailableError,
    PrimaryUnavailableError,
    PromotionError,
    ReplicaClosedError,
    ReplicaLaggingError,
    ReplicationError,
)
from repro.replication.replica import PromotionResult, ReplicaServer
from repro.replication.router import ReplicatedService

__all__ = [
    "ChaosEvent",
    "ChaosSchedule",
    "NoReplicaAvailableError",
    "PrimaryUnavailableError",
    "PromotionError",
    "PromotionResult",
    "ReplicaClosedError",
    "ReplicaLaggingError",
    "ReplicaServer",
    "ReplicatedService",
    "ReplicationError",
    "run_replicated_loadtest",
]

"""Service-level configuration: one value object wires the whole stack.

A :class:`ServiceConfig` embeds the engine's
:class:`~repro.retrieval.engine.EngineConfig` — the scorer name, fusion
weights, result depth, scorer parameters, result cache and near-duplicate
screening, each declared and validated there once — and adds what only a
service has: the default adaptation policy and weighting scheme (resolved
through :mod:`repro.service.registry`), the session capacity, the durable
directory's layout and the replication bounds.  Entry points construct a
service from a config instead of assembling engine + adaptive system +
sessions by hand::

    ServiceConfig(engine=EngineConfig(scorer="lm", result_cache_size=0))
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.durability.wal import FSYNC_POLICIES
from repro.errors import InvalidArgumentError
from repro.replication.config import ReplicationConfig
from repro.retrieval.engine import EngineConfig
from repro.utils.validation import ensure_number


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of a :class:`~repro.service.service.RetrievalService`.

    Attributes
    ----------
    engine:
        The engine's ranking configuration.  The default is
        ``EngineConfig(result_limit=50)``: a service ranks 50 shots per
        search where a bare engine ranks 100.
    policy:
        Registered name of the default adaptation policy used when a
        session is opened without an explicit policy.
    weighting_scheme:
        Registered name of the default implicit-indicator weighting scheme.
    max_sessions:
        Capacity of the LRU session manager; the least recently used
        session is evicted when a new one would exceed it.
    num_shards:
        Kept only because ``benchmarks/e2e/workloads.py`` (the E21
        workload definitions) passes ``num_shards=4`` to an in-memory
        service; it selects nothing.  Must be positive, and 1 with
        ``durability_dir``: a durable directory holds one WAL segment.
        The field goes once that caller drops it.
    executor:
        Kept only because ``benchmarks/e2e/workloads.py`` (the E21
        workload definitions) passes ``executor="thread"``; ``"thread"``
        is the only accepted value.
        The process executor was removed (it never beat one engine on a
        GIL build); the field goes once that caller drops it.
    durability_dir:
        When set, the service is durable: every index mutation is
        write-ahead-logged into this directory before it is applied, and
        incremental snapshots compact the log.  If the directory already
        holds durable state the service **recovers** it (the collection
        argument is used for result decoration only) instead of indexing
        the collection afresh.  ``None`` (the default) keeps the service
        purely in-memory.
    fsync_policy:
        WAL sync discipline: ``"always"`` fsyncs every append,
        ``"interval"`` (default) fsyncs every 64 appends, ``"never"`` only
        flushes to the OS page cache.  All three survive a process kill
        for every flushed record; see :mod:`repro.durability.wal`.
    snapshot_interval_ops:
        Index mutations between automatic incremental snapshots (each
        snapshot also truncates the WAL behind its watermark).
    replication:
        Optional :class:`~repro.replication.config.ReplicationConfig`
        carrying the replication tier's staleness bounds, polling cadence
        and read-retry policy.  ``None`` (the default) leaves replicas and
        routers on :class:`ReplicationConfig`'s own defaults; the field
        only makes sense together with ``durability_dir`` (a replica tails
        the WAL of a durable primary).
    """

    engine: EngineConfig = EngineConfig(result_limit=50)
    policy: str = "combined"
    weighting_scheme: str = "heuristic"
    max_sessions: int = 1024
    num_shards: int = 1
    executor: str = "thread"
    durability_dir: Optional[str] = None
    fsync_policy: str = "interval"
    snapshot_interval_ops: int = 256
    replication: Optional[ReplicationConfig] = None

    def __post_init__(self) -> None:
        for name in ("max_sessions", "num_shards", "snapshot_interval_ops"):
            ensure_number(getattr(self, name), name, positive=True, integer=True)
        if self.num_shards != 1 and self.durability_dir is not None:
            raise InvalidArgumentError(
                f"num_shards={self.num_shards}: a durable directory holds one "
                "WAL segment; leave num_shards at 1"
            )
        if self.executor != "thread":
            raise InvalidArgumentError(
                f"executor={self.executor!r}: the process executor was removed; "
                "'thread' is the only accepted value"
            )
        if self.fsync_policy not in FSYNC_POLICIES:
            raise InvalidArgumentError(
                f"unknown fsync policy {self.fsync_policy!r}; expected one "
                f"of {FSYNC_POLICIES}"
            )

    def with_overrides(self, **overrides: object) -> "ServiceConfig":
        """A copy of this config with some fields replaced."""
        return replace(self, **overrides)

"""Service-level configuration: one value object wires the whole stack.

A :class:`ServiceConfig` names every pluggable component (scorer, default
adaptation policy, default weighting scheme — all resolved through the
registries in :mod:`repro.service.registry`) and carries the numeric knobs
of the retrieval engine and session manager.  Entry points construct a
service from a config instead of assembling engine + adaptive system +
sessions by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.durability.wal import FSYNC_POLICIES
from repro.replication.config import ReplicationConfig
from repro.retrieval.engine import EngineConfig, validate_ranking_parameters
from repro.serving.config import ServingConfig
from repro.utils.validation import ensure_number

#: Scorer names the engine can build natively (no registry override needed).
_BUILTIN_SCORERS = ("bm25", "tfidf", "lm")


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of a :class:`~repro.service.service.RetrievalService`.

    Attributes
    ----------
    scorer:
        Registered name of the text ranking function.
    policy:
        Registered name of the default adaptation policy used when a
        session is opened without an explicit policy.
    weighting_scheme:
        Registered name of the default implicit-indicator weighting scheme.
    text_weight / visual_weight / concept_weight:
        Multimodal fusion weights of the underlying engine.
    result_limit:
        Default ranked-list depth per search.
    max_sessions:
        Capacity of the LRU session manager; the least recently used
        session is evicted when a new one would exceed it.
    bm25_k1 / bm25_b / lm_mu:
        Parameters of the built-in scorers.
    result_cache_size:
        Capacity of the engine's persistent query-result LRU cache
        (``0`` disables it); benchmark and equivalence harnesses disable
        it to measure genuine evaluations.
    num_shards:
        How many index shards the service's engine partitions the corpus
        over.  The default of ``1`` builds today's single
        :class:`~repro.retrieval.engine.VideoRetrievalEngine` (zero
        behaviour change); values above 1 build a
        :class:`~repro.sharding.ShardedEngine` whose scatter-gather merge
        is bit-identical to the single engine.  Must be positive.
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
    serving:
        Optional :class:`~repro.serving.config.ServingConfig` describing
        the async serving edge (deadlines, admission control, per-tenant
        quotas).  ``None`` (the default) means the service is only used as
        an in-process facade; :class:`~repro.serving.ServingFrontend`
        resolves its limits from this field.
    replication:
        Optional :class:`~repro.replication.config.ReplicationConfig`
        carrying the replication tier's staleness bounds, polling cadence
        and read-retry policy.  ``None`` (the default) leaves replicas and
        routers on :class:`ReplicationConfig`'s own defaults; the field
        only makes sense together with ``durability_dir`` (a replica tails
        the WAL of a durable primary).
    near_duplicate_threshold:
        When set (cosine similarity in ``(0, 1]``), incoming documents are
        screened against the live corpus at ingest and silently skipped
        (with a counter) when a near-duplicate is already indexed; skipped
        documents are never WAL-logged.  ``None`` (the default) disables
        screening.
    """

    scorer: str = "bm25"
    policy: str = "combined"
    weighting_scheme: str = "heuristic"
    text_weight: float = 1.0
    visual_weight: float = 0.4
    concept_weight: float = 0.3
    result_limit: int = 50
    max_sessions: int = 1024
    bm25_k1: float = 1.2
    bm25_b: float = 0.75
    lm_mu: float = 300.0
    result_cache_size: int = 256
    num_shards: int = 1
    executor: str = "thread"
    durability_dir: Optional[str] = None
    fsync_policy: str = "interval"
    snapshot_interval_ops: int = 256
    serving: Optional[ServingConfig] = None
    replication: Optional[ReplicationConfig] = None
    near_duplicate_threshold: Optional[float] = None

    def __post_init__(self) -> None:
        validate_ranking_parameters(self)
        for name in ("max_sessions", "num_shards", "snapshot_interval_ops"):
            ensure_number(getattr(self, name), name, positive=True, integer=True)
        if self.executor != "thread":
            raise ValueError(
                f"executor={self.executor!r}: the process executor was removed; "
                "'thread' is the only scatter executor"
            )
        if self.fsync_policy not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {self.fsync_policy!r}; expected one "
                f"of {FSYNC_POLICIES}"
            )
        if self.near_duplicate_threshold is not None and not (
            0.0 < self.near_duplicate_threshold <= 1.0
        ):
            raise ValueError(
                f"near_duplicate_threshold must be in (0, 1], got "
                f"{self.near_duplicate_threshold!r}"
            )

    def with_overrides(self, **overrides: object) -> "ServiceConfig":
        """A copy of this config with some fields replaced."""
        return replace(self, **overrides)

    def engine_config(self) -> EngineConfig:
        """The engine configuration this service config implies.

        Custom (registry-registered) scorer names are not representable in
        :class:`EngineConfig`; for those the engine is built with the
        default scorer name and an explicit scorer instance from the
        registry, so the name here falls back to ``"bm25"``.
        """
        scorer = self.scorer if self.scorer in _BUILTIN_SCORERS else "bm25"
        return EngineConfig(
            scorer=scorer,
            text_weight=self.text_weight,
            visual_weight=self.visual_weight,
            concept_weight=self.concept_weight,
            result_limit=self.result_limit,
            bm25_k1=self.bm25_k1,
            bm25_b=self.bm25_b,
            lm_mu=self.lm_mu,
            result_cache_size=self.result_cache_size,
            near_duplicate_threshold=self.near_duplicate_threshold,
        )

    @classmethod
    def from_engine_config(
        cls, engine_config: EngineConfig, **overrides: object
    ) -> "ServiceConfig":
        """Lift an engine configuration into a service configuration."""
        config = cls(
            scorer=engine_config.scorer,
            text_weight=engine_config.text_weight,
            visual_weight=engine_config.visual_weight,
            concept_weight=engine_config.concept_weight,
            result_limit=engine_config.result_limit,
            bm25_k1=engine_config.bm25_k1,
            bm25_b=engine_config.bm25_b,
            lm_mu=engine_config.lm_mu,
            result_cache_size=engine_config.result_cache_size,
            near_duplicate_threshold=engine_config.near_duplicate_threshold,
        )
        return config.with_overrides(**overrides) if overrides else config

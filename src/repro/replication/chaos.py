"""Seeded chaos harness: kill replicas and the primary mid-ingest, prove nothing lost.

The harness drives a replicated loadtest — durable primary, N tailing
replicas, deterministic synthetic ingest, stateless reads fanned across
the replica set — while a :class:`ChaosSchedule` injects faults at
predetermined op indices: replica kills and restarts, a primary kill,
and a failover promotion.  The schedule is a pure function of its seed
(the same modular-arithmetic mixing the ingest stream uses — no RNG
state), so every chaos run is exactly reproducible.

The **kill-anywhere ingest oracle**: every write the primary
acknowledged must survive every fault.  After the run the harness
replays exactly the acknowledged ops into a fresh in-memory service and
compares canonical state digests — the chaos run's final primary (which
lived through kills, restarts and a promotion) must be bit-identical to
a clean run of the surviving prefix.  Replica digests must match the
primary's at the same applied LSN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.durability.digest import engine_state_digest
from repro.errors import InvalidArgumentError
from repro.obs import MetricsRegistry, exact_quantile
from repro.replication.errors import (
    NoReplicaAvailableError,
    PrimaryUnavailableError,
    ReplicationError,
)
from repro.replication.router import ReplicatedService
from repro.service.config import ServiceConfig
from repro.service.service import RetrievalService
from repro.utils.serialization import PathLike
from repro.workload.ingest import (
    IngestOp,
    _mix,
    apply_ingest,
    service_feature_dim,
    synthetic_ingest_ops,
)

#: Chaos actions a schedule can carry.
CHAOS_ACTIONS = ("kill_replica", "restart_replica", "kill_primary", "promote")


@dataclass(frozen=True)
class ChaosEvent:
    """One injected fault: fire *before* applying ingest op ``at_op``."""

    at_op: int
    action: str
    target: Optional[str] = None

    def __post_init__(self) -> None:
        if self.at_op < 0:
            raise InvalidArgumentError(f"at_op must be non-negative, got {self.at_op}")
        if self.action not in CHAOS_ACTIONS:
            raise InvalidArgumentError(
                f"unknown chaos action {self.action!r}; expected one of "
                f"{CHAOS_ACTIONS}"
            )


@dataclass(frozen=True)
class ChaosSchedule:
    """A deterministic fault plan over one ingest stream."""

    events: Tuple[ChaosEvent, ...] = field(default_factory=tuple)

    @classmethod
    def generate(
        cls,
        seed: int,
        total_ops: int,
        replica_ids: Sequence[str],
        kill_primary: bool = True,
    ) -> "ChaosSchedule":
        """The seed's fault plan: replica kill/restart pairs + primary failover.

        Every op index is a pure function of ``(seed, slot)``, so two runs
        with the same arguments inject identical faults.  Each replica is
        killed once in the first third of the run and restarted a little
        later (re-bootstrapping from the snapshot chain); when
        ``kill_primary`` is set the primary dies past the midpoint and a
        promotion follows a few ops later, leaving a window where writes
        fail — the oracle replays only the acknowledged survivors.

        Every event lands in ``[0, total_ops)``: one that would fall past
        the last op fires before it instead.  Events at one op fire in plan
        order, so a restart never precedes its kill nor a promotion the
        primary's kill.
        """
        if total_ops <= 0:
            raise InvalidArgumentError(f"total_ops must be positive, got {total_ops}")
        last = total_ops - 1
        events: List[ChaosEvent] = []
        third = max(1, total_ops // 3)
        for index, replica_id in enumerate(replica_ids):
            kill_at = 1 + _mix(seed, 11, index) % third
            restart_at = kill_at + 1 + _mix(seed, 13, index) % max(
                1, total_ops // 4
            )
            events.append(ChaosEvent(min(kill_at, last), "kill_replica", replica_id))
            events.append(
                ChaosEvent(min(restart_at, last), "restart_replica", replica_id)
            )
        if kill_primary:
            kill_at = total_ops // 2 + _mix(seed, 17) % max(1, total_ops // 5)
            promote_at = kill_at + 1 + _mix(seed, 19) % max(1, total_ops // 10)
            events.append(ChaosEvent(min(kill_at, last), "kill_primary"))
            events.append(ChaosEvent(min(promote_at, last), "promote"))
        indexed = sorted(enumerate(events), key=lambda pair: (pair[1].at_op, pair[0]))
        return cls(events=tuple(event for _, event in indexed))

    def events_at(self, op_index: int) -> List[ChaosEvent]:
        """The events scheduled to fire before this op, in plan order."""
        return [event for event in self.events if event.at_op == op_index]


def _lag_summary(samples: List[float]) -> Dict[str, float]:
    if not samples:
        return {"count": 0.0}
    ordered = sorted(samples)
    return {
        "count": float(len(samples)),
        "min": ordered[0],
        "mean": sum(ordered) / len(ordered),
        "p95": exact_quantile(ordered, 0.95),
        "max": ordered[-1],
    }


def run_replicated_loadtest(
    corpus,
    directory: PathLike,
    config: Optional[ServiceConfig] = None,
    num_replicas: int = 2,
    ingest_ops: int = 120,
    seed: int = 17,
    reads_per_op: int = 1,
    poll_every: int = 1,
    chaos: Optional[ChaosSchedule] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Dict[str, object]:
    """One replicated loadtest round; returns a JSON-serialisable report.

    Builds a durable primary over ``corpus`` in ``directory``, attaches
    ``num_replicas`` tailing replicas, ingests the deterministic op
    stream while fanning stateless reads across the replica set, firing
    ``chaos`` faults at their scheduled op indices.  Afterwards every
    surviving replica catches up and the report carries the oracle
    verdicts: ``replicas_match`` (every replica digest equals the final
    primary digest at the same LSN) and ``oracle_match`` (the final
    primary digest equals a clean in-memory run of exactly the
    acknowledged ops).
    """
    if num_replicas < 0:
        raise InvalidArgumentError(
            f"num_replicas must be non-negative, got {num_replicas}"
        )
    if ingest_ops <= 0:
        raise InvalidArgumentError(f"ingest_ops must be positive, got {ingest_ops}")
    base_config = config or ServiceConfig()
    durable_config = base_config.with_overrides(durability_dir=str(directory))
    primary = RetrievalService.from_corpus(corpus, config=durable_config)
    registry = metrics if metrics is not None else MetricsRegistry()
    service = ReplicatedService(primary, metrics=registry)
    report: Dict[str, object] = {
        "ingest_ops": ingest_ops,
        "num_replicas": num_replicas,
        "seed": seed,
        "chaos_events": [],
        "promotions": [],
    }
    acked: List[int] = []
    failed: List[int] = []
    promotions: List[Dict[str, object]] = []
    reads_ok = 0
    reads_failed = 0
    lag_samples: Dict[str, List[float]] = {}

    def fire(event: ChaosEvent) -> None:
        report["chaos_events"].append(
            {
                "at_op": event.at_op,
                "action": event.action,
                "target": event.target,
                "outcome": _fire_event(service, event, promotions),
            }
        )

    try:
        for index in range(num_replicas):
            service.add_replica(f"replica-{index + 1}")
        ops = synthetic_ingest_ops(
            ingest_ops, seed=seed, feature_dim=service_feature_dim(primary)
        )
        queries = [
            " ".join(op[2].split()[:2]) for op in ops if op[0] == "doc"
        ][:8] or ["election protest"]
        for op_index, op in enumerate(ops):
            if chaos is not None:
                for event in chaos.events_at(op_index):
                    fire(event)
            try:
                apply_ingest(service, [op])
                acked.append(op_index)
            except PrimaryUnavailableError:
                failed.append(op_index)
            if (op_index + 1) % max(1, poll_every) == 0:
                service.poll_replicas()
                primary_lsn = service.primary_lsn()
                for replica_id in service.replica_ids:
                    lag = service.replica(replica_id).lag(primary_lsn)
                    lag_samples.setdefault(replica_id, []).append(float(lag))
            for read in range(reads_per_op):
                query = queries[(op_index * reads_per_op + read) % len(queries)]
                try:
                    service.search_ranked(query, limit=10)
                    reads_ok += 1
                except (NoReplicaAvailableError, PrimaryUnavailableError):
                    reads_failed += 1
        if not service.primary_alive:
            fire(ChaosEvent(ingest_ops, "promote"))
        report["promotions"] = promotions
        final_lsn = service.primary_lsn()
        for replica_id in service.replica_ids:
            service.replica(replica_id).catch_up(target_lsn=final_lsn)
        service.poll_replicas()
        primary_digest = engine_state_digest(service.primary.engine)
        replica_digests = {
            replica_id: service.replica(replica_id).state_digest()
            for replica_id in service.replica_ids
        }
        surviving = [ops[i] for i in acked]
        oracle_digest = _clean_run_digest(corpus, base_config, surviving)
        report.update(
            {
                "acked_ops": len(acked),
                "failed_ops": len(failed),
                "reads_ok": reads_ok,
                "reads_failed": reads_failed,
                "final_lsn": final_lsn,
                "primary_digest": primary_digest,
                "replica_digests": replica_digests,
                "replicas_match": all(
                    digest == primary_digest
                    for digest in replica_digests.values()
                ),
                "oracle_digest": oracle_digest,
                "oracle_match": oracle_digest == primary_digest,
                "lag": {
                    replica_id: _lag_summary(samples)
                    for replica_id, samples in sorted(lag_samples.items())
                },
                "metrics": registry.snapshot(),
            }
        )
        return report
    finally:
        service.close()


def _fire_event(
    service: ReplicatedService,
    event: ChaosEvent,
    promotions: List[Dict[str, object]],
) -> str:
    """Inject one fault; returns a short outcome tag for the report."""
    if event.action == "kill_replica":
        # A replica holds no mutable disk state, so a crash and a detach
        # are indistinguishable on disk; detaching also releases its
        # compaction pin, exactly as crash detection would.
        if event.target not in service.replica_ids:
            return "skipped"
        service.remove_replica(event.target)
        return "killed"
    if event.action == "restart_replica":
        if event.target in service.replica_ids:
            return "skipped"
        try:
            service.add_replica(event.target)
        except ReplicationError:
            return "failed"
        return "restarted"
    if event.action == "kill_primary":
        if not service.primary_alive:
            return "skipped"
        service.kill_primary()
        return "killed"
    if event.action == "promote":
        if service.primary_alive:
            return "skipped"
        try:
            result = service.promote()
        except ReplicationError:
            return "failed"
        promotions.append(
            {
                "replica_id": result.replica_id,
                "replica_lsn": result.replica_lsn,
                "promoted_lsn": result.promoted_lsn,
                "digests_match": result.digests_match,
                "records_dropped": result.records_dropped,
            }
        )
        return "promoted"
    raise ReplicationError(f"unknown chaos action {event.action!r}")


def _clean_run_digest(
    corpus, config: ServiceConfig, surviving_ops: Sequence[IngestOp]
) -> str:
    """Digest of a fresh in-memory run applying exactly the surviving ops."""
    clean_config = config.with_overrides(durability_dir=None)
    clean = RetrievalService.from_corpus(corpus, config=clean_config)
    try:
        apply_ingest(clean, surviving_ops)
        return engine_state_digest(clean.engine)
    finally:
        clean.close()

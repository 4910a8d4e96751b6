"""Replicated service router: writes to the primary, reads fanned out.

A :class:`ReplicatedService` fronts one durable primary
:class:`~repro.service.RetrievalService` and any number of
:class:`~repro.replication.replica.ReplicaServer` followers tailing the
primary's durability directory:

- **Writes and feedback** go to the primary only; while no primary is
  alive (crashed, not yet promoted) they raise
  :class:`PrimaryUnavailableError`.
- **Stateless ranked reads** (:meth:`search_ranked`) rotate round-robin
  across healthy replicas behind the router's staleness bounds
  (``max_lag_lsn`` / ``max_lag_seconds``, given at construction),
  trying up to :data:`READ_RETRIES` further replicas when one fails or
  refuses for lag, and falling through to the primary when every
  attempt is exhausted.
- **Replica registration** pins the primary's WAL compaction through the
  replication guard; :meth:`poll_replicas` advances every replica and
  acknowledges its applied LSN back, releasing held-back records and
  publishing per-replica lag gauges into a
  :class:`~repro.obs.MetricsRegistry`; a removed or promoted replica's
  gauges are dropped.
- **Failover**: :meth:`kill_primary` simulates a primary crash
  (abandoning the service object exactly as a SIGKILL would — nothing is
  flushed or closed); :meth:`promote` then elects the freshest replica
  deterministically, promotes it into a writable service over the same
  directory, re-registers the surviving replicas, and resumes writes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs import MetricsRegistry
from repro.replication.errors import (
    NoReplicaAvailableError,
    PrimaryUnavailableError,
    ReplicaLaggingError,
    ReplicationError,
)
from repro.replication.replica import PromotionResult, ReplicaServer
from repro.retrieval.results import ResultList
from repro.service.service import RetrievalService
from repro.utils.validation import ensure_number, ensure_positive

#: How many further replicas a routed read tries after its first attempt
#: fails or refuses for staleness, before it falls through to the primary.
READ_RETRIES = 2


@dataclass
class _CorpusView:
    """The corpus-shaped triple a promotion needs to rebuild a service."""

    collection: object
    topics: object
    qrels: object


class ReplicatedService:
    """Primary + replicas behind one read/write facade.

    ``max_lag_lsn`` and ``max_lag_seconds`` bound every routed read (see
    :meth:`ReplicaServer.check_staleness`); ``None`` leaves that
    dimension unbounded.
    """

    def __init__(
        self,
        primary: RetrievalService,
        max_lag_lsn: Optional[int] = None,
        max_lag_seconds: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_lag_lsn is not None:
            ensure_number(max_lag_lsn, "max_lag_lsn", integer=True)
        if max_lag_seconds is not None:
            ensure_positive(max_lag_seconds, "max_lag_seconds")
        if primary.engine.durability is None:
            raise ReplicationError(
                "ReplicatedService needs a durable primary (set "
                "durability_dir): replicas ship state through its WAL"
            )
        self._primary: Optional[RetrievalService] = primary
        self._primary_alive = True
        self._directory = primary.engine.durability.directory
        self._corpus = _CorpusView(
            collection=primary.collection,
            topics=primary.topics,
            qrels=primary.qrels,
        )
        self._max_lag_lsn = max_lag_lsn
        self._max_lag_seconds = max_lag_seconds
        # Remembered so replicas added after a primary crash (restarts in a
        # chaos run) still build engines with the original scorer
        # configuration rather than bare defaults.
        self._replica_config = primary.config
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.RLock()
        self._replicas: Dict[str, ReplicaServer] = {}
        # Which durability manager holds each replica's compaction pin.
        # Tracked explicitly so removal always releases the pin from the
        # manager that holds it — releasing against "the current primary"
        # leaks the pin whenever the primary is dead at removal time (the
        # removed replica's acked LSN then clamps truncate_through forever).
        self._pinned: Dict[str, object] = {}
        self._rotation = 0
        self._last_known_primary_lsn = primary.engine.durability.wal.last_lsn

    # -- accessors -----------------------------------------------------------------

    @property
    def primary(self) -> Optional[RetrievalService]:
        """The live primary service (``None`` after :meth:`kill_primary`)."""
        return self._primary if self._primary_alive else None

    @property
    def primary_alive(self) -> bool:
        """Whether a writable primary is currently installed."""
        return self._primary_alive

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry replica lag gauges are published into."""
        return self._metrics

    @property
    def replica_ids(self) -> List[str]:
        """Registered replica ids, in registration order."""
        with self._lock:
            return list(self._replicas)

    def replica(self, replica_id: str) -> ReplicaServer:
        """The replica registered under an id."""
        with self._lock:
            try:
                return self._replicas[replica_id]
            except KeyError:
                raise ReplicationError(
                    f"no replica registered as {replica_id!r}"
                ) from None

    def primary_lsn(self) -> int:
        """The primary's last allocated LSN (last known once it is dead)."""
        with self._lock:
            if self._primary_alive and self._primary is not None:
                durability = self._primary.engine.durability
                if durability is not None:
                    self._last_known_primary_lsn = max(
                        self._last_known_primary_lsn, durability.wal.last_lsn
                    )
            return self._last_known_primary_lsn

    # -- replica lifecycle ---------------------------------------------------------

    def add_replica(self, replica_id: str) -> ReplicaServer:
        """Attach a new replica to the primary's durability directory.

        The replica bootstraps from the snapshot chain + WAL prefix and is
        registered with the primary's replication guard at its applied
        LSN, pinning compaction until it acknowledges progress.
        """
        with self._lock:
            if replica_id in self._replicas:
                raise ReplicationError(
                    f"replica id {replica_id!r} is already registered"
                )
            replica = ReplicaServer(
                self._directory,
                corpus=self._corpus,
                config=self._replica_config,
                replica_id=replica_id,
            )
            self._replicas[replica_id] = replica
            if self._primary_alive and self._primary is not None:
                durability = self._primary.engine.durability
                if durability is not None:
                    durability.register_replica(replica_id, replica.applied_lsn)
                    self._pinned[replica_id] = durability
            self._publish_lag_locked(replica_id, replica)
            return replica

    def remove_replica(self, replica_id: str) -> None:
        """Detach and close a replica, releasing its compaction pin.

        The pin is released from the manager that actually holds it (the
        one the replica was registered with), regardless of whether a
        primary is currently alive — otherwise a replica removed during a
        failover window would keep clamping that manager's WAL truncation
        at its last acknowledged LSN indefinitely.
        """
        with self._lock:
            replica = self._replicas.pop(replica_id, None)
            pinned = self._pinned.pop(replica_id, None)
            if replica is None:
                raise ReplicationError(
                    f"no replica registered as {replica_id!r}"
                )
            if pinned is not None:
                pinned.unregister_replica(replica_id)
            self._drop_lag_locked(replica_id)
        replica.close()

    def poll_replicas(self) -> Dict[str, int]:
        """One tailing round for every replica.

        Applies whatever each replica can reach, acknowledges applied
        LSNs back to the primary's replication guard (releasing held-back
        WAL records at the next checkpoint), and publishes per-replica
        lag gauges.  A replica whose poll raises is left registered and
        reports 0 applied — transient scan races heal on the next round.
        Returns records applied per replica id.
        """
        applied: Dict[str, int] = {}
        with self._lock:
            replicas = list(self._replicas.items())
        for replica_id, replica in replicas:
            try:
                applied[replica_id] = replica.poll()
            except ReplicationError:
                applied[replica_id] = 0
                continue
            with self._lock:
                # Re-check membership: a concurrent remove_replica already
                # released the pin, and acknowledging an unregistered
                # replica would raise out of the whole polling round.
                pinned = (
                    self._pinned.get(replica_id)
                    if replica_id in self._replicas
                    else None
                )
                if pinned is not None:
                    pinned.acknowledge_replica(replica_id, replica.applied_lsn)
                if replica_id in self._replicas:
                    self._publish_lag_locked(replica_id, replica)
        return applied

    def _publish_lag_locked(self, replica_id: str, replica: ReplicaServer) -> None:
        lag = replica.lag(self.primary_lsn())
        self._metrics.set_gauge(f"replica_lag.{replica_id}", float(lag))
        self._metrics.set_gauge(
            f"replica_applied_lsn.{replica_id}", float(replica.applied_lsn)
        )

    def _drop_lag_locked(self, replica_id: str) -> None:
        """A departed replica's gauges go with it, not frozen at their last value."""
        self._metrics.drop_gauges(
            f"replica_lag.{replica_id}", f"replica_applied_lsn.{replica_id}"
        )

    # -- writes (primary only) -----------------------------------------------------

    def _require_primary(self) -> RetrievalService:
        if not self._primary_alive or self._primary is None:
            raise PrimaryUnavailableError(
                "no primary is alive: writes are unavailable until a "
                "replica is promoted"
            )
        return self._primary

    def index_documents(self, documents) -> None:
        """Index new documents on the primary (WAL-logged, shipped)."""
        self._require_primary().index_documents(documents)

    def index_shot(self, shot_id, features, concepts) -> None:
        """Index one new shot on the primary (WAL-logged, shipped)."""
        self._require_primary().index_shot(shot_id, features, concepts)

    def delete_document(self, document_id) -> None:
        """Delete a document on the primary (WAL-logged, shipped)."""
        self._require_primary().delete_document(document_id)

    def update_document(self, document_id, text) -> None:
        """Re-index a document on the primary (WAL-logged, shipped)."""
        self._require_primary().update_document(document_id, text)

    def delete_shot(self, shot_id) -> None:
        """Delete a shot on the primary (WAL-logged, shipped)."""
        self._require_primary().delete_shot(shot_id)

    def submit_feedback(self, batch):
        """Route session feedback to the primary."""
        return self._require_primary().submit_feedback(batch)

    def open_session(self, *args, **kwargs):
        """Open an adaptive session on the primary."""
        return self._require_primary().open_session(*args, **kwargs)

    def search_text(self, *args, **kwargs):
        """Session-ful search on the primary (adaptive state lives there)."""
        return self._require_primary().search_text(*args, **kwargs)

    # -- reads (replica fan-out) ---------------------------------------------------

    def search_ranked(
        self,
        text: str,
        limit: Optional[int] = None,
        topic_id: Optional[str] = None,
    ) -> ResultList:
        """One stateless ranked read, fanned across the replica set.

        Tries up to ``1 + READ_RETRIES`` distinct healthy replicas in
        round-robin order, each behind the router's staleness bounds
        (with the primary's last allocated LSN as the lag reference).
        When every attempt fails the read falls through to the primary;
        with the primary dead too, raises :class:`NoReplicaAvailableError`
        carrying the last replica error as its cause.
        """
        reference = self.primary_lsn()
        with self._lock:
            candidates = [
                replica for replica in self._replicas.values() if not replica.closed
            ]
            if candidates:
                start = self._rotation % len(candidates)
                self._rotation += 1
                candidates = candidates[start:] + candidates[:start]
        attempts = min(len(candidates), 1 + READ_RETRIES)
        last_error: Optional[Exception] = None
        for attempt, replica in enumerate(candidates[:attempts]):
            if attempt > 0:
                self._metrics.increment("replica_read_retries")
            try:
                results = replica.search(
                    text,
                    limit=limit,
                    topic_id=topic_id,
                    primary_lsn=reference,
                    max_lag_lsn=self._max_lag_lsn,
                    max_lag_seconds=self._max_lag_seconds,
                )
            except ReplicationError as error:
                last_error = error
                if isinstance(error, ReplicaLaggingError):
                    self._metrics.increment("replica_read_stale")
                else:
                    self._metrics.increment("replica_read_errors")
                continue
            self._metrics.increment("replica_reads")
            return results
        if self._primary_alive and self._primary is not None:
            self._metrics.increment("primary_reads")
            return self._primary.engine.search_text(
                text, limit=limit, topic_id=topic_id
            )
        raise NoReplicaAvailableError(
            f"all {attempts} replica read attempt(s) failed and no primary "
            f"is alive"
        ) from last_error

    # -- failover ------------------------------------------------------------------

    def kill_primary(self) -> int:
        """Simulate a primary crash; returns its last allocated LSN.

        The service object is **abandoned, not closed** — nothing is
        flushed, snapshotted or repaired, exactly the disk state a
        SIGKILL leaves behind.  Writes raise until :meth:`promote`.
        """
        with self._lock:
            self._require_primary()
            last_lsn = self.primary_lsn()
            self._primary = None
            self._primary_alive = False
            return last_lsn

    def promote(self, replica_id: Optional[str] = None) -> PromotionResult:
        """Elect and promote a replica into the new writable primary.

        With no explicit ``replica_id`` the freshest replica wins (one
        final poll each, then highest applied LSN, ties broken by
        registration order — fully deterministic).  The promoted service
        replaces the primary and every surviving replica is re-registered
        with its replication guard; the promoted replica itself leaves
        the read rotation (its engine became the primary's).
        """
        with self._lock:
            if self._primary_alive:
                raise ReplicationError(
                    "cannot promote while a primary is alive: kill or "
                    "close it first"
                )
            if not self._replicas:
                raise NoReplicaAvailableError("no replicas to promote")
            if replica_id is None:
                freshest: Optional[str] = None
                freshest_lsn = -1
                for candidate_id, candidate in self._replicas.items():
                    if candidate.closed:
                        continue
                    try:
                        candidate.catch_up()
                    except ReplicationError:
                        continue
                    if candidate.applied_lsn > freshest_lsn:
                        freshest, freshest_lsn = candidate_id, candidate.applied_lsn
                if freshest is None:
                    raise NoReplicaAvailableError(
                        "every replica is closed or failed to catch up"
                    )
                replica_id = freshest
            replica = self._replicas.pop(replica_id, None)
            self._pinned.pop(replica_id, None)
            if replica is None:
                raise ReplicationError(
                    f"no replica registered as {replica_id!r}"
                )
            self._drop_lag_locked(replica_id)
            result = replica.promote()
            self._primary = result.service
            self._primary_alive = True
            self._last_known_primary_lsn = result.promoted_lsn
            durability = result.service.engine.durability
            if durability is not None:
                for survivor_id, survivor in self._replicas.items():
                    durability.register_replica(
                        survivor_id, survivor.applied_lsn
                    )
                    # Survivor pins now live in the promoted primary's
                    # manager; the old (dead) manager's pins are moot.
                    self._pinned[survivor_id] = durability
            self._metrics.increment("promotions")
            self._metrics.set_gauge(
                "promoted_lsn", float(result.promoted_lsn)
            )
            return result

    # -- teardown ------------------------------------------------------------------

    def close(self) -> None:
        """Close every replica and (when alive) the primary."""
        with self._lock:
            replicas = list(self._replicas.values())
            self._replicas.clear()
            self._pinned.clear()
            primary = self._primary if self._primary_alive else None
            self._primary = None
            self._primary_alive = False
        for replica in replicas:
            replica.close()
        if primary is not None:
            primary.close()

    def __enter__(self) -> "ReplicatedService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

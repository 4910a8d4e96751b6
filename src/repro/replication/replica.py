"""WAL-shipping read replica: tail the log, serve bounded-staleness reads.

A :class:`ReplicaServer` attaches **read-only** to a durable primary's
durability directory.  It bootstraps through the normal recovery path
(snapshot chain + durable WAL prefix), then tails the WAL incrementally:
each :meth:`poll` scans the log through the same checksummed-frame
reader recovery uses and applies the durable prefix past its applied
position, split by recovery's own :func:`~repro.durability.replay.
split_log`: it ends at a missing LSN and before an LSN logged twice.  So
the state is always a true prefix of the primary's write history —
bit-identical (same dense interning, same scores) to the primary at the
same applied LSN — and stops where a restart of the primary stops.

A read is bounded only by what its caller passes: the ``max_lag_lsn``
and ``max_lag_seconds`` arguments of :meth:`ReplicaServer.search`, where
``None`` means unbounded (the router passes its own on every routed read).
Blocking catch-up polls every :data:`POLL_INTERVAL_SECONDS` and gives up
after :data:`CATCH_UP_TIMEOUT_SECONDS`.

The replica deliberately never constructs a
:class:`~repro.durability.manager.DurabilityManager`: attaching one
repairs the WAL tail (a physical rewrite), which only the owner — or a
promotion — may do.  All replica I/O is scans.

Compaction on the primary can truncate records the replica has not read
yet.  Registered replicas pin compaction through the WAL's replication
guard; an unregistered (or lapsed) replica that finds the log truncated
in front of it **restarts cleanly from the newest snapshot** — full
re-recovery — rather than ever applying a torn view.  The ordering makes
this race-free: a poll scans the WAL *before* reading the manifest tip,
so any record missing from the scan is guaranteed to be covered by a
manifest the same poll (or the next) observes.

Failover: :meth:`promote` drains the disk prefix, then reopens the
directory as a writable :class:`~repro.service.RetrievalService` — whose
attach path repairs the WAL tail (``repair_to``) past the durable prefix
— and proves with the canonical state digest that promotion lost nothing
beyond the acknowledged gap-free prefix.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.durability.digest import engine_state_digest
from repro.durability.recovery import RecoveryManager
from repro.durability.replay import ReplayCounts, ReplayError, apply_record, split_log
from repro.durability.snapshots import SnapshotStore
from repro.durability.wal import WriteAheadLog
from repro.replication.errors import (
    PromotionError,
    ReplicaClosedError,
    ReplicaLaggingError,
    ReplicationError,
)
from repro.retrieval.results import ResultList
from repro.service.config import ServiceConfig
from repro.service.service import RetrievalService, build_engine
from repro.utils.serialization import PathLike

#: How long :meth:`ReplicaServer.catch_up` sleeps after a poll that
#: applied nothing.
POLL_INTERVAL_SECONDS = 0.01

#: How long :meth:`ReplicaServer.catch_up` (and so a promotion's final
#: drain) keeps polling for a target LSN before it gives up.
CATCH_UP_TIMEOUT_SECONDS = 10.0


@dataclass
class PromotionResult:
    """What a completed failover promotion established.

    ``promoted_lsn`` may exceed ``replica_lsn`` when writes raced onto
    disk between the replica's final drain and the writable reopen (the
    promoted service then holds a *longer* durable prefix — nothing the
    replica applied was lost).  ``replica_digest == promoted_digest``
    whenever the LSNs agree, which is the "promotion lost nothing beyond
    the acknowledged gap-free prefix" proof.
    """

    service: RetrievalService
    replica_id: str
    replica_lsn: int
    promoted_lsn: int
    replica_digest: str
    promoted_digest: str
    records_dropped: int

    @property
    def digests_match(self) -> bool:
        """True when the replica state and the promoted state coincide."""
        return self.replica_digest == self.promoted_digest


class ReplicaServer:
    """A read-only follower of one durability directory.

    ``corpus`` is what the primary serves: anything with ``collection``,
    ``topics`` and ``qrels`` (a stored or synthetic corpus).  Its
    collection decorates results exactly as on the primary, and a
    promotion hands back a service over all three.  ``config``'s
    ``durability_dir`` is ignored — a replica never owns the directory it
    tails.
    """

    def __init__(
        self,
        directory: PathLike,
        corpus,
        config: Optional[ServiceConfig] = None,
        replica_id: str = "replica",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not replica_id:
            raise ReplicationError("replica_id must be non-empty")
        self._directory = Path(directory)
        config = config or ServiceConfig()
        # A replica never owns the directory (attach would repair the WAL
        # tail).
        self._config = config.with_overrides(durability_dir=None)
        self._corpus = corpus
        self._replica_id = replica_id
        self._clock = clock
        self._lock = threading.RLock()
        self._closed = False
        # Read-only scanner over the log; scans read bytes directly, so one
        # long-lived instance observes every later append/rewrite.
        self._wal = WriteAheadLog(self._directory)
        self._applied_lsn = 0
        self._disk_last_lsn = 0
        self._records_applied = 0
        self._replayed = ReplayCounts()
        self._polls = 0
        self._restarts = 0
        self._engine = None
        self._rebuild_from_disk()
        self._last_poll_clock = self._clock()

    # -- bootstrap / restart -------------------------------------------------------

    def _rebuild_from_disk(self) -> None:
        """Full re-recovery: snapshot chain + gap-free WAL prefix.

        Used at construction and whenever compaction advanced past the
        replica's position (the "restart cleanly from the new snapshot"
        arm of the checkpoint-while-tailing contract).
        """
        recovered = RecoveryManager(self._directory).recover()
        engine = build_engine(
            self._corpus.collection, self._config, recovered=recovered
        )
        old_engine = self._engine
        self._engine = engine
        self._applied_lsn = recovered.applied_lsn
        self._disk_last_lsn = max(self._disk_last_lsn, recovered.applied_lsn)
        if old_engine is not None:
            old_engine.close()

    # -- accessors -----------------------------------------------------------------

    @property
    def replica_id(self) -> str:
        """The id this replica registers (and acknowledges) under."""
        return self._replica_id

    @property
    def directory(self) -> Path:
        """The durability directory being tailed."""
        return self._directory

    @property
    def engine(self):
        """The live read-only engine (for differential tests)."""
        return self._engine

    @property
    def applied_lsn(self) -> int:
        """The LSN the replica's state is current through."""
        with self._lock:
            return self._applied_lsn

    @property
    def closed(self) -> bool:
        """True once closed or promoted away."""
        return self._closed

    def statistics(self) -> Dict[str, float]:
        """Tailing counters (polls, applies, restarts, lag inputs)."""
        with self._lock:
            return {
                "applied_lsn": float(self._applied_lsn),
                "disk_last_lsn": float(self._disk_last_lsn),
                "records_applied": float(self._records_applied),
                "polls": float(self._polls),
                "restarts": float(self._restarts),
            }

    def state_digest(self) -> str:
        """Canonical digest of the replica's current index state."""
        with self._lock:
            self._ensure_open()
            return engine_state_digest(self._engine)

    def _ensure_open(self) -> None:
        if self._closed:
            raise ReplicaClosedError(
                f"replica {self._replica_id!r} is closed"
            )

    # -- tailing -------------------------------------------------------------------

    def poll(self) -> int:
        """One tailing round: apply every contiguous new record on disk.

        Returns how many records were applied (counting a snapshot
        restart as the number of LSNs it advanced).  Never applies past a
        hole: a torn tail or a stranded record leaves the replica at the
        durable prefix, waiting for the next poll.
        """
        with self._lock:
            self._ensure_open()
            applied = self._poll_locked()
            self._last_poll_clock = self._clock()
            return applied

    def _poll_locked(self) -> int:
        self._polls += 1
        # Scan the WAL *before* reading the manifest tip: any record the
        # scan misses was truncated by a checkpoint whose manifest was
        # renamed earlier, so the tip read below is guaranteed to cover it.
        records, _tail_errors = self._wal.scan_all()
        tip_lsn = SnapshotStore(self._directory).latest_wal_lsn
        if records:
            self._disk_last_lsn = max(
                self._disk_last_lsn, int(records[-1]["lsn"])
            )
        self._disk_last_lsn = max(self._disk_last_lsn, tip_lsn)
        applied = self._apply_contiguous(records)
        if applied == 0 and tip_lsn > self._applied_lsn:
            # The log in front of us was compacted away (we were not — or
            # not promptly enough — pinning compaction).  Restart cleanly
            # from the snapshot; never stitch across the truncation.
            before = self._applied_lsn
            self._rebuild_from_disk()
            self._restarts += 1
            applied = max(0, self._applied_lsn - before)
        return applied

    def _apply_contiguous(self, records: List[Dict[str, object]]) -> int:
        """Replay the durable run past the applied LSN into the live engine.

        WAL records carry tokenised frequencies / feature vectors, which go
        straight into the live indexes exactly as recovery replays them
        (generation bumps invalidate every derived cache).  Every record is
        an index op, bar the feedback batches a format-2 directory still
        holds until its writer converts it: they advance the applied LSN
        and change nothing.
        """
        run = split_log(records, self._applied_lsn).run
        if not run:
            return 0
        engine = self._engine
        text, visual = engine.inverted_index, engine.visual_index
        with engine.exclusive_writer():
            try:
                for record in run:
                    apply_record(record, text, visual, self._replayed)
                    self._applied_lsn = int(record["lsn"])
                    self._records_applied += 1
            except ReplayError as error:
                raise ReplicationError(str(error)) from None
        return len(run)

    def catch_up(self, target_lsn: Optional[int] = None) -> int:
        """Poll until caught up; returns the applied LSN.

        With ``target_lsn`` the replica keeps polling (sleeping
        :data:`POLL_INTERVAL_SECONDS` between empty rounds) until its
        applied LSN reaches the target, raising :class:`ReplicaLaggingError`
        with the remaining lag when :data:`CATCH_UP_TIMEOUT_SECONDS` pass
        first.  Without a target it drains whatever is on disk: it returns
        after the first round that neither applied records nor restarted
        from a snapshot.
        """
        deadline = self._clock() + CATCH_UP_TIMEOUT_SECONDS
        while True:
            applied = self.poll()
            with self._lock:
                reached = self._applied_lsn
            if target_lsn is not None:
                if reached >= target_lsn:
                    return reached
            elif applied == 0:
                return reached
            if self._clock() >= deadline:
                if target_lsn is None:
                    return reached
                raise ReplicaLaggingError(
                    f"replica {self._replica_id!r} did not reach lsn "
                    f"{target_lsn} within {CATCH_UP_TIMEOUT_SECONDS:.3f}s "
                    f"(applied lsn {reached})",
                    lag_lsn=max(0, target_lsn - reached),
                )
            if applied == 0:
                time.sleep(POLL_INTERVAL_SECONDS)

    # -- bounded-staleness reads ---------------------------------------------------

    def lag(self, primary_lsn: Optional[int] = None) -> int:
        """LSNs the replica trails the reference point by (never negative)."""
        with self._lock:
            reference = (
                int(primary_lsn) if primary_lsn is not None else self._disk_last_lsn
            )
            return max(0, reference - self._applied_lsn)

    def check_staleness(
        self,
        primary_lsn: Optional[int] = None,
        max_lag_lsn: Optional[int] = None,
        max_lag_seconds: Optional[float] = None,
    ) -> None:
        """Raise :class:`ReplicaLaggingError` when a staleness bound is violated.

        ``primary_lsn`` is the primary's last allocated LSN when the
        caller knows it (the router does); otherwise the newest LSN the
        replica has observed on disk stands in.  A bound of ``None``
        leaves that dimension unbounded.
        """
        if max_lag_lsn is not None:
            lag = self.lag(primary_lsn)
            if lag > int(max_lag_lsn):
                raise ReplicaLaggingError(
                    f"replica {self._replica_id!r} lags {lag} LSNs behind "
                    f"(bound: {int(max_lag_lsn)})",
                    lag_lsn=lag,
                )
        if max_lag_seconds is not None:
            with self._lock:
                staleness = self._clock() - self._last_poll_clock
            if staleness > float(max_lag_seconds):
                raise ReplicaLaggingError(
                    f"replica {self._replica_id!r} last polled "
                    f"{staleness:.3f}s ago (bound: {float(max_lag_seconds)}s)",
                    lag_seconds=staleness,
                )

    def search(
        self,
        text: str,
        limit: Optional[int] = None,
        topic_id: Optional[str] = None,
        primary_lsn: Optional[int] = None,
        max_lag_lsn: Optional[int] = None,
        max_lag_seconds: Optional[float] = None,
    ) -> ResultList:
        """One stateless ranked read, bounded-staleness checked first.

        Rankings are bit-identical to the primary engine's
        ``search_text`` at the same applied LSN — the differential suite
        pins this across scorers.
        """
        with self._lock:
            self._ensure_open()
            engine = self._engine
        self.check_staleness(
            primary_lsn=primary_lsn,
            max_lag_lsn=max_lag_lsn,
            max_lag_seconds=max_lag_seconds,
        )
        return engine.search_text(text, limit=limit, topic_id=topic_id)

    # -- failover ------------------------------------------------------------------

    def promote(self) -> PromotionResult:
        """Become the primary: drain the disk prefix, reopen writable.

        Drains the durable prefix, captures the replica's digest, then
        reopens the directory as a full :class:`RetrievalService` — whose
        attach path repairs the WAL tail past the gap-free prefix — and
        proves digest equality at equal LSN.  The replica itself is
        closed by a successful promotion (its engine's role is taken over
        by the promoted service).
        """
        with self._lock:
            self._ensure_open()
            self.catch_up()
            replica_lsn = self._applied_lsn
            replica_digest = engine_state_digest(self._engine)
            records, _ = self._wal.scan_all()
            beyond = sum(
                1 for record in records if int(record["lsn"]) > replica_lsn
            )
            self._wal.close()
            config = self._config.with_overrides(
                durability_dir=str(self._directory)
            )
            service = RetrievalService.from_corpus(self._corpus, config=config)
            promoted_lsn = service.engine.durability.wal.last_lsn
            promoted_digest = engine_state_digest(service.engine)
            if promoted_lsn < replica_lsn:
                service.close()
                raise PromotionError(
                    f"promotion of {self._replica_id!r} recovered through "
                    f"lsn {promoted_lsn}, behind the replica's applied lsn "
                    f"{replica_lsn} — the directory lost acknowledged "
                    f"records"
                )
            if promoted_lsn == replica_lsn and promoted_digest != replica_digest:
                service.close()
                raise PromotionError(
                    f"promotion of {self._replica_id!r} diverged: replica "
                    f"digest {replica_digest} != promoted digest "
                    f"{promoted_digest} at lsn {replica_lsn}"
                )
            engine, self._engine = self._engine, None
            self._closed = True
            if engine is not None:
                engine.close()
            return PromotionResult(
                service=service,
                replica_id=self._replica_id,
                replica_lsn=replica_lsn,
                promoted_lsn=promoted_lsn,
                replica_digest=replica_digest,
                promoted_digest=promoted_digest,
                records_dropped=beyond,
            )

    # -- teardown ------------------------------------------------------------------

    def close(self) -> None:
        """Stop tailing and release the engine (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._wal.close()
            if self._engine is not None:
                self._engine.close()
                self._engine = None

    def __enter__(self) -> "ReplicaServer":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

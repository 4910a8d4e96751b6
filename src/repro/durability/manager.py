"""The durability manager: what a live engine calls on every mutation.

:class:`DurabilityManager` owns one durability directory — the WAL
segment, the snapshot chain, and the header — and exposes exactly the
hooks the engine's write path needs:

* ``log_index_op`` appends an index-op record to the WAL after the engine
  has checked the write and *before* it applies it (called inside the
  engine's ``exclusive_writer()``, so WAL order is the serialization
  order);
* ``should_checkpoint`` / ``checkpoint`` implement the snapshot cadence:
  every ``snapshot_interval_ops`` index mutations, a checkpoint moves the
  WAL's index-op records since the previous one into the snapshot chain
  (an **ops** checkpoint — its cost is what changed, not the corpus) and
  the WAL is compacted up to the checkpoint's watermark;
* ``note_compaction`` is the chain's garbage collection: the checkpoint
  after an index compaction is a **rebase** — the full live state — so the
  chain's dead weight (deletes, updates and the adds they undid) is
  bounded by the same tombstone ratio that bounds dead slots in memory.

Lifecycle: :meth:`create` initialises a fresh directory around a live
engine (writing a **bootstrap checkpoint** covering the corpus-built
state, so recovery never needs the corpus files); :meth:`attach` resumes
an existing directory from a :class:`~repro.durability.recovery.
RecoveredState`, repairing the WAL past the recovered prefix before any
new append, and converts a directory an older build wrote.  The directory
holds index state only: a service's sessions, and the feedback that adapts
them, live in memory and start afresh after any restart.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional

from repro.durability.digest import engine_text_items, engine_visual_items
from repro.durability.recovery import (
    DURABILITY_FORMAT,
    HEADER_FILENAME,
    RecoveredState,
    RecoveryError,
    read_header,
)
from repro.durability.replay import split_log
from repro.durability.snapshots import (
    SnapshotError,
    SnapshotStore,
    _write_json_atomic,
    manifest_filename,
)
from repro.durability.wal import WriteAheadLog, legacy_files
from repro.errors import InvalidArgumentError
from repro.utils.serialization import PathLike


class DurabilityManager:
    """Owns one durability directory on behalf of one live engine."""

    def __init__(
        self,
        directory: PathLike,
        fsync_policy: str = "interval",
        snapshot_interval_ops: int = 256,
        next_lsn: int = 1,
    ) -> None:
        if snapshot_interval_ops < 1:
            raise InvalidArgumentError(
                f"snapshot_interval_ops must be positive, got {snapshot_interval_ops}"
            )
        self._directory = Path(directory)
        self._wal = WriteAheadLog(
            self._directory, fsync_policy=fsync_policy, next_lsn=next_lsn
        )
        self._snapshots = SnapshotStore(self._directory)
        self._snapshot_interval_ops = snapshot_interval_ops
        self._ops_since_checkpoint = 0
        self._checkpoints_written = 0
        self._rebases_written = 0
        # Op records in the chain's ops checkpoints since its last rebase:
        # what a recovery replays on top of its full-state base.
        self._chain_ops_since_rebase = 0
        # Set by note_compaction(): the next checkpoint is a full rebase.
        self._rebase_next_checkpoint = False

    # -- lifecycle ---------------------------------------------------------------

    @staticmethod
    def has_state(directory: PathLike) -> bool:
        """True when ``directory`` already holds a durability header."""
        return (Path(directory) / HEADER_FILENAME).exists()

    @classmethod
    def create(
        cls,
        directory: PathLike,
        engine,
        fsync_policy: str = "interval",
        snapshot_interval_ops: int = 256,
    ) -> "DurabilityManager":
        """Initialise a fresh durability directory around a live engine.

        Writes the header and a bootstrap checkpoint (id 0, ``wal_lsn`` 0)
        that snapshots the engine's corpus-built state, so a recovery of
        this directory is self-contained from its very first op.
        """
        directory = Path(directory)
        if cls.has_state(directory):
            raise RecoveryError(
                f"{directory} already holds durable state; recover it (or "
                f"point the service at a fresh directory) instead of "
                f"re-initialising over it"
            )
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            # The path (or one of its parents) exists as a regular file.
            raise RecoveryError(
                f"{directory} is not a directory — cannot hold durable state"
            ) from None
        _write_json_atomic(
            directory / HEADER_FILENAME,
            {
                "format": DURABILITY_FORMAT,
                "num_shards": 1,
                "fsync_policy": fsync_policy,
            },
        )
        manager = cls(
            directory,
            fsync_policy=fsync_policy,
            snapshot_interval_ops=snapshot_interval_ops,
        )
        manager.checkpoint(engine)
        return manager

    @classmethod
    def attach(
        cls,
        directory: PathLike,
        recovered: RecoveredState,
        fsync_policy: str = "interval",
        snapshot_interval_ops: int = 256,
    ) -> "DurabilityManager":
        """Resume an existing directory from its recovered state.

        Repairs the WAL first: any record past the recovered gap-free
        prefix (torn tails, records stranded beyond a hole) is physically
        dropped, so appends resume from exactly the state the engine was
        rebuilt to.

        An older build may have split the log over several segments, and a
        format-2 one logged feedback batches on
        :data:`~repro.durability.wal.LEGACY_FEEDBACK_LOG`, so the segment
        has LSN holes where their records sat.  While any such file
        (:func:`~repro.durability.wal.legacy_files`) exists the directory
        is converted before any append: a rebase at the recovered LSN, the
        segment truncated behind it, every legacy file unlinked.  Only then
        is an older header rewritten to :data:`DURABILITY_FORMAT` and one
        segment (``"num_shards": 1``), so a build that cannot read what
        this one writes refuses the directory in one line instead of
        failing inside replay.  A crash at any step leaves a directory that
        recovers to the same state, and the next attach finishes the
        conversion.
        """
        directory = Path(directory)
        header = read_header(directory)
        manager = cls(
            directory,
            fsync_policy=fsync_policy,
            snapshot_interval_ops=snapshot_interval_ops,
            next_lsn=recovered.applied_lsn + 1,
        )
        manager._wal.repair_to(recovered.applied_lsn)
        # The WAL tail already holds this many index ops past the last
        # checkpoint; count them toward the next snapshot so an attach/crash
        # loop cannot defer compaction forever.
        manager._ops_since_checkpoint = recovered.wal_index_ops
        manager._chain_ops_since_rebase = recovered.chain_op_records
        legacy = legacy_files(directory)
        if legacy:
            manager._snapshots.write_full_checkpoint(
                recovered.documents,
                recovered.shots,
                text_count=recovered.text_count,
                shot_count=recovered.shot_count,
                wal_lsn=recovered.applied_lsn,
            )
            manager._wal.truncate_through(recovered.applied_lsn)
            for path in legacy:
                path.unlink()
            manager._ops_since_checkpoint = manager._chain_ops_since_rebase = 0
        converted = {**header, "format": DURABILITY_FORMAT, "num_shards": 1}
        if header != converted:
            _write_json_atomic(directory / HEADER_FILENAME, converted)
        return manager

    def close(self) -> None:
        """Sync and close the WAL (idempotent)."""
        self._wal.close()

    # -- accessors ---------------------------------------------------------------

    @property
    def directory(self) -> Path:
        """The durability directory."""
        return self._directory

    @property
    def wal(self) -> WriteAheadLog:
        """The write-ahead log."""
        return self._wal

    @property
    def snapshots(self) -> SnapshotStore:
        """The snapshot store."""
        return self._snapshots

    @property
    def snapshot_interval_ops(self) -> int:
        """Index mutations between automatic checkpoints."""
        return self._snapshot_interval_ops

    @property
    def ops_since_checkpoint(self) -> int:
        """Index mutations logged since the last checkpoint."""
        return self._ops_since_checkpoint

    @property
    def checkpoints_written(self) -> int:
        """Checkpoints written through this manager instance."""
        return self._checkpoints_written

    def statistics(self) -> Dict[str, float]:
        """Write-path counters for benchmarks and reports."""
        acks = self._wal.replica_acknowledgements()
        stats = {
            "wal_records": float(self._wal.records_appended),
            "wal_bytes": float(self._wal.bytes_appended),
            "last_lsn": float(self._wal.last_lsn),
            "checkpoints": float(self._checkpoints_written),
            "rebases": float(self._rebases_written),
            "chain_ops_since_rebase": float(self._chain_ops_since_rebase),
            "ops_since_checkpoint": float(self._ops_since_checkpoint),
            "replicas": float(len(acks)),
        }
        if acks:
            stats["replica_min_acknowledged_lsn"] = float(min(acks.values()))
        return stats

    # -- replication guard ---------------------------------------------------------

    def register_replica(self, replica_id: str, acknowledged_lsn: int = 0) -> None:
        """Pin compaction behind a replica tailing this directory's WAL."""
        self._wal.register_replica(replica_id, acknowledged_lsn)

    def acknowledge_replica(self, replica_id: str, lsn: int) -> int:
        """Advance a registered replica's acknowledged LSN (monotonic)."""
        return self._wal.acknowledge_replica(replica_id, lsn)

    def unregister_replica(self, replica_id: str) -> None:
        """Release a replica's compaction pin (idempotent)."""
        self._wal.unregister_replica(replica_id)

    # -- write-path hooks (called under the engine's exclusive writer) -------------

    def log_index_op(self, record: Dict[str, object]) -> int:
        """WAL one index-op record.

        The engine builds ``record`` with :func:`~repro.durability.replay.
        op_record` after its checks pass and before it applies the op.
        """
        lsn = self._wal.append(record)
        self._ops_since_checkpoint += 1
        return lsn

    def note_compaction(self) -> None:
        """Engine hook: a compaction adopted renumbered indexes.

        Compaction does not change the live item sequence, so nothing
        *needs* a rebase — this is the chain's garbage collection.  Every
        delete or update leaves one tombstone in memory and dead records in
        the chain (itself, and the add it undid); compaction runs when
        tombstones pass a ratio of the slots, and rebasing at the same
        moment drops the dead records with them.  What remains between
        rebases is one add record per live item — what a suffix-state
        delta held — plus dead weight bounded by that ratio: no knob and
        no threshold of the chain's own.
        """
        self._rebase_next_checkpoint = True

    # -- checkpoints ---------------------------------------------------------------

    def should_checkpoint(self) -> bool:
        """True when the snapshot cadence says it is time to checkpoint."""
        return self._ops_since_checkpoint >= self._snapshot_interval_ops

    def maybe_checkpoint(self, engine) -> Optional[Dict[str, object]]:
        """Checkpoint if the cadence is due; returns the manifest if so."""
        if not self.should_checkpoint():
            return None
        return self.checkpoint(engine)

    def checkpoint(self, engine) -> Dict[str, object]:
        """Checkpoint the engine state and compact the WAL behind it.

        Must run under the engine's exclusive writer (the engine's
        ``maybe_checkpoint`` hook does), so the checkpoint is a consistent
        cut at ``wal.last_lsn``.  The WAL is synced before the manifest is
        written and truncated only after — a crash at any point leaves
        either the old chain + full WAL, or the new chain + (possibly
        partially) compacted WAL, both of which recover to the same state.

        The first checkpoint of a directory and the one after a compaction
        are **full** (the live state); every other one is an **ops**
        checkpoint: the entries the WAL logged since the parent, taken from
        the writer's in-memory copy of its segment, each written as the
        payload bytes the WAL framed.  The window must be the durable
        prefix (:func:`~repro.durability.replay.split_log`) from
        ``parent.wal_lsn + 1`` through ``cut``, or nothing is written:
        that holds after ``attach`` (the recovered prefix is gap-free from
        the tip's watermark), after a crash between manifest rename and
        truncation and under replica hold-back (leftovers at or below the
        parent's watermark are simply not in the window); an append that
        raised after its LSN was allocated is a hole.
        """
        self._wal.sync()
        cut = self._wal.last_lsn
        parent = self._snapshots.latest_manifest
        if parent is None or self._rebase_next_checkpoint:
            manifest = self._snapshots.write_full_checkpoint(
                engine_text_items(engine),
                engine_visual_items(engine),
                text_count=engine.inverted_index.document_count,
                shot_count=engine.visual_index.shot_count,
                wal_lsn=cut,
            )
            if parent is not None:
                self._rebases_written += 1
            self._chain_ops_since_rebase = 0
        else:
            parent_lsn = int(parent["wal_lsn"])
            entries = self._wal.entries_since(parent_lsn)
            split = split_log([entry.record for entry in entries], parent_lsn)
            if split.last_lsn < cut:
                raise SnapshotError(
                    f"cannot checkpoint through lsn {cut}: the WAL covers "
                    f"lsn {parent_lsn + 1}..{split.last_lsn} since "
                    f"{manifest_filename(int(parent['checkpoint_id']))} — "
                    f"records are missing, so no manifest was written"
                )
            manifest = self._snapshots.write_ops_checkpoint(
                entries,
                wal_lsn=cut,
                text_count=engine.inverted_index.document_count,
                shot_count=engine.visual_index.shot_count,
            )
            self._chain_ops_since_rebase += int(manifest["op_records"])
        self._wal.truncate_through(cut)
        self._ops_since_checkpoint = 0
        self._checkpoints_written += 1
        self._rebase_next_checkpoint = False
        return manifest

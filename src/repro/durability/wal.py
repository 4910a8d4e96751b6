"""Append-only write-ahead log: one segment, global LSNs.

Every index mutation against a durable engine — ``index_document``,
``index_shot``, deletes and updates — is framed (see
:func:`repro.utils.serialization.encode_record`) and appended to the
directory's one segment file (:data:`SEGMENT_FILENAME`) before the
in-memory state changes.  Records carry a **monotonic global log sequence
number** allocated under one lock while the engine's exclusive writer is
held, so the segment's order is exactly the serialization order of the
writes.  The log holds index state only: sessions and the feedback that
drives them stay in memory (the interaction log of
:mod:`repro.interfaces.logging` is the record of what a user did).

Older directories
-----------------

A build before this one could split the log over several segments
(``wal-shard-0001.log`` ...) and, at format 2, logged feedback batches on
:data:`LEGACY_FEEDBACK_LOG`, all on one LSN sequence.  Readers merge those
files (:func:`legacy_files`) with the segment by LSN, and the first writer
to attach converts the directory
(:meth:`~repro.durability.manager.DurabilityManager.attach`).  Recovery
applies the **maximal gap-free LSN prefix** of the merged stream: a lost or
torn record ends the durable prefix, so the recovered state is always a
clean prefix of the true write history (never a subsequence with holes,
which would perturb dense interning order).

Fsync policy
------------

``always`` flushes and fsyncs every append (crash-proof against OS
failure), ``interval`` flushes every append and fsyncs every
``fsync_interval_ops`` appends, ``never`` only flushes to the OS page
cache.  All three survive a *process* crash (``kill -9``) for everything
already appended, modulo a torn final record; only an OS/power failure can
lose flushed-but-unsynced records.

Writer and readers
------------------

The owning :class:`WriteAheadLog` never reads its segment after open.  It
holds an exact in-memory copy of every record the segment carries — the
LSN, the record and the payload bytes it framed — filled by one scan (the
reopen repair, or the first checkpoint of a fresh log) and kept in step by
``append``, ``truncate_through`` and ``repair_to``.  A checkpoint takes its
window from that copy and truncation rewrites the segment from the kept
payloads, so neither reads, re-decodes or re-encodes what the writer
produced under the same lock.  Scans (:meth:`WriteAheadLog.scan_all`,
:meth:`WriteAheadLog.scan_segments`, :meth:`WalSegment.scan`) are for
readers — recovery, replicas, ``repro verify`` — which are other objects
and often another process.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Dict, IO, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.utils.serialization import (
    PathLike,
    RecordError,
    canonical_json,
    encode_record,
    scan_records,
)

#: The log's one segment file, named as older builds named the first of
#: their segments, so a one-segment directory's bytes are what they were.
SEGMENT_FILENAME = "wal-shard-0000.log"

#: Where a format-2 directory logged feedback batches, on the LSN sequence
#: its index ops share.  Only readers merge it (:func:`legacy_files`), to
#: fill those LSNs, until the writer's attach converts the directory.
LEGACY_FEEDBACK_LOG = "wal-meta.log"

#: Accepted fsync policies.
FSYNC_POLICIES = ("always", "interval", "never")


class WalError(ValueError, ReproError):
    """The write-ahead log was used incorrectly or is unreadable."""


def legacy_files(directory: Path) -> List[Path]:
    """The log files an older build wrote beside :data:`SEGMENT_FILENAME`.

    The further segments of a multi-segment directory
    (``wal-shard-0001.log`` ...) in name order, then
    :data:`LEGACY_FEEDBACK_LOG`: the order readers merge them in.  Empty
    once a writer has converted the directory.
    """
    files = sorted(
        path
        for path in directory.glob("wal-shard-*.log")
        if path.name != SEGMENT_FILENAME
    )
    feedback = directory / LEGACY_FEEDBACK_LOG
    if feedback.exists():
        files.append(feedback)
    return files


def _decode_payload(payload: bytes) -> Dict[str, object]:
    record = json.loads(payload.decode("utf-8"))
    if not isinstance(record, dict) or "lsn" not in record:
        raise RecordError(f"WAL payload is not an op record: {record!r}")
    return record


class WalEntry(NamedTuple):
    """One logged record: its LSN, the record, and the exact payload bytes
    framed on disk (``encode_op(record)``)."""

    lsn: int
    record: Dict[str, object]
    payload: bytes


class WalSegment:
    """One append-only segment file of framed, checksummed records."""

    def __init__(self, path: Path) -> None:
        self._path = path
        self._handle: Optional[IO[bytes]] = None
        self._bytes_written = 0

    @property
    def path(self) -> Path:
        """The segment file path."""
        return self._path

    @property
    def bytes_written(self) -> int:
        """Bytes appended through this handle (excludes pre-existing data)."""
        return self._bytes_written

    def _ensure_open(self) -> IO[bytes]:
        if self._handle is None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self._path.open("ab")
        return self._handle

    def append(self, payload: bytes, fsync: bool, flush: bool = True) -> int:
        """Append one framed record; returns the frame size in bytes."""
        frame = encode_record(payload)
        handle = self._ensure_open()
        handle.write(frame)
        if flush or fsync:
            handle.flush()
        if fsync:
            os.fsync(handle.fileno())
        self._bytes_written += len(frame)
        return len(frame)

    def sync(self) -> None:
        """Flush and fsync the segment (no-op when never written)."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Close the file handle (idempotent)."""
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None

    def scan_entries(self) -> Tuple[List[WalEntry], "RecordError | None"]:
        """Decode the segment's clean prefix (tolerates a torn tail).

        Returns ``(entries, tail_error)``; a missing file is simply an
        empty segment.
        """
        if not self._path.exists():
            return [], None
        payloads, _, tail_error = scan_records(self._path.read_bytes())
        entries = []
        for payload in payloads:
            try:
                record = _decode_payload(payload)
            except (RecordError, UnicodeDecodeError, json.JSONDecodeError) as error:
                # An undecodable-but-checksummed payload means the writer
                # was broken, not the disk; treat it like a torn tail so
                # the durable prefix stays clean.
                return entries, RecordError(str(error))
            entries.append(WalEntry(int(record["lsn"]), record, payload))
        return entries, tail_error

    def scan(self) -> Tuple[List[Dict[str, object]], "RecordError | None"]:
        """The records of :meth:`scan_entries`: ``(records, tail_error)``."""
        entries, tail_error = self.scan_entries()
        return [entry.record for entry in entries], tail_error

    def rewrite(self, payloads: Sequence[bytes]) -> None:
        """Atomically replace the segment's contents with ``payloads``.

        Used by compaction (drop records covered by a snapshot) and by
        tail repair (drop records past the durable prefix); each payload
        is framed exactly as :meth:`append` framed it.  The rewrite goes
        through a temp file + fsync + rename so a crash mid-rewrite leaves
        either the old or the new segment, never a mix.
        """
        self.close()
        tmp_path = self._path.with_suffix(".log.tmp")
        with tmp_path.open("wb") as handle:
            for payload in payloads:
                handle.write(encode_record(payload))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self._path)


def encode_op(record: Dict[str, object]) -> bytes:
    """Canonical payload bytes of one op record (sorted keys, compact)."""
    return canonical_json(record).encode("utf-8")


class WriteAheadLog:
    """One WAL segment and its monotonic LSN sequence.

    ``append`` allocates the next LSN and writes the frame under one lock,
    so the segment's record order is always LSN order.  As a writer the log
    never reads its segment after open: it holds the segment's entries in
    memory (see the module docstring) and checkpoints and truncation work
    from that copy.  :meth:`scan_all` is the readers' view of the files.
    """

    def __init__(
        self,
        directory: PathLike,
        fsync_policy: str = "interval",
        fsync_interval_ops: int = 64,
        next_lsn: int = 1,
    ) -> None:
        if fsync_policy not in FSYNC_POLICIES:
            raise WalError(
                f"unknown fsync policy {fsync_policy!r}; "
                f"expected one of {FSYNC_POLICIES}"
            )
        if fsync_interval_ops < 1:
            raise WalError(
                f"fsync_interval_ops must be positive, got {fsync_interval_ops}"
            )
        self._directory = Path(directory)
        self._fsync_policy = fsync_policy
        self._fsync_interval_ops = fsync_interval_ops
        self._lock = threading.Lock()
        self._next_lsn = next_lsn
        self._appends_since_sync = 0
        self._bytes_appended = 0
        self._records_appended = 0
        # Replication guard: registered replicas pin compaction.  Maps
        # replica id -> highest LSN that replica has acknowledged applying;
        # truncate_through never drops records past the minimum of these.
        self._replica_acks: Dict[str, int] = {}
        self._segment = WalSegment(self._directory / SEGMENT_FILENAME)
        # The writer's copy of the segment, filled by _held_entries on
        # first use.  An entry is added only once its frame is written, so
        # an append that raised leaves a hole here exactly as on disk.
        self._held: Optional[List[WalEntry]] = None
        # The filling scan ended in a torn tail: the next truncation
        # rewrites the segment even if it drops nothing.
        self._torn = False

    # -- accessors ---------------------------------------------------------------

    @property
    def directory(self) -> Path:
        """The durability directory holding the segment."""
        return self._directory

    @property
    def fsync_policy(self) -> str:
        """The configured fsync policy."""
        return self._fsync_policy

    @property
    def last_lsn(self) -> int:
        """The last allocated LSN (0 before the first append)."""
        with self._lock:
            return self._next_lsn - 1

    @property
    def bytes_appended(self) -> int:
        """Total framed bytes appended through this log instance."""
        with self._lock:
            return self._bytes_appended

    @property
    def records_appended(self) -> int:
        """Total records appended through this log instance."""
        with self._lock:
            return self._records_appended

    def held_entries(self) -> List[WalEntry]:
        """The writer's in-memory copy of the segment.

        Equal, entry for entry, to what :meth:`WalSegment.scan_entries`
        reads back from the segment file.
        """
        with self._lock:
            return list(self._held_entries())

    def _held_entries(self) -> List[WalEntry]:
        """The held copy, filled by one scan on first use (lock held)."""
        if self._held is None:
            self._held, tail_error = self._segment.scan_entries()
            self._torn = tail_error is not None
        return self._held

    # -- replication guard ---------------------------------------------------------

    def register_replica(self, replica_id: str, acknowledged_lsn: int = 0) -> None:
        """Register a replica tailing this log.

        While registered, :meth:`truncate_through` refuses to drop records
        past the replica's acknowledged LSN, so a slow follower can always
        finish the segment it is reading instead of finding its tail
        compacted away mid-apply.
        """
        if not replica_id:
            raise WalError("replica_id must be non-empty")
        with self._lock:
            self._replica_acks[replica_id] = max(
                int(acknowledged_lsn), self._replica_acks.get(replica_id, 0)
            )

    def acknowledge_replica(self, replica_id: str, lsn: int) -> int:
        """Record a replica's applied LSN (monotonic); returns the stored value."""
        with self._lock:
            if replica_id not in self._replica_acks:
                raise WalError(
                    f"replica {replica_id!r} is not registered with this WAL"
                )
            stored = max(self._replica_acks[replica_id], int(lsn))
            self._replica_acks[replica_id] = stored
            return stored

    def unregister_replica(self, replica_id: str) -> None:
        """Drop a replica's compaction pin (idempotent)."""
        with self._lock:
            self._replica_acks.pop(replica_id, None)

    def min_acknowledged_lsn(self) -> Optional[int]:
        """The slowest registered replica's LSN (``None`` with no replicas)."""
        with self._lock:
            if not self._replica_acks:
                return None
            return min(self._replica_acks.values())

    def replica_acknowledgements(self) -> Dict[str, int]:
        """Snapshot of every registered replica's acknowledged LSN."""
        with self._lock:
            return dict(self._replica_acks)

    # -- appending ---------------------------------------------------------------

    def append(self, record: Dict[str, object]) -> int:
        """Allocate the next LSN, stamp it into ``record``, append it to
        the segment; return the LSN.

        The record must not carry an ``lsn`` of its own.
        """
        with self._lock:
            lsn = self._next_lsn
            self._next_lsn += 1
            record = dict(record)
            record["lsn"] = lsn
            self._appends_since_sync += 1
            fsync = self._fsync_policy == "always" or (
                self._fsync_policy == "interval"
                and self._appends_since_sync >= self._fsync_interval_ops
            )
            if fsync:
                self._appends_since_sync = 0
            payload = encode_op(record)
            self._bytes_appended += self._segment.append(payload, fsync=fsync)
            self._records_appended += 1
            if self._held is not None:
                self._held.append(WalEntry(lsn, record, payload))
            return lsn

    def sync(self) -> None:
        """Flush and fsync the segment."""
        with self._lock:
            self._segment.sync()
            self._appends_since_sync = 0

    def close(self) -> None:
        """Sync and close the segment (idempotent)."""
        with self._lock:
            try:
                self._segment.sync()
            finally:
                self._segment.close()

    # -- scanning & rewriting ------------------------------------------------------

    def scan_segments(
        self,
    ) -> List[Tuple[str, List[Dict[str, object]], "RecordError | None"]]:
        """``(file name, records, tail_error)`` of every log file.

        The segment, then whatever :func:`legacy_files` finds: an older
        directory's further segments and feedback batches hold LSNs between
        the segment's records, so without them the gap check would end the
        durable prefix at the first one.  Replay skips the feedback batches
        (:func:`~repro.durability.replay.apply_record`).
        """
        segments = [self._segment]
        segments.extend(WalSegment(path) for path in legacy_files(self._directory))
        return [(segment.path.name, *segment.scan()) for segment in segments]

    def scan_all(self) -> Tuple[List[Dict[str, object]], Dict[str, str]]:
        """Every decodable record across all log files, sorted by LSN.

        Returns ``(records, tail_errors)`` where ``tail_errors`` maps
        file names to a description of the torn/corrupt tail that ended
        that file's clean prefix (empty when all files are clean).  Gap
        analysis over the merged stream is the recovery manager's job, not
        this method's.
        """
        merged: List[Dict[str, object]] = []
        tail_errors: Dict[str, str] = {}
        for name, records, tail_error in self.scan_segments():
            merged.extend(records)
            if tail_error is not None:
                tail_errors[name] = str(tail_error)
        merged.sort(key=lambda record: int(record["lsn"]))
        return merged, tail_errors

    def entries_since(self, lsn: int) -> List[WalEntry]:
        """Every held entry with ``entry.lsn > lsn``, in LSN order."""
        with self._lock:
            return [entry for entry in self._held_entries() if entry.lsn > lsn]

    def truncate_through(self, lsn: int) -> int:
        """Drop every record with ``record.lsn <= lsn`` (log compaction).

        Returns how many records were dropped.  Called after a checkpoint
        whose snapshot covers the log up to ``lsn``; the rewrite is
        atomic, and a crash before it only leaves extra already-snapshotted
        records, which recovery skips idempotently.  The segment is
        rewritten from the held payloads.

        When replicas are registered (:meth:`register_replica`), the
        truncation point is clamped to the slowest replica's acknowledged
        LSN: records a follower has not applied yet stay on disk even
        though the snapshot already covers them.  Recovery skips the
        leftovers idempotently, so holding them back is always safe — it
        only defers reclaiming their bytes until the replica catches up.
        """
        with self._lock:
            if self._replica_acks:
                lsn = min(lsn, min(self._replica_acks.values()))
            entries = self._held_entries()
            keep = [entry for entry in entries if entry.lsn > lsn]
            dropped = _rewrite_kept(self._segment, entries, keep, self._torn)
            self._held, self._torn = keep, False
            return dropped

    def repair_to(self, lsn: int) -> int:
        """Physically drop every record with ``record.lsn > lsn``.

        Called when reopening a log whose durable prefix ended at ``lsn``
        (a torn tail, or records stranded past an LSN gap): appending may
        only resume once nothing newer than the recovered prefix remains
        in the segment.  Returns how many records were dropped.  Its scan
        is the one that fills the held copy.
        """
        with self._lock:
            entries, tail_error = self._segment.scan_entries()
            keep = [entry for entry in entries if entry.lsn <= lsn]
            dropped = _rewrite_kept(self._segment, entries, keep, tail_error is not None)
            self._held, self._torn = keep, False
            return dropped


def _rewrite_kept(
    segment: WalSegment, entries: List[WalEntry], keep: List[WalEntry], torn: bool
) -> int:
    """Rewrite ``segment`` to ``keep`` when that drops a record or a torn
    tail; returns how many records were dropped."""
    if len(keep) == len(entries) and not torn:
        return 0
    segment.rewrite([entry.payload for entry in keep])
    return len(entries) - len(keep)

"""Offline integrity verification of a durability directory.

``repro verify DIR`` (and the chaos harness) need a read-only answer to
"how much of this directory is trustworthy?" without building an engine:

* every WAL file is scanned through the same checksummed-frame reader
  recovery uses, so torn or corrupt tails are found exactly where replay
  would stop;
* the snapshot manifest chain is read through recovery's own path
  (:meth:`~repro.durability.snapshots.SnapshotStore.load_base`): one
  checked walk, then the fold — full-state entries appended, ops deltas
  replayed — so a missing or damaged link, a dropped op record or a
  non-dense sequence is reported rather than discovered at recovery time,
  along with how many op records recovery replays on top of the last
  rebase;
* the merged LSN stream is checked for holes above the snapshot
  watermark, and the **maximal gap-free LSN** — the point recovery (and a
  tailing replica) would stop at — is reported;
* the shots recovery would restore must share one vector length, or every
  query-by-example search on the recovered engine fails.

Verification never writes: it is safe against a live primary's directory
(it may observe a checkpoint mid-flight, in which case a re-run converges)
and against directories whose damage would make recovery refuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

from repro.durability.recovery import RecoveryError, durability_directory, read_header
from repro.durability.replay import Record, ReplayError, read_op
from repro.durability.snapshots import SnapshotError, SnapshotStore, manifest_ids
from repro.durability.wal import WriteAheadLog
from repro.utils.serialization import PathLike


@dataclass
class SegmentReport:
    """One WAL file's scan result."""

    name: str
    records: int
    last_lsn: int
    tail_error: Optional[str] = None


@dataclass
class VerifyReport:
    """Everything :func:`verify_directory` established about a directory.

    ``problems`` is the damage list; an empty list means every byte the
    durability contract relies on checked out.  ``max_gap_free_lsn`` is
    the LSN recovery would restore through — snapshot watermark plus the
    longest contiguous WAL run above it.  ``chain_base_id`` /
    ``chain_manifests`` / ``chain_op_records`` describe the part of the
    chain recovery folds: from the last rebase (or the bootstrap) to the
    tip, and the op records its ops checkpoints replay.
    """

    directory: str
    checkpoint_ids: List[int] = field(default_factory=list)
    snapshot_wal_lsn: int = 0
    snapshot_documents: int = 0
    snapshot_shots: int = 0
    chain_base_id: int = 0
    chain_manifests: int = 0
    chain_op_records: int = 0
    segments: List[SegmentReport] = field(default_factory=list)
    records_below_watermark: int = 0
    records_in_prefix: int = 0
    records_beyond_prefix: int = 0
    max_gap_free_lsn: int = 0
    gap: Optional[Tuple[int, int]] = None
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no damage was found."""
        return not self.problems

    def lines(self) -> List[str]:
        """A human-readable report, one string per output line."""
        out = [f"verify {self.directory}"]
        if self.checkpoint_ids:
            out.append(
                f"snapshot chain: checkpoints "
                f"{self.checkpoint_ids[0]}..{self.checkpoint_ids[-1]} "
                f"({len(self.checkpoint_ids)} manifests), watermark lsn "
                f"{self.snapshot_wal_lsn}, {self.snapshot_documents} "
                f"documents + {self.snapshot_shots} shots restored"
            )
            if self.chain_manifests:
                out.append(
                    f"chain: {self.chain_manifests} manifests since rebase "
                    f"cp{self.chain_base_id}, {self.chain_op_records} op records"
                )
        else:
            out.append("snapshot chain: empty (no checkpoints)")
        for segment in self.segments:
            note = f", TORN TAIL: {segment.tail_error}" if segment.tail_error else ""
            out.append(
                f"segment {segment.name}: {segment.records} records, "
                f"last lsn {segment.last_lsn}{note}"
            )
        out.append(
            f"WAL: {self.records_in_prefix} records in the gap-free prefix, "
            f"{self.records_below_watermark} already covered by the "
            f"snapshot, {self.records_beyond_prefix} beyond the prefix"
        )
        if self.gap is not None:
            out.append(
                f"gap: expected lsn {self.gap[0]}, found {self.gap[1]} — "
                f"the durable prefix ends before the hole"
            )
        out.append(f"max-gap-free-lsn: {self.max_gap_free_lsn}")
        for problem in self.problems:
            out.append(f"PROBLEM: {problem}")
        out.append(f"integrity: {'ok' if self.ok else 'DAMAGED'}")
        return out


def verify_directory(directory: PathLike) -> VerifyReport:
    """Check a durability directory's integrity without recovering it.

    A path that is not an existing directory raises :class:`RecoveryError`;
    everything found inside one is reported.
    """
    durability_directory(directory)
    report = VerifyReport(directory=str(directory))
    try:
        read_header(directory)
    except RecoveryError as error:
        report.problems.append(str(error))
        return report

    report.checkpoint_ids = manifest_ids(directory)
    fold = None
    try:
        fold = SnapshotStore(directory).load_base()
        report.snapshot_wal_lsn = fold.wal_lsn
        report.snapshot_documents = len(fold.text)
        report.snapshot_shots = len(fold.visual)
        report.chain_base_id = fold.base_id
        report.chain_manifests = fold.manifests
        report.chain_op_records = fold.op_records
    except SnapshotError as error:
        report.problems.append(f"snapshot chain: {error}")
        # The WAL can still be scanned; gap analysis below treats the
        # watermark as 0, which is conservative (more records flagged).

    wal = WriteAheadLog(Path(directory))
    try:
        merged = []
        for name, records, tail_error in wal.scan_segments():
            last_lsn = int(records[-1]["lsn"]) if records else 0
            report.segments.append(
                SegmentReport(
                    name=name,
                    records=len(records),
                    last_lsn=last_lsn,
                    tail_error=str(tail_error) if tail_error is not None else None,
                )
            )
            if tail_error is not None:
                report.problems.append(f"torn/corrupt tail on {name}: {tail_error}")
            merged.extend(records)
    finally:
        wal.close()

    merged.sort(key=lambda record: int(record["lsn"]))
    prefix: List[Record] = []
    watermark = report.snapshot_wal_lsn
    report.max_gap_free_lsn = watermark
    seen = set()
    expected = watermark + 1
    for record in merged:
        lsn = int(record["lsn"])
        if lsn in seen:
            report.problems.append(f"duplicate WAL record at lsn {lsn}")
            continue
        seen.add(lsn)
        if lsn <= watermark:
            # Compaction holdback (e.g. the replication guard) or a crash
            # between manifest rename and truncation; recovery skips these
            # idempotently, so they are not damage.
            report.records_below_watermark += 1
        elif report.gap is None and lsn == expected:
            report.records_in_prefix += 1
            report.max_gap_free_lsn = lsn
            expected += 1
            prefix.append(record)
        else:
            if report.gap is None:
                report.gap = (expected, lsn)
                report.problems.append(
                    f"hole in the WAL LSN stream: expected lsn {expected}, "
                    f"found {lsn} — records past the hole are beyond the "
                    f"durable prefix"
                )
            report.records_beyond_prefix += 1
    _check_vector_lengths(report, fold.visual if fold is not None else {}, prefix)
    return report


def _check_vector_lengths(report: VerifyReport, shots, prefix: List[Record]) -> None:
    """Report a problem unless the shots recovery restores share one vector length."""
    lengths = {shot_id: len(features) for shot_id, (features, _) in shots.items()}
    for record in prefix:
        if record.get("op") not in ("shot", "del"):
            continue
        try:
            op, item_id, payload = read_op(record)
        except ReplayError as error:  # recovery refuses the same record
            report.problems.append(str(error))
            continue
        if op == "shot":
            lengths.setdefault(item_id, len(payload[0]))
        elif payload == "shot":
            lengths.pop(item_id, None)
    distinct = sorted(set(lengths.values()))
    if len(distinct) > 1:
        report.problems.append(
            f"shots have {len(distinct)} vector lengths "
            f"({', '.join(map(str, distinct))})"
        )

"""Offline integrity verification of a durability directory.

``repro verify DIR`` (and the chaos harness) need a read-only answer to
"how much of this directory is trustworthy?" without building an engine.
It reads the directory through recovery's own steps and reports what
each finds instead of raising:

* the snapshot manifest chain is folded by :func:`~repro.durability.
  recovery.fold_chain`, so a missing or damaged link, a dropped op record
  or a non-dense sequence is reported rather than discovered at recovery
  time, along with how many op records recovery replays on top of the
  last rebase;
* every WAL file is scanned through the checksummed-frame reader recovery
  uses, so torn or corrupt tails are found exactly where replay stops;
* the merged LSN stream is split by :func:`~repro.durability.replay.
  split_log`, the one definition of the durable prefix: the maximal
  contiguous LSN run past the snapshot watermark, ended by a missing LSN
  and before an LSN logged twice.  Its end is the **maximal gap-free
  LSN**, where recovery and a tailing replica stop;
* the prefix is replayed by :func:`~repro.durability.recovery.
  replay_tail` into the folded tables: a record recovery would refuse is
  reported, and the shots restored must share one vector length, or
  every query-by-example search on the recovered engine fails.

Verification never writes: it is safe against a live primary's directory
(it may observe a checkpoint mid-flight, in which case a re-run converges)
and against directories whose damage would make recovery refuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

from repro.durability.recovery import (
    RecoveryError,
    durability_directory,
    fold_chain,
    read_header,
    replay_tail,
)
from repro.durability.replay import ReplayCounts, ReplayError, split_log
from repro.durability.snapshots import ChainFold, manifest_ids
from repro.durability.wal import WriteAheadLog
from repro.utils.serialization import PathLike


def _hole(hole: Tuple[int, int]) -> str:
    """``VerifyReport.gap`` in words; a duplicated LSN is found twice."""
    expected, found = hole
    twice = " twice" if found == expected else ""
    return f"expected lsn {expected}, found {found}{twice}"


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
    the LSN recovery would restore through — the end of the durable
    prefix past the snapshot watermark — and ``gap`` the ``(expected,
    found)`` LSNs where that prefix broke (equal for a duplicated LSN).
    ``chain_base_id`` / ``chain_manifests`` / ``chain_op_records``
    describe the part of the chain recovery folds: from the last rebase
    (or the bootstrap) to the tip, and the op records its ops checkpoints
    replay.
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
                f"gap: {_hole(self.gap)} — the durable prefix ends before the hole"
            )
        out.append(f"max-gap-free-lsn: {self.max_gap_free_lsn}")
        for problem in self.problems:
            out.append(f"PROBLEM: {problem}")
        out.append(f"integrity: {'ok' if self.ok else 'DAMAGED'}")
        return out


def verify_directory(directory: PathLike) -> VerifyReport:
    """Check a durability directory's integrity without recovering it.

    Folds, splits and replays as recovery does, recording each refusal as
    a problem.  A path that is not an existing directory raises
    :class:`RecoveryError`; everything found inside one is reported.
    """
    durability_directory(directory)
    report = VerifyReport(directory=str(directory))
    try:
        read_header(directory)
    except RecoveryError as error:
        report.problems.append(str(error))
        return report

    report.checkpoint_ids = manifest_ids(directory)
    try:
        fold = fold_chain(directory)
    except RecoveryError as error:
        report.problems.append(f"snapshot chain: {error}")
        # The WAL can still be scanned; the split below takes watermark
        # 0, which is conservative (more records flagged).
        fold = ChainFold()
    report.snapshot_wal_lsn = fold.wal_lsn
    report.snapshot_documents = len(fold.text)
    report.snapshot_shots = len(fold.visual)
    report.chain_base_id = fold.base_id
    report.chain_manifests = fold.manifests
    report.chain_op_records = fold.op_records

    wal = WriteAheadLog(Path(directory))
    try:
        merged = []
        for name, records, tail_error in wal.scan_segments():
            last_lsn = int(records[-1]["lsn"]) if records else 0
            if tail_error is not None:
                tail_error = str(tail_error)
                report.problems.append(f"torn/corrupt tail on {name}: {tail_error}")
            report.segments.append(SegmentReport(name, len(records), last_lsn, tail_error))
            merged.extend(records)
    finally:
        wal.close()

    merged.sort(key=lambda record: int(record["lsn"]))
    split = split_log(merged, fold.wal_lsn)
    # Records at or below the watermark are a compaction holdback (e.g.
    # the replication guard) or a crash between manifest rename and
    # truncation; recovery skips them, so they are not damage.
    report.records_below_watermark = len(split.below)
    report.records_in_prefix = len(split.run)
    report.records_beyond_prefix = len(split.beyond_hole)
    report.max_gap_free_lsn = split.last_lsn
    report.gap = split.hole
    if split.hole is not None:
        report.problems.append(
            f"hole in the WAL LSN stream: {_hole(split.hole)} — records past "
            f"the hole are beyond the durable prefix"
        )
    try:
        replay_tail(fold, split, ReplayCounts())
    except ReplayError as error:  # recovery refuses the same record
        report.problems.append(str(error))
    lengths = sorted({len(features) for features, _ in fold.visual.values()})
    if len(lengths) > 1:
        report.problems.append(
            f"shots have {len(lengths)} vector lengths "
            f"({', '.join(map(str, lengths))})"
        )
    return report

"""Crash recovery: snapshot chain + gap-free WAL tail → identical state.

:class:`RecoveryManager` rebuilds the index state a durable service held at
its last durable write, from nothing but the durability directory:

1. read and check the directory header (its format),
2. fold the snapshot chain (:meth:`~repro.durability.snapshots.
   SnapshotStore.load_base`, the chain's one validated read path) into
   insertion-ordered item tables that cover the log through ``wal_lsn``,
3. scan the WAL tolerantly (with an older directory's legacy files,
   merged by LSN), and replay the **maximal gap-free prefix** starting at
   ``wal_lsn + 1`` into the same tables.

What the fold learnt about the chain rides along in
:class:`RecoveredState` (``chain_op_records``), so a writer reopening the
directory (:meth:`~repro.durability.manager.DurabilityManager.attach`)
does not walk the chain a second time.

The gap-free walk and the idempotent per-record replay live in
:mod:`repro.durability.replay`, shared with the WAL-tailing replicas:
stopping at the first gap guarantees the recovered state is a true prefix
of the write history — exactly the crash-consistency contract the fault
injection suite pins — and recovering twice, or recovering a directory
whose compaction was interrupted, converges to the same digest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.durability.digest import state_digest
from repro.durability.replay import ReplayError, apply_record, gap_free_tail
from repro.durability.snapshots import SnapshotError, SnapshotStore
from repro.durability.wal import WriteAheadLog
from repro.errors import ReproError
from repro.utils.serialization import PathLike, read_json

#: Directory header naming the layout parameters recovery needs.
HEADER_FILENAME = "DURABILITY.json"

#: On-disk format version of the durability directory as a whole: 2 since
#: shot vectors are written packed (``utils.serialization.encode_vector``),
#: which a format-1 build cannot replay; 3 since the directory holds index
#: state only, without the feedback log a format-2 build appends to.
DURABILITY_FORMAT = 3

#: Header formats this build reads.  An older directory is readable as is
#: and is converted and marked format 3 by the first writer that attaches
#: to it (:meth:`~repro.durability.manager.DurabilityManager.attach`).
READABLE_FORMATS = (1, 2, 3)


class RecoveryError(ValueError, ReproError):
    """The durability directory cannot be recovered to a consistent state."""


def durability_directory(directory: PathLike) -> Path:
    """``directory`` as a path, refused unless it is an existing directory."""
    path = Path(directory)
    if not path.is_dir():
        problem = "is not a directory" if path.exists() else "does not exist"
        raise RecoveryError(f"{str(directory)!r} {problem}")
    return path


def read_header(directory: PathLike) -> Dict[str, object]:
    """Read and validate a durability directory's header."""
    path = durability_directory(directory) / HEADER_FILENAME
    try:
        header = read_json(path)
    except FileNotFoundError:
        raise RecoveryError(
            f"{path} is missing — not a durability directory"
        ) from None
    except OSError as error:
        raise RecoveryError(f"cannot read durability header {path}: {error}") from None
    except ValueError as error:
        raise RecoveryError(f"durability header {path}: {error}") from None
    if not isinstance(header, dict) or "num_shards" not in header:
        raise RecoveryError(f"durability header {path} is malformed")
    if type(header["num_shards"]) is not int or header["num_shards"] < 1:
        raise RecoveryError(f"durability header {path} has no positive num_shards")
    if header.get("format") not in READABLE_FORMATS:
        raise RecoveryError(
            f"durability header {path} has format {header.get('format')!r}; "
            f"this build reads formats "
            f"{', '.join(map(str, READABLE_FORMATS))}"
        )
    return header


@dataclass
class RecoveredState:
    """Everything recovery restored, plus how it got there.

    ``documents`` and ``shots`` are in global insertion order — feeding
    them, in order, into fresh indexes (:func:`build_monolithic_indexes`)
    reproduces the original dense interning exactly.  ``applied_lsn`` is the LSN the
    state is current through; a reopened WAL must repair past it before
    appending.  ``chain_op_records`` counts the op records the snapshot
    chain's ops checkpoints hold since its last rebase.
    """

    documents: List[Tuple[str, Dict[str, int]]] = field(default_factory=list)
    shots: List[Tuple[str, List[float], Dict[str, float]]] = field(default_factory=list)
    applied_lsn: int = 0
    checkpoint_id: int = -1
    snapshot_lsn: int = 0
    wal_index_ops: int = 0
    wal_mutation_ops: int = 0
    wal_skipped_duplicates: int = 0
    wal_dropped_records: int = 0
    wal_records_beyond_stop: int = 0
    tail_errors: Dict[str, str] = field(default_factory=dict)
    baseline_text_count: int = 0
    baseline_shot_count: int = 0
    chain_op_records: int = 0
    stop_lsn: Optional[int] = None

    @property
    def text_count(self) -> int:
        """Documents in the recovered state."""
        return len(self.documents)

    @property
    def shot_count(self) -> int:
        """Shots in the recovered state."""
        return len(self.shots)

    @property
    def ingested_ops(self) -> int:
        """Net index growth beyond the bootstrap (checkpoint-0) state.

        Deletes shrink the live counts, so this is clamped at zero — it is
        a reporting figure, not an op count (``wal_index_ops`` counts
        replayed operations exactly).
        """
        return max(
            0,
            (self.text_count - self.baseline_text_count)
            + (self.shot_count - self.baseline_shot_count),
        )

    def state_digest(self) -> str:
        """Canonical digest of the recovered index state."""
        return state_digest(
            iter(self.documents),
            ((shot_id, features, concepts) for shot_id, features, concepts in self.shots),
        )


class RecoveryManager:
    """Restores a durability directory to its last durable index state.

    ``stop_lsn`` selects a **point-in-time** cut instead of the full
    durable prefix: replay stops after applying the record at that LSN, so
    the recovered state is exactly the state the service held when that
    write completed.  The cut must lie at or past the snapshot tip's
    watermark — records at or below it were compacted away by a checkpoint
    and can no longer be replayed individually — and recovery raises
    :class:`RecoveryError` for an infeasible cut rather than silently
    recovering a different state.
    """

    def __init__(self, directory: PathLike, stop_lsn: Optional[int] = None) -> None:
        if stop_lsn is not None and stop_lsn < 0:
            raise RecoveryError(f"stop_lsn must be non-negative, got {stop_lsn}")
        self._directory = Path(directory)
        read_header(self._directory)
        self._stop_lsn = stop_lsn

    def recover(self) -> RecoveredState:
        """Snapshot chain + gap-free WAL prefix → :class:`RecoveredState`."""
        try:
            fold = SnapshotStore(self._directory).load_base()
        except SnapshotError as error:
            raise RecoveryError(str(error)) from None
        if self._stop_lsn is not None and self._stop_lsn < fold.wal_lsn:
            raise RecoveryError(
                f"cannot recover to lsn {self._stop_lsn}: the snapshot "
                f"chain's tip already covers the log through lsn "
                f"{fold.wal_lsn}, so records at or below that watermark "
                f"were compacted away and cannot be replayed to an earlier "
                f"cut (feasible cuts are lsn >= {fold.wal_lsn})"
            )
        wal = WriteAheadLog(self._directory)
        try:
            records, tail_errors = wal.scan_all()
        finally:
            wal.close()

        state = RecoveredState(
            applied_lsn=fold.wal_lsn,
            checkpoint_id=fold.checkpoint_id,
            snapshot_lsn=fold.wal_lsn,
            tail_errors=tail_errors,
            baseline_text_count=fold.baseline_text_count,
            baseline_shot_count=fold.baseline_shot_count,
            chain_op_records=fold.op_records,
            stop_lsn=self._stop_lsn,
        )
        tail = [record for record in records if int(record["lsn"]) > fold.wal_lsn]
        if tail and fold.checkpoint_id < 0 and int(tail[0]["lsn"]) != 1:
            raise RecoveryError(
                f"WAL begins at lsn {int(tail[0]['lsn'])} but no snapshot "
                f"covers the preceding records — the snapshot chain is "
                f"missing"
            )
        beyond_stop = 0
        if self._stop_lsn is not None:
            within = [r for r in tail if int(r["lsn"]) <= self._stop_lsn]
            tail, beyond_stop = within, len(tail) - len(within)
        run, beyond_hole = gap_free_tail(tail, fold.wal_lsn)
        if beyond_hole:
            # A hole: a record in some log file was lost (torn tail or
            # corruption).  Everything behind it, past the cut or not, is
            # beyond the durable prefix, however intact it looks.
            state.wal_dropped_records = len(beyond_hole) + beyond_stop
        else:
            # The point-in-time cut: everything past it is intact on disk
            # but deliberately excluded from this recovery.
            state.wal_records_beyond_stop = beyond_stop
        try:
            for record in run:
                apply_record(record, fold.text, fold.visual, state)
        except ReplayError as error:
            raise RecoveryError(str(error)) from None
        if run:
            state.applied_lsn = int(run[-1]["lsn"])
        state.documents = list(fold.text.items())
        state.shots = [(shot_id, *entry) for shot_id, entry in fold.visual.items()]
        return state


def build_monolithic_indexes(state: RecoveredState, tokenizer=None):
    """Rebuild ``(InvertedIndex, VisualIndex)`` from a recovered state.

    Items are added in the state's order, the global insertion order, so
    the dense slots are exactly the pre-crash ones.
    """
    from repro.index.inverted_index import InvertedIndex
    from repro.index.visual import VisualIndex

    text_index = InvertedIndex(tokenizer=tokenizer)
    for document_id, vector in state.documents:
        text_index.add_document_frequencies(document_id, vector)
    visual_index = VisualIndex()
    for shot_id, features, concepts in state.shots:
        visual_index.add_shot(shot_id, features, concepts)
    return text_index, visual_index

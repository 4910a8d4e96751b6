"""Durability tier: write-ahead log, incremental snapshots, crash recovery.

The in-memory engine stays the system of record for serving; this package
makes its *writes* durable.  Every mutating operation is appended to a
checksummed :class:`~repro.durability.wal.WriteAheadLog` before it is
applied, incremental snapshots (:class:`~repro.durability.
snapshots.SnapshotStore`) bound replay time and compact the log, and
:class:`~repro.durability.recovery.RecoveryManager` restores the exact
pre-crash index state — byte-identical under the canonical state digest in
:mod:`repro.durability.digest`.
"""

from repro.durability.digest import engine_state_digest, state_digest
from repro.durability.manager import DurabilityManager
from repro.durability.recovery import RecoveredState, RecoveryError, RecoveryManager
from repro.durability.snapshots import SnapshotError, SnapshotStore
from repro.durability.verify import SegmentReport, VerifyReport, verify_directory
from repro.durability.wal import FSYNC_POLICIES, WalError, WriteAheadLog

__all__ = [
    "DurabilityManager",
    "FSYNC_POLICIES",
    "RecoveredState",
    "RecoveryError",
    "RecoveryManager",
    "SegmentReport",
    "SnapshotError",
    "SnapshotStore",
    "VerifyReport",
    "WalError",
    "WriteAheadLog",
    "engine_state_digest",
    "state_digest",
    "verify_directory",
]

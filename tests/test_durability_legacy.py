"""A format-2 directory: read as written, converted by the first writer.

``tests/fixtures/durable-format2`` was written by a build that logged every
feedback batch on ``wal-meta.log``, on the LSN sequence its index ops use,
and split the log and the deltas over two segments: four checkpoints, and
past the tip's watermark (lsn 21) index ops at lsns 23 and 25 with
feedback batches at 22, 24 and 26 around them.  Each of its segments has
holes where the other's records and the batches sat, so every reader —
recovery, a replica, ``repro verify`` — still merges both legacy files in,
and the first writer to attach converts the directory: a rebase at the
recovered LSN, segment 0 truncated behind it, ``wal-shard-0001.log`` and
``wal-meta.log`` unlinked, the header rewritten to format 3 and one
segment.  A crash after any of those steps re-attaches to the same state,
and a replica that was tailing the directory follows.

The same holds for a directory this build wrote and :mod:`legacy_layout`
then split over 2, 3, 4 or 8 segments, as an older build would have left
it: read whole by recovery and ``repro verify``, converted by the first
attach, and re-attached to the same state after a crash at any step.

All tests carry the ``durability`` marker (``pytest -m durability``).
"""

from __future__ import annotations

import hashlib
import io
import pathlib
import shutil
from pathlib import Path

import pytest

from repro import cli
from repro.durability import RecoveryManager, engine_state_digest
from repro.durability import manager as manager_module
from repro.durability.recovery import HEADER_FILENAME
from repro.durability.snapshots import SnapshotStore
from repro.durability.wal import LEGACY_FEEDBACK_LOG, SEGMENT_FILENAME, WriteAheadLog
from repro.replication import ReplicaServer
from repro.service import RetrievalService
from repro.utils.serialization import read_json
from repro.workload.ingest import apply_ingest, synthetic_ingest_ops

from legacy_layout import split_into_segments
from test_wal_writer_copy import FEATURE_DIM, _collection, _config

pytestmark = pytest.mark.durability

FIXTURE = Path(__file__).parent / "fixtures" / "durable-format2"

#: sha256 over every ``(name, bytes)`` of the fixture, as committed.
FIXTURE_SHA256 = "405a92696267583733de0c3422bca5fb33332a1975483d74caf502ba9206183f"

#: The state digest the writing build held when it closed the directory.
FIXTURE_DIGEST = "4a6e2337a65ca897dc2ca5e1af3f7c784294d0ba2683847707124ffff398e81e"

#: The last LSN the fixture allocated (a feedback batch).
FIXTURE_LSN = 26

#: The fixture's second segment, which only an older build writes.
LEGACY_SEGMENT = "wal-shard-0001.log"


class Crash(Exception):
    """Stands in for the process dying right after one conversion step."""


def _sha256(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def _copy(tmp_path: Path) -> Path:
    directory = tmp_path / "d"
    shutil.copytree(FIXTURE, directory)
    return directory


def _open(directory: Path, interval: int = 10_000) -> RetrievalService:
    return RetrievalService(_collection(), config=_config(directory, interval))


def _assert_converted(directory: Path) -> None:
    assert [path.name for path in directory.glob("wal-*.log")] == [SEGMENT_FILENAME]
    header = read_json(directory / HEADER_FILENAME)
    assert (header["format"], header["num_shards"]) == (3, 1)


def test_the_fixture_is_as_committed():
    assert _sha256(FIXTURE) == FIXTURE_SHA256
    header = read_json(FIXTURE / HEADER_FILENAME)
    assert (header["format"], header["num_shards"]) == (2, 2)
    assert (FIXTURE / LEGACY_FEEDBACK_LOG).stat().st_size > 0
    assert (FIXTURE / LEGACY_SEGMENT).stat().st_size > 0


def test_it_recovers_to_the_digest_it_was_written_with():
    state = RecoveryManager(FIXTURE).recover()
    assert state.state_digest() == FIXTURE_DIGEST
    assert (state.snapshot_lsn, state.applied_lsn) == (21, FIXTURE_LSN)
    # The batches fill their LSNs; only the two index ops are replayed.
    assert (state.wal_index_ops, state.wal_skipped_duplicates) == (2, 0)
    assert state.wal_dropped_records == 0


def test_verify_reads_it_as_whole(tmp_path):
    directory = _copy(tmp_path)
    out = io.StringIO()
    assert cli.main(["verify", str(directory)], out=out) == 0
    assert "integrity: ok" in out.getvalue()
    assert f"max-gap-free-lsn: {FIXTURE_LSN}" in out.getvalue()
    assert _sha256(directory) == FIXTURE_SHA256


def test_attach_converts_it(tmp_path):
    directory = _copy(tmp_path)
    service = _open(directory)
    assert engine_state_digest(service.engine) == FIXTURE_DIGEST
    _assert_converted(directory)
    tip = SnapshotStore(directory).latest_manifest
    assert (tip["rebase"], tip["wal_lsn"]) == (True, FIXTURE_LSN)
    assert tip["deltas"] == ["delta-cp000004-shard0000.json"]
    assert WriteAheadLog(directory).scan_all() == ([], {})
    ops = synthetic_ingest_ops(6, seed=31, feature_dim=FEATURE_DIM)
    apply_ingest(service, ops)
    assert service.engine.durability.wal.last_lsn == FIXTURE_LSN + len(ops)
    live = engine_state_digest(service.engine)
    service.close()
    assert RecoveryManager(directory).recover().state_digest() == live
    out = io.StringIO()
    assert cli.main(["verify", str(directory)], out=out) == 0
    assert "integrity: ok" in out.getvalue()


def _step(monkeypatch, step: str) -> None:
    """Make ``step`` of the conversion raise :class:`Crash` once it is done."""

    def crash_after(original, when=lambda *args: True):
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            if when(*args):
                raise Crash(step)
            return result

        return wrapper

    if step == "repair":
        monkeypatch.setattr(
            WriteAheadLog, "repair_to", crash_after(WriteAheadLog.repair_to)
        )
    elif step == "rebase":
        monkeypatch.setattr(
            SnapshotStore,
            "write_full_checkpoint",
            crash_after(SnapshotStore.write_full_checkpoint),
        )
    elif step == "truncate":
        monkeypatch.setattr(
            WriteAheadLog, "truncate_through", crash_after(WriteAheadLog.truncate_through)
        )
    elif step in ("unlink_segment", "unlink"):
        name = LEGACY_SEGMENT if step == "unlink_segment" else LEGACY_FEEDBACK_LOG
        monkeypatch.setattr(
            pathlib.Path,
            "unlink",
            crash_after(pathlib.Path.unlink, lambda path: path.name == name),
        )
    else:
        monkeypatch.setattr(
            manager_module,
            "_write_json_atomic",
            crash_after(manager_module._write_json_atomic),
        )


def _crash_then_reattach(directory: Path, monkeypatch, step: str, digest: str, lsn: int):
    """Crash the first attach of ``directory`` after ``step`` of its
    conversion; the directory, a replica that was tailing it, and the next
    attach all hold ``digest``, the state as of ``lsn``."""
    # A replica tailing the directory from before the conversion.
    replica = ReplicaServer(directory, collection=_collection(), config=_config(directory, 4))
    try:
        assert replica.state_digest() == digest
        with monkeypatch.context() as patched:
            _step(patched, step)
            with pytest.raises(Crash):
                _open(directory)
        assert RecoveryManager(directory).recover().state_digest() == digest
        replica.catch_up()
        assert replica.state_digest() == digest
        service = _open(directory, interval=4)
        assert engine_state_digest(service.engine) == digest
        _assert_converted(directory)
        # Four more ops reach the cadence: the checkpoint truncates the log
        # in front of the replica, which restarts from the new tip.
        apply_ingest(service, synthetic_ingest_ops(6, seed=31, feature_dim=FEATURE_DIM))
        live = engine_state_digest(service.engine)
        service.close()
        replica.catch_up()
        assert replica.state_digest() == live
        assert replica.applied_lsn == lsn + 6
        assert RecoveryManager(directory).recover().state_digest() == live
    finally:
        replica.close()


@pytest.mark.parametrize(
    "step", ("repair", "rebase", "truncate", "unlink_segment", "unlink", "header")
)
def test_a_crash_after_each_conversion_step_reattaches_to_the_same_state(
    tmp_path, monkeypatch, step
):
    _crash_then_reattach(_copy(tmp_path), monkeypatch, step, FIXTURE_DIGEST, FIXTURE_LSN)


# -- a directory an older build split over N segments -----------------------------


def _split_directory(tmp_path: Path, segments: int):
    """A directory this build wrote — ingests, a delete and an update, a
    checkpoint every eight ops and a WAL tail of seven records — rewritten
    as an older build that split it over ``segments`` segments left it:
    ``(directory, state digest, last lsn)``."""
    directory = tmp_path / "split"
    service = _open(directory, interval=8)
    ops = synthetic_ingest_ops(21, seed=41, feature_dim=FEATURE_DIM)
    apply_ingest(service, ops)
    documents = [op[1] for op in ops if op[0] == "doc"]
    service.delete_document(documents[0])
    service.update_document(documents[1], "verdict appeal rewrite")
    digest = engine_state_digest(service.engine)
    lsn = service.engine.durability.wal.last_lsn
    service.close()
    split_into_segments(directory, segments)
    return directory, digest, lsn


@pytest.mark.parametrize("segments", (2, 3, 4, 8))
def test_an_older_split_directory_is_read_whole_and_converted(tmp_path, segments):
    directory, digest, lsn = _split_directory(tmp_path, segments)
    header = read_json(directory / HEADER_FILENAME)
    assert (header["format"], header["num_shards"]) == (3, segments)
    assert len(list(directory.glob("wal-*.log"))) == segments
    tail, tail_errors = WriteAheadLog(directory).scan_all()
    assert [record["lsn"] for record in tail] == list(range(lsn - 6, lsn + 1))
    assert tail_errors == {}
    assert RecoveryManager(directory).recover().state_digest() == digest
    out = io.StringIO()
    assert cli.main(["verify", str(directory)], out=out) == 0
    assert "integrity: ok" in out.getvalue()
    assert f"max-gap-free-lsn: {lsn}" in out.getvalue()

    service = _open(directory)
    assert engine_state_digest(service.engine) == digest
    _assert_converted(directory)
    assert WriteAheadLog(directory).scan_all() == ([], {})
    apply_ingest(service, synthetic_ingest_ops(6, seed=31, feature_dim=FEATURE_DIM))
    assert service.engine.durability.wal.last_lsn == lsn + 6
    live = engine_state_digest(service.engine)
    service.close()
    assert RecoveryManager(directory).recover().state_digest() == live
    out = io.StringIO()
    assert cli.main(["verify", str(directory)], out=out) == 0
    assert "integrity: ok" in out.getvalue()


@pytest.mark.parametrize("step", ("repair", "rebase", "truncate", "unlink_segment", "header"))
def test_a_crash_converting_a_split_directory_reattaches_to_the_same_state(
    tmp_path, monkeypatch, step
):
    # Four segments: a crash after the first legacy unlink leaves two.
    directory, digest, lsn = _split_directory(tmp_path, 4)
    _crash_then_reattach(directory, monkeypatch, step, digest, lsn)

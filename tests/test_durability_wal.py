"""WAL behaviour tests: LSN discipline, compaction, repair, and the legacy
files (further segments, the feedback log) an older directory may still hold.

All tests carry the ``durability`` marker (``pytest -m durability``).
"""

from __future__ import annotations

import pytest

from repro.durability import wal as wal_module
from repro.durability.wal import (
    FSYNC_POLICIES,
    LEGACY_FEEDBACK_LOG,
    SEGMENT_FILENAME,
    WalError,
    WalSegment,
    WriteAheadLog,
    encode_op,
    legacy_files,
)
from repro.feedback import EventKind, InteractionEvent
from repro.service import RetrievalService, ServiceConfig
from repro.utils.serialization import encode_record
from repro.workload.ingest import apply_ingest, service_feature_dim, synthetic_ingest_ops

pytestmark = pytest.mark.durability


def test_one_segment_file_name():
    # The name a multi-segment build gave its first segment: a one-segment
    # directory's bytes stayed as they were.
    assert SEGMENT_FILENAME == "wal-shard-0000.log"


def test_feedback_appends_nothing(analysed_corpus, tmp_path):
    directory = tmp_path / "d"
    config = ServiceConfig(durability_dir=str(directory), fsync_policy="never")
    service = RetrievalService.from_corpus(analysed_corpus, config=config)
    apply_ingest(
        service, synthetic_ingest_ops(3, seed=4, feature_dim=service_feature_dim(service))
    )
    wal = service.engine.durability.wal
    before = wal.last_lsn, {path.name: path.read_bytes() for path in directory.iterdir()}
    shot_id = analysed_corpus.collection.shot_ids()[0]
    for tick in range(3):
        info = service.observe(
            "user-a", [InteractionEvent(EventKind.PLAY_CLICK, float(tick), shot_id=shot_id)]
        )
    assert info.seen_shot_count == 1  # the session took the clicks ...
    after = wal.last_lsn, {path.name: path.read_bytes() for path in directory.iterdir()}
    service.close()
    assert after == before  # ... and the directory did not move
    assert not (directory / LEGACY_FEEDBACK_LOG).exists()


class TestWalSegment:
    def test_append_scan_roundtrip(self, tmp_path):
        segment = WalSegment(tmp_path / "seg.log")
        for lsn in range(1, 6):
            segment.append(b'{"lsn": %d}' % lsn, fsync=False)
        segment.close()
        records, tail_error = segment.scan()
        assert [record["lsn"] for record in records] == [1, 2, 3, 4, 5]
        assert tail_error is None

    def test_missing_file_is_empty(self, tmp_path):
        assert WalSegment(tmp_path / "absent.log").scan() == ([], None)

    def test_torn_tail_yields_clean_prefix(self, tmp_path):
        path = tmp_path / "seg.log"
        segment = WalSegment(path)
        segment.append(b'{"lsn": 1}', fsync=False)
        segment.append(b'{"lsn": 2}', fsync=False)
        segment.close()
        path.write_bytes(path.read_bytes()[:-3])  # tear the last record
        records, tail_error = segment.scan()
        assert [record["lsn"] for record in records] == [1]
        assert tail_error is not None

    def test_checksummed_garbage_payload_ends_prefix(self, tmp_path):
        path = tmp_path / "seg.log"
        segment = WalSegment(path)
        segment.append(b'{"lsn": 1}', fsync=False)
        segment.close()
        # A frame whose checksum is valid but whose payload is not an op
        # record: a broken writer, treated exactly like a torn tail.
        with path.open("ab") as handle:
            handle.write(encode_record(b"not json"))
        records, tail_error = segment.scan()
        assert [record["lsn"] for record in records] == [1]
        assert tail_error is not None

    def test_rewrite_is_reopenable(self, tmp_path):
        segment = WalSegment(tmp_path / "seg.log")
        segment.append(b'{"lsn": 1}', fsync=False)
        segment.append(b'{"lsn": 2}', fsync=False)
        segment.rewrite([b'{"lsn": 2}'])
        segment.append(b'{"lsn": 3}', fsync=False)
        segment.close()
        records, tail_error = segment.scan()
        assert [record["lsn"] for record in records] == [2, 3]
        assert tail_error is None


class TestWriteAheadLog:
    def _wal(self, tmp_path, **kwargs):
        kwargs.setdefault("fsync_policy", "never")
        return WriteAheadLog(tmp_path, **kwargs)

    def _fill(self, wal, count):
        for index in range(count):
            wal.append({"op": "doc", "id": f"d{index}", "tf": {}})

    def test_rejects_bad_parameters(self, tmp_path):
        with pytest.raises(WalError):
            WriteAheadLog(tmp_path, fsync_policy="sometimes")
        assert set(FSYNC_POLICIES) == {"always", "interval", "never"}

    @pytest.mark.parametrize("policy", FSYNC_POLICIES)
    def test_all_policies_append_and_scan(self, tmp_path, monkeypatch, policy):
        # Five appends cross an interval of two twice.
        monkeypatch.setattr(wal_module, "FSYNC_INTERVAL_OPS", 2)
        wal = WriteAheadLog(tmp_path / policy, fsync_policy=policy)
        self._fill(wal, 5)
        wal.close()
        records, tail_errors = wal.scan_all()
        assert [record["lsn"] for record in records] == [1, 2, 3, 4, 5]
        assert tail_errors == {}
        assert [path.name for path in (tmp_path / policy).iterdir()] == [SEGMENT_FILENAME]

    def test_lsns_are_monotonic(self, tmp_path):
        wal = self._wal(tmp_path)
        for index in range(20):
            lsn = wal.append({"op": "doc", "id": f"doc-{index}", "tf": {}})
            assert lsn == index + 1
        assert wal.last_lsn == 20
        records, _ = wal.scan_all()
        assert [record["lsn"] for record in records] == list(range(1, 21))
        wal.close()

    def test_append_stamps_lsn_without_mutating_caller(self, tmp_path):
        wal = self._wal(tmp_path)
        record = {"op": "doc", "id": "d", "tf": {"a": 1}}
        wal.append(record)
        assert "lsn" not in record
        wal.close()

    def test_truncate_through_compacts_the_segment(self, tmp_path):
        wal = self._wal(tmp_path)
        self._fill(wal, 10)
        dropped = wal.truncate_through(6)
        assert dropped == 6
        records, _ = wal.scan_all()
        assert [record["lsn"] for record in records] == [7, 8, 9, 10]
        # Appending after compaction continues the same LSN sequence.
        assert wal.append({"op": "doc", "id": "late", "tf": {}}) == 11
        wal.close()

    def test_repair_to_drops_records_past_the_prefix(self, tmp_path):
        wal = self._wal(tmp_path)
        self._fill(wal, 8)
        wal.close()
        reopened = WriteAheadLog(tmp_path, fsync_policy="never", next_lsn=6)
        dropped = reopened.repair_to(5)
        assert dropped == 3
        records, tail_errors = reopened.scan_all()
        assert [record["lsn"] for record in records] == [1, 2, 3, 4, 5]
        assert tail_errors == {}
        assert reopened.append({"op": "doc", "id": "resume", "tf": {}}) == 6
        reopened.close()

    def test_truncation_rewrites_a_segment_found_torn_once(self, tmp_path):
        wal = self._wal(tmp_path)
        self._fill(wal, 6)
        wal.close()
        victim = tmp_path / SEGMENT_FILENAME
        victim.write_bytes(victim.read_bytes()[:-2])
        reopened = WriteAheadLog(tmp_path, fsync_policy="never", next_lsn=7)
        assert reopened.truncate_through(0) == 0
        assert WalSegment(victim).scan()[1] is None
        inode = victim.stat().st_ino
        assert reopened.truncate_through(0) == 0
        assert victim.stat().st_ino == inode  # not rewritten (renamed over) again
        assert reopened.held_entries() == WalSegment(victim).scan_entries()[0]
        reopened.close()

    def test_a_failed_append_is_not_held(self, tmp_path, monkeypatch):
        wal = self._wal(tmp_path)
        wal.append({"op": "doc", "id": "kept", "tf": {}})
        assert [entry.lsn for entry in wal.held_entries()] == [1]

        def full_disk(segment, payload, fsync, flush=True):
            raise OSError("disk full")

        monkeypatch.setattr(WalSegment, "append", full_disk)
        with pytest.raises(OSError):
            wal.append({"op": "doc", "id": "lost", "tf": {}})
        assert wal.last_lsn == 2  # allocated: a hole, never reused
        assert [entry.lsn for entry in wal.held_entries()] == [1]
        wal.close()

    def test_scan_all_reports_a_torn_segment(self, tmp_path):
        wal = self._wal(tmp_path)
        self._fill(wal, 6)
        wal.close()
        victim = tmp_path / SEGMENT_FILENAME
        victim.write_bytes(victim.read_bytes()[:-2])
        records, tail_errors = wal.scan_all()
        assert set(tail_errors) == {SEGMENT_FILENAME}
        assert [record["lsn"] for record in records] == [1, 2, 3, 4, 5]


def test_legacy_files_fill_lsns_and_are_never_written(tmp_path):
    # An older writer split its log over two segments and logged feedback
    # batches (LSNs 2 and 4) on a third file.  Readers merge them in, so the
    # stream has no hole; the writer neither holds, appends to nor rewrites
    # them.
    def frame(name, records):
        segment = WalSegment(tmp_path / name)
        for record in records:
            segment.append(encode_op(record), fsync=False)
        segment.close()

    doc = lambda lsn: {"op": "doc", "id": f"d{lsn}", "tf": {}, "lsn": lsn}
    frame(SEGMENT_FILENAME, [doc(1), doc(5)])
    frame("wal-shard-0001.log", [doc(3)])
    frame(LEGACY_FEEDBACK_LOG, [{"op": "feedback", "lsn": lsn, "events": []} for lsn in (2, 4)])
    legacy = {path.name: path.read_bytes() for path in legacy_files(tmp_path)}
    assert list(legacy) == ["wal-shard-0001.log", LEGACY_FEEDBACK_LOG]
    wal = WriteAheadLog(tmp_path, fsync_policy="never", next_lsn=6)
    names = [name for name, _, _ in wal.scan_segments()]
    assert names == [SEGMENT_FILENAME, "wal-shard-0001.log", LEGACY_FEEDBACK_LOG]
    records, tail_errors = wal.scan_all()
    assert [record["lsn"] for record in records] == [1, 2, 3, 4, 5]
    assert tail_errors == {}
    assert [entry.lsn for entry in wal.entries_since(0)] == [1, 5]
    assert wal.truncate_through(4) == 1
    assert wal.repair_to(4) == 1
    wal.close()
    assert {path.name: path.read_bytes() for path in legacy_files(tmp_path)} == legacy


@pytest.mark.parametrize(
    "torn", (SEGMENT_FILENAME, "wal-shard-0001.log", "wal-shard-0002.log")
)
def test_scan_all_reports_a_torn_legacy_segment_but_keeps_the_others(tmp_path, torn):
    # An older writer split its log over three segments, one LSN in three
    # each.  Whichever file lost its last frame is the one reported, and
    # every intact record of the others is still read; the gap its lost
    # record leaves is recovery's to handle.
    doc = lambda lsn: {"op": "doc", "id": f"d{lsn}", "tf": {}, "lsn": lsn}
    names = (SEGMENT_FILENAME, "wal-shard-0001.log", "wal-shard-0002.log")
    for offset, name in enumerate(names):
        segment = WalSegment(tmp_path / name)
        for lsn in (1 + offset, 4 + offset):
            segment.append(encode_op(doc(lsn)), fsync=False)
        segment.close()
    victim = tmp_path / torn
    victim.write_bytes(victim.read_bytes()[:-2])
    records, tail_errors = WriteAheadLog(tmp_path, fsync_policy="never").scan_all()
    assert set(tail_errors) == {torn}
    lost = 4 + names.index(torn)
    assert [record["lsn"] for record in records] == [
        lsn for lsn in range(1, 7) if lsn != lost
    ]

"""WAL behaviour tests: LSN discipline, segment routing, compaction, repair,
and the feedback log a format-2 directory may still hold.

All tests carry the ``durability`` marker (``pytest -m durability``).
"""

from __future__ import annotations

import pytest

from repro.durability.wal import (
    FSYNC_POLICIES,
    LEGACY_FEEDBACK_LOG,
    WalError,
    WalSegment,
    WriteAheadLog,
    encode_op,
    segment_filename,
)
from repro.feedback import EventKind, InteractionEvent
from repro.service import RetrievalService, ServiceConfig
from repro.sharding.router import ShardRouter
from repro.utils.serialization import encode_record
from repro.workload.ingest import apply_ingest, service_feature_dim, synthetic_ingest_ops

pytestmark = pytest.mark.durability


def test_segment_filenames():
    assert segment_filename(0) == "wal-shard-0000.log"
    assert segment_filename(17) == "wal-shard-0017.log"


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
    def _wal(self, tmp_path, num_shards=2, **kwargs):
        kwargs.setdefault("fsync_policy", "never")
        return WriteAheadLog(tmp_path, num_shards, **kwargs)

    def test_rejects_bad_parameters(self, tmp_path):
        with pytest.raises(WalError):
            WriteAheadLog(tmp_path, 1, fsync_policy="sometimes")
        with pytest.raises(WalError):
            WriteAheadLog(tmp_path, 0)
        with pytest.raises(WalError):
            WriteAheadLog(tmp_path, 1, fsync_interval_ops=0)
        assert set(FSYNC_POLICIES) == {"always", "interval", "never"}

    @pytest.mark.parametrize("policy", FSYNC_POLICIES)
    def test_all_policies_append_and_scan(self, tmp_path, policy):
        wal = WriteAheadLog(tmp_path / policy, 1, fsync_policy=policy,
                            fsync_interval_ops=2)
        for index in range(5):
            wal.append(0, {"op": "doc", "id": f"d{index}", "tf": {}})
        wal.close()
        records, tail_errors = wal.scan_all()
        assert [record["lsn"] for record in records] == [1, 2, 3, 4, 5]
        assert tail_errors == {}

    def test_lsns_are_globally_monotonic_across_segments(self, tmp_path):
        wal = self._wal(tmp_path, num_shards=3)
        router = ShardRouter(3)
        ids = [f"doc-{index}" for index in range(20)]
        for index, doc_id in enumerate(ids):
            lsn = wal.append(router.shard_of(doc_id), {"op": "doc", "id": doc_id, "tf": {}})
            assert lsn == index + 1
        assert wal.last_lsn == 20
        records, _ = wal.scan_all()
        assert [record["lsn"] for record in records] == list(range(1, 21))
        wal.close()

    def test_append_stamps_lsn_without_mutating_caller(self, tmp_path):
        wal = self._wal(tmp_path, num_shards=1)
        record = {"op": "doc", "id": "d", "tf": {"a": 1}}
        wal.append(0, record)
        assert "lsn" not in record
        wal.close()

    def test_unknown_segment_rejected(self, tmp_path):
        wal = self._wal(tmp_path, num_shards=2)
        with pytest.raises(WalError):
            wal.append(7, {"op": "doc", "id": "d", "tf": {}})
        wal.close()

    def test_truncate_through_compacts_every_segment(self, tmp_path):
        wal = self._wal(tmp_path, num_shards=2)
        for index in range(10):
            wal.append(index % 2, {"op": "doc", "id": f"d{index}", "tf": {}})
        dropped = wal.truncate_through(6)
        assert dropped == 6
        records, _ = wal.scan_all()
        assert [record["lsn"] for record in records] == [7, 8, 9, 10]
        # Appending after compaction continues the same LSN sequence.
        assert wal.append(0, {"op": "doc", "id": "late", "tf": {}}) == 11
        wal.close()

    def test_repair_to_drops_records_past_the_prefix(self, tmp_path):
        wal = self._wal(tmp_path, num_shards=2)
        for index in range(8):
            wal.append(index % 2, {"op": "doc", "id": f"d{index}", "tf": {}})
        wal.close()
        reopened = WriteAheadLog(tmp_path, 2, fsync_policy="never", next_lsn=6)
        dropped = reopened.repair_to(5)
        assert dropped == 3
        records, tail_errors = reopened.scan_all()
        assert [record["lsn"] for record in records] == [1, 2, 3, 4, 5]
        assert tail_errors == {}
        assert reopened.append(0, {"op": "doc", "id": "resume", "tf": {}}) == 6
        reopened.close()

    def test_truncation_rewrites_a_segment_found_torn_once(self, tmp_path):
        wal = self._wal(tmp_path, num_shards=2)
        for index in range(6):
            wal.append(index % 2, {"op": "doc", "id": f"d{index}", "tf": {}})
        wal.close()
        victim = tmp_path / segment_filename(1)
        victim.write_bytes(victim.read_bytes()[:-2])
        reopened = WriteAheadLog(tmp_path, 2, fsync_policy="never", next_lsn=7)
        assert reopened.truncate_through(0) == 0
        assert WalSegment(victim).scan()[1] is None
        inode = victim.stat().st_ino
        assert reopened.truncate_through(0) == 0
        assert victim.stat().st_ino == inode  # not rewritten (renamed over) again
        for name, entries in reopened.held_entries().items():
            assert entries == WalSegment(tmp_path / name).scan_entries()[0]
        reopened.close()

    def test_a_failed_append_is_not_held(self, tmp_path, monkeypatch):
        wal = self._wal(tmp_path, num_shards=1)
        wal.append(0, {"op": "doc", "id": "kept", "tf": {}})
        assert [entry.lsn for entry in wal.held_entries()[segment_filename(0)]] == [1]

        def full_disk(segment, payload, fsync, flush=True):
            raise OSError("disk full")

        monkeypatch.setattr(WalSegment, "append", full_disk)
        with pytest.raises(OSError):
            wal.append(0, {"op": "doc", "id": "lost", "tf": {}})
        assert wal.last_lsn == 2  # allocated: a hole, never reused
        assert [entry.lsn for entry in wal.held_entries()[segment_filename(0)]] == [1]
        wal.close()

    def test_scan_all_reports_torn_segment_but_keeps_others(self, tmp_path):
        wal = self._wal(tmp_path, num_shards=2)
        for index in range(6):
            wal.append(index % 2, {"op": "doc", "id": f"d{index}", "tf": {}})
        wal.close()
        victim = tmp_path / segment_filename(1)
        victim.write_bytes(victim.read_bytes()[:-2])
        records, tail_errors = wal.scan_all()
        assert set(tail_errors) == {segment_filename(1)}
        lsns = [record["lsn"] for record in records]
        assert lsns == sorted(lsns)
        assert len(lsns) == 5  # one record lost to the tear


def test_a_legacy_feedback_log_fills_lsns_and_is_never_written(tmp_path):
    # Feedback batches a format-2 writer logged hold LSNs 2 and 4, between
    # index ops.  Readers merge them in, so the stream has no hole; the
    # writer neither holds, appends to nor rewrites the file.
    def frame(name, records):
        segment = WalSegment(tmp_path / name)
        for record in records:
            segment.append(encode_op(record), fsync=False)
        segment.close()

    doc = lambda lsn: {"op": "doc", "id": f"d{lsn}", "tf": {}, "lsn": lsn}
    frame(segment_filename(0), [doc(1), doc(5)])
    frame(segment_filename(1), [doc(3)])
    frame(LEGACY_FEEDBACK_LOG, [{"op": "feedback", "lsn": lsn, "events": []} for lsn in (2, 4)])
    legacy = (tmp_path / LEGACY_FEEDBACK_LOG).read_bytes()
    wal = WriteAheadLog(tmp_path, 2, fsync_policy="never", next_lsn=6)
    names = [name for name, _, _ in wal.scan_segments()]
    assert names == [segment_filename(0), segment_filename(1), LEGACY_FEEDBACK_LOG]
    records, tail_errors = wal.scan_all()
    assert [record["lsn"] for record in records] == [1, 2, 3, 4, 5]
    assert tail_errors == {}
    assert [entry.lsn for entry in wal.entries_since(0)] == [1, 3, 5]
    assert wal.truncate_through(4) == 2
    assert wal.repair_to(4) == 1
    wal.close()
    assert (tmp_path / LEGACY_FEEDBACK_LOG).read_bytes() == legacy

"""Fault injection against the durability tier.

The crash-consistency contract: whatever survives on disk, recovery
restores a **true prefix** of the write history — byte-identical (same
canonical digest) to the state an uninterrupted run held after that many
ops — or refuses loudly (:class:`RecoveryError`) when the snapshot chain
itself is damaged.  Injected faults: kill at every op boundary (directory
copied mid-run), torn final record, checksum corruption mid-segment,
orphaned delta files from an interrupted checkpoint, missing delta files,
broken manifest chains, a deleted snapshot chain, and — for the ops
checkpoints that carry WAL records into the chain — damaged ops deltas, a
checkpoint interrupted before its WAL truncation, truncation held back by a
replica, and a WAL append that failed after its LSN was allocated — and
feature vectors that do not decode, in a full-state delta, an ops delta and
a WAL record.

All tests carry the ``durability`` marker (``pytest -m durability``).
"""

from __future__ import annotations

import base64
import errno
import json
import shutil

import pytest

from repro.durability import RecoveryError, RecoveryManager, engine_state_digest
from repro.durability.recovery import _TextItems, _VisualItems
from repro.durability.replay import ReplayCounts, ReplayError, apply_record
from repro.durability.snapshots import (
    SNAPSHOT_FORMAT,
    SnapshotError,
    SnapshotStore,
    _write_json_atomic,
    manifest_filename,
)
from repro.durability.wal import WalSegment, encode_op, segment_filename
from repro.retrieval import EngineConfig
from repro.service import RetrievalService, ServiceConfig
from repro.utils.serialization import read_json
from repro.workload.ingest import (
    apply_ingest,
    service_feature_dim,
    synthetic_ingest_ops,
)

#: A service's default ranking (depth 50) with the result cache off.
UNCACHED = EngineConfig(result_limit=50, result_cache_size=0)

pytestmark = pytest.mark.durability

SEED = 13


def _durable_config(directory, num_shards=1, interval=10_000) -> ServiceConfig:
    return ServiceConfig(
        engine=UNCACHED,
        num_shards=num_shards,
        durability_dir=str(directory),
        snapshot_interval_ops=interval,
        fsync_policy="never",
    )


def _ops(service, count):
    return synthetic_ingest_ops(
        count, seed=SEED, feature_dim=service_feature_dim(service)
    )


def _prefix_digests(corpus, count, num_shards=1):
    """Digest of an uninterrupted in-memory run after each op: index 0 is
    the corpus-only state, index k the state after ops[:k]."""
    service = RetrievalService(
        corpus.collection,
        config=ServiceConfig(engine=UNCACHED, num_shards=num_shards),
    )
    digests = [engine_state_digest(service.engine)]
    for op in _ops(service, count):
        apply_ingest(service, [op])
        digests.append(engine_state_digest(service.engine))
    service.close()
    return digests


class TestKillAnywhere:
    @pytest.mark.parametrize("num_shards", (1, 4))
    def test_recovery_at_every_op_boundary(
        self, analysed_corpus, tmp_path, num_shards
    ):
        # Simulate a kill after every single op by copying the durability
        # directory as the run progresses; interval 4 makes the sweep
        # cross two live compactions.  Every copy must recover to the
        # reference prefix digest for its op count.
        count = 12
        references = _prefix_digests(analysed_corpus, count, num_shards)
        live = tmp_path / "live"
        service = RetrievalService(
            analysed_corpus.collection,
            config=_durable_config(live, num_shards, interval=4),
        )
        copies = [tmp_path / "kill-000"]
        shutil.copytree(live, copies[0])
        for index, op in enumerate(_ops(service, count), start=1):
            apply_ingest(service, [op])
            copy = tmp_path / f"kill-{index:03d}"
            shutil.copytree(live, copy)
            copies.append(copy)
        service.close()

        for index, copy in enumerate(copies):
            state = RecoveryManager(copy).recover()
            assert state.ingested_ops == index, copy.name
            assert state.state_digest() == references[index], copy.name
            assert state.wal_dropped_records == 0, copy.name


class TestTornAndCorruptRecords:
    def test_torn_final_record_drops_exactly_the_last_op(
        self, analysed_corpus, tmp_path
    ):
        count = 8
        references = _prefix_digests(analysed_corpus, count)
        directory = tmp_path / "d"
        service = RetrievalService(
            analysed_corpus.collection, config=_durable_config(directory)
        )
        apply_ingest(service, _ops(service, count))
        service.close()

        # Tear bytes off the single WAL segment's tail: the final record
        # no longer decodes, so the durable prefix is one op shorter.
        segment = directory / segment_filename(0)
        segment.write_bytes(segment.read_bytes()[:-3])
        state = RecoveryManager(directory).recover()
        assert state.tail_errors.keys() == {segment_filename(0)}
        assert state.ingested_ops == count - 1
        assert state.state_digest() == references[count - 1]

        # A service reopened over the torn directory repairs the WAL and
        # continues the stream from the recovered prefix.
        reopened = RetrievalService(
            analysed_corpus.collection, config=_durable_config(directory)
        )
        assert engine_state_digest(reopened.engine) == references[count - 1]
        reopened.close()
        repaired, tail_errors = WalSegment(segment).scan()
        assert tail_errors is None
        assert len(repaired) == count - 1

    def test_corruption_cascades_across_segments(self, analysed_corpus, tmp_path):
        # num_shards=2: flip a byte inside the FIRST record of shard 0's
        # segment.  Its whole segment prefix dies at the corruption, and
        # the gap-free rule must then also drop every *intact* record with
        # a higher LSN on the other segments.
        count = 12
        references = _prefix_digests(analysed_corpus, count, num_shards=2)
        directory = tmp_path / "d"
        service = RetrievalService(
            analysed_corpus.collection,
            config=_durable_config(directory, num_shards=2),
        )
        apply_ingest(service, _ops(service, count))
        service.close()

        victim = directory / segment_filename(0)
        victim_records, _ = WalSegment(victim).scan()
        assert victim_records, "ingest stream left shard 0's segment empty"
        first_lsn = int(victim_records[0]["lsn"])
        assert first_lsn < count  # records with higher LSNs exist elsewhere
        raw = bytearray(victim.read_bytes())
        raw[8] ^= 0x40  # inside the first record's payload
        victim.write_bytes(bytes(raw))

        state = RecoveryManager(directory).recover()
        assert state.applied_lsn == first_lsn - 1
        assert state.ingested_ops == first_lsn - 1
        assert state.state_digest() == references[first_lsn - 1]
        assert state.wal_dropped_records > 0
        assert segment_filename(0) in state.tail_errors


class TestSnapshotChainDamage:
    def _durable_run(self, corpus, directory, count=8, interval=3):
        service = RetrievalService(
            corpus.collection, config=_durable_config(directory, interval=interval)
        )
        apply_ingest(service, _ops(service, count))
        digest = engine_state_digest(service.engine)
        service.close()
        return digest

    def test_orphan_delta_from_interrupted_checkpoint_is_inert(
        self, analysed_corpus, tmp_path
    ):
        # A crash between delta write and manifest rename leaves delta
        # files no manifest names.  They must not affect recovery.
        directory = tmp_path / "d"
        digest = self._durable_run(analysed_corpus, directory)
        _write_json_atomic(
            directory / "delta-cp000099-shard0000.json",
            {"documents": [[0, "ghost-doc", {"ghost": 1}]], "shots": []},
        )
        state = RecoveryManager(directory).recover()
        assert state.state_digest() == digest

    def test_missing_delta_is_refused(self, analysed_corpus, tmp_path):
        directory = tmp_path / "d"
        self._durable_run(analysed_corpus, directory)
        deltas = sorted(directory.glob("delta-*.json"))
        assert deltas, "expected incremental deltas on disk"
        deltas[0].unlink()
        with pytest.raises(RecoveryError, match="missing|not dense"):
            RecoveryManager(directory).recover()

    def test_broken_manifest_chain_is_refused(self, analysed_corpus, tmp_path):
        # Deleting an intermediate manifest severs the parent chain even
        # though the tip manifest is intact.
        directory = tmp_path / "d"
        self._durable_run(analysed_corpus, directory, count=8, interval=3)
        manifests = sorted(directory.glob("checkpoint-*.json"))
        assert len(manifests) >= 3  # bootstrap + at least two increments
        manifests[1].unlink()
        with pytest.raises(RecoveryError, match="missing"):
            RecoveryManager(directory).recover()

    def test_deleted_snapshot_chain_is_refused(self, analysed_corpus, tmp_path):
        # With the whole chain gone, the WAL tail begins past lsn 1 —
        # recovery must refuse rather than hand back a silently truncated
        # state that pretends the compacted history never happened.
        directory = tmp_path / "d"
        self._durable_run(analysed_corpus, directory, count=6, interval=4)
        for path in list(directory.glob("checkpoint-*.json")) + list(
            directory.glob("delta-*.json")
        ):
            path.unlink()
        with pytest.raises(RecoveryError, match="snapshot chain is missing"):
            RecoveryManager(directory).recover()


class TestOpsDeltaFaults:
    """The chain's ops checkpoints: WAL records folded by ``apply_record``."""

    def _mutating_run(
        self, corpus, directory, interval=4, after_open=None, before_close=None
    ):
        """12 ingests with a delete, an update and a shot delete among them
        (15 records), checkpointing every ``interval``; returns the live
        digest."""
        service = RetrievalService(
            corpus.collection, config=_durable_config(directory, interval=interval)
        )
        if after_open is not None:
            after_open(service)
        ops = _ops(service, 12)
        doc_ids = [op[1] for op in ops if op[0] == "doc"]
        shot_ids = [op[1] for op in ops if op[0] == "shot"]
        for index, op in enumerate(ops):
            apply_ingest(service, [op])
            if index == 5:
                service.delete_document(doc_ids[0])
                service.update_document(doc_ids[1], "verdict launch rewrite")
            if index == 9:
                service.delete_shot(shot_ids[0])
        if before_close is not None:
            before_close(service)
        digest = engine_state_digest(service.engine)
        service.close()
        return digest

    @staticmethod
    def _ops_deltas(directory):
        """``{file name: its op records}`` over every ops delta on disk."""
        deltas = {}
        for path in sorted(directory.glob("delta-*.json")):
            delta = read_json(path)
            if "ops" in delta:
                assert delta["format"] == SNAPSHOT_FORMAT
                deltas[path.name] = delta["ops"]
        return deltas

    def _assert_no_lsn_twice(self, directory):
        lsns = [
            record["lsn"]
            for records in self._ops_deltas(directory).values()
            for record in records
        ]
        assert lsns and len(lsns) == len(set(lsns))

    def test_mutations_checkpoint_as_ops_not_rebases(
        self, analysed_corpus, tmp_path
    ):
        directory = tmp_path / "d"
        digest = self._mutating_run(analysed_corpus, directory)
        manifests = [
            read_json(path) for path in sorted(directory.glob("checkpoint-*.json"))
        ]
        assert [m["op_records"] for m in manifests] == [0, 4, 4, 4]
        assert not any(m["rebase"] for m in manifests)
        ops = {
            record["op"]
            for records in self._ops_deltas(directory).values()
            for record in records
        }
        assert ops == {"doc", "shot", "del", "upd"}
        state = RecoveryManager(directory).recover()
        assert state.state_digest() == digest
        assert state.wal_index_ops == 3

    def test_missing_ops_delta_is_refused(self, analysed_corpus, tmp_path):
        directory = tmp_path / "d"
        self._mutating_run(analysed_corpus, directory)
        name = next(iter(self._ops_deltas(directory)))
        (directory / name).unlink()
        with pytest.raises(RecoveryError, match=f"{name} named by .* is missing"):
            RecoveryManager(directory).recover()

    def test_ops_delta_with_a_record_removed_is_refused(
        self, analysed_corpus, tmp_path
    ):
        directory = tmp_path / "d"
        self._mutating_run(analysed_corpus, directory)
        # Remove the add of the document that the *next* checkpoint
        # deletes: the delete then replays as a skipped duplicate and the
        # tip's counts still match, so only the per-manifest check sees it.
        deltas = self._ops_deltas(directory)
        deleted = next(
            record["id"]
            for records in deltas.values()
            for record in records
            if record["op"] == "del" and record["kind"] == "doc"
        )
        name = next(
            name
            for name, records in deltas.items()
            if any(r["op"] == "doc" and r["id"] == deleted for r in records)
        )
        delta = read_json(directory / name)
        assert delta["checkpoint_id"] == 1
        delta["ops"] = [r for r in delta["ops"] if r["id"] != deleted]
        _write_json_atomic(directory / name, delta)
        manifest_name = manifest_filename(1)
        with pytest.raises(
            RecoveryError, match=f"{manifest_name} counts 4 op records .* hold 3"
        ):
            RecoveryManager(directory).recover()
        manifest = read_json(directory / manifest_name)
        manifest["op_records"] = 3
        _write_json_atomic(directory / manifest_name, manifest)
        with pytest.raises(
            RecoveryError, match=f"document sequence is not dense at {manifest_name}"
        ):
            RecoveryManager(directory).recover()

    def test_unknown_op_inside_a_delta_is_refused(self, analysed_corpus, tmp_path):
        directory = tmp_path / "d"
        self._mutating_run(analysed_corpus, directory)
        name = next(iter(self._ops_deltas(directory)))
        delta = read_json(directory / name)
        delta["ops"][0]["op"] = "frobnicate"
        _write_json_atomic(directory / name, delta)
        with pytest.raises(RecoveryError, match="unknown WAL op 'frobnicate'"):
            RecoveryManager(directory).recover()

    def test_crash_before_truncation_then_a_second_checkpoint(
        self, analysed_corpus, tmp_path
    ):
        # Die between the manifest rename and the WAL truncation: the WAL
        # still holds everything the new tip covers.  The reopened
        # service's next checkpoint must take only what lies past the
        # tip's watermark.
        directory = tmp_path / "d"
        config = _durable_config(directory, interval=5)
        service = RetrievalService(analysed_corpus.collection, config=config)
        service.engine.durability.wal.truncate_through = lambda lsn: 0
        ops = _ops(service, 9)
        apply_ingest(service, ops[:5])
        service.delete_document(ops[0][1])
        assert service.engine.durability.checkpoints_written == 2
        del service  # abandoned with an untruncated WAL

        state = RecoveryManager(directory).recover()
        assert (state.snapshot_lsn, state.wal_index_ops) == (5, 1)
        reopened = RetrievalService(analysed_corpus.collection, config=config)
        assert len(reopened.engine.durability.wal.scan_all()[0]) == 6
        apply_ingest(reopened, ops[5:])
        assert reopened.engine.durability.checkpoints_written == 1
        digest = engine_state_digest(reopened.engine)
        reopened.close()
        assert RecoveryManager(directory).recover().state_digest() == digest
        self._assert_no_lsn_twice(directory)

    def test_replica_holdback_across_checkpoints(self, analysed_corpus, tmp_path):
        # A registered replica that never acknowledges pins the whole WAL;
        # each checkpoint must still take only its own window of it.
        directory = tmp_path / "d"
        held = {}

        def pin(service):
            service.engine.durability.register_replica("slow", 0)

        def look(service):
            wal = service.engine.durability.wal
            held["checkpoints"] = service.engine.durability.checkpoints_written
            held["wal_records"] = len(wal.scan_all()[0])
            held["held_entries"] = sum(map(len, wal.held_entries().values()))

        digest = self._mutating_run(
            analysed_corpus, directory, after_open=pin, before_close=look
        )
        # The writer's copy holds exactly what the pin keeps on disk.
        assert held == {"checkpoints": 4, "wal_records": 15, "held_entries": 15}
        assert RecoveryManager(directory).recover().state_digest() == digest
        self._assert_no_lsn_twice(directory)

    def test_wal_missing_records_refuses_to_checkpoint(
        self, analysed_corpus, tmp_path, monkeypatch
    ):
        """A hole the writer itself leaves is refused, not blessed.

        An append that fails after its LSN was allocated leaves that LSN
        out of the log, on disk and in the writer's in-memory copy alike;
        the ops checkpoint must not write a manifest over
        ``parent.wal_lsn + 1 .. cut`` with a hole in it.  Damage made to a
        segment file behind a live writer is a different case: the
        checkpoint copies what was logged, not what is left on disk, and
        the next truncation overwrites the damaged file from that copy.
        """
        directory = tmp_path / "d"
        service = RetrievalService(
            analysed_corpus.collection, config=_durable_config(directory)
        )
        ops = _ops(service, 6)
        append = WalSegment.append

        def fail_lsn_3(segment, payload, fsync, flush=True):
            if json.loads(payload)["lsn"] == 3:
                raise OSError(errno.ENOSPC, "No space left on device")
            return append(segment, payload, fsync, flush)

        monkeypatch.setattr(WalSegment, "append", fail_lsn_3)
        apply_ingest(service, ops[:2])
        with pytest.raises(OSError):
            apply_ingest(service, ops[2:3])
        apply_ingest(service, ops[3:])
        durability = service.engine.durability
        assert durability.wal.last_lsn == 6
        with service.engine.exclusive_writer():
            with pytest.raises(SnapshotError, match=r"WAL covers lsn 1\.\.2 since"):
                durability.checkpoint(service.engine)
        assert durability.snapshots.manifest_ids() == [0]
        assert not list(directory.glob("delta-cp000001-*"))
        service.close()


#: Damage to one stored feature vector (a packed string), one per way
#: ``decode_vector`` refuses it.
VECTOR_DAMAGE = (
    # A character outside the base64 alphabet: the default decoder would
    # skip it and hand back the intact floats.
    ("junk character", lambda packed: packed[:8] + "*" + packed[8:]),
    (
        "partial float64",
        lambda packed: base64.b64encode(base64.b64decode(packed)[:-1]).decode("ascii"),
    ),
    ("neither string nor list", lambda packed: {"features": packed}),
)
DAMAGE_IDS = [label for label, _ in VECTOR_DAMAGE]


class TestUndecodableVectors:
    """Every reader of a stored vector refuses a damaged one in one typed
    line that says where it is: the delta file (deltas carry no CRC, so
    this is their only guard) or the WAL record's LSN."""

    @staticmethod
    def _run(corpus, directory):
        """Ten ingests at interval 4: the bootstrap, two ops checkpoints and
        a two-record WAL tail (lsn 9 a document, lsn 10 a shot)."""
        service = RetrievalService(
            corpus.collection, config=_durable_config(directory, interval=4)
        )
        apply_ingest(service, _ops(service, 10))
        service.close()

    @staticmethod
    def _refused(directory, match):
        with pytest.raises(RecoveryError, match=match) as caught:
            RecoveryManager(directory).recover()
        assert "\n" not in str(caught.value)

    @pytest.mark.parametrize("label, damage", VECTOR_DAMAGE, ids=DAMAGE_IDS)
    def test_in_a_full_state_delta(self, analysed_corpus, tmp_path, label, damage):
        directory = tmp_path / "d"
        self._run(analysed_corpus, directory)
        name = "delta-cp000000-shard0000.json"
        delta = read_json(directory / name)
        delta["shots"][3][2] = damage(delta["shots"][3][2])
        _write_json_atomic(directory / name, delta)
        with pytest.raises(SnapshotError, match=f"^snapshot delta {name}: feature vector"):
            SnapshotStore(directory, 1).load_base()
        self._refused(directory, f"^snapshot delta {name}: feature vector")

    @pytest.mark.parametrize("label, damage", VECTOR_DAMAGE, ids=DAMAGE_IDS)
    def test_in_an_ops_delta(self, analysed_corpus, tmp_path, label, damage):
        directory = tmp_path / "d"
        self._run(analysed_corpus, directory)
        name = "delta-cp000002-shard0000.json"
        delta = read_json(directory / name)
        record = next(record for record in delta["ops"] if record["op"] == "shot")
        record["features"] = damage(record["features"])
        _write_json_atomic(directory / name, delta)
        where = (
            f"^snapshot delta {name} of {manifest_filename(2)}: "
            f"shot '{record['id']}' at lsn {record['lsn']}: feature vector"
        )
        with pytest.raises(SnapshotError, match=where):
            SnapshotStore(directory, 1).load_base()
        self._refused(directory, where)

    @pytest.mark.parametrize("label, damage", VECTOR_DAMAGE, ids=DAMAGE_IDS)
    def test_in_a_wal_record(self, analysed_corpus, tmp_path, label, damage):
        # Framed with a good CRC: the writer, not the disk, was broken.
        directory = tmp_path / "d"
        self._run(analysed_corpus, directory)
        segment = WalSegment(directory / segment_filename(0))
        records, _ = segment.scan()
        assert [(record["lsn"], record["op"]) for record in records] == [
            (9, "doc"),
            (10, "shot"),
        ]
        records[1]["features"] = damage(records[1]["features"])
        segment.rewrite([encode_op(record) for record in records])
        with pytest.raises(ReplayError, match="at lsn 10: feature vector"):
            apply_record(records[1], _TextItems(()), _VisualItems(()), ReplayCounts())
        self._refused(directory, f"^shot '{records[1]['id']}' at lsn 10: feature vector")

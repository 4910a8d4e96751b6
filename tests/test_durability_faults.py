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
a WAL record; manifests and records that lack a field; and single-byte
flips in every non-WAL file under a per-case time bound.  The chain is
walked once per open, counted in manifest parses.

All tests carry the ``durability`` marker (``pytest -m durability``).
"""

from __future__ import annotations

import base64
import contextlib
import errno
import io
import json
import shutil
import signal
from pathlib import Path

import pytest

from repro.analysis import analyse_collection
from repro.collection import CollectionConfig, generate_corpus
from repro.durability import (
    RecoveryError,
    RecoveryManager,
    engine_state_digest,
    snapshots,
    verify_directory,
)
from repro.durability.replay import (
    ReplayCounts,
    ReplayError,
    TextItems,
    VisualItems,
    apply_record,
    op_record,
)
from repro.durability.snapshots import (
    SNAPSHOT_FORMAT,
    SnapshotError,
    SnapshotStore,
    _write_json_atomic,
    manifest_filename,
    manifest_ids,
)
from repro.durability.wal import SEGMENT_FILENAME, WalSegment, encode_op
from repro import cli
from repro.errors import InvalidArgumentError, ReproError
from repro.retrieval import EngineConfig
from repro.service import RetrievalService, ServiceConfig
from repro.utils.serialization import encode_record, read_json
from repro.workload.ingest import (
    apply_ingest,
    service_feature_dim,
    synthetic_ingest_ops,
)

from legacy_layout import segment_filename, split_into_segments

#: A service's default ranking (depth 50) with the result cache off.
UNCACHED = EngineConfig(result_limit=50, result_cache_size=0)

pytestmark = pytest.mark.durability

SEED = 13


def _durable_config(directory, interval=10_000) -> ServiceConfig:
    return ServiceConfig(
        engine=UNCACHED,
        durability_dir=str(directory),
        snapshot_interval_ops=interval,
        fsync_policy="never",
    )


def _ops(service, count):
    return synthetic_ingest_ops(
        count, seed=SEED, feature_dim=service_feature_dim(service)
    )


def _prefix_digests(corpus, count):
    """Digest of an uninterrupted in-memory run after each op: index 0 is
    the corpus-only state, index k the state after ops[:k]."""
    service = RetrievalService(corpus.collection, config=ServiceConfig(engine=UNCACHED))
    digests = [engine_state_digest(service.engine)]
    for op in _ops(service, count):
        apply_ingest(service, [op])
        digests.append(engine_state_digest(service.engine))
    service.close()
    return digests


def _ten_ingests(corpus, directory):
    """Ten ingests at interval 4: the bootstrap, two ops checkpoints (lsn
    1-4 and 5-8) and a two-record WAL tail (lsn 9 a document, lsn 10 a
    shot)."""
    service = RetrievalService(
        corpus.collection, config=_durable_config(directory, interval=4)
    )
    apply_ingest(service, _ops(service, 10))
    service.close()


class TestKillAnywhere:
    @pytest.mark.parametrize("segments", (1, 4))
    def test_recovery_at_every_op_boundary(self, analysed_corpus, tmp_path, segments):
        # Simulate a kill after every single op by copying the durability
        # directory as the run progresses; interval 4 makes the sweep
        # cross two live compactions.  Every copy — also rewritten as an
        # older build that split it over ``segments`` segments would have
        # left it — must recover to the reference prefix digest for its op
        # count.
        count = 12
        references = _prefix_digests(analysed_corpus, count)
        live = tmp_path / "live"
        service = RetrievalService(
            analysed_corpus.collection, config=_durable_config(live, interval=4)
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
            if segments > 1:
                split_into_segments(copy, segments)
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

        # Tear bytes off the WAL segment's tail: the final record no
        # longer decodes, so the durable prefix is one op shorter.
        segment = directory / SEGMENT_FILENAME
        segment.write_bytes(segment.read_bytes()[:-3])
        state = RecoveryManager(directory).recover()
        assert state.tail_errors.keys() == {SEGMENT_FILENAME}
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

    def test_corruption_mid_segment_ends_the_prefix(self, analysed_corpus, tmp_path):
        # Flip a byte inside the fifth record: the segment's clean prefix
        # ends there, and every record behind it is lost with it, however
        # intact its own frame.
        count = 12
        references = _prefix_digests(analysed_corpus, count)
        directory = tmp_path / "d"
        service = RetrievalService(
            analysed_corpus.collection, config=_durable_config(directory)
        )
        apply_ingest(service, _ops(service, count))
        service.close()

        victim = directory / SEGMENT_FILENAME
        entries, _ = WalSegment(victim).scan_entries()
        assert [entry.lsn for entry in entries] == list(range(1, count + 1))
        offset = sum(len(encode_record(entry.payload)) for entry in entries[:4])
        raw = bytearray(victim.read_bytes())
        raw[offset + 8] ^= 0x40  # inside the fifth record's payload
        victim.write_bytes(bytes(raw))

        state = RecoveryManager(directory).recover()
        assert state.applied_lsn == 4
        assert state.ingested_ops == 4
        assert state.state_digest() == references[4]
        assert SEGMENT_FILENAME in state.tail_errors


    def test_corruption_cascades_across_segments(self, analysed_corpus, tmp_path):
        # A directory an older build split over two segments: flip a byte
        # inside the FIRST record of segment 0.  Its whole segment prefix
        # dies at the corruption, and the gap-free rule must then also
        # drop every *intact* record with a higher LSN on the other
        # segment.
        count = 12
        references = _prefix_digests(analysed_corpus, count)
        directory = tmp_path / "d"
        service = RetrievalService(
            analysed_corpus.collection, config=_durable_config(directory)
        )
        apply_ingest(service, _ops(service, count))
        service.close()
        split_into_segments(directory, 2)

        victim = directory / segment_filename(0)
        victim_records, _ = WalSegment(victim).scan()
        assert victim_records, "ingest stream left segment 0 empty"
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
            held["held_entries"] = len(wal.held_entries())

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
        assert manifest_ids(directory) == [0]
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
    def _refused(directory, match):
        with pytest.raises(RecoveryError, match=match) as caught:
            RecoveryManager(directory).recover()
        assert "\n" not in str(caught.value)

    @pytest.mark.parametrize("label, damage", VECTOR_DAMAGE, ids=DAMAGE_IDS)
    def test_in_a_full_state_delta(self, analysed_corpus, tmp_path, label, damage):
        directory = tmp_path / "d"
        _ten_ingests(analysed_corpus, directory)
        name = "delta-cp000000-shard0000.json"
        delta = read_json(directory / name)
        delta["shots"][3][2] = damage(delta["shots"][3][2])
        _write_json_atomic(directory / name, delta)
        with pytest.raises(SnapshotError, match=f"^snapshot delta {name}: feature vector"):
            SnapshotStore(directory).load_base()
        self._refused(directory, f"^snapshot delta {name}: feature vector")

    @pytest.mark.parametrize("label, damage", VECTOR_DAMAGE, ids=DAMAGE_IDS)
    def test_in_an_ops_delta(self, analysed_corpus, tmp_path, label, damage):
        directory = tmp_path / "d"
        _ten_ingests(analysed_corpus, directory)
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
            SnapshotStore(directory).load_base()
        self._refused(directory, where)

    @pytest.mark.parametrize("label, damage", VECTOR_DAMAGE, ids=DAMAGE_IDS)
    def test_in_a_wal_record(self, analysed_corpus, tmp_path, label, damage):
        # Framed with a good CRC: the writer, not the disk, was broken.
        directory = tmp_path / "d"
        _ten_ingests(analysed_corpus, directory)
        segment = WalSegment(directory / SEGMENT_FILENAME)
        records, _ = segment.scan()
        assert [(record["lsn"], record["op"]) for record in records] == [
            (9, "doc"),
            (10, "shot"),
        ]
        records[1]["features"] = damage(records[1]["features"])
        segment.rewrite([encode_op(record) for record in records])
        with pytest.raises(ReplayError, match="at lsn 10: feature vector"):
            apply_record(records[1], TextItems(), VisualItems(), ReplayCounts())
        self._refused(directory, f"^shot '{records[1]['id']}' at lsn 10: feature vector")


def _manifest_parses(monkeypatch):
    """Every manifest file the snapshot store parses from now on, by name."""
    parsed = []

    def counting(path):
        if Path(path).name.startswith("checkpoint-"):
            parsed.append(Path(path).name)
        return read_json(path)

    monkeypatch.setattr(snapshots, "read_json", counting)
    return parsed


class TestMixedVectorLengths:
    """A directory written before shot writes were checked for their vector
    length may hold shots of two lengths.  ``verify`` reports it, and
    query-by-example on the reopened engine refuses in a typed error.  The
    odd shot is appended straight through the durability manager, as such
    a writer did, and applied to the visual index, which does not check."""

    @staticmethod
    def _with_odd_shot(corpus, directory, in_chain, deleted=False):
        service = RetrievalService(
            corpus.collection, config=_durable_config(directory, interval=2)
        )
        dimensions = service_feature_dim(service)
        durability = service.engine.durability
        visual = service.engine.visual_index
        features = [1.0] * (dimensions + 3)
        durability.log_index_op(op_record("shot", "odd-shot", (features, {})))
        visual.add_shot("odd-shot", features, {})
        if deleted:
            durability.log_index_op(op_record("del", "odd-shot", "shot"))
            visual.delete_shot("odd-shot")
        if in_chain:
            # The next write reaches the interval: its checkpoint carries the
            # odd record (and the delete) into an ops delta of the chain.
            apply_ingest(service, _ops(service, 1))
        service.close()
        return dimensions

    @pytest.mark.parametrize("in_chain", (False, True), ids=("wal-prefix", "chain-fold"))
    def test_verify_reports_two_lengths(self, analysed_corpus, tmp_path, in_chain):
        directory = tmp_path / "d"
        dimensions = self._with_odd_shot(analysed_corpus, directory, in_chain)
        report = verify_directory(directory)
        assert (report.chain_op_records > 0) == in_chain
        problem = f"shots have 2 vector lengths ({dimensions}, {dimensions + 3})"
        assert report.problems == [problem]
        out = io.StringIO()
        assert cli.main(["verify", str(directory)], out=out) == 1
        assert f"PROBLEM: {problem}" in out.getvalue().splitlines()

    @pytest.mark.parametrize("in_chain", (False, True), ids=("wal-prefix", "chain-fold"))
    def test_a_deleted_odd_shot_is_no_problem(self, analysed_corpus, tmp_path, in_chain):
        directory = tmp_path / "d"
        self._with_odd_shot(analysed_corpus, directory, in_chain, deleted=True)
        assert verify_directory(directory).ok

    def test_query_by_example_refuses_in_a_typed_error(self, analysed_corpus, tmp_path):
        directory = tmp_path / "d"
        dimensions = self._with_odd_shot(analysed_corpus, directory, in_chain=False)
        reopened = RetrievalService(
            analysed_corpus.collection, config=_durable_config(directory)
        )
        try:
            visual = reopened.engine.visual_index
            assert visual.has_shot("odd-shot")
            probe = visual.features_of(visual.shot_ids()[0])
            with pytest.raises(InvalidArgumentError) as caught:
                visual.similar_to_vector(probe, limit=5)
            assert str(caught.value) == (
                f"vectors must have equal length, got {dimensions} and {dimensions + 3}"
            )
        finally:
            reopened.close()


class TestOneWalkOfTheChain:
    """The chain is walked once per open: recovery's fold starts from the
    tip the store already holds and hands the reopening writer the chain
    facts it needs, and verify reads through the same fold.  Counted in
    parses, not timed; six manifests took 14 and 13 parses before."""

    def _six_manifests(self, corpus, directory):
        """Ten ingests at interval 2: the bootstrap and five ops checkpoints."""
        service = RetrievalService(
            corpus.collection, config=_durable_config(directory, interval=2)
        )
        apply_ingest(service, _ops(service, 10))
        digest = engine_state_digest(service.engine)
        service.close()
        assert manifest_ids(directory) == [0, 1, 2, 3, 4, 5]
        return digest

    def test_reopening_a_service_parses_each_manifest_once_plus_the_tip(
        self, analysed_corpus, tmp_path, monkeypatch
    ):
        directory = tmp_path / "d"
        digest = self._six_manifests(analysed_corpus, directory)
        parsed = _manifest_parses(monkeypatch)
        service = RetrievalService(
            analysed_corpus.collection, config=_durable_config(directory, interval=2)
        )
        assert len(parsed) <= 6 + 1, parsed
        assert engine_state_digest(service.engine) == digest
        assert service.engine.durability.statistics()["chain_ops_since_rebase"] == 10
        service.close()

    def test_verify_parses_each_manifest_once_plus_the_tip(
        self, analysed_corpus, tmp_path, monkeypatch
    ):
        directory = tmp_path / "d"
        self._six_manifests(analysed_corpus, directory)
        parsed = _manifest_parses(monkeypatch)
        report = verify_directory(directory)
        assert len(parsed) <= 6 + 1, parsed
        assert report.ok
        assert (report.chain_base_id, report.chain_manifests) == (0, 6)
        assert report.chain_op_records == 10


class TestDamagedFields:
    """A manifest or ops-delta record that lacks a field its reader needs is
    refused in one typed line naming the file or the LSN; each used to
    escape recovery and verify as a bare ``KeyError``."""

    @staticmethod
    def _refused(directory, message):
        with pytest.raises(RecoveryError) as caught:
            RecoveryManager(directory).recover()
        assert str(caught.value) == message
        report = verify_directory(directory)
        assert f"PROBLEM: snapshot chain: {message}" in report.lines()

    @pytest.mark.parametrize(
        "key", ["checkpoint_id", "parent", "deltas", "text_count", "shot_count"]
    )
    def test_manifest_key(self, analysed_corpus, tmp_path, key):
        directory = tmp_path / "d"
        _ten_ingests(analysed_corpus, directory)
        name = manifest_filename(1)
        manifest = read_json(directory / name)
        del manifest[key]
        _write_json_atomic(directory / name, manifest)
        self._refused(directory, f"checkpoint manifest {name}: {key!r} is missing")

    @pytest.mark.parametrize(
        "op, key", [("doc", "id"), ("doc", "tf"), ("shot", "features"),
                    ("shot", "concepts")],
    )
    def test_ops_record_key(self, analysed_corpus, tmp_path, op, key):
        directory = tmp_path / "d"
        _ten_ingests(analysed_corpus, directory)
        name = "delta-cp000002-shard0000.json"
        delta = read_json(directory / name)
        record = next(record for record in delta["ops"] if record["op"] == op)
        del record[key]
        _write_json_atomic(directory / name, delta)
        self._refused(
            directory,
            f"snapshot delta {name} of {manifest_filename(2)}: {op} record at "
            f"lsn {record['lsn']}: field {key!r} is missing",
        )

    def test_ops_record_lsn(self, analysed_corpus, tmp_path):
        directory = tmp_path / "d"
        _ten_ingests(analysed_corpus, directory)
        name = "delta-cp000001-shard0000.json"
        delta = read_json(directory / name)
        del delta["ops"][0]["lsn"]
        _write_json_atomic(directory / name, delta)
        self._refused(directory, f"snapshot delta {name}: an op record has no lsn")

    def test_wal_record_key(self, analysed_corpus, tmp_path):
        # Framed with a good CRC: the writer, not the disk, was broken.
        directory = tmp_path / "d"
        _ten_ingests(analysed_corpus, directory)
        segment = WalSegment(directory / SEGMENT_FILENAME)
        records, _ = segment.scan()
        del records[0]["tf"]
        segment.rewrite([encode_op(record) for record in records])
        with pytest.raises(RecoveryError) as caught:
            RecoveryManager(directory).recover()
        assert str(caught.value) == "doc record at lsn 9: field 'tf' is missing"


#: Replacement bytes of the byte-flip sweep: a digit and a letter keep most
#: numbers and names well-formed JSON (a changed value, a renamed key), a
#: quote and a brace mostly break the syntax around them.
FLIP_BYTES = b'1z"}'

#: The schema's own keys: the first byte of each one a file holds, and of
#: its value, are always among the flipped offsets, besides the evenly
#: spaced ones.
SCHEMA_KEYS = (
    "checkpoint_id", "parent", "wal_lsn", "text_count", "shot_count", "deltas",
    "rebase", "op_records", "format", "num_shards", "documents", "shots",
    "ops", "lsn", "op", "id", "tf", "features", "concepts", "kind",
)


@contextlib.contextmanager
def _time_bound(seconds, case):
    """Fail ``case`` with an ``AssertionError`` raised inside it once it
    has run ``seconds`` of wall-clock time (a hang would never return)."""

    def expire(signum, frame):
        raise AssertionError(f"{case} ran past its {seconds} s bound")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
class TestByteFlipsAtRest:
    """One flipped byte in any non-WAL file of a small directory: recovery
    restores some state or raises a :class:`ReproError`, and verify returns
    a report or raises one — never another exception, and never past a
    per-case bound.  Deterministic: fixed offsets and bytes, no seeds."""

    OFFSETS_PER_FILE = 24
    BOUND_SECONDS = 2.0

    @pytest.fixture(scope="class")
    def directory(self, tmp_path_factory):
        """Ten ingests at interval 4 over a two-story corpus: the header,
        three manifests, a full-state delta, two ops deltas and a WAL tail."""
        corpus = generate_corpus(
            seed=SEED, config=CollectionConfig(days=1, stories_per_day=2, topic_count=1)
        )
        analyse_collection(corpus.collection)
        directory = tmp_path_factory.mktemp("flips") / "d"
        _ten_ingests(corpus, directory)
        return directory

    @classmethod
    def _offsets(cls, data):
        step = max(1, len(data) // cls.OFFSETS_PER_FILE)
        offsets = set(range(0, len(data), step))
        for key in SCHEMA_KEYS:
            at = data.find(f'"{key}":'.encode())
            if at >= 0:
                offsets.update((at + 1, at + len(key) + 3))  # the key, its value
        return sorted(offsets)

    def test_recover_and_verify_refuse_or_recover(self, directory):
        targets = sorted(
            path for path in directory.iterdir() if not path.name.startswith("wal-")
        )
        assert [path.name for path in targets] == [
            "DURABILITY.json",
            "checkpoint-000000.json",
            "checkpoint-000001.json",
            "checkpoint-000002.json",
            "delta-cp000000-shard0000.json",
            "delta-cp000001-shard0000.json",
            "delta-cp000002-shard0000.json",
        ]
        escaped, cases = [], 0
        for path in targets:
            original = path.read_bytes()
            try:
                for offset in self._offsets(original):
                    for byte in FLIP_BYTES:
                        if original[offset] == byte:
                            continue
                        path.write_bytes(
                            original[:offset] + bytes([byte]) + original[offset + 1 :]
                        )
                        for verb, run in (
                            ("recover", lambda: RecoveryManager(directory).recover()),
                            ("verify", lambda: verify_directory(directory)),
                        ):
                            case = f"{verb} with {path.name}[{offset}] = {chr(byte)!r}"
                            cases += 1
                            try:
                                with _time_bound(self.BOUND_SECONDS, case):
                                    run()
                            except ReproError:
                                pass
                            except Exception as error:  # noqa: BLE001 - the finding
                                escaped.append(f"{case}: {type(error).__name__}: {error}")
            finally:
                path.write_bytes(original)
        assert cases > 1000
        assert escaped == []

"""Recovery edge cases and the recovered-state equivalence contract.

Every test follows the same shape: build a durable service, mutate it,
close it, and check that recovery — cold ``RecoveryManager.recover()``
or a full service reopen — reproduces the **byte-identical** index state
(same canonical digest, same rankings) that an uninterrupted in-memory
run would have.  Covered edges: empty WAL, WAL-only (no post-bootstrap
checkpoint), snapshot-only (fully compacted WAL), replay after
compaction, replay-twice idempotence, feedback records, reopening a
recovered service to continue writing, snapshot-format-1 directories
(read as they are, written to by this build, and marked so an older build
refuses them), and directories whose shot vectors are partly decimal lists
and partly packed.

All tests carry the ``durability`` marker (``pytest -m durability``).
"""

from __future__ import annotations

import io
import json

import pytest

from repro import cli
from repro.durability import (
    RecoveryError,
    RecoveryManager,
    engine_state_digest,
    verify_directory,
)
from repro.durability import recovery as recovery_module
from repro.durability.digest import (
    engine_text_items,
    engine_visual_items,
    state_digest,
)
from repro.durability.recovery import (
    HEADER_FILENAME,
    build_monolithic_indexes,
)
from repro.durability.snapshots import SnapshotStore, _write_json_atomic
from repro.durability.wal import WalSegment, WriteAheadLog, encode_op
from repro.feedback import EventKind, InteractionEvent
from repro.index.inverted_index import InvertedIndex
from repro.index.visual import VisualIndex
from repro.replication import ReplicaServer
from repro.retrieval import EngineConfig, Query
from repro.service import FeedbackBatch, RetrievalService, ServiceConfig
from repro.utils.serialization import decode_vector, read_json, write_json
from repro.workload.ingest import (
    apply_ingest,
    service_feature_dim,
    synthetic_ingest_ops,
)

#: A service's default ranking (depth 50) with the result cache off.
UNCACHED = EngineConfig(result_limit=50, result_cache_size=0)

pytestmark = pytest.mark.durability


def _durable_config(directory, num_shards=1, interval=10_000) -> ServiceConfig:
    return ServiceConfig(
        engine=UNCACHED,
        num_shards=num_shards,
        durability_dir=str(directory),
        snapshot_interval_ops=interval,
        fsync_policy="never",
    )


def _memory_config(num_shards=1) -> ServiceConfig:
    return ServiceConfig(engine=UNCACHED, num_shards=num_shards)


def _service(corpus, config) -> RetrievalService:
    return RetrievalService(corpus.collection, config=config)


def _ingest(service, count, seed=0):
    ops = synthetic_ingest_ops(
        count, seed=seed, feature_dim=service_feature_dim(service)
    )
    apply_ingest(service, ops)


def assert_same_rankings(reference, candidate, queries):
    for query in queries:
        expected = reference.search(query, limit=None)
        actual = candidate.search(query, limit=None)
        assert expected.shot_ids() == actual.shot_ids(), query
        assert [item.score for item in expected.items] == [
            item.score for item in actual.items
        ], query


class TestRecoveryEdges:
    def test_empty_wal_recovers_bootstrap_state(self, analysed_corpus, tmp_path):
        service = _service(analysed_corpus, _durable_config(tmp_path / "d"))
        live = engine_state_digest(service.engine)
        service.close()
        state = RecoveryManager(tmp_path / "d").recover()
        assert state.state_digest() == live
        assert state.applied_lsn == 0
        assert state.checkpoint_id == 0
        assert state.ingested_ops == 0
        assert state.wal_index_ops == 0
        assert state.tail_errors == {}

    def test_wal_only_recovery(self, analysed_corpus, tmp_path):
        # Interval far above the op count: nothing checkpoints after
        # bootstrap, so recovery replays the entire WAL over it.
        service = _service(analysed_corpus, _durable_config(tmp_path / "d"))
        _ingest(service, 9)
        live = engine_state_digest(service.engine)
        service.close()
        state = RecoveryManager(tmp_path / "d").recover()
        assert state.state_digest() == live
        assert state.checkpoint_id == 0
        assert state.wal_index_ops == 9
        assert state.ingested_ops == 9
        assert state.wal_dropped_records == 0

    def test_snapshot_only_recovery(self, analysed_corpus, tmp_path):
        # Interval 1: every op checkpoints and compacts, so the WAL is
        # empty at close and recovery is pure snapshot restoration.
        service = _service(
            analysed_corpus, _durable_config(tmp_path / "d", interval=1)
        )
        _ingest(service, 6)
        live = engine_state_digest(service.engine)
        durability = service.engine.durability
        assert durability.wal.scan_all() == ([], {})
        assert durability.checkpoints_written >= 6
        service.close()
        state = RecoveryManager(tmp_path / "d").recover()
        assert state.state_digest() == live
        assert state.wal_index_ops == 0
        assert state.ingested_ops == 6

    def test_replay_after_compaction(self, analysed_corpus, tmp_path):
        # Interval 4 over 10 ops: checkpoints at op 4 and 8, then a
        # two-record WAL tail that recovery must replay on top.
        service = _service(
            analysed_corpus, _durable_config(tmp_path / "d", interval=4)
        )
        _ingest(service, 10)
        live = engine_state_digest(service.engine)
        # Three checkpoints through this manager: bootstrap + ops 4 and 8.
        assert service.engine.durability.checkpoints_written == 3
        service.close()
        state = RecoveryManager(tmp_path / "d").recover()
        assert state.state_digest() == live
        assert state.checkpoint_id == 2
        assert state.wal_index_ops == 2
        assert state.ingested_ops == 10

    def test_replay_twice_is_idempotent(self, analysed_corpus, tmp_path):
        # A checkpoint whose watermark understates the WAL (as if the
        # process died between writing the manifest and compacting):
        # recovery replays records the snapshot already contains and must
        # skip them as duplicates rather than double-apply.
        service = _service(analysed_corpus, _durable_config(tmp_path / "d"))
        _ingest(service, 8)
        live = engine_state_digest(service.engine)
        durability = service.engine.durability
        engine = service.engine
        durability.snapshots.write_full_checkpoint(
            engine_text_items(engine),
            engine_visual_items(engine),
            text_count=engine.inverted_index.document_count,
            shot_count=engine.visual_index.shot_count,
            wal_lsn=durability.wal.last_lsn - 3,
        )
        service.close()
        state = RecoveryManager(tmp_path / "d").recover()
        assert state.state_digest() == live
        assert state.wal_skipped_duplicates == 3
        assert state.ingested_ops == 8

    def test_feedback_is_not_logged_and_does_not_change_state(
        self, analysed_corpus, tmp_path
    ):
        service = _service(analysed_corpus, _durable_config(tmp_path / "d"))
        _ingest(service, 4)
        live = engine_state_digest(service.engine)
        shot_id = analysed_corpus.collection.shot_ids()[0]
        info = service.open_session("user-a")
        service.submit_feedback(
            FeedbackBatch(
                user_id="user-a",
                session_id=info.session_id,
                events=(
                    InteractionEvent(
                        kind=EventKind.PLAY_CLICK, timestamp=1.0, shot_id=shot_id
                    ),
                ),
            )
        )
        service.close()
        state = RecoveryManager(tmp_path / "d").recover()
        assert state.state_digest() == live
        assert (state.applied_lsn, state.wal_index_ops) == (4, 4)
        assert state.ingested_ops == 4


class TestRecoveredServiceEquivalence:
    @pytest.mark.parametrize("num_shards", (1, 4))
    def test_reopened_service_matches_in_memory_reference(
        self, analysed_corpus, make_random_queries, tmp_path, num_shards
    ):
        # The acceptance property: a service recovered from disk ranks
        # bit-identically to an in-memory service fed the same ops.
        directory = tmp_path / f"d{num_shards}"
        durable = _service(
            analysed_corpus, _durable_config(directory, num_shards, interval=5)
        )
        _ingest(durable, 12, seed=3)
        live = engine_state_digest(durable.engine)
        durable.close()

        reference = _service(analysed_corpus, _memory_config(num_shards))
        _ingest(reference, 12, seed=3)
        assert engine_state_digest(reference.engine) == live

        reopened = _service(analysed_corpus, _durable_config(directory, num_shards))
        try:
            assert engine_state_digest(reopened.engine) == live
            queries = make_random_queries(analysed_corpus, seed=500, count=8)
            queries.append(Query(text="ingest election flood summit"))
            assert_same_rankings(reference.engine, reopened.engine, queries)
        finally:
            reopened.close()
            reference.close()

    def test_reopen_continues_the_op_stream(self, analysed_corpus, tmp_path):
        # Crash/reopen mid-stream must be invisible: writing ops 0..5,
        # reopening, then writing 6..13 lands in the same state as one
        # uninterrupted durable run of 14 ops.
        split = tmp_path / "split"
        service = _service(analysed_corpus, _durable_config(split, interval=4))
        ops = synthetic_ingest_ops(
            14, seed=9, feature_dim=service_feature_dim(service)
        )
        apply_ingest(service, ops[:6])
        service.close()
        service = _service(analysed_corpus, _durable_config(split, interval=4))
        apply_ingest(service, ops[6:])
        split_digest = engine_state_digest(service.engine)
        service.close()

        whole = tmp_path / "whole"
        service = _service(analysed_corpus, _durable_config(whole, interval=4))
        apply_ingest(service, ops)
        whole_digest = engine_state_digest(service.engine)
        service.close()

        assert split_digest == whole_digest
        assert (
            RecoveryManager(split).recover().state_digest()
            == RecoveryManager(whole).recover().state_digest()
            == whole_digest
        )

    def test_mono_and_sharded_recover_to_the_same_digest(
        self, analysed_corpus, tmp_path
    ):
        digests = set()
        for num_shards in (1, 4):
            directory = tmp_path / f"n{num_shards}"
            service = _service(
                analysed_corpus, _durable_config(directory, num_shards, interval=3)
            )
            _ingest(service, 10, seed=5)
            service.close()
            digests.add(RecoveryManager(directory).recover().state_digest())
        assert len(digests) == 1

    def test_sharded_reopen_holds_the_monolithic_indexes(
        self, analysed_corpus, tmp_path
    ):
        # A 4-segment directory reopens into one plain InvertedIndex and
        # one plain VisualIndex, in the global interning order.
        directory = tmp_path / "d"
        service = _service(
            analysed_corpus, _durable_config(directory, num_shards=4, interval=3)
        )
        _ingest(service, 10, seed=5)
        service.delete_shot(service.engine.visual_index.shot_ids()[-1])
        service.close()
        state = RecoveryManager(directory).recover()
        mono_text, mono_visual = build_monolithic_indexes(state)
        reopened = _service(analysed_corpus, _durable_config(directory, num_shards=4))
        text, visual = reopened.engine.inverted_index, reopened.engine.visual_index
        reopened.close()
        assert type(text) is InvertedIndex
        assert text.slots.ids == mono_text.slots.ids
        assert type(visual) is VisualIndex
        assert visual.slots.ids == mono_visual.slots.ids
        assert [visual.features_of(s) for s in visual.shot_ids()] == [
            mono_visual.features_of(s) for s in mono_visual.shot_ids()
        ]


def _mutate_mix(service, ops):
    """Canonical del/upd/delshot script over an applied ingest stream."""
    doc_ids = [op[1] for op in ops if op[0] == "doc"]
    shot_ids = [op[1] for op in ops if op[0] == "shot"]
    service.delete_document(doc_ids[0])
    service.update_document(doc_ids[1], "ceasefire summit rewrite")
    service.delete_shot(shot_ids[0])
    return 3  # mutation record count


class TestMutableCorpusRecovery:
    @pytest.mark.parametrize("num_shards", (1, 3))
    def test_deletes_and_updates_replay_from_wal(
        self, analysed_corpus, tmp_path, num_shards
    ):
        # WAL-only arm: interval far above the op count, so recovery
        # replays every del/upd record over the bootstrap checkpoint.
        service = _service(
            analysed_corpus, _durable_config(tmp_path / "d", num_shards)
        )
        ops = synthetic_ingest_ops(
            10, seed=3, feature_dim=service_feature_dim(service)
        )
        apply_ingest(service, ops)
        mutations = _mutate_mix(service, ops)
        live = engine_state_digest(service.engine)
        service.close()
        state = RecoveryManager(tmp_path / "d").recover()
        assert state.state_digest() == live
        assert state.wal_index_ops == 10 + mutations
        assert state.wal_mutation_ops == mutations
        # Replay is deterministic: a second cold recovery agrees.
        assert RecoveryManager(tmp_path / "d").recover().state_digest() == live

    @pytest.mark.parametrize("num_shards", (1, 3))
    def test_mutations_replay_across_checkpoints(
        self, analysed_corpus, tmp_path, num_shards
    ):
        # Tight checkpoint cadence: mutations land both inside truncated
        # (checkpointed) prefixes and in the live WAL tail.  Checkpointed
        # deletes and updates sit in ops deltas as the records they were;
        # the chain fold replays them by id, so no earlier delta ever
        # resurrects a deleted item.
        service = _service(
            analysed_corpus, _durable_config(tmp_path / "d", num_shards, interval=4)
        )
        ops = synthetic_ingest_ops(
            12, seed=3, feature_dim=service_feature_dim(service)
        )
        doc_ids = [op[1] for op in ops if op[0] == "doc"]
        shot_ids = [op[1] for op in ops if op[0] == "shot"]
        for index, op in enumerate(ops):
            apply_ingest(service, [op])
            if index == 7:
                service.delete_document(doc_ids[1])
                service.update_document(doc_ids[2], "verdict launch rewrite")
            if index == 9:
                service.delete_shot(shot_ids[0])
        live = engine_state_digest(service.engine)
        service.close()
        state = RecoveryManager(tmp_path / "d").recover()
        assert state.state_digest() == live
        assert not any(d == doc_ids[1] for d, _ in state.documents)
        assert shot_ids[0] not in [entry[0] for entry in state.shots]

    def test_compaction_then_checkpoint_recovers(self, analysed_corpus, tmp_path):
        # Compaction renumbers dense slots but keeps live order, which is
        # all that replay by id depends on: the WAL tail written across
        # the renumbering recovers to the live digest.
        service = _service(analysed_corpus, _durable_config(tmp_path / "d", 2))
        ops = synthetic_ingest_ops(
            10, seed=5, feature_dim=service_feature_dim(service)
        )
        apply_ingest(service, ops)
        _mutate_mix(service, ops)
        stats = service.compact()
        assert stats.reclaimed == 3
        apply_ingest(
            service,
            synthetic_ingest_ops(
                4, seed=99, feature_dim=service_feature_dim(service)
            ),
        )
        live = engine_state_digest(service.engine)
        service.close()
        state = RecoveryManager(tmp_path / "d").recover()
        assert state.state_digest() == live
        reopened = _service(analysed_corpus, _durable_config(tmp_path / "d", 2))
        try:
            assert engine_state_digest(reopened.engine) == live
        finally:
            reopened.close()

    def test_reopen_after_crash_with_mutations_checkpoints_ops(
        self, analysed_corpus, tmp_path
    ):
        # Crash (no checkpoint) with mutations in the WAL tail: the
        # reopened service's next checkpoint is an ordinary ops checkpoint
        # carrying the replayed tail *and* the new writes, and a third
        # generation recovers the continued stream exactly.
        service = _service(analysed_corpus, _durable_config(tmp_path / "d"))
        ops = synthetic_ingest_ops(
            8, seed=7, feature_dim=service_feature_dim(service)
        )
        apply_ingest(service, ops)
        mutations = _mutate_mix(service, ops)
        live = engine_state_digest(service.engine)
        del service  # abandoned: no checkpoint, WAL tail only

        # The cadence counts the recovered tail, so the third new op is due.
        reopened = _service(
            analysed_corpus,
            _durable_config(tmp_path / "d", interval=8 + mutations + 3),
        )
        assert engine_state_digest(reopened.engine) == live
        apply_ingest(
            reopened,
            synthetic_ingest_ops(
                3, seed=8, feature_dim=service_feature_dim(reopened)
            ),
        )
        live = engine_state_digest(reopened.engine)
        durability = reopened.engine.durability
        tip = durability.snapshots.latest_manifest
        reopened.close()
        assert tip["checkpoint_id"] == 1 and not tip["rebase"]
        assert tip["op_records"] == 8 + mutations + 3
        for name in tip["deltas"]:
            assert "ops" in read_json(tmp_path / "d" / name)
        assert durability.statistics()["rebases"] == 0
        assert durability.statistics()["chain_ops_since_rebase"] == tip["op_records"]
        state = RecoveryManager(tmp_path / "d").recover()
        assert state.state_digest() == live
        assert state.checkpoint_id == 1 and state.wal_index_ops == 0

    def test_delete_below_bootstrap_clamps_ingested_ops(
        self, analysed_corpus, tmp_path
    ):
        # Deleting bootstrap documents shrinks the live count below the
        # checkpoint-0 baseline; the net-growth figure clamps at zero
        # rather than going negative.
        service = _service(analysed_corpus, _durable_config(tmp_path / "d"))
        bootstrap_doc = service.engine.inverted_index.document_ids()[0]
        service.delete_document(bootstrap_doc)
        live = engine_state_digest(service.engine)
        service.close()
        state = RecoveryManager(tmp_path / "d").recover()
        assert state.state_digest() == live
        assert state.ingested_ops == 0
        assert state.wal_mutation_ops == 1


def _write_format_one_directory(directory):
    """A two-shard directory as the format-1 writer left it: bootstrap,
    suffix delta, rebase (b deleted, a updated to the tail), suffix delta.
    Returns the ``(documents, shots)`` it holds, in live order."""
    directory.mkdir()
    write_json(
        directory / "DURABILITY.json",
        {"format": 1, "num_shards": 2, "fsync_policy": "never"},
    )
    a, a2, b, c, d, e = (
        {"flood": 2, "river": 1},
        {"flood": 1, "dam": 3},
        {"summit": 1},
        {"verdict": 4},
        {"launch": 1, "orbit": 2},
        {"election": 2},
    )
    s0, s1, s2 = (
        [0.5, 0.25, 0.125],
        [1.0, 0.0, -0.75],
        [0.1, 0.2, 0.3],
    )
    checkpoints = [
        # (rebase, text_count, shot_count, {shard: (documents, shots)})
        (False, 3, 1, {
            0: ([[0, "a", a], [2, "c", c]], []),
            1: ([[1, "b", b]], [[0, "s0", s0, {"crowd": 0.5}]]),
        }),
        (False, 4, 2, {1: ([[3, "d", d]], [[1, "s1", s1, {}]])}),
        (True, 3, 2, {
            0: ([[1, "d", d]], [[0, "s0", s0, {"crowd": 0.5}]]),
            1: ([[0, "c", c], [2, "a", a2]], [[1, "s1", s1, {}]]),
        }),
        (False, 4, 3, {0: ([[3, "e", e]], [[2, "s2", s2, {"studio": 1.0}]])}),
    ]
    for checkpoint_id, (rebase, text_count, shot_count, shards) in enumerate(
        checkpoints
    ):
        names = []
        for shard, (documents, shots) in shards.items():
            names.append(f"delta-cp{checkpoint_id:06d}-shard{shard:04d}.json")
            write_json(
                directory / names[-1],
                {
                    "format": 1,
                    "checkpoint_id": checkpoint_id,
                    "shard": shard,
                    "documents": documents,
                    "shots": shots,
                },
            )
        write_json(
            directory / f"checkpoint-{checkpoint_id:06d}.json",
            {
                "format": 1,
                "checkpoint_id": checkpoint_id,
                "parent": checkpoint_id - 1 if checkpoint_id else None,
                "wal_lsn": 10 * checkpoint_id,
                "text_count": text_count,
                "shot_count": shot_count,
                "text_generations": [checkpoint_id, checkpoint_id],
                "visual_generations": [checkpoint_id, checkpoint_id],
                "deltas": names,
                "rebase": rebase,
            },
        )
    documents = [("c", c), ("d", d), ("a", a2), ("e", e)]
    shots = [
        ("s0", s0, {"crowd": 0.5}),
        ("s1", s1, {}),
        ("s2", s2, {"studio": 1.0}),
    ]
    return documents, shots


def test_atomic_writer_emits_canonical_json_bytes(tmp_path):
    # The writer frames top-level keys and list elements itself (to encode
    # piecewise); the bytes must be exactly the canonical dumps.
    payloads = (
        {},
        {"deltas": [], "wal_lsn": 0, "parent": None},
        {
            "shots": [[0, "s", [0.1 + 0.2, -1.0], {"b": 0.5, "a": 1e-9}], [1, "t", [], {}]],
            "ops": [{"op": "upd", "lsn": 7, "id": "é\n\"", "tf": {"z": 1, "a": 2}}],
            "nested": {"y": [1, {"b": True, "a": None}], "x": "plain"},
            "format": 2,
        },
    )
    # Lists longer than one encoder chunk, and one ending on its boundary.
    long = [[index, f"d{index}", {"t": index / 3}] for index in range(600)]
    payloads += ({"documents": long, "shots": long[:512]},)
    for payload in payloads:
        _write_json_atomic(tmp_path / "out.json", payload)
        written = (tmp_path / "out.json").read_text(encoding="utf-8")
        assert written == json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ) + "\n"
        assert not (tmp_path / "out.json.tmp").exists()
    # A list of bytes is pre-encoded canonical JSON (an ops delta's WAL
    # payloads), written verbatim: the same file as its decoded values.
    ops = [{"op": "doc", "lsn": lsn, "id": f"é{lsn}", "tf": {"b": 1, "a": lsn}}
           for lsn in range(1, 300)]
    _write_json_atomic(tmp_path / "raw.json", {"ops": [encode_op(op) for op in ops]})
    _write_json_atomic(tmp_path / "out.json", {"ops": ops})
    assert (tmp_path / "raw.json").read_bytes() == (tmp_path / "out.json").read_bytes()
    # A generator is streamed through the same chunk loop, consumed once.
    _write_json_atomic(tmp_path / "gen.json", {"ops": (encode_op(op) for op in ops)})
    assert (tmp_path / "gen.json").read_bytes() == (tmp_path / "out.json").read_bytes()
    _write_json_atomic(tmp_path / "gen.json", {"b": iter(()), "a": (x for x in long)})
    assert (tmp_path / "gen.json").read_text(encoding="utf-8") == json.dumps(
        {"a": long, "b": []}, sort_keys=True, separators=(",", ":")
    ) + "\n"


class TestSnapshotFormatOne:
    def test_format_one_chain_loads_in_order(self, tmp_path):
        documents, shots = _write_format_one_directory(tmp_path / "d")
        fold = SnapshotStore(tmp_path / "d", 2).load_base()
        assert list(fold.text.items()) == documents
        assert [(s, *entry) for s, entry in fold.visual.items()] == shots
        assert (fold.wal_lsn, fold.checkpoint_id) == (30, 3)
        assert (fold.baseline_text_count, fold.baseline_shot_count) == (3, 1)
        assert (fold.base_id, fold.manifests, fold.op_records) == (2, 2, 0)
        state = RecoveryManager(tmp_path / "d").recover()
        assert state.state_digest() == state_digest(documents, shots)
        assert state.applied_lsn == 30

    def test_format_one_directory_written_to_by_this_build(
        self, analysed_corpus, tmp_path
    ):
        # An old directory reopened: this build appends format-3 ops
        # checkpoints to the format-1 chain, and the mixed chain folds.
        _write_format_one_directory(tmp_path / "d")
        service = _service(
            analysed_corpus, _durable_config(tmp_path / "d", 2, interval=2)
        )
        service.index_documents({"f": "ceasefire summit talks"})
        service.delete_document("d")
        service.update_document("c", "verdict appeal rewrite")
        service.index_shot("s3", [0.3, 0.2, 0.1], {"crowd": 0.25})
        service.delete_shot("s0")
        live = engine_state_digest(service.engine)
        statistics = service.engine.durability.statistics()
        service.close()
        assert statistics["checkpoints"] == 2
        assert statistics["chain_ops_since_rebase"] == 4
        chain = SnapshotStore(tmp_path / "d", 2).manifest_chain()
        assert [m["format"] for m in chain] == [1, 1, 1, 1, 3, 3]
        assert [m["op_records"] for m in chain] == [0, 0, 0, 0, 2, 2]
        state = RecoveryManager(tmp_path / "d").recover()
        assert state.state_digest() == live
        assert [doc_id for doc_id, _ in state.documents] == ["a", "e", "f", "c"]
        assert [shot[0] for shot in state.shots] == ["s1", "s2", "s3"]
        assert (state.checkpoint_id, state.wal_index_ops) == (5, 1)

    def test_reopened_format_one_directory_is_marked_format_three(
        self, analysed_corpus, tmp_path, monkeypatch
    ):
        # The header moves to 3 when a writer attaches, before its first
        # append, so a build that reads format 1 only stops at its header
        # check instead of failing inside replay on a packed vector.
        directory = tmp_path / "d"
        documents, shots = _write_format_one_directory(directory)
        header = read_json(directory / HEADER_FILENAME)
        service = _service(analysed_corpus, _durable_config(directory, 2, interval=2))
        assert read_json(directory / HEADER_FILENAME) == {**header, "format": 3}
        ingested = [
            (f"t{index}", [0.125 * index, -0.0, 1e-310], {"crowd": 0.5})
            for index in range(3)
        ]
        for shot in ingested:
            service.index_shot(*shot)
        live = engine_state_digest(service.engine)
        service.close()
        assert live == state_digest(documents, shots + ingested)
        state = RecoveryManager(directory).recover()
        assert state.state_digest() == live
        assert (state.checkpoint_id, state.wal_index_ops) == (4, 1)
        monkeypatch.setattr(recovery_module, "READABLE_FORMATS", (1,))
        with pytest.raises(RecoveryError, match="has format 3; this build reads formats 1$"):
            RecoveryManager(directory)

    def test_a_newer_header_format_is_refused_in_one_line(
        self, analysed_corpus, tmp_path
    ):
        directory = tmp_path / "d"
        _write_format_one_directory(directory)
        header = read_json(directory / HEADER_FILENAME)
        write_json(directory / HEADER_FILENAME, {**header, "format": 4})
        refusal = "has format 4; this build reads formats 1, 2, 3$"
        with pytest.raises(RecoveryError, match=refusal) as caught:
            RecoveryManager(directory)
        assert "\n" not in str(caught.value)
        with pytest.raises(RecoveryError, match=refusal):
            _service(analysed_corpus, _durable_config(directory, 2))
        assert verify_directory(directory).problems == [str(caught.value)]


def _as_decimal_lists(record):
    """An op record as the decimal-list writer framed it."""
    if record.get("op") == "shot":
        record["features"] = decode_vector(record["features"])
    return record


def _rewrite_vectors_as_lists(directory):
    """Turn a directory this build wrote into the one the decimal-list
    writer left for the same stream: every shot vector a JSON list, header
    format 1, snapshot files format 2."""
    for path in sorted(directory.iterdir()):
        if path.suffix == ".log":
            segment = WalSegment(path)
            records, tail_error = segment.scan()
            assert tail_error is None
            segment.rewrite([encode_op(_as_decimal_lists(r)) for r in records])
            continue
        payload = read_json(path)
        payload["format"] = 1 if path.name == HEADER_FILENAME else 2
        if "shots" in payload:
            payload["shots"] = [
                [seq, shot_id, decode_vector(features), concepts]
                for seq, shot_id, features, concepts in payload["shots"]
            ]
        if "ops" in payload:
            payload["ops"] = [_as_decimal_lists(record) for record in payload["ops"]]
        _write_json_atomic(path, payload)


class TestMixedVectorEncodings:
    @pytest.mark.parametrize("num_shards", (1, 4))
    def test_list_vectors_in_the_base_packed_in_the_tail(
        self, analysed_corpus, tmp_path, num_shards
    ):
        # A directory the decimal-list writer left — list vectors in its
        # bootstrap, its ops deltas and its WAL tail — reopened by this
        # build, which appends packed records, checkpoints them and rebases
        # after a compaction.  Recovery, a replica and `repro verify` read
        # the mix, and every digest equals an in-memory run of the stream.
        directory = tmp_path / "d"
        config = _durable_config(directory, num_shards, interval=4)
        service = _service(analysed_corpus, config)
        ops = synthetic_ingest_ops(
            22, seed=3, feature_dim=service_feature_dim(service)
        )
        apply_ingest(service, ops[:10])
        service.close()
        _rewrite_vectors_as_lists(directory)
        tail, _ = WriteAheadLog(directory, num_shards).scan_all()
        assert any(isinstance(r.get("features"), list) for r in tail)

        reopened = _service(analysed_corpus, config)
        assert read_json(directory / HEADER_FILENAME)["format"] == 3
        replica = ReplicaServer(directory, corpus=analysed_corpus, config=config)
        try:
            apply_ingest(reopened, ops[10:16])
            replica.catch_up()
            assert replica.state_digest() == engine_state_digest(reopened.engine)
            reopened.delete_shot(ops[1][1])
            assert reopened.compact().reclaimed > 0
            apply_ingest(reopened, ops[16:])
            live = engine_state_digest(reopened.engine)
            replica.catch_up()
            assert replica.state_digest() == live
            assert reopened.engine.durability.statistics()["rebases"] == 1
        finally:
            replica.close()
            reopened.close()

        reference = _service(analysed_corpus, _memory_config(num_shards))
        apply_ingest(reference, ops)
        reference.delete_shot(ops[1][1])
        assert engine_state_digest(reference.engine) == live
        reference.close()
        assert RecoveryManager(directory).recover().state_digest() == live
        out = io.StringIO()
        assert cli.main(["verify", str(directory)], out=out) == 0
        assert "integrity: ok" in out.getvalue()

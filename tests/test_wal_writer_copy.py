"""The WAL writer's in-memory copy: equal to the disk, bounded, and byte-neutral.

The owning ``WriteAheadLog`` keeps ``(lsn, record, payload)`` for every
index-op record on its shard segments, and checkpoints and truncation work
from that copy instead of re-reading the files.  Four properties hold it
to the files it replaces:

* **Equal to the disk.**  For generated sequences of ingest / update /
  delete / feedback / compact / checkpoint / replica register-ack-unregister
  / close-and-reopen-over-a-torn-tail, over 1 and 4 shards, each shard
  segment's held entries equal, ``(lsn, payload)`` for ``(lsn, payload)``,
  what a fresh :class:`WalSegment` reads back from the file after every
  step — and a cold recovery of the directory lands on the live digest.
  A feedback step appends nothing.
* **Byte-neutral.**  A fixed stream (one replica pin, two compactions,
  feedback batches) leaves a durability directory whose sha256 over every
  ``(name, bytes)`` is a literal (see :data:`DIRECTORY_SHA256`).
* **Read-free.**  An ops checkpoint and its truncation read no segment.
* **Bounded.**  Feedback leaves the directory as it was; index ops are
  held only until the checkpoint that covers them, unless a replica pins
  them on disk too.

All tests carry the ``durability`` marker (``pytest -m durability``).
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.collection.documents import Collection, Keyframe, NewsStory, Shot, Video
from repro.durability import RecoveryManager, engine_state_digest
from repro.durability.wal import WalSegment, segment_filename
from repro.feedback import EventKind, InteractionEvent
from repro.retrieval import EngineConfig
from repro.service import RetrievalService, ServiceConfig
from repro.workload.ingest import apply_ingest, synthetic_ingest_ops

pytestmark = pytest.mark.durability

#: A service's default ranking (depth 50) with the result cache off.
UNCACHED = EngineConfig(result_limit=50, result_cache_size=0)

FEATURE_DIM = 8
INGEST_SEED = 25


def _collection() -> Collection:
    """Twelve hand-made shots whose features are exact binary fractions, so
    the bootstrap checkpoint's bytes do not depend on a platform's libm."""
    words = ("election", "flood", "summit", "verdict", "strike", "harvest")
    shots = [
        Shot(
            shot_id=f"base-shot-{index:02d}",
            video_id="v0",
            story_id=f"story-{index % 3}",
            start_seconds=float(index),
            end_seconds=float(index + 1),
            transcript=" ".join(words[(index + k) % len(words)] for k in range(4)),
            keyframe=Keyframe(f"kf-{index:02d}", f"base-shot-{index:02d}", (0.0,)),
            category="news",
            features=tuple(((index * 5 + d) % 8) / 8.0 for d in range(FEATURE_DIM)),
            concept_scores={"crowd": 0.5, "flag": (index % 4) / 4.0},
        )
        for index in range(12)
    ]
    stories = [
        NewsStory(
            story_id=f"story-{story}",
            video_id="v0",
            category="news",
            headline=f"story {story}",
            shot_ids=[s.shot_id for s in shots if s.story_id == f"story-{story}"],
        )
        for story in range(3)
    ]
    video = Video("v0", "2008-01-01", story_ids=[story.story_id for story in stories])
    return Collection([video], stories, shots)


def _config(directory, num_shards, interval) -> ServiceConfig:
    return ServiceConfig(
        engine=UNCACHED,
        num_shards=num_shards,
        durability_dir=str(directory),
        snapshot_interval_ops=interval,
        fsync_policy="never",
    )


def _feedback(service, tick: int) -> None:
    service.observe(
        "user-a",
        [
            InteractionEvent(
                kind=EventKind.PLAY_CLICK,
                timestamp=float(tick),
                shot_id=f"base-shot-{tick % 12:02d}",
            )
        ],
    )


def _directory_files(directory: Path):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def _directory_sha256(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def _assert_copy_matches_disk(service, directory: Path, num_shards: int) -> None:
    held = service.engine.durability.wal.held_entries()
    assert sorted(held) == [segment_filename(shard) for shard in range(num_shards)]
    for name, entries in held.items():
        disk, tail_error = WalSegment(directory / name).scan_entries()
        assert tail_error is None, name
        assert [(e.lsn, e.payload) for e in entries] == [
            (e.lsn, e.payload) for e in disk
        ], name


class _Run:
    """One durable service driven step by step, reopened over torn tails."""

    def __init__(self, directory: Path, num_shards: int, interval: int) -> None:
        self.collection = _collection()
        self.directory = directory
        self.num_shards = num_shards
        self.config = _config(directory, num_shards, interval)
        self.service = RetrievalService(self.collection, config=self.config)
        self.ops = synthetic_ingest_ops(200, seed=INGEST_SEED, feature_dim=FEATURE_DIM)
        self.next_op = 0
        self.documents = []
        self.shots = []
        self.ticks = 0

    @property
    def durability(self):
        return self.service.engine.durability

    def _live(self):
        engine = self.service.engine
        return (
            [d for d in self.documents if engine.inverted_index.has_document(d)],
            [s for s in self.shots if engine.visual_index.has_shot(s)],
        )

    def step(self, op) -> None:
        kind = op[0]
        documents, shots = self._live()
        if kind == "ingest":
            batch = self.ops[self.next_op : self.next_op + op[1]]
            self.next_op += len(batch)
            apply_ingest(self.service, batch)
            for item in batch:
                (self.documents if item[0] == "doc" else self.shots).append(item[1])
        elif kind == "update" and documents:
            self.service.update_document(
                documents[op[1] % len(documents)], f"rewrite {op[1]} verdict"
            )
        elif kind == "delete" and documents + shots:
            victims = documents + shots
            victim = victims[op[1] % len(victims)]
            if victim in documents:
                self.service.delete_document(victim)
            else:
                self.service.delete_shot(victim)
        elif kind == "feedback":
            self.ticks += 1
            before = self.durability.wal.last_lsn, _directory_files(self.directory)
            _feedback(self.service, self.ticks)
            assert (
                self.durability.wal.last_lsn, _directory_files(self.directory)
            ) == before
        elif kind == "compact":
            self.service.compact()
        elif kind == "checkpoint":
            with self.service.engine.exclusive_writer():
                self.durability.checkpoint(self.service.engine)
        elif kind == "register":
            self.durability.register_replica("replica", 0)
        elif kind == "ack" and self.durability.wal.replica_acknowledgements():
            wal = self.durability.wal
            self.durability.acknowledge_replica(
                "replica", max(0, wal.last_lsn - op[1])
            )
        elif kind == "unregister":
            self.durability.unregister_replica("replica")
        elif kind == "reopen_torn":
            self.service.close()
            torn = [
                path
                for path in sorted(self.directory.glob("wal-shard-*.log"))
                if path.stat().st_size
            ]
            if torn:
                victim = torn[op[1] % len(torn)]
                victim.write_bytes(victim.read_bytes()[:-3])
            self.service = RetrievalService(self.collection, config=self.config)

    def check(self) -> None:
        _assert_copy_matches_disk(self.service, self.directory, self.num_shards)
        live = engine_state_digest(self.service.engine)
        assert RecoveryManager(self.directory).recover().state_digest() == live


steps = st.lists(
    st.one_of(
        st.tuples(st.just("ingest"), st.integers(1, 6)),
        st.tuples(st.just("update"), st.integers(0, 7)),
        st.tuples(st.just("delete"), st.integers(0, 7)),
        st.tuples(st.just("feedback")),
        st.tuples(st.just("compact")),
        st.tuples(st.just("checkpoint")),
        st.tuples(st.just("register")),
        st.tuples(st.just("ack"), st.integers(0, 4)),
        st.tuples(st.just("unregister")),
        st.tuples(st.just("reopen_torn"), st.integers(0, 3)),
    ),
    min_size=1,
    max_size=14,
)


@pytest.mark.parametrize("num_shards", (1, 4))
@given(ops=steps, interval=st.sampled_from((2, 3, 5, 10_000)))
# A tear on one shard strands intact records of later LSNs on the others:
# the reopen's repair must drop them from the copy as well as the files.
@example(ops=[("ingest", 6), ("reopen_torn", 0), ("ingest", 2)], interval=10_000)
@settings(max_examples=60, deadline=None)
def test_held_copy_equals_the_disk_after_every_step(num_shards, ops, interval):
    with tempfile.TemporaryDirectory(prefix="wal-copy-") as directory:
        run = _Run(Path(directory) / "d", num_shards, interval)
        try:
            run.check()
            for op in ops:
                run.step(op)
                run.check()
        finally:
            run.service.close()


#: sha256 of the directory :func:`_fixed_stream` leaves.  First recorded
#: when the checkpoint still re-read the WAL files and re-encoded every
#: record; re-derived when shot vectors went to disk packed
#: (``encode_vector``, header format 2, snapshot format 3), and again when
#: feedback stopped being logged (header format 3).  The directory the
#: feedback-logging writer left converts to exactly these bytes by
#: dropping ``wal-meta.log``, lowering every LSN (in the segments, the ops
#: deltas and the manifests' ``wal_lsn``) by the feedback LSNs below it,
#: and bumping the header's format.
DIRECTORY_SHA256 = {
    1: "80de04be5e8b2d76b3eb573e097ac05590d72b9f8203df34e7eebb32a390cd1d",
    4: "37f6ef4c853857ba2eff8377fa1152ab44915b2384b58d5074aefdee1cd8338d",
}


def _fixed_stream(directory: Path, num_shards: int) -> str:
    """96 ingests with a delete and an update every tenth op, feedback every
    sixteenth, a replica that pins the log, acknowledges part of it and
    leaves, and two compactions (hence two rebases); returns the live
    digest."""
    service = RetrievalService(_collection(), config=_config(directory, num_shards, 8))
    durability = service.engine.durability
    durability.register_replica("pin", 0)
    ops = synthetic_ingest_ops(96, seed=INGEST_SEED, feature_dim=FEATURE_DIM)
    for index, op in enumerate(ops):
        apply_ingest(service, [op])
        if index % 10 == 9:
            service.delete_document(ops[index - 9][1])
            service.update_document(ops[index - 7][1], f"verdict rewrite {index}")
        if index % 16 == 0:
            _feedback(service, index)
        if index == 40:
            durability.acknowledge_replica("pin", durability.wal.last_lsn - 5)
        if index == 70:
            durability.unregister_replica("pin")
        if index in (47, 79):
            assert service.compact().reclaimed > 0
    digest = engine_state_digest(service.engine)
    service.close()
    return digest


@pytest.mark.parametrize("num_shards", (1, 4))
def test_fixed_stream_directory_bytes_are_pinned(tmp_path, num_shards):
    directory = tmp_path / "d"
    digest = _fixed_stream(directory, num_shards)
    assert RecoveryManager(directory).recover().state_digest() == digest
    assert _directory_sha256(directory) == DIRECTORY_SHA256[num_shards]


@pytest.mark.parametrize("reopen", (False, True))
def test_an_ops_checkpoint_reads_no_segment(tmp_path, monkeypatch, reopen):
    # Its window is the writer's held copy and its truncation rewrites from
    # that copy: neither scans a file, after a fresh start or a reopen.
    config = _config(tmp_path / "d", 4, 10_000)
    service = RetrievalService(_collection(), config=config)
    ops = synthetic_ingest_ops(24, seed=INGEST_SEED, feature_dim=FEATURE_DIM)
    apply_ingest(service, ops[:12])
    if reopen:
        service.close()
        service = RetrievalService(_collection(), config=config)
    calls = []

    def counted(name):
        original = getattr(WalSegment, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(WalSegment, name, wrapper)

    counted("scan_entries")
    counted("scan")
    apply_ingest(service, ops[12:])
    with service.engine.exclusive_writer():
        manifest = service.engine.durability.checkpoint(service.engine)
    assert (manifest["rebase"], manifest["op_records"]) == (False, 24)
    assert calls == []
    monkeypatch.undo()
    _assert_copy_matches_disk(service, tmp_path / "d", 4)
    service.close()


class TestPlateau:
    def test_feedback_leaves_the_directory_as_it_was(self, tmp_path):
        config = _config(tmp_path / "d", 1, 256)
        service = RetrievalService(_collection(), config=config)
        apply_ingest(
            service, synthetic_ingest_ops(5, seed=INGEST_SEED, feature_dim=FEATURE_DIM)
        )
        before = _directory_files(tmp_path / "d")
        for tick in range(2_000):
            _feedback(service, tick)
        after = _directory_files(tmp_path / "d")
        service.close()
        assert after == before

    def test_index_ops_are_held_until_their_checkpoint(self, tmp_path):
        config = _config(tmp_path / "d", 4, 256)
        service = RetrievalService(_collection(), config=config)
        durability = service.engine.durability
        most = 0
        ops = synthetic_ingest_ops(2_000, seed=INGEST_SEED, feature_dim=FEATURE_DIM)
        for op in ops:
            apply_ingest(service, [op])
            held = durability.wal.held_entries()
            most = max(most, sum(len(entries) for entries in held.values()))
        assert durability.checkpoints_written == 1 + 2_000 // 256
        service.close()
        assert most <= 256


if __name__ == "__main__":
    # The fixed stream's directory digest and state digest at 1 and 4
    # shards, one line each: CI compares the output under two hash seeds.
    with tempfile.TemporaryDirectory(prefix="wal-copy-") as scratch:
        for num_shards in (1, 4):
            directory = Path(scratch) / f"shards-{num_shards}"
            digest = _fixed_stream(directory, num_shards)
            print(num_shards, _directory_sha256(directory), digest)

"""Full checkpoints and the state digest stream the live state.

A full checkpoint (the bootstrap, and every rebase after a compaction) and
the recovery oracle's :func:`~repro.durability.digest.state_digest` both
read every live item.  Each builds its canonical entries a chunk at a time
from the engine's own item iterators, so:

* **The bytes are the materialised writer's.**  Every delta and manifest a
  streamed full checkpoint writes equals ``json.dumps`` of the payload the
  whole state would have built, on 1 and 4 shards, with empty shards,
  either item kind alone, lists at the 32-entry chunk edges and non-ASCII
  ids and terms; every digest equals the hash of ``json.dumps`` of the
  whole canonical state.
* **A short or long stream writes nothing.**  When the items streamed
  differ from the declared counts the write raises
  :class:`~repro.durability.snapshots.SnapshotError`, no file is renamed
  into place and the previous manifest stays the tip.
* **The transient is bounded.**  A rebase's peak of traced allocations
  above the level before it is under one fixed bound at N and 4N live
  items, on 1 and 4 shards.  ``tracemalloc`` counts allocation sizes,
  which do not depend on the host's speed or load.

All tests carry the ``durability`` marker (``pytest -m durability``).
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.collection.documents import Collection, Keyframe, NewsStory, Shot, Video
from repro.durability import RecoveryManager, engine_state_digest, state_digest
from repro.durability.snapshots import (
    SnapshotError,
    SnapshotStore,
    delta_filename,
    manifest_filename,
    manifest_ids,
)
from repro.retrieval import EngineConfig
from repro.service import RetrievalService, ServiceConfig
from repro.sharding.router import ShardRouter
from repro.utils.serialization import encode_vector
from repro.workload.ingest import apply_ingest, synthetic_ingest_ops

pytestmark = pytest.mark.durability


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _materialised_full_checkpoint(directory: Path, num_shards, documents, shots, wal_lsn):
    """What the checkpoint writer wrote when it built the whole state first:
    ``{file name: bytes}`` for the deltas and the manifest of the next
    checkpoint in ``directory``."""
    ids = manifest_ids(directory)
    checkpoint_id = ids[-1] + 1 if ids else 0
    router = ShardRouter(num_shards)
    per_shard = {}
    for seq, (document_id, vector) in enumerate(documents):
        per_shard.setdefault(router.shard_of(document_id), {}).setdefault(
            "documents", []
        ).append([seq, document_id, dict(vector)])
    for seq, (shot_id, features, concepts) in enumerate(shots):
        per_shard.setdefault(router.shard_of(shot_id), {}).setdefault(
            "shots", []
        ).append([seq, shot_id, encode_vector(features), dict(concepts)])
    files = {}
    for shard in sorted(per_shard):
        payload = {"format": 3, "checkpoint_id": checkpoint_id, "shard": shard}
        payload.update(per_shard[shard])
        files[delta_filename(checkpoint_id, shard)] = _dumps(payload) + "\n"
    manifest = {
        "format": 3,
        "checkpoint_id": checkpoint_id,
        "parent": ids[-1] if ids else None,
        "wal_lsn": wal_lsn,
        "text_count": len(documents),
        "shot_count": len(shots),
        "deltas": sorted(files),
        "rebase": bool(ids),
        "op_records": 0,
    }
    files[manifest_filename(checkpoint_id)] = _dumps(manifest) + "\n"
    return {name: text.encode("utf-8") for name, text in files.items()}


def _files(directory: Path):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


# -- generated states -------------------------------------------------------------

_ids = st.text(alphabet="ab-é日ÿ0", min_size=1, max_size=6)
_terms = st.dictionaries(
    st.text(alphabet="tërm中", min_size=1, max_size=4),
    st.integers(1, 9),
    max_size=4,
)
_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
_concepts = st.dictionaries(
    st.sampled_from(("crowd", "flag", "fête")), _floats, max_size=3
)


@st.composite
def _states(draw):
    documents = draw(
        st.lists(st.tuples(_ids, _terms), max_size=70, unique_by=lambda d: d[0])
    )
    shots = draw(
        st.lists(
            st.tuples(_ids, st.lists(_floats, min_size=3, max_size=3), _concepts),
            max_size=70,
            unique_by=lambda s: s[0],
        )
    )
    return documents, shots


def _numbered(prefix: str, count: int, first: int = 0):
    return [f"{prefix}-{index:03d}" for index in range(first, first + count)]


def _documents(ids):
    return [(item_id, {"term": index + 1, "ünï": 2}) for index, item_id in enumerate(ids)]


def _shots(ids):
    return [
        (item_id, [index / 8.0, -0.1, 1e-300], {"crowd": 0.5} if index % 2 else {})
        for index, item_id in enumerate(ids)
    ]


def _without_shard(ids, shard, num_shards=4):
    router = ShardRouter(num_shards)
    return [item_id for item_id in ids if router.shard_of(item_id) != shard]


#: The chunk edges in one shard, either kind alone, and a 4-shard state one
#: of whose shards holds nothing.
EDGE_STATES = [
    ([], []),
    (_documents(_numbered("d", 32)), []),
    ([], _shots(_numbered("s", 33))),
    (_documents(_numbered("d", 31)), _shots(_numbered("s", 65))),
    (
        _documents(_without_shard(_numbered("d", 90), 2)),
        _shots(_without_shard(_numbered("s", 90), 2)),
    ),
    (_documents(["é-日本", "ÿ"]), _shots(["fête-1"])),
]


@pytest.mark.parametrize("num_shards", (1, 4))
@pytest.mark.parametrize("state", range(len(EDGE_STATES)))
def test_streamed_full_checkpoint_equals_the_materialised_bytes(
    tmp_path, num_shards, state
):
    documents, shots = EDGE_STATES[state]
    _check_streamed_bytes(tmp_path / "d", num_shards, documents, shots)


@given(state=_states(), num_shards=st.sampled_from((1, 4)))
@example(state=([], []), num_shards=4)
@settings(max_examples=60, deadline=None)
def test_generated_full_checkpoints_equal_the_materialised_bytes(state, num_shards):
    with tempfile.TemporaryDirectory(prefix="full-cp-") as directory:
        _check_streamed_bytes(Path(directory) / "d", num_shards, *state)


def _check_streamed_bytes(directory: Path, num_shards, documents, shots):
    # The bootstrap, then a rebase of the same state on top of it.
    for wal_lsn in (0, 7):
        directory.mkdir(exist_ok=True)
        expected = _materialised_full_checkpoint(
            directory, num_shards, documents, shots, wal_lsn
        )
        before = _files(directory)
        store = SnapshotStore(directory, num_shards)
        manifest = store.write_full_checkpoint(
            iter(documents),
            (shot for shot in shots),
            text_count=len(documents),
            shot_count=len(shots),
            wal_lsn=wal_lsn,
        )
        after = _files(directory)
        written = {name: data for name, data in after.items() if name not in before}
        assert written == expected
        name = manifest_filename(manifest["checkpoint_id"])
        assert manifest == json.loads(expected[name])
        fold = SnapshotStore(directory, num_shards).load_base()
        assert list(fold.text.items()) == documents
        assert [(s, list(f), c) for s, (f, c) in fold.visual.items()] == [
            (s, list(f), c) for s, f, c in shots
        ]


@pytest.mark.parametrize("num_shards", (1, 4))
@pytest.mark.parametrize("declared", ((41, 40), (39, 40), (40, 41), (40, 39)))
def test_a_count_mismatch_writes_nothing(tmp_path, num_shards, declared):
    directory = tmp_path / "d"
    documents = _documents(_numbered("d", 40))
    shots = _shots(_numbered("s", 40))
    store = SnapshotStore(directory, num_shards)
    store.write_full_checkpoint(
        iter(documents[:5]), iter(shots[:5]), text_count=5, shot_count=5, wal_lsn=0
    )
    before = _files(directory)
    tip = store.latest_manifest
    refused = "full checkpoint streamed 40 documents and 40 shots"
    with pytest.raises(SnapshotError, match=refused):
        store.write_full_checkpoint(
            iter(documents),
            iter(shots),
            text_count=declared[0],
            shot_count=declared[1],
            wal_lsn=9,
        )
    assert _files(directory) == before
    assert store.latest_manifest is tip
    reopened = SnapshotStore(directory, num_shards)
    assert reopened.latest_manifest == tip
    fold = reopened.load_base()
    assert list(fold.text.items()) == documents[:5]
    # The next checkpoint takes the id the refused one would have had.
    assert store.write_full_checkpoint(
        iter(documents), iter(shots), text_count=40, shot_count=40, wal_lsn=9
    )["checkpoint_id"] == 1


# -- the state digest ------------------------------------------------------------------


def _materialised_digest(documents, shots) -> str:
    payload = {
        "documents": [
            [document_id, sorted((t, int(c)) for t, c in vector.items())]
            for document_id, vector in documents
        ],
        "shots": [
            [
                shot_id,
                [float(x) for x in features],
                sorted((k, float(v)) for k, v in concepts.items()),
            ]
            for shot_id, features, concepts in shots
        ],
    }
    return hashlib.sha256(_dumps(payload).encode("utf-8")).hexdigest()


DIGEST_STATES = [
    ([], []),
    (_documents(_numbered("d", 3)), []),
    ([], _shots(_numbered("s", 3))),
    *[
        (_documents(_numbered("d", size)), _shots(_numbered("s", size)))
        for size in (31, 32, 33)
    ],
    (_documents(["é-日本"]), _shots(["fête\n\"1"])),
]


@pytest.mark.parametrize("state", range(len(DIGEST_STATES)))
def test_streamed_digest_equals_the_materialised_digest(state):
    documents, shots = DIGEST_STATES[state]
    expected = _materialised_digest(documents, shots)
    assert state_digest(iter(documents), iter(shots)) == expected


@given(state=_states())
@settings(max_examples=60, deadline=None)
def test_generated_digests_equal_the_materialised_digest(state):
    documents, shots = state
    assert state_digest(documents, shots) == _materialised_digest(documents, shots)


# -- the transient of a rebase ---------------------------------------------------------

#: The bound on a rebase's traced peak above the level before it.  The
#: streamed write holds one chunk and one open file per shard: 48-50 KiB on
#: 1 shard and 115-121 KiB on 4, at N and 4N alike (CPython 3.11).  The
#: writer that built the whole state first peaked at 255-271 KiB at N and
#: 1 012-1 013 KiB at 4N.
REBASE_PEAK_BOUND = 256 * 1024

N = 500

FEATURE_DIM = 8
BASE_SHOTS = 4


def _collection() -> Collection:
    """One story of four shots to ingest onto."""
    shots = [
        Shot(
            shot_id=f"base-shot-{index}",
            video_id="v0",
            story_id="story-0",
            start_seconds=float(index),
            end_seconds=float(index + 1),
            transcript=f"election flood summit verdict {index}",
            keyframe=Keyframe(f"kf-{index}", f"base-shot-{index}", (0.0,)),
            category="news",
            features=tuple((index + d) % 8 / 8.0 for d in range(FEATURE_DIM)),
            concept_scores={"crowd": 0.5},
        )
        for index in range(BASE_SHOTS)
    ]
    story = NewsStory(
        story_id="story-0",
        video_id="v0",
        category="news",
        headline="story",
        shot_ids=[shot.shot_id for shot in shots],
    )
    return Collection([Video("v0", "2008-01-01", story_ids=["story-0"])], [story], shots)


def _rebase_peak(directory: Path, num_shards: int, items: int) -> int:
    config = ServiceConfig(
        engine=EngineConfig(result_cache_size=0),
        num_shards=num_shards,
        durability_dir=str(directory),
        snapshot_interval_ops=10**9,
        fsync_policy="never",
    )
    service = RetrievalService(_collection(), config=config)
    try:
        ops = synthetic_ingest_ops(items, seed=3, feature_dim=FEATURE_DIM)
        apply_ingest(service, ops)
        engine = service.engine
        durability = engine.durability
        with engine.exclusive_writer():
            # The WAL into the chain first, so the rebase has no records to move.
            durability.checkpoint(engine)
            durability.note_compaction()
            tracemalloc.start()
            try:
                level = tracemalloc.get_traced_memory()[0]
                manifest = durability.checkpoint(engine)
                peak = tracemalloc.get_traced_memory()[1] - level
            finally:
                tracemalloc.stop()
        assert manifest["rebase"]
        assert manifest["text_count"] + manifest["shot_count"] == items + 2 * BASE_SHOTS
        digest = engine_state_digest(engine)
    finally:
        service.close()
    assert RecoveryManager(directory).recover().state_digest() == digest
    return peak


@pytest.mark.parametrize("num_shards", (1, 4))
def test_a_rebase_transient_is_bounded_whatever_the_state_size(tmp_path, num_shards):
    peaks = {
        items: _rebase_peak(tmp_path / str(items), num_shards, items)
        for items in (N, 4 * N)
    }
    assert max(peaks.values()) < REBASE_PEAK_BOUND, peaks

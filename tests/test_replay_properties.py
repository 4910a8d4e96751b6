"""Property test: one WAL replay, three readers that must agree.

``repro.durability.replay`` owns the op-record schema and the one
``apply_op``; the live engine, crash recovery and a tailing replica
are three consumers of the same write history — and the snapshot chain is
a fourth, since an ops checkpoint is a slice of that history folded by the
same function.  For random sequences of add / delete / update / add-shot /
delete-shot / compact — over fresh ids *and* corpus-built ones, with
repeats and deletes of unknown ids — the live ``engine_state_digest``,
``RecoveryManager.recover().state_digest()`` and a tailing
``ReplicaServer.state_digest()`` agree after every op, whether the prefix
ends right behind a checkpoint, on an un-checkpointed WAL tail, or (at
cadence 1) with every op in its own delta and compactions rebasing the
chain in between; and a point-in-time recovery at every LSN the tip still
allows lands on the digest the live engine had at that LSN.

All tests carry the ``replication`` marker (``pytest -m replication``).
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability import RecoveryManager, engine_state_digest
from repro.durability.replay import op_record
from repro.replication import ReplicaServer
from repro.retrieval import EngineConfig
from repro.service import RetrievalService, ServiceConfig
from repro.workload.ingest import service_feature_dim

#: A service's default ranking (depth 50) with the result cache off.
UNCACHED = EngineConfig(result_limit=50, result_cache_size=0)

pytestmark = pytest.mark.replication

FRESH_DOCUMENTS = ("replay-doc-a", "replay-doc-b", "replay-doc-c")
FRESH_SHOTS = ("replay-shot-a", "replay-shot-b")

texts = st.lists(
    st.sampled_from(("election", "flood", "summit", "verdict", "strike")),
    min_size=1,
    max_size=4,
).map(" ".join)
#: An index into the id pool (fresh ids followed by two corpus-built ones).
slots = st.integers(min_value=0, max_value=4)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), slots, texts),
        st.tuples(st.just("update"), slots, texts),
        st.tuples(st.just("delete"), slots),
        st.tuples(st.just("add_shot"), slots, st.integers(0, 9)),
        st.tuples(st.just("delete_shot"), slots),
        st.tuples(st.just("compact")),
    ),
    min_size=1,
    max_size=12,
)
#: Checkpoint every op (add X / delete X / re-add X / update X / compact
#: each in their own delta, and across the rebase a compaction brings),
#: every few (prefixes ending behind a checkpoint) or never (pure WAL tails).
snapshot_intervals = st.sampled_from((1, 2, 3, 5, 10_000))


def _apply(service, op, documents, shots, feature_dim) -> None:
    """Drive one op through the service.

    The engine rejects a duplicate add and an unknown delete before
    anything reaches the WAL.  Replay must skip exactly those records, so
    a rejected op's record is appended anyway — straight through the
    durability manager, as a writer without the engine's pre-checks would
    — and the three digests must still agree.  (A rejected update is not:
    replay turns an update of an unseen id into an add.)
    """
    kind = op[0]
    durability = service.engine.durability
    if kind == "compact":
        service.compact()
        return
    if kind in ("add", "update", "delete"):
        document_id = documents[op[1] % len(documents)]
        try:
            if kind == "add":
                service.index_documents({document_id: op[2]})
            elif kind == "update":
                service.update_document(document_id, op[2])
            else:
                service.delete_document(document_id)
        except ValueError:
            durability.log_index_op(op_record("doc", document_id, {"rejected": 1}))
        except KeyError:
            if kind == "delete":
                durability.log_index_op(op_record("del", document_id, "doc"))
        return
    shot_id = shots[op[1] % len(shots)]
    try:
        if kind == "add_shot":
            features = [0.1 + ((op[2] + i) % 5) / 5.0 for i in range(feature_dim)]
            service.index_shot(shot_id, features, {"replayed": 0.5})
        else:
            service.delete_shot(shot_id)
    except ValueError:
        durability.log_index_op(op_record("shot", shot_id, ([1.0] * feature_dim, {})))
    except KeyError:
        durability.log_index_op(op_record("del", shot_id, "shot"))


@given(ops=operations, interval=snapshot_intervals)
@settings(max_examples=20, deadline=None)
def test_live_recovered_and_replica_digests_agree_at_every_prefix(
    small_corpus, ops, interval
):
    collection = small_corpus.collection
    corpus_shots = collection.shot_ids()[:2]
    documents = FRESH_DOCUMENTS + tuple(corpus_shots)
    shots = FRESH_SHOTS + tuple(corpus_shots)
    with tempfile.TemporaryDirectory(prefix="replay-property-") as directory:
        service = RetrievalService(
            collection,
            config=ServiceConfig(
                engine=UNCACHED,
                durability_dir=directory,
                snapshot_interval_ops=interval,
                fsync_policy="never",
            ),
        )
        replica = ReplicaServer(directory, corpus=small_corpus)
        try:
            feature_dim = service_feature_dim(service)
            durability = service.engine.durability
            digest_at = {0: engine_state_digest(service.engine)}
            for op in ops:
                _apply(service, op, documents, shots, feature_dim)
                live = engine_state_digest(service.engine)
                digest_at[durability.wal.last_lsn] = live
                assert RecoveryManager(directory).recover().state_digest() == live
                replica.poll()
                assert replica.state_digest() == live
                for lsn in range(
                    durability.snapshots.latest_wal_lsn, durability.wal.last_lsn + 1
                ):
                    cut = RecoveryManager(directory, stop_lsn=lsn).recover()
                    assert cut.state_digest() == digest_at[lsn], lsn
        finally:
            replica.close()
            service.close()

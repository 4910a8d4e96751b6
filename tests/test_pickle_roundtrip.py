"""Pickle round-trip regression tests for the index, config, router and query types.

They guard the ``__getstate__`` / ``__reduce__`` hooks that keep these
values copyable: anything that silently stops round-tripping (an added lock
field, a lambda default, an unhashable cache) fails here at the type level.
Each value is round-tripped at the highest protocol *and* protocol 2, and
equality is checked structurally.
"""

from __future__ import annotations

import pickle

import pytest

from repro.index.inverted_index import InvertedIndex
from repro.index.visual import VisualIndex
from repro.retrieval import Query
from repro.retrieval.engine import EngineConfig
from repro.service import ServiceConfig
from repro.sharding import ShardRouter

PROTOCOLS = (2, pickle.HIGHEST_PROTOCOL)


def _roundtrip(value, protocol):
    return pickle.loads(pickle.dumps(value, protocol=protocol))


@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestPickleRoundTrip:
    def test_engine_config(self, protocol):
        config = EngineConfig(
            scorer="lm", text_weight=0.7, result_cache_size=64, lm_mu=1500.0
        )
        clone = _roundtrip(config, protocol)
        assert clone == config
        assert clone.scorer == "lm"
        assert clone.lm_mu == 1500.0

    def test_service_config(self, protocol):
        config = ServiceConfig(scorer="tfidf", num_shards=4)
        clone = _roundtrip(config, protocol)
        assert clone == config
        assert clone.num_shards == 4

    def test_shard_router(self, protocol):
        router = ShardRouter(num_shards=5)
        clone = _roundtrip(router, protocol)
        assert clone == router
        assert hash(clone) == hash(router)
        # The clone must route identically, not just compare equal.
        for shot_id in ("shot-001", "d3/s4/shot-17", "x"):
            assert clone.shard_of(shot_id) == router.shard_of(shot_id)

    def test_shard_router_inequality(self, protocol):
        assert ShardRouter(num_shards=2) != ShardRouter(num_shards=3)
        assert ShardRouter(num_shards=2) != object()
        clone = _roundtrip(ShardRouter(num_shards=2), protocol)
        assert clone != ShardRouter(num_shards=3)

    def test_query_terms_values(self, protocol):
        # Both admitted QueryTerms shapes: a term sequence and a weight map.
        sequence = ["alpha", "beta", "alpha"]
        weights = {"alpha": 0.5, "beta": 1.25}
        assert _roundtrip(sequence, protocol) == sequence
        clone = _roundtrip(weights, protocol)
        assert clone == weights
        assert list(clone) == list(weights)  # iteration order survives

    def test_query(self, protocol):
        query = Query(
            text="election results",
            term_weights={"election": 2.0},
            example_shot_ids=["d1/s1/shot-3"],
            concept_weights={"crowd": 0.8},
            topic_id="t-7",
            user_id="u-2",
        )
        clone = _roundtrip(query, protocol)
        assert clone == query


@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestTombstonedIndexPickle:
    def test_inverted_index_with_tombstones(self, protocol):
        index = InvertedIndex()
        index.add_document("doc-a", "alpha beta alpha")
        index.add_document("doc-b", "beta gamma")
        index.add_document("doc-c", "gamma delta")
        index.delete_document("doc-b")
        index.update_document("doc-c", "epsilon beta")
        clone = _roundtrip(index, protocol)
        assert clone.document_count == index.document_count
        assert clone.tombstone_count == index.tombstone_count
        assert clone.total_terms == index.total_terms
        assert clone.slots.ids == index.slots.ids
        assert sorted(clone.document_ids()) == ["doc-a", "doc-c"]
        assert clone.document_vector("doc-c") == {"epsilon": 1, "beta": 1}
        # The clone is fully mutable: compaction reclaims the same holes.
        assert clone.compact() == 2
        assert clone.tombstone_count == 0
        assert clone.document_count == 2

    def test_visual_index_with_tombstones(self, protocol):
        index = VisualIndex()
        index.add_shot("shot-a", [1.0, 0.0], {"crowd": 0.5})
        index.add_shot("shot-b", [0.0, 1.0], {"flag": 0.5})
        index.delete_shot("shot-a")
        clone = _roundtrip(index, protocol)
        assert clone.shot_ids() == ["shot-b"]
        assert clone.tombstone_count == 1
        assert clone.compact() == 1
        assert clone.features_of("shot-b") == (0.0, 1.0)

    def test_visual_index_neighbour_table_pickles_empty(self, protocol):
        """The table is a cache holding a lock: a clone starts cold and is
        exact under its own writes."""
        from repro.index.reference import reference_similar_to_vector

        index = VisualIndex()
        for shot_id, features in (
            ("shot-a", [1.0, 0.0]), ("shot-b", [0.0, 1.0]), ("shot-c", [1.0, 1.0]),
        ):
            index.add_shot(shot_id, features)
        for shot_id in index.shot_ids():
            index.similar_to_shot(shot_id, limit=2)
        assert index.neighbour_table_info()["entries"] == 3
        clone = _roundtrip(index, protocol)
        assert clone.neighbour_table_info()["entries"] == 0
        assert index.neighbour_table_info()["entries"] == 3
        clone.similar_to_shot("shot-a", limit=2)  # warm one entry, then write
        clone.delete_shot("shot-b")
        clone.add_shot("shot-d", [1.0, 0.5])
        for shot_id in clone.shot_ids():
            assert clone.similar_to_shot(shot_id, limit=2) == (
                reference_similar_to_vector(
                    clone, clone.features_of(shot_id), limit=2, exclude=(shot_id,)
                )
            )
        # The original never saw the clone's writes.
        assert [shot_id for shot_id, _ in index.similar_to_shot("shot-a", limit=2)] == [
            "shot-c", "shot-b"
        ]

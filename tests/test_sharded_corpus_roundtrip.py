"""Differential test: corpus save/load round-trip under sharding.

``save_corpus`` / ``load_corpus`` were written long before the sharded
engine existed; this suite pins that a reloaded corpus is a perfect
substitute for the original **at every shard count** — same shard
assignment, same dense interning, same scores — and that the reloaded
corpus preserves the mono/sharded equivalence contract.

Carries the ``shard`` marker alongside the sharding equivalence suite.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.analysis import analyse_collection
from repro.collection import load_corpus, save_corpus
from repro.durability import engine_state_digest
from repro.retrieval import Query, VideoRetrievalEngine
from repro.service import RetrievalService, ServiceConfig

pytestmark = pytest.mark.shard

SHARD_COUNTS = (1, 4)


@pytest.fixture(scope="module")
def reloaded_corpus(sharding_corpus, tmp_path_factory):
    directory = save_corpus(
        sharding_corpus, tmp_path_factory.mktemp("corpus") / "saved"
    )
    stored = load_corpus(directory)
    # Snapshots are analysis-agnostic by design: features and concept
    # scores are re-derived (deterministically, from the stored latent
    # signals) rather than persisted.
    analyse_collection(stored.collection)
    return stored


def _service(collection, num_shards: int) -> RetrievalService:
    return RetrievalService(
        collection,
        config=ServiceConfig(num_shards=num_shards, result_cache_size=0),
    )


def assert_identical_rankings(
    expected_engine: VideoRetrievalEngine,
    actual_engine: VideoRetrievalEngine,
    queries: List[Query],
) -> None:
    for query in queries:
        expected = expected_engine.search(query, limit=None)
        actual = actual_engine.search(query, limit=None)
        assert expected.shot_ids() == actual.shot_ids(), query
        assert [item.score for item in expected.items] == [
            item.score for item in actual.items
        ], query
        assert [item.rank for item in expected.items] == [
            item.rank for item in actual.items
        ], query


class TestShardedCorpusRoundTrip:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_reloaded_corpus_ranks_identically(
        self, sharding_corpus, reloaded_corpus, make_random_queries, num_shards
    ):
        queries = make_random_queries(sharding_corpus, seed=880 + num_shards, count=12)
        original = _service(sharding_corpus.collection, num_shards)
        reloaded = _service(reloaded_corpus.collection, num_shards)
        try:
            assert engine_state_digest(original.engine) == engine_state_digest(
                reloaded.engine
            )
            assert_identical_rankings(original.engine, reloaded.engine, queries)
        finally:
            original.close()
            reloaded.close()

    def test_reloaded_corpus_preserves_mono_sharded_equivalence(
        self, sharding_corpus, reloaded_corpus, make_random_queries
    ):
        # The reloaded corpus must not only match the original per shard
        # count — 1 and 4 shards must still rank alike over the *reloaded*
        # collection.
        queries = make_random_queries(sharding_corpus, seed=990, count=12)
        mono = _service(reloaded_corpus.collection, 1)
        sharded = _service(reloaded_corpus.collection, 4)
        try:
            assert_identical_rankings(mono.engine, sharded.engine, queries)
        finally:
            mono.close()
            sharded.close()

    def test_round_trip_preserves_relevance_metadata(
        self, sharding_corpus, reloaded_corpus
    ):
        assert reloaded_corpus.seed == sharding_corpus.seed
        original_topics = {
            topic.topic_id for topic in sharding_corpus.topics.topics()
        }
        reloaded_topics = {
            topic.topic_id for topic in reloaded_corpus.topics.topics()
        }
        assert reloaded_topics == original_topics
        for topic_id in sorted(original_topics):
            assert reloaded_corpus.qrels.relevant_shots(
                topic_id
            ) == sharding_corpus.qrels.relevant_shots(topic_id)

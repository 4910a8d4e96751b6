"""Tests for collection/corpus persistence."""

from __future__ import annotations

import pytest

from repro.collection import (
    load_collection,
    load_corpus,
    load_topics,
    save_collection,
    save_corpus,
    save_topics,
)
from repro.index import InvertedIndex
from repro.retrieval import VideoRetrievalEngine


class TestCollectionSnapshot:
    def test_round_trip_structure(self, tmp_path, small_corpus):
        path = tmp_path / "collection.json"
        save_collection(small_corpus.collection, path)
        loaded = load_collection(path)
        assert loaded.video_count == small_corpus.collection.video_count
        assert loaded.story_count == small_corpus.collection.story_count
        assert loaded.shot_count == small_corpus.collection.shot_count
        assert loaded.shot_ids() == small_corpus.collection.shot_ids()

    def test_round_trip_preserves_shot_content(self, tmp_path, small_corpus):
        path = tmp_path / "collection.json"
        save_collection(small_corpus.collection, path)
        loaded = load_collection(path)
        original = small_corpus.collection.shots()[5]
        restored = loaded.shot(original.shot_id)
        assert restored.transcript == original.transcript
        assert restored.category == original.category
        assert restored.concepts == original.concepts
        assert restored.topic_relevance == original.topic_relevance
        assert restored.keyframe.latent_signal == pytest.approx(
            original.keyframe.latent_signal
        )
        assert restored.duration == pytest.approx(original.duration)

    def test_round_trip_preserves_retrieval_behaviour(self, tmp_path, small_corpus):
        path = tmp_path / "collection.json"
        save_collection(small_corpus.collection, path)
        loaded = load_collection(path)
        topic = small_corpus.topics.topics()[0]
        query = " ".join(topic.query_terms)
        original_ranking = VideoRetrievalEngine(small_corpus.collection).search_text(
            query
        ).shot_ids()
        restored_ranking = VideoRetrievalEngine(loaded).search_text(query).shot_ids()
        assert original_ranking == restored_ranking

    def test_wrong_kind_rejected(self, tmp_path, small_corpus):
        path = tmp_path / "topics.json"
        save_topics(small_corpus.topics, path)
        with pytest.raises(ValueError):
            load_collection(path)


class TestTopicSnapshot:
    def test_round_trip(self, tmp_path, small_corpus):
        path = tmp_path / "topics.json"
        save_topics(small_corpus.topics, path)
        loaded = load_topics(path)
        assert loaded.topic_ids() == small_corpus.topics.topic_ids()
        first = small_corpus.topics.topics()[0]
        assert loaded.topic(first.topic_id).query_terms == first.query_terms
        assert loaded.topic(first.topic_id).category == first.category


class TestCorpusSnapshot:
    def test_round_trip(self, tmp_path, small_corpus):
        directory = save_corpus(small_corpus, tmp_path / "corpus")
        stored = load_corpus(directory)
        assert stored.seed == small_corpus.seed
        assert stored.collection.shot_count == small_corpus.collection.shot_count
        assert stored.topics.topic_ids() == small_corpus.topics.topic_ids()
        assert list(stored.qrels.items()) == list(small_corpus.qrels.items())

    def test_missing_manifest_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "empty")

    def test_index_built_from_stored_corpus_matches(self, tmp_path, small_corpus):
        directory = save_corpus(small_corpus, tmp_path / "corpus")
        stored = load_corpus(directory)
        original_index = InvertedIndex.from_collection(small_corpus.collection)
        restored_index = InvertedIndex.from_collection(stored.collection)
        assert restored_index.document_count == original_index.document_count
        assert restored_index.total_terms == original_index.total_terms

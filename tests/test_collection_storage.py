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


class TestTombstonedIndexSnapshot:
    """Satellite: index snapshots round-trip mutable-corpus state.

    A snapshot stores live items in dense slot order — loading it is
    equivalent to a compacted rebuild, so digests and rankings agree with
    the live (hole-y) source.
    """

    def test_inverted_round_trip_skips_tombstones(self, tmp_path):
        from repro.index.storage import load_inverted_index, save_inverted_index

        index = InvertedIndex()
        index.add_document("doc-a", "alpha beta alpha")
        index.add_document("doc-b", "beta gamma")
        index.add_document("doc-c", "gamma delta")
        index.delete_document("doc-b")
        index.update_document("doc-a", "epsilon beta")
        path = tmp_path / "inverted.json"
        save_inverted_index(index, path)
        loaded = load_inverted_index(path)
        compacted = index.compacted_copy()
        assert loaded.slots.ids == compacted.slots.ids
        assert loaded.tombstone_count == 0
        assert loaded.document_count == index.document_count
        assert loaded.total_terms == index.total_terms
        assert loaded.average_document_length == index.average_document_length
        for term in index.terms():
            assert loaded.collection_frequency(term) == index.collection_frequency(term)
            assert loaded.document_frequency(term) == index.document_frequency(term)

    def test_visual_round_trip_skips_tombstones(self, tmp_path):
        from repro.index.storage import load_visual_index, save_visual_index
        from repro.index.visual import VisualIndex

        index = VisualIndex()
        index.add_shot("shot-a", [1.0, 0.0], {"crowd": 0.4})
        index.add_shot("shot-b", [0.0, 1.0], {"flag": 0.6})
        index.add_shot("shot-c", [0.5, 0.5], {})
        index.delete_shot("shot-b")
        path = tmp_path / "visual.json"
        save_visual_index(index, path)
        loaded = load_visual_index(path)
        assert loaded.shot_ids() == ["shot-a", "shot-c"]
        assert loaded.tombstone_count == 0
        assert loaded.features_of("shot-c") == (0.5, 0.5)
        assert loaded.concept_scores_of("shot-a") == {"crowd": 0.4}

    def test_round_trip_digest_matches_compacted_engine(
        self, tmp_path, small_corpus
    ):
        # The recovery-facing contract: rebuilding an engine from saved
        # snapshots of a mutated live engine digests identically to the
        # live engine (the digest skips holes) and to its compacted self.
        from repro.durability import engine_state_digest
        from repro.index.storage import (
            load_inverted_index,
            load_visual_index,
            save_inverted_index,
            save_visual_index,
        )

        engine = VideoRetrievalEngine(small_corpus.collection)
        engine.index_document("mut-a", "ceasefire summit")
        engine.index_document("mut-b", "verdict launch")
        engine.delete_document("mut-a")
        engine.update_document("mut-b", "blackout harvest")
        live = engine_state_digest(engine)
        save_inverted_index(engine.inverted_index, tmp_path / "inv.json")
        save_visual_index(engine.visual_index, tmp_path / "vis.json")
        restored = VideoRetrievalEngine(
            small_corpus.collection,
            inverted_index=load_inverted_index(tmp_path / "inv.json"),
            visual_index=load_visual_index(tmp_path / "vis.json"),
        )
        assert engine_state_digest(restored) == live
        engine.compact()
        assert engine_state_digest(engine) == live

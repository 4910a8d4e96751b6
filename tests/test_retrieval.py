"""Tests for the retrieval engine, queries, results, expansion and re-ranking."""

from __future__ import annotations

import dataclasses
import math
import pickle
import re
import sys

import pytest

from repro.index import InvertedIndex
from repro.retrieval import (
    EngineConfig,
    Query,
    ResultItem,
    ResultList,
    RocchioExpander,
    VideoRetrievalEngine,
    extract_key_terms,
    merge_result_lists,
    rerank_with_scores,
    story_scores_from_shots,
)
from repro.service import RetrievalService, ServiceConfig


class TestQuery:
    def test_is_empty(self):
        assert Query().is_empty()
        assert not Query(text="goal").is_empty()
        assert not Query(term_weights={"goal": 1.0}).is_empty()
        assert not Query(example_shot_ids=["s1"]).is_empty()
        assert not Query(concept_weights={"person": 1.0}).is_empty()

    def test_with_text_preserves_other_fields(self):
        query = Query(text="a", term_weights={"x": 1.0}, topic_id="T1")
        new = query.with_text("b")
        assert new.text == "b"
        assert new.term_weights == {"x": 1.0}
        assert new.topic_id == "T1"
        assert query.text == "a"

    def test_with_term_weights_copy(self):
        query = Query(text="a")
        new = query.with_term_weights({"y": 2.0})
        assert new.term_weights == {"y": 2.0}
        assert query.term_weights == {}

    def test_add_example_no_duplicates(self):
        query = Query()
        query.add_example("s1")
        query.add_example("s1")
        assert query.example_shot_ids == ["s1"]


class TestResultList:
    def test_from_scores_ranks_and_ties(self):
        results = ResultList.from_scores("q", {"b": 1.0, "a": 1.0, "c": 2.0})
        assert results.shot_ids() == ["c", "a", "b"]
        assert [item.rank for item in results] == [1, 2, 3]

    def test_from_scores_respects_limit(self):
        results = ResultList.from_scores("q", {str(i): float(i) for i in range(50)}, limit=10)
        assert len(results) == 10

    def test_metadata_filled_from_collection(self, small_corpus):
        shot = small_corpus.collection.shots()[0]
        results = ResultList.from_scores(
            "q", {shot.shot_id: 1.0}, collection=small_corpus.collection
        )
        item = results[0]
        assert item.story_id == shot.story_id
        assert item.category == shot.category
        assert item.headline

    def test_rank_of_and_contains(self):
        results = ResultList.from_scores("q", {"a": 2.0, "b": 1.0})
        assert results.rank_of("b") == 2
        assert results.rank_of("z") is None
        assert results.contains("a")

    def test_merge_result_lists_takes_best_score(self):
        first = ResultList.from_scores("q", {"a": 1.0, "b": 0.5})
        second = ResultList.from_scores("q", {"a": 0.2, "c": 0.9})
        merged = merge_result_lists([first, second], limit=10)
        assert merged.shot_ids()[0] == "a"
        assert set(merged.shot_ids()) == {"a", "b", "c"}


class TestHitContract:
    """A hit is an immutable named tuple of its eight fields, built by the
    ranked-list path without a keyword constructor."""

    FIELDS = [
        "shot_id", "score", "rank", "story_id", "video_id", "headline",
        "category", "duration_seconds",
    ]

    @staticmethod
    def _ranked_hit(collection):
        shot = collection.shots()[0]
        ranked = ResultList.from_scores("q", {shot.shot_id: 1.5}, collection=collection)
        return ranked[0]

    def test_equals_and_hashes_like_a_keyword_built_hit(self, small_corpus):
        collection = small_corpus.collection
        hit = self._ranked_hit(collection)
        shot = collection.shots()[0]
        keyword = ResultItem(
            shot_id=shot.shot_id, score=1.5, rank=1, story_id=shot.story_id,
            video_id=shot.video_id, headline=collection.story(shot.story_id).headline,
            category=shot.category, duration_seconds=shot.duration,
        )
        assert type(hit) is ResultItem
        assert hit == keyword and hash(hit) == hash(keyword)

    def test_replace_and_pickle_keep_the_type(self, small_corpus):
        hit = self._ranked_hit(small_corpus.collection)
        moved = hit._replace(rank=7)
        assert type(moved) is ResultItem
        assert moved.rank == 7 and moved[:2] == hit[:2] and moved[3:] == hit[3:]
        restored = pickle.loads(pickle.dumps(hit))
        assert type(restored) is ResultItem and restored == hit

    def test_frozen_slotted_and_small(self):
        hit = ResultItem("s", 1.0, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            hit.score = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            hit.note = "x"
        assert not hasattr(hit, "__dict__")
        if sys.maxsize > 2**32:
            assert sys.getsizeof(hit) == 104

    def test_as_dict_keeps_the_field_order(self):
        assert list(ResultItem("s", 1.0, 1).as_dict()) == self.FIELDS

    def test_unknown_shot_gets_the_field_defaults(self, small_corpus):
        [hit] = ResultList.from_scores(
            "q", {"ingested": 1.0}, collection=small_corpus.collection
        )
        assert hit == ResultItem("ingested", 1.0, 1)
        assert hit.as_dict()["duration_seconds"] == 0.0


class TestEngine:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(scorer="bogus")
        with pytest.raises(ValueError):
            EngineConfig(text_weight=-1)
        with pytest.raises(ValueError):
            EngineConfig(result_limit=0)

    def test_empty_query_returns_empty_results(self, engine):
        assert len(engine.search(Query())) == 0

    def test_text_search_finds_relevant_material(self, small_corpus, engine):
        topic = small_corpus.topics.topics()[0]
        results = engine.search_text(" ".join(topic.query_terms), topic_id=topic.topic_id)
        assert len(results) > 0
        relevant = small_corpus.qrels.relevant_shots(topic.topic_id)
        top10 = results.shot_ids()[:10]
        assert sum(1 for shot_id in top10 if shot_id in relevant) >= 3

    def test_all_scorers_work(self, small_corpus):
        topic = small_corpus.topics.topics()[1]
        for scorer in ("bm25", "tfidf", "lm"):
            engine = VideoRetrievalEngine(
                small_corpus.collection, config=EngineConfig(scorer=scorer)
            )
            results = engine.search_text(" ".join(topic.query_terms))
            assert len(results) > 0

    def test_query_by_example_prefers_same_story_or_topic(self, small_corpus, engine):
        topic = small_corpus.topics.topics()[0]
        relevant = sorted(small_corpus.qrels.relevant_shots(topic.topic_id))
        probe = relevant[0]
        results = engine.more_like_this(probe, limit=10)
        assert probe not in results.shot_ids()
        hits = sum(1 for shot_id in results.shot_ids() if shot_id in relevant)
        assert hits >= 2

    def test_concept_query(self, analysed_corpus):
        corpus_engine = VideoRetrievalEngine(analysed_corpus.collection)
        results = corpus_engine.search(Query(concept_weights={"stadium": 1.0}))
        assert len(results) > 0
        top_categories = [
            analysed_corpus.collection.shot(item.shot_id).category
            for item in results.top(10)
        ]
        assert "sports" in top_categories

    def test_result_limit_respected(self, engine):
        results = engine.search(Query(text="the news"), limit=5)
        assert len(results) <= 5

    def test_expand_query_adds_terms(self, small_corpus, engine):
        topic = small_corpus.topics.topics()[0]
        relevant = sorted(small_corpus.qrels.relevant_shots(topic.topic_id))[:3]
        query = Query.from_text(topic.query_terms[0])
        expanded = engine.expand_query(query, relevant)
        assert len(expanded.term_weights) > 1

    def test_deterministic_search(self, small_corpus):
        topic = small_corpus.topics.topics()[0]
        engine_a = VideoRetrievalEngine(small_corpus.collection)
        engine_b = VideoRetrievalEngine(small_corpus.collection)
        first = engine_a.search_text(" ".join(topic.query_terms)).shot_ids()
        second = engine_b.search_text(" ".join(topic.query_terms)).shot_ids()
        assert first == second


def _scored(results):
    return [(item.shot_id, item.score.hex()) for item in results]


def _assert_refuses_non_finite_weights(engine):
    """A NaN or infinite term weight raises one line naming term and value
    (it used to rank by ``nan``); a zero weight is still dropped."""
    text, weighted = engine.inverted_index.terms()[:2]
    term = engine.tokenizer.stem_token(weighted)
    for weight in (math.nan, math.inf, -math.inf):
        query = Query(text=text, term_weights={weighted: weight})
        message = f"query term {term!r} has a non-finite weight {weight}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            engine.search(query)
    plain = engine.search(Query(text=text), limit=None)
    zero = engine.search(Query(text=text, term_weights={weighted: 0.0}), limit=None)
    assert len(plain) > 0
    assert _scored(zero) == _scored(plain)


class TestNonFiniteTermWeights:
    @pytest.mark.parametrize("scorer", ("bm25", "tfidf", "lm"))
    def test_engine(self, small_corpus, scorer):
        _assert_refuses_non_finite_weights(
            VideoRetrievalEngine(
                small_corpus.collection,
                config=EngineConfig(scorer=scorer, result_cache_size=0),
            )
        )

    @pytest.mark.parametrize("shards", (1, 4))
    def test_service(self, small_corpus, shards):
        service = RetrievalService.from_corpus(
            small_corpus, config=ServiceConfig(num_shards=shards)
        )
        try:
            _assert_refuses_non_finite_weights(service.engine)
        finally:
            service.close()


class TestExpansion:
    def test_extract_key_terms_prefers_discriminative(self):
        index = InvertedIndex()
        index.add_documents(
            {
                "d1": "goal stadium football unique1 unique1",
                "d2": "goal stadium football unique1",
                "d3": "weather rain cloud",
                "d4": "politics debate vote",
                "d5": "goal crowd",
            }
        )
        terms = extract_key_terms(index, ["d1", "d2"], limit=3)
        assert "unique1" in terms
        assert max(terms.values()) == pytest.approx(1.0)

    def test_extract_key_terms_empty_for_unknown_documents(self, engine):
        assert extract_key_terms(engine.inverted_index, ["nope"]) == {}

    def test_extract_key_terms_weighted_documents(self):
        index = InvertedIndex()
        index.add_documents({"d1": "alpha alpha", "d2": "beta beta", "d3": "gamma"})
        terms = extract_key_terms(
            index, ["d1", "d2"], limit=2, document_weights={"d1": 5.0, "d2": 0.1}
        )
        assert terms["alpha"] > terms.get("beta", 0.0)

    def test_rocchio_moves_towards_relevant(self):
        index = InvertedIndex()
        index.add_documents(
            {
                "rel1": "goal stadium celebration",
                "rel2": "goal stadium crowd",
                "non1": "rain cloud forecast",
            }
        )
        expander = RocchioExpander(index)
        expanded = expander.expand(["football"], ["rel1", "rel2"], ["non1"])
        assert expanded.get("stadium", 0.0) > 0
        assert expanded.get("rain", 0.0) == 0.0  # negative weights are dropped
        assert "football" in expanded

    def test_rocchio_coefficients_validated(self):
        index = InvertedIndex()
        index.add_document("d1", "text")
        with pytest.raises(ValueError):
            RocchioExpander(index, alpha=-0.1)

    def test_rocchio_limits_expansion_terms(self):
        index = InvertedIndex()
        index.add_documents(
            {f"d{i}": " ".join(f"term{i}_{j}" for j in range(30)) for i in range(3)}
        )
        expander = RocchioExpander(index, expansion_terms=5)
        expanded = expander.expand(["query"], ["d0", "d1", "d2"])
        # original query term may remain plus at most 5 expansion terms
        assert len([t for t in expanded if t != "query"]) <= 5


class TestReranking:
    def test_rerank_with_scores_promotes_evidence(self, small_corpus):
        results = ResultList.from_scores(
            "q", {"a": 1.0, "b": 0.9, "c": 0.8}
        )
        reranked = rerank_with_scores(results, {"c": 5.0}, weight=0.9)
        assert reranked.shot_ids()[0] == "c"

    def test_rerank_weight_zero_preserves_order(self):
        results = ResultList.from_scores("q", {"a": 1.0, "b": 0.5})
        reranked = rerank_with_scores(results, {"b": 100.0}, weight=0.0)
        assert reranked.shot_ids() == ["a", "b"]

    def test_story_scores_aggregations(self, small_corpus):
        collection = small_corpus.collection
        story = collection.stories()[0]
        shot_ids = story.shot_ids[:2]
        shot_scores = {shot_ids[0]: 1.0, shot_ids[1]: 3.0}
        assert story_scores_from_shots(shot_scores, collection, "max")[story.story_id] == 3.0
        assert story_scores_from_shots(shot_scores, collection, "sum")[story.story_id] == 4.0
        assert story_scores_from_shots(shot_scores, collection, "mean")[story.story_id] == 2.0
        with pytest.raises(ValueError):
            story_scores_from_shots(shot_scores, collection, "median")

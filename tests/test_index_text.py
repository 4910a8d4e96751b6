"""Tests for tokenisation, the inverted index and text scoring functions."""

from __future__ import annotations

import math

import pytest

from repro.index import (
    Bm25Scorer,
    DirichletLanguageModelScorer,
    InvertedIndex,
    JelinekMercerLanguageModelScorer,
    TfIdfScorer,
    Tokenizer,
    normalise_query,
)


@pytest.fixture()
def tiny_index() -> InvertedIndex:
    index = InvertedIndex()
    index.add_documents(
        {
            "d1": "football match stadium goal goal",
            "d2": "football politics debate parliament",
            "d3": "weather rain cloud forecast",
            "d4": "stadium crowd goal celebration football",
        }
    )
    return index


class TestTokenizer:
    def test_lowercase_and_split(self):
        assert Tokenizer(stem=False).tokenize("Hello World") == ["hello", "world"]

    def test_removes_stopwords(self):
        tokens = Tokenizer().tokenize("the match and the goal")
        assert "the" not in tokens
        assert "and" not in tokens

    def test_stopwords_can_be_kept(self):
        tokens = Tokenizer(remove_stopwords=False, stem=False).tokenize("the match")
        assert tokens == ["the", "match"]

    def test_min_length_filter(self):
        assert Tokenizer(min_token_length=3).tokenize("go ab abc") == ["abc"]

    def test_light_stemming(self):
        tokenizer = Tokenizer()
        assert tokenizer.stem_token("matches") == "match"
        assert tokenizer.stem_token("running") == "runn"
        assert tokenizer.stem_token("goals") == "goal"
        # Short words are not stemmed into nothing.
        assert tokenizer.stem_token("as") == "as"

    def test_term_frequencies(self):
        frequencies = Tokenizer(stem=False).term_frequencies("goal goal match")
        assert frequencies == {"goal": 2, "match": 1}

    def test_empty_text(self):
        assert Tokenizer().tokenize("") == []
        assert Tokenizer().term_frequencies("") == {}

    def test_punctuation_and_digits(self):
        tokens = Tokenizer(stem=False).tokenize("match-day: 2008, goal!")
        assert "2008" in tokens
        assert "match" in tokens


class TestInvertedIndex:
    def test_statistics(self, tiny_index):
        assert tiny_index.document_count == 4
        assert tiny_index.vocabulary_size > 5
        assert tiny_index.total_terms == sum(
            tiny_index.document_length(d) for d in tiny_index.document_ids()
        )
        assert tiny_index.average_document_length == pytest.approx(
            tiny_index.total_terms / 4
        )

    def test_document_frequency_and_postings(self, tiny_index):
        assert tiny_index.document_frequency("football") == 3
        postings = tiny_index.postings("goal")
        assert {p.document_id for p in postings} == {"d1", "d4"}

    def test_collection_frequency(self, tiny_index):
        assert tiny_index.collection_frequency("goal") == 3

    def test_term_frequency_lookup(self, tiny_index):
        assert tiny_index.term_frequency("goal", "d1") == 2
        assert tiny_index.term_frequency("goal", "d3") == 0

    def test_duplicate_document_rejected(self, tiny_index):
        with pytest.raises(ValueError):
            tiny_index.add_document("d1", "again")

    def test_contains_and_has_document(self, tiny_index):
        assert "football" in tiny_index
        assert "zebra" not in tiny_index
        assert tiny_index.has_document("d2")
        assert not tiny_index.has_document("d99")

    def test_from_collection(self, small_corpus):
        index = InvertedIndex.from_collection(small_corpus.collection)
        assert index.document_count == small_corpus.collection.shot_count

    def test_document_vector_is_copy(self, tiny_index):
        vector = tiny_index.document_vector("d1")
        vector["goal"] = 999
        assert tiny_index.term_frequency("goal", "d1") == 2


class TestNormaliseQuery:
    def test_sequence_counts_repeats(self):
        assert normalise_query(["a", "b", "a"]) == {"a": 2.0, "b": 1.0}

    def test_mapping_passthrough_drops_zeros(self):
        assert normalise_query({"a": 0.5, "b": 0.0}) == {"a": 0.5}

    @pytest.mark.parametrize("weight", (math.nan, math.inf, -math.inf))
    def test_non_finite_weight_raises_naming_term_and_value(self, weight):
        with pytest.raises(ValueError) as raised:
            normalise_query({"a": 1.0, "b": weight, "c": 0.0})
        assert str(raised.value) == f"query term 'b' has a non-finite weight {weight}"


class TestScorers:
    def test_bm25_ranks_matching_documents(self, tiny_index):
        scores = Bm25Scorer(tiny_index).score(["goal", "stadium"])
        assert set(scores) == {"d1", "d4"}
        assert scores["d4"] > 0 and scores["d1"] > 0

    def test_bm25_prefers_more_matching_terms(self, tiny_index):
        scores = Bm25Scorer(tiny_index).score(["stadium", "crowd", "celebration"])
        assert scores["d4"] > scores["d1"]

    def test_bm25_unknown_term_ignored(self, tiny_index):
        assert Bm25Scorer(tiny_index).score(["qqqqq"]) == {}

    def test_bm25_parameter_validation(self, tiny_index):
        with pytest.raises(ValueError):
            Bm25Scorer(tiny_index, k1=-1)
        with pytest.raises(ValueError):
            Bm25Scorer(tiny_index, b=2.0)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda index: Bm25Scorer(index, k1=math.nan), "k1 must be non-negative and finite"),
            (lambda index: Bm25Scorer(index, k1=math.inf), "k1 must be non-negative and finite"),
            (lambda index: Bm25Scorer(index, b=math.nan), "b must be non-negative and finite"),
            (lambda index: Bm25Scorer(index, k1="1.2"), "k1 must be a real number"),
            (
                lambda index: DirichletLanguageModelScorer(index, mu=math.inf),
                "mu must be positive and finite",
            ),
            (
                lambda index: DirichletLanguageModelScorer(index, mu=math.nan),
                "mu must be positive and finite",
            ),
        ],
        ids=["bm25-k1-nan", "bm25-k1-inf", "bm25-b-nan", "bm25-k1-str", "lm-mu-inf", "lm-mu-nan"],
    )
    def test_non_finite_parameters_are_refused(self, tiny_index, build, message):
        # Each of these would rank every document by nan.
        with pytest.raises(ValueError, match=message):
            build(tiny_index)

    def test_bm25_weighted_query_terms(self, tiny_index):
        plain = Bm25Scorer(tiny_index).score({"goal": 1.0, "weather": 1.0})
        boosted = Bm25Scorer(tiny_index).score({"goal": 0.1, "weather": 5.0})
        assert plain["d1"] > plain["d3"] or plain["d1"] > 0
        assert boosted["d3"] > boosted["d1"]

    def test_tfidf_scores_positive_and_rank_sensible(self, tiny_index):
        scores = TfIdfScorer(tiny_index).score(["goal"])
        assert scores["d1"] > scores["d4"]  # d1 has goal twice and is shorter

    def test_dirichlet_lm_ranks_relevant_higher(self, tiny_index):
        scores = DirichletLanguageModelScorer(tiny_index, mu=100).score(["goal", "football"])
        assert scores["d1"] > scores["d3"] if "d3" in scores else True
        assert max(scores, key=scores.get) in {"d1", "d4"}

    def test_dirichlet_mu_validation(self, tiny_index):
        with pytest.raises(ValueError):
            DirichletLanguageModelScorer(tiny_index, mu=0)

    def test_jelinek_mercer_validation(self, tiny_index):
        with pytest.raises(ValueError):
            JelinekMercerLanguageModelScorer(tiny_index, lambda_=0.0)

    def test_jelinek_mercer_scores(self, tiny_index):
        scores = JelinekMercerLanguageModelScorer(tiny_index).score(["goal"])
        assert set(scores) == {"d1", "d4"}

    def test_score_document_helper(self, tiny_index):
        scorer = Bm25Scorer(tiny_index)
        assert scorer.score_document(["goal"], "d1") > 0
        assert scorer.score_document(["goal"], "d3") == 0.0

    def test_scorers_agree_on_obvious_case(self, small_corpus):
        """All three scorers should put relevant shots above average for a
        query built from a topic's own discriminative terms."""
        index = InvertedIndex.from_collection(small_corpus.collection)
        topic = small_corpus.topics.topics()[0]
        relevant = small_corpus.qrels.relevant_shots(topic.topic_id)
        for scorer in (Bm25Scorer(index), TfIdfScorer(index),
                       DirichletLanguageModelScorer(index)):
            scores = scorer.score(topic.query_terms)
            if not scores:
                continue
            ranked = sorted(scores.items(), key=lambda item: -item[1])
            top_ids = [doc_id for doc_id, _ in ranked[:10]]
            hits = sum(1 for doc_id in top_ids if doc_id in relevant)
            assert hits >= 3

"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collection.qrels import Qrels
from repro.evaluation.metrics import (
    average_precision,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
)
from repro.index.fusion import (
    comb_sum,
    interpolate,
    min_max_normalise,
    reciprocal_rank_fusion,
    top_documents,
)
from repro.index.inverted_index import InvertedIndex
from repro.index.scoring import Bm25Scorer, TfIdfScorer
from repro.index.tokenizer import Tokenizer
from repro.utils.rng import RandomSource, derive_seed

# -- strategies -------------------------------------------------------------------

doc_ids = st.text(alphabet="abcdefgh", min_size=1, max_size=4)
score_maps = st.dictionaries(doc_ids, st.floats(min_value=-100, max_value=100,
                                                allow_nan=False), min_size=1, max_size=8)
rankings = st.lists(doc_ids, min_size=0, max_size=10, unique=True)
relevant_sets = st.sets(doc_ids, max_size=6)
words = st.text(alphabet="abcdefghijklmnop", min_size=1, max_size=8)
documents = st.dictionaries(
    st.text(alphabet="xyz0123456789", min_size=1, max_size=5),
    st.lists(words, min_size=1, max_size=20).map(" ".join),
    min_size=1,
    max_size=8,
)


class TestRngProperties:
    @given(st.integers(min_value=0, max_value=2**32), st.text(max_size=10))
    @settings(max_examples=50)
    def test_derive_seed_in_range(self, seed, label):
        value = derive_seed(seed, label)
        assert 0 <= value < 2 ** 63

    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=50))
    @settings(max_examples=30)
    def test_zipf_index_always_in_range(self, seed, n):
        rng = RandomSource(seed)
        assert 0 <= rng.zipf_index(n) < n


class TestFusionProperties:
    @given(score_maps)
    @settings(max_examples=60)
    def test_min_max_normalise_bounds(self, scores):
        normalised = min_max_normalise(scores)
        assert set(normalised) == set(scores)
        assert all(0.0 <= value <= 1.0 for value in normalised.values())

    @given(st.lists(score_maps, min_size=1, max_size=4))
    @settings(max_examples=50)
    def test_comb_sum_covers_union(self, maps):
        fused = comb_sum(maps)
        union = set()
        for scores in maps:
            union |= set(scores)
        assert set(fused) == union
        assert all(0.0 <= value <= len(maps) for value in fused.values())

    @given(score_maps, score_maps, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60)
    def test_interpolate_bounds_and_union(self, primary, secondary, weight):
        combined = interpolate(primary, secondary, weight)
        assert set(combined) == set(primary) | set(secondary)
        assert all(-1e-9 <= value <= 1.0 + 1e-9 for value in combined.values())

    @given(st.lists(score_maps, min_size=1, max_size=3))
    @settings(max_examples=40)
    def test_rrf_positive_scores(self, maps):
        fused = reciprocal_rank_fusion(maps)
        assert all(value > 0 for value in fused.values())

    @given(score_maps, st.integers(min_value=1, max_value=5))
    @settings(max_examples=40)
    def test_top_documents_sorted_by_score(self, scores, limit):
        top = top_documents(scores, limit)
        assert len(top) <= limit
        values = [scores[doc_id] for doc_id in top]
        assert values == sorted(values, reverse=True)


class TestMetricProperties:
    @given(rankings, relevant_sets, st.integers(min_value=1, max_value=10))
    @settings(max_examples=80)
    def test_precision_recall_bounds(self, ranking, relevant, k):
        assert 0.0 <= precision_at_k(ranking, relevant, k) <= 1.0
        assert 0.0 <= recall_at_k(ranking, relevant, k) <= 1.0

    @given(rankings, relevant_sets)
    @settings(max_examples=80)
    def test_average_precision_bounds(self, ranking, relevant):
        assert 0.0 <= average_precision(ranking, relevant) <= 1.0

    @given(rankings, relevant_sets, st.integers(min_value=1, max_value=10))
    @settings(max_examples=80)
    def test_ndcg_bounds(self, ranking, relevant, k):
        assert 0.0 <= ndcg_at_k(ranking, relevant, k) <= 1.0 + 1e-9

    @given(st.lists(doc_ids, min_size=1, max_size=8, unique=True))
    @settings(max_examples=40)
    def test_perfect_ranking_has_perfect_ap(self, relevant_docs):
        assert average_precision(relevant_docs, set(relevant_docs)) == 1.0

    @given(rankings, relevant_sets)
    @settings(max_examples=60)
    def test_ap_invariant_to_appending_non_relevant(self, ranking, relevant):
        """Appending non-relevant documents after the ranking never changes AP."""
        extended = ranking + [f"pad{i}" for i in range(3)]
        assert average_precision(extended, relevant) == average_precision(ranking, relevant)


class TestQrelsProperties:
    @given(st.lists(st.tuples(st.sampled_from(["T1", "T2", "T3"]), doc_ids,
                              st.integers(min_value=0, max_value=3)),
                    max_size=30))
    @settings(max_examples=60)
    def test_grade_is_max_of_inserted(self, triples):
        qrels = Qrels.from_triples(triples)
        for topic_id, shot_id, grade in triples:
            assert qrels.grade(topic_id, shot_id) >= grade

    @given(st.lists(st.tuples(st.sampled_from(["T1", "T2"]), doc_ids,
                              st.integers(min_value=0, max_value=3)),
                    max_size=20))
    @settings(max_examples=40)
    def test_trec_round_trip(self, triples):
        import tempfile
        from pathlib import Path

        qrels = Qrels.from_triples(triples)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "q.txt"
            qrels.save(path)
            assert list(Qrels.load(path).items()) == list(qrels.items())


class TestIndexProperties:
    @given(documents)
    @settings(max_examples=40, deadline=None)
    def test_index_statistics_consistent(self, docs):
        index = InvertedIndex(tokenizer=Tokenizer(remove_stopwords=False, stem=False))
        index.add_documents(docs)
        assert index.document_count == len(docs)
        assert index.total_terms == sum(
            index.document_length(doc_id) for doc_id in index.document_ids()
        )
        for term in index.terms():
            assert 1 <= index.document_frequency(term) <= index.document_count
            assert index.collection_frequency(term) >= index.document_frequency(term)

    @given(documents, st.lists(words, min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_scorers_return_finite_non_negative_scores(self, docs, query):
        index = InvertedIndex(tokenizer=Tokenizer(remove_stopwords=False, stem=False))
        index.add_documents(docs)
        for scorer in (Bm25Scorer(index), TfIdfScorer(index)):
            scores = scorer.score(query)
            for doc_id, value in scores.items():
                assert index.has_document(doc_id)
                assert math.isfinite(value)
                assert value >= 0

    @given(documents, st.lists(words, min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_bm25_only_scores_matching_documents(self, docs, query):
        tokenizer = Tokenizer(remove_stopwords=False, stem=False)
        index = InvertedIndex(tokenizer=tokenizer)
        index.add_documents(docs)
        scores = Bm25Scorer(index).score(query)
        query_terms = set(query)
        for doc_id in scores:
            document_terms = set(index.document_vector(doc_id))
            assert document_terms & query_terms

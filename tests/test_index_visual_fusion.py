"""Tests for the visual index and fusion operators."""

from __future__ import annotations

import pytest

from repro.index import (
    VisualIndex,
    comb_mnz,
    comb_sum,
    interpolate,
    min_max_normalise,
    reciprocal_rank_fusion,
    top_documents,
    weighted_fusion,
)


@pytest.fixture()
def tiny_visual() -> VisualIndex:
    index = VisualIndex()
    index.add_shot("s1", [1.0, 0.0, 0.0], {"person": 0.9, "outdoor": 0.1})
    index.add_shot("s2", [0.9, 0.1, 0.0], {"person": 0.8, "outdoor": 0.3})
    index.add_shot("s3", [0.0, 1.0, 0.0], {"person": 0.1, "outdoor": 0.9})
    return index


class TestVisualIndex:
    def test_similar_to_shot_excludes_self(self, tiny_visual):
        results = tiny_visual.similar_to_shot("s1", limit=5)
        assert all(shot_id != "s1" for shot_id, _ in results)

    def test_similar_ordering(self, tiny_visual):
        results = tiny_visual.similar_to_shot("s1", limit=2)
        assert results[0][0] == "s2"

    def test_similar_to_vector(self, tiny_visual):
        results = tiny_visual.similar_to_vector([0.0, 0.9, 0.1], limit=1)
        assert results[0][0] == "s3"

    def test_unknown_shot_raises(self, tiny_visual):
        with pytest.raises(KeyError):
            tiny_visual.similar_to_shot("missing")

    def test_duplicate_rejected(self, tiny_visual):
        with pytest.raises(ValueError):
            tiny_visual.add_shot("s1", [0.0])

    def test_score_by_concepts(self, tiny_visual):
        scores = tiny_visual.score_by_concepts({"person": 1.0})
        assert scores["s1"] > scores["s3"]

    def test_concept_scores_copy(self, tiny_visual):
        scores = tiny_visual.concept_scores_of("s1")
        scores["person"] = 0.0
        assert tiny_visual.concept_scores_of("s1")["person"] == 0.9

    def test_from_collection_uses_precomputed_features(self, analysed_corpus):
        index = VisualIndex.from_collection(analysed_corpus.collection)
        shot = analysed_corpus.collection.shots()[0]
        assert index.features_of(shot.shot_id) == tuple(shot.features)
        assert index.shot_count == analysed_corpus.collection.shot_count

    def test_similarity_symmetric(self, tiny_visual):
        assert tiny_visual.similarity("s1", "s2") == pytest.approx(
            tiny_visual.similarity("s2", "s1")
        )


class TestFusion:
    def test_min_max_normalise(self):
        normalised = min_max_normalise({"a": 2.0, "b": 4.0, "c": 6.0})
        assert normalised == {"a": 0.0, "b": 0.5, "c": 1.0}

    def test_min_max_constant_input(self):
        assert min_max_normalise({"a": 3.0, "b": 3.0}) == {"a": 1.0, "b": 1.0}

    def test_min_max_empty(self):
        assert min_max_normalise({}) == {}

    def test_comb_sum(self):
        fused = comb_sum([{"a": 1.0, "b": 0.0}, {"a": 10.0, "c": 20.0}])
        # First source: a=1.0, b=0.0 after normalisation; second: a=0.0, c=1.0.
        assert fused["a"] == pytest.approx(1.0)
        assert fused["b"] == pytest.approx(0.0)
        assert fused["c"] == pytest.approx(1.0)

    def test_comb_mnz_rewards_agreement(self):
        fused = comb_mnz([{"a": 1.0, "b": 0.5}, {"a": 1.0, "c": 1.0}])
        assert fused["a"] > fused["c"]

    def test_weighted_fusion_weights_matter(self):
        text = {"a": 1.0, "b": 0.0}
        visual = {"b": 1.0, "a": 0.0}
        favour_text = weighted_fusion([text, visual], [0.9, 0.1])
        favour_visual = weighted_fusion([text, visual], [0.1, 0.9])
        assert favour_text["a"] > favour_text["b"]
        assert favour_visual["b"] > favour_visual["a"]

    def test_weighted_fusion_validation(self):
        with pytest.raises(ValueError):
            weighted_fusion([{"a": 1.0}], [0.5, 0.5])
        with pytest.raises(ValueError):
            weighted_fusion([{"a": 1.0}], [-1.0])
        with pytest.raises(ValueError):
            weighted_fusion([], [])

    def test_reciprocal_rank_fusion(self):
        fused = reciprocal_rank_fusion([{"a": 5.0, "b": 1.0}, {"a": 2.0, "b": 9.0}])
        assert fused["a"] == pytest.approx(fused["b"])
        with pytest.raises(ValueError):
            reciprocal_rank_fusion([{"a": 1.0}], k=0)

    def test_interpolate_extremes(self):
        primary = {"a": 1.0, "b": 0.0}
        secondary = {"b": 1.0, "a": 0.0}
        assert interpolate(primary, secondary, 0.0)["a"] == pytest.approx(1.0)
        assert interpolate(primary, secondary, 1.0)["b"] == pytest.approx(1.0)
        with pytest.raises(ValueError):
            interpolate(primary, secondary, 1.5)

    def test_interpolate_keeps_union_of_documents(self):
        combined = interpolate({"a": 1.0}, {"b": 1.0}, 0.5)
        assert set(combined) == {"a", "b"}

    def test_top_documents_deterministic_ties(self):
        scores = {"b": 1.0, "a": 1.0, "c": 0.5}
        assert top_documents(scores, 2) == ["a", "b"]

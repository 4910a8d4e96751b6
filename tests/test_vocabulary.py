"""Tests for the synthetic vocabulary and category language models."""

from __future__ import annotations

import time

import pytest

from repro.collection import vocabulary as vocabulary_module
from repro.collection.vocabulary import (
    DEFAULT_CATEGORIES,
    STOPWORDS,
    CategoryLanguageModel,
    build_vocabulary,
    generate_term_set,
)
from repro.utils.rng import RandomSource


@pytest.fixture(scope="module")
def vocabulary():
    return build_vocabulary(
        RandomSource(5).spawn("vocab"), terms_per_category=40, background_terms=100
    )


class TestGenerateTermSet:
    def test_size_and_uniqueness(self):
        terms = generate_term_set(RandomSource(1).spawn("t"), 50)
        assert len(terms) == 50
        assert len(set(terms)) == 50

    def test_excludes_stopwords(self):
        terms = generate_term_set(RandomSource(1).spawn("t"), 200)
        assert not set(terms) & set(STOPWORDS)

    def test_deterministic(self):
        first = generate_term_set(RandomSource(9).spawn("x"), 30)
        second = generate_term_set(RandomSource(9).spawn("x"), 30)
        assert first == second

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            generate_term_set(RandomSource(1), 0)


class TestCategoryLanguageModel:
    def test_probabilities_normalised(self):
        model = CategoryLanguageModel(category="c", terms=["a", "b", "c"])
        assert sum(model.probabilities) == pytest.approx(1.0)

    def test_zipf_shape(self):
        model = CategoryLanguageModel(category="c", terms=["a", "b", "c"])
        assert model.probabilities[0] > model.probabilities[1] > model.probabilities[2]

    def test_sample_only_known_terms(self):
        model = CategoryLanguageModel(category="c", terms=["a", "b", "c"])
        samples = model.sample(RandomSource(2).spawn("s"), 100)
        assert set(samples) <= {"a", "b", "c"}

    def test_sample_zero_count(self):
        model = CategoryLanguageModel(category="c", terms=["a"])
        assert model.sample(RandomSource(2), 0) == []

    def test_probability_lookup(self):
        model = CategoryLanguageModel(category="c", terms=["a", "b"])
        assert model.probability("a") > model.probability("b")
        assert model.probability("zzz") == 0.0

    def test_empty_terms_rejected(self):
        with pytest.raises(ValueError):
            CategoryLanguageModel(category="c", terms=[])

    def test_misaligned_probabilities_rejected(self):
        with pytest.raises(ValueError):
            CategoryLanguageModel(category="c", terms=["a", "b"], probabilities=[1.0])

    @pytest.mark.parametrize(
        "probabilities",
        [[0.0, 0.0], [0.5, -0.5], [1.0, float("inf")], [1.0, float("nan")]],
    )
    def test_degenerate_total_rejected(self, probabilities):
        """The refusal ``random.choices`` made at first sample, made at build."""
        with pytest.raises(ValueError, match="positive finite total"):
            CategoryLanguageModel(
                category="c", terms=["a", "b"], probabilities=probabilities
            )


class TestBuildVocabulary:
    def test_all_default_categories_present(self, vocabulary):
        assert set(vocabulary.category_names) == set(DEFAULT_CATEGORIES)

    def test_category_terms_disjoint_from_background(self, vocabulary):
        background = set(vocabulary.background.terms)
        for name in vocabulary.category_names:
            assert not set(vocabulary.categories[name].terms) & background

    def test_category_terms_disjoint_across_categories(self, vocabulary):
        names = vocabulary.category_names
        for i, first in enumerate(names):
            for second in names[i + 1 :]:
                overlap = set(vocabulary.categories[first].terms) & set(
                    vocabulary.categories[second].terms
                )
                assert not overlap

    def test_stopwords_in_background(self, vocabulary):
        assert set(STOPWORDS) <= set(vocabulary.background.terms)

    def test_unknown_category_raises(self, vocabulary):
        with pytest.raises(KeyError):
            vocabulary.model_for("astrology")

    def test_deterministic_given_seed(self):
        first = build_vocabulary(RandomSource(8).spawn("v"), terms_per_category=10,
                                 background_terms=20)
        second = build_vocabulary(RandomSource(8).spawn("v"), terms_per_category=10,
                                  background_terms=20)
        assert first.background.terms == second.background.terms
        assert first.categories["sports"].terms == second.categories["sports"].terms

    def test_sample_mixture_weights_validated(self, vocabulary):
        rng = RandomSource(3).spawn("m")
        with pytest.raises(ValueError):
            vocabulary.sample_mixture(rng, "sports", 10, category_weight=0.8,
                                      extra_terms=["x"], extra_weight=0.4)

    def test_sample_mixture_uses_topic_terms(self, vocabulary):
        rng = RandomSource(3).spawn("m")
        words = vocabulary.sample_mixture(
            rng, "sports", 400, category_weight=0.2,
            extra_terms=["specialterm"], extra_weight=0.5,
        )
        assert "specialterm" in words

    def test_exhausted_category_draws_raise_instead_of_spinning(self, monkeypatch):
        # Every draw repeats the background's terms, so no category can get
        # a term of its own: the bounded loop gives up in one line.
        real = vocabulary_module.generate_term_set
        first_draw = []

        def repeating(rng, size):
            if not first_draw:
                first_draw.extend(real(rng, size))
            return first_draw[:size]

        monkeypatch.setattr(vocabulary_module, "generate_term_set", repeating)
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="no other category uses"):
            build_vocabulary(
                RandomSource(3).spawn("v"), categories=("sports",),
                terms_per_category=5, background_terms=20,
            )
        assert time.monotonic() - started < 5.0

    def test_all_terms_contains_everything(self, vocabulary):
        all_terms = set(vocabulary.all_terms())
        assert set(vocabulary.background.terms) <= all_terms
        assert set(vocabulary.categories["politics"].terms) <= all_terms

"""Corpus generation is byte-identical to its original sampling code.

``CategoryLanguageModel`` draws from a cumulative table built once instead
of calling ``random.choices(weights=...)``, which rebuilds that table on
every call, and ``FeatureExtractor`` dots with ``map(operator.mul, ...)``
instead of a generator expression.  These tests hold the fast paths to
test-held copies of the original code, with exact equality and the same
random-number consumption, and pin the bytes of two generated corpora.
"""

from __future__ import annotations

import hashlib
import math
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.analysis.features import FeatureConfig, FeatureExtractor
from repro.collection import CollectionConfig, generate_corpus
from repro.collection.documents import Keyframe
from repro.collection.vocabulary import (
    DEFAULT_CATEGORIES,
    CategoryLanguageModel,
    build_vocabulary,
)
from repro.utils.rng import RandomSource

VOCABULARY = build_vocabulary(RandomSource(3).spawn("vocabulary"))


# -- the original code, held by the test ------------------------------------------


def reference_sample(model, rng, count):
    if count <= 0:
        return []
    return rng.choices(model.terms, weights=model.probabilities, k=count)


def reference_mixture(vocabulary, rng, category, count, category_weight,
                      extra_terms, extra_weight):
    model = vocabulary.model_for(category)
    words = []
    for _ in range(max(count, 0)):
        draw = rng.random()
        if extra_terms and draw < extra_weight:
            words.append(rng.choice(list(extra_terms)))
        elif draw < extra_weight + category_weight:
            words.extend(reference_sample(model, rng, 1))
        else:
            words.extend(reference_sample(vocabulary.background, rng, 1))
    return words


def reference_extract(config, seed, keyframe):
    def projection(family, bins, input_dim):
        rng = RandomSource(seed).spawn("projection", family, bins, input_dim)
        return [
            tuple(rng.gauss(0.0, 1.0 / math.sqrt(input_dim)) for _ in range(input_dim))
            for _ in range(bins)
        ]

    def histogram(family, bins, signal, noise_rng):
        raw = []
        for row in projection(family, bins, len(signal)):
            value = sum(weight * component for weight, component in zip(row, signal))
            value = 1.0 / (1.0 + math.exp(-value))
            if config.noise_sigma > 0:
                value += noise_rng.gauss(0.0, config.noise_sigma)
            raw.append(max(0.0, value))
        total = sum(raw)
        if total <= 0:
            return [1.0 / bins] * bins
        return [value / total for value in raw]

    noise_rng = RandomSource(seed).spawn("noise", keyframe.keyframe_id)
    signal = keyframe.latent_signal
    return tuple(
        histogram("colour", config.colour_bins, signal, noise_rng)
        + histogram("edge", config.edge_bins, signal, noise_rng)
        + histogram("texture", config.texture_bins, signal, noise_rng)
    )


# -- (a) sampling ------------------------------------------------------------------


def _twin_sources(seed):
    return RandomSource(seed).spawn("fast"), RandomSource(seed).spawn("fast")


class TestSamplingMatchesChoices:
    @given(
        seed=st.integers(0, 2**63 - 1),
        category=st.sampled_from(DEFAULT_CATEGORIES + ("__background__",)),
        count=st.integers(-2, 200),
    )
    @settings(max_examples=200, deadline=None)
    def test_sample(self, seed, category, count):
        model = (
            VOCABULARY.background
            if category == "__background__"
            else VOCABULARY.model_for(category)
        )
        fast, reference = _twin_sources(seed)
        assert model.sample(fast, count) == reference_sample(model, reference, count)
        assert fast.random() == reference.random()

    @given(
        seed=st.integers(0, 2**63 - 1),
        weights=st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e6)),
            min_size=1,
            max_size=40,
        ),
        count=st.integers(0, 60),
    )
    # Subnormal weights make ``random() * total`` land exactly on table
    # entries, the only draws where ``bisect_left`` or an unclamped ``hi``
    # would pick another term (or run off the end).
    @example(seed=0, weights=[0.0, 5e-324, 5e-324, 0.0], count=32)
    @settings(max_examples=200, deadline=None)
    def test_sample_arbitrary_weights(self, seed, weights, count):
        """Zero weights anywhere, including the tail ``bisect``'s ``hi`` clamps."""
        assume(sum(weights) > 0)
        model = CategoryLanguageModel(
            category="c",
            terms=[f"t{index}" for index in range(len(weights))],
            probabilities=weights,
        )
        fast, reference = _twin_sources(seed)
        assert model.sample(fast, count) == reference_sample(model, reference, count)
        assert fast.random() == reference.random()

    @given(
        seed=st.integers(0, 2**63 - 1),
        category=st.sampled_from(DEFAULT_CATEGORIES),
        count=st.integers(-1, 120),
        topic_terms=st.lists(
            st.sampled_from(VOCABULARY.all_terms()), max_size=8
        ).map(tuple),
        category_weight=st.floats(min_value=0.0, max_value=1.0),
        extra_weight=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_sample_mixture(self, seed, category, count, topic_terms,
                            category_weight, extra_weight):
        assume(category_weight + extra_weight <= 1.0)
        fast, reference = _twin_sources(seed)
        assert VOCABULARY.sample_mixture(
            fast, category, count, category_weight, topic_terms, extra_weight
        ) == reference_mixture(
            VOCABULARY, reference, category, count, category_weight,
            topic_terms, extra_weight,
        )
        assert fast.random() == reference.random()


# -- (b) features ------------------------------------------------------------------


class TestExtractMatchesGenexpr:
    @given(
        seed=st.integers(0, 2**31),
        keyframe_id=st.text(max_size=12),
        signal=st.lists(
            st.floats(min_value=-8.0, max_value=8.0), min_size=1, max_size=24
        ).map(tuple),
        noise_sigma=st.sampled_from([0.0, 0.05, 0.5]),
        bins=st.tuples(st.integers(1, 16), st.integers(1, 8), st.integers(1, 8)),
    )
    @settings(max_examples=150, deadline=None)
    def test_extract(self, seed, keyframe_id, signal, noise_sigma, bins):
        config = FeatureConfig(*bins, noise_sigma=noise_sigma)
        keyframe = Keyframe(keyframe_id=keyframe_id, shot_id="s", latent_signal=signal)
        extractor = FeatureExtractor(config, seed=seed)
        expected = reference_extract(config, seed, keyframe)
        assert extractor.extract(keyframe) == expected
        # A second extraction (warm projection cache) reads the same.
        assert extractor.extract(keyframe) == expected


# -- (c) pinned corpus bytes -------------------------------------------------------

#: ``benchmarks/e2e/workloads.py``'s ``CORPUS_CONFIG`` at ``CORPUS_SEED``.
E21_SEED = 2008
E21_CONFIG = CollectionConfig(days=60, stories_per_day=12, topic_count=24)

#: Digests of the corpora as the original sampling code generated them.
#: Builtin ``sum`` adds floats with compensation from CPython 3.12 on, so
#: the same seed gives other feature and vocabulary bytes there: one
#: literal per interpreter line.
#: Recorded on CPython 3.9.18 and 3.11.7 (equal) and 3.12.1 and 3.13.0
#: (equal).
PINNED = {
    "e21": {
        "<3.12": "ad27d95204d59a5ccf6cc1ec7cbd342b0fa8703674aebc71fea4d95f955405f4",
        ">=3.12": "390ccf343f9b43c908b06c8bddb8ac4c102c8231a7130b975374f2d534efad99",
    },
    "small": {
        "<3.12": "823b1f54deae4e9ab00c185e9c2cfed0136a6dfddeb743dc2635ac634ac94f65",
        ">=3.12": "e2ca706800fc6a902293c864684743d89f9e63a97546c78c68f0353aaf270d45",
    },
}


def corpus_digest(corpus) -> str:
    """sha256 over every shot's generated fields and extracted features."""
    extractor = FeatureExtractor()
    digest = hashlib.sha256()
    for shot in corpus.collection.iter_shots():
        record = (
            shot.shot_id,
            shot.transcript,
            shot.keyframe.latent_signal,
            shot.concepts,
            sorted(shot.topic_relevance.items()),
            shot.start_seconds,
            shot.end_seconds,
            extractor.extract(shot.keyframe),
        )
        digest.update(repr(record).encode("utf-8"))
    return digest.hexdigest()


@pytest.mark.parametrize(
    "name, seed, config",
    [("e21", E21_SEED, E21_CONFIG), ("small", 13, CollectionConfig.small())],
)
def test_corpus_bytes_pinned(name, seed, config):
    line = ">=3.12" if sys.version_info >= (3, 12) else "<3.12"
    assert corpus_digest(generate_corpus(seed=seed, config=config)) == PINNED[name][line]

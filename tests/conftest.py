"""Shared fixtures: a small synthetic corpus and the engines built on it.

The corpus fixtures are session-scoped because generation and indexing are
the slowest steps; tests must treat them as read-only (mutating tests build
their own corpus).

The module also hosts the seeded randomized (property-style) generators
shared by the engine-equivalence and concurrency suites:
:func:`random_queries` draws multimodal queries from a corpus's own
vocabulary / shots / concepts, and :func:`random_documents` fabricates
transcript documents for interleaved-write tests.  Both are pure functions
of ``(corpus, seed)`` through labelled RNG streams, so failures replay
exactly from the seed printed in the test id.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.analysis import analyse_collection
from repro.collection import CollectionConfig, SyntheticCorpus, generate_corpus
from repro.core import AdaptiveVideoRetrievalSystem
from repro.retrieval import Query, VideoRetrievalEngine
from repro.utils.rng import RandomSource


def random_queries(
    corpus: SyntheticCorpus,
    seed: int,
    count: int,
    include_visual: bool = True,
) -> List[Query]:
    """Seeded multimodal queries sampled from the corpus itself.

    Roughly half the queries are plain keyword searches; the rest mix in
    weighted terms, example shots (query-by-example) and concept weights,
    so a differential run sweeps every fusion mode the engine supports.
    Deterministic per ``(corpus, seed)``: each query draws from its own
    labelled RNG substream.
    """
    root = RandomSource(seed).spawn("random-queries")
    shots = list(corpus.collection.iter_shots())
    words = sorted(
        {
            word
            for shot in shots
            for word in shot.transcript.lower().split()
            if len(word) > 3
        }
    )
    concepts = sorted(
        {concept for shot in shots for concept in (shot.concept_scores or {})}
    )
    queries: List[Query] = []
    for index in range(count):
        rng = root.spawn(index)
        text = " ".join(rng.choices(words, k=rng.randint(1, 4)))
        term_weights: Dict[str, float] = {}
        if rng.boolean(0.4):
            for term in rng.sample(words, rng.randint(1, 3)):
                term_weights[term] = round(rng.uniform(0.25, 2.5), 3)
        example_shot_ids: List[str] = []
        concept_weights: Dict[str, float] = {}
        if include_visual:
            if shots and rng.boolean(0.35):
                example_shot_ids = [
                    shot.shot_id for shot in rng.sample(shots, rng.randint(1, 2))
                ]
            if concepts and rng.boolean(0.35):
                concept_weights = {
                    concept: round(rng.uniform(0.2, 1.0), 3)
                    for concept in rng.sample(
                        concepts, min(len(concepts), rng.randint(1, 3))
                    )
                }
        queries.append(
            Query(
                text=text,
                term_weights=term_weights,
                example_shot_ids=example_shot_ids,
                concept_weights=concept_weights,
            )
        )
    return queries


def random_documents(
    corpus: SyntheticCorpus, seed: int, count: int, prefix: str = "extra"
) -> Dict[str, str]:
    """Seeded synthetic transcript documents in the corpus's vocabulary.

    Used by interleaved-write tests: feeding the same mapping to a service
    and to a bare engine must leave both ranking identically.  Ids embed
    the seed so successive batches never collide.
    """
    root = RandomSource(seed).spawn("random-documents")
    words = sorted(
        {
            word
            for shot in corpus.collection.iter_shots()
            for word in shot.transcript.lower().split()
            if len(word) > 3
        }
    )
    documents: Dict[str, str] = {}
    for index in range(count):
        rng = root.spawn(index)
        documents[f"{prefix}-{seed}-{index:03d}"] = " ".join(
            rng.choices(words, k=rng.randint(6, 30))
        )
    return documents


@pytest.fixture(scope="session")
def small_corpus() -> SyntheticCorpus:
    """A small, fully generated corpus shared by read-only tests."""
    return generate_corpus(seed=41, config=CollectionConfig.small())


@pytest.fixture(scope="session")
def medium_corpus() -> SyntheticCorpus:
    """A medium corpus for simulation and experiment tests."""
    return generate_corpus(
        seed=17,
        config=CollectionConfig(days=8, stories_per_day=7, topic_count=8),
    )


@pytest.fixture(scope="session")
def analysed_corpus() -> SyntheticCorpus:
    """A small corpus with features and concept scores filled in."""
    corpus = generate_corpus(seed=43, config=CollectionConfig.small())
    analyse_collection(corpus.collection)
    return corpus


@pytest.fixture(scope="session")
def make_random_queries():
    """The seeded query generator as a fixture.

    Handed out as a fixture (rather than imported from ``conftest``)
    because the benchmarks directory carries its own ``conftest`` module;
    importing by module name would be ambiguous in a whole-repo run.
    """
    return random_queries


@pytest.fixture(scope="session")
def make_random_documents():
    """The seeded document generator as a fixture (see above)."""
    return random_documents


@pytest.fixture(scope="session")
def sharding_corpus() -> SyntheticCorpus:
    """An analysed corpus for the engine-equivalence differential suites.

    Analysis fills in features and concept scores, so randomized queries
    can exercise the visual and concept fusion paths; session-scoped and
    read-only (write tests copy documents out, never mutate it).
    """
    corpus = generate_corpus(
        seed=2026, config=CollectionConfig(days=5, stories_per_day=5, topic_count=6)
    )
    analyse_collection(corpus.collection)
    return corpus


@pytest.fixture(scope="session")
def engine(small_corpus: SyntheticCorpus) -> VideoRetrievalEngine:
    """A retrieval engine over the small corpus."""
    return VideoRetrievalEngine(small_corpus.collection)


@pytest.fixture(scope="session")
def medium_engine(medium_corpus: SyntheticCorpus) -> VideoRetrievalEngine:
    """A retrieval engine over the medium corpus."""
    return VideoRetrievalEngine(medium_corpus.collection)


@pytest.fixture(scope="session")
def adaptive_system(medium_engine: VideoRetrievalEngine) -> AdaptiveVideoRetrievalSystem:
    """An adaptive system over the medium corpus."""
    return AdaptiveVideoRetrievalSystem(medium_engine)

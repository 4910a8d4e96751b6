"""Ranking-equivalence tests for the array-backed scoring kernel.

The kernel in :mod:`repro.index.scoring` / :mod:`repro.index.language_model`
/ :mod:`repro.index.visual` restructures the index's memory layout for
speed; :mod:`repro.index.reference` retains the original per-posting loops.
These property-style tests assert the two produce identical
``(document_id, score)`` rankings — same ids, same order, scores equal to
within 1e-9 (unit-weight queries are bit-identical by construction) — across
scorers, weighted multimodal fusion and query-by-example, over randomly
generated corpora and queries.
"""

from __future__ import annotations

import inspect
import random
import textwrap

import pytest

from repro.analysis import analyse_collection
from repro.collection import CollectionConfig, generate_corpus
from repro.index import (
    Bm25Scorer,
    DirichletLanguageModelScorer,
    InvertedIndex,
    JelinekMercerLanguageModelScorer,
    TfIdfScorer,
    top_documents,
    weighted_fusion,
)
from repro.index.reference import (
    ReferenceBm25Scorer,
    ReferenceDirichletScorer,
    ReferenceJelinekMercerScorer,
    ReferenceTfIdfScorer,
    reference_score_by_concepts,
    reference_similar_to_vector,
    reference_top_documents,
)
from repro.index import scoring as scoring_module
from repro.index.visual import VisualIndex
from repro.retrieval import EngineConfig, Query, VideoRetrievalEngine
from repro.service import ServiceConfig
from repro.service.registry import create_scorer

SEED = 20080731


def ranking(scores, limit=None):
    """Deterministic ranked (id, score) list: score desc, id asc."""
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:limit] if limit is not None else ranked


def assert_equivalent(kernel_scores, reference_scores, tolerance=1e-9):
    assert set(kernel_scores) == set(reference_scores)
    kernel_ranked = ranking(kernel_scores)
    reference_ranked = ranking(reference_scores)
    assert [doc for doc, _ in kernel_ranked] == [doc for doc, _ in reference_ranked]
    for (_, kernel_score), (_, reference_score) in zip(kernel_ranked, reference_ranked):
        assert kernel_score == pytest.approx(reference_score, abs=tolerance)


@pytest.fixture(scope="module")
def corpus():
    generated = generate_corpus(
        seed=SEED,
        config=CollectionConfig(days=6, stories_per_day=6, topic_count=8),
    )
    analyse_collection(generated.collection)
    return generated


@pytest.fixture(scope="module")
def index(corpus):
    return InvertedIndex.from_collection(corpus.collection)


@pytest.fixture(scope="module")
def visual_index(corpus):
    return VisualIndex.from_collection(corpus.collection)


def _random_queries(index, rng, count=25):
    """A mix of plain, repeated-term and weighted queries over real terms."""
    terms = sorted(index.terms())
    queries = []
    for _ in range(count):
        size = rng.randint(1, 6)
        chosen = rng.sample(terms, size)
        kind = rng.random()
        if kind < 0.4:
            queries.append(chosen)
        elif kind < 0.6:
            # Repeats exercise the sequence-counting path.
            queries.append(chosen + chosen[: rng.randint(0, size)])
        else:
            queries.append(
                {term: rng.choice([0.25, 0.5, 1.0, 1.5, 2.0, 3.75]) for term in chosen}
            )
    # Unknown terms must be ignored identically.
    queries.append(["zzz-not-a-term"])
    queries.append({"zzz-not-a-term": 2.0, terms[0]: 1.0})
    return queries


SCORER_PAIRS = [
    ("bm25", lambda index: Bm25Scorer(index), lambda index: ReferenceBm25Scorer(index)),
    (
        "bm25-tuned",
        lambda index: Bm25Scorer(index, k1=0.9, b=0.3),
        lambda index: ReferenceBm25Scorer(index, k1=0.9, b=0.3),
    ),
    ("tfidf", lambda index: TfIdfScorer(index), lambda index: ReferenceTfIdfScorer(index)),
    (
        "lm-dirichlet",
        lambda index: DirichletLanguageModelScorer(index, mu=250.0),
        lambda index: ReferenceDirichletScorer(index, mu=250.0),
    ),
    (
        "lm-jm",
        lambda index: JelinekMercerLanguageModelScorer(index, lambda_=0.6),
        lambda index: ReferenceJelinekMercerScorer(index, lambda_=0.6),
    ),
]


class TestScorerEquivalence:
    @pytest.mark.parametrize("name,kernel_factory,reference_factory", SCORER_PAIRS)
    def test_random_queries(self, index, name, kernel_factory, reference_factory):
        rng = random.Random(SEED)
        kernel = kernel_factory(index)
        reference = reference_factory(index)
        for query in _random_queries(index, rng):
            assert_equivalent(kernel.score(query), reference.score(query))

    @pytest.mark.parametrize("name,kernel_factory,reference_factory", SCORER_PAIRS)
    def test_after_incremental_add(self, name, kernel_factory, reference_factory):
        """Cached statistics must be invalidated by add_document."""
        index = InvertedIndex()
        index.add_documents(
            {
                "d1": "football match stadium goal goal",
                "d2": "football politics debate parliament",
                "d3": "weather rain cloud forecast",
            }
        )
        kernel = kernel_factory(index)
        reference = reference_factory(index)
        query = ["football", "goal", "stadium"]
        assert_equivalent(kernel.score(query), reference.score(query))
        # Mutate the index: every cached IDF, norm table and contribution
        # column is now stale and must be recomputed.
        index.add_document("d4", "stadium crowd goal celebration football goal")
        assert_equivalent(kernel.score(query), reference.score(query))
        assert index.collection_frequency("goal") == 4

    def test_unit_weight_queries_bit_identical(self, index):
        """Plain keyword queries must match the reference bit-for-bit."""
        rng = random.Random(SEED + 1)
        terms = sorted(index.terms())
        kernel = Bm25Scorer(index)
        reference = ReferenceBm25Scorer(index)
        for _ in range(10):
            query = rng.sample(terms, rng.randint(1, 5))
            kernel_scores = kernel.score(query)
            reference_scores = reference.score(query)
            assert kernel_scores == reference_scores  # exact float equality


class TestVisualEquivalence:
    def test_similar_to_vector(self, visual_index):
        rng = random.Random(SEED + 2)
        shot_ids = visual_index.shot_ids()
        for _ in range(10):
            probe = visual_index.features_of(rng.choice(shot_ids))
            kernel = visual_index.similar_to_vector(probe, limit=20)
            reference = reference_similar_to_vector(visual_index, probe, limit=20)
            assert kernel == reference

    def test_similar_to_shot_excludes_query(self, visual_index):
        shot_id = visual_index.shot_ids()[0]
        results = visual_index.similar_to_shot(shot_id, limit=10)
        assert all(candidate != shot_id for candidate, _ in results)

    def test_score_by_concepts(self, visual_index):
        rng = random.Random(SEED + 3)
        concepts = sorted(
            {
                concept
                for shot_id in visual_index.shot_ids()
                for concept in visual_index.concept_scores_of(shot_id)
            }
        )
        assert concepts, "corpus should carry concept scores"
        for _ in range(10):
            chosen = rng.sample(concepts, min(len(concepts), rng.randint(1, 4)))
            weights = {concept: rng.choice([0.5, 1.0, 2.0, -1.0]) for concept in chosen}
            kernel = visual_index.score_by_concepts(weights)
            reference = reference_score_by_concepts(visual_index, weights)
            assert kernel == reference


class TestSelectionEquivalence:
    def test_top_documents_matches_full_sort(self):
        rng = random.Random(SEED + 4)
        scores = {f"shot_{i:04d}": rng.choice([0.0, 0.5, 1.0, rng.random()]) for i in range(500)}
        for limit in (1, 7, 100, 499, 500, 1000):
            assert top_documents(scores, limit) == reference_top_documents(scores, limit)


class TestEndToEndEquivalence:
    """The engine pipeline (scorer -> fusion -> result list) must rank like
    a from-scratch reference computation."""

    @pytest.mark.parametrize("scorer_name", ["bm25", "tfidf", "lm"])
    def test_search_matches_reference_pipeline(self, corpus, scorer_name):
        engine = VideoRetrievalEngine(
            corpus.collection,
            config=EngineConfig(
                scorer=scorer_name, visual_weight=0.0, concept_weight=0.0
            ),
        )
        index = engine.inverted_index
        reference_factory = {
            "bm25": ReferenceBm25Scorer,
            "tfidf": ReferenceTfIdfScorer,
            "lm": ReferenceDirichletScorer,
        }[scorer_name]
        kwargs = {"mu": 300.0} if scorer_name == "lm" else {}
        reference_scorer = reference_factory(index, **kwargs)
        for topic in corpus.topics:
            query_text = " ".join(topic.query_terms)
            results = engine.search_text(query_text, limit=50)
            term_weights = {}
            for token in engine.tokenizer.tokenize(query_text):
                term_weights[token] = term_weights.get(token, 0.0) + 1.0
            raw = reference_scorer.score(term_weights)
            fused = weighted_fusion([raw], [engine.config.text_weight])
            expected = ranking(fused, limit=50)
            assert results.shot_ids() == [doc for doc, _ in expected]
            for item, (_, score) in zip(results, expected):
                assert item.score == pytest.approx(score, abs=1e-9)

    def test_multimodal_fusion_ranking(self, corpus):
        engine = VideoRetrievalEngine(corpus.collection)
        reference_scorer = ReferenceBm25Scorer(engine.inverted_index)
        for topic in list(corpus.topics)[:4]:
            relevant = sorted(corpus.qrels.relevant_shots(topic.topic_id))
            query = Query(
                text=" ".join(topic.query_terms),
                example_shot_ids=relevant[:1],
            )
            results = engine.search(query, limit=50)
            # Reference computation of the same fusion.
            term_weights = {}
            for token in engine.tokenizer.tokenize(query.text):
                term_weights[token] = term_weights.get(token, 0.0) + 1.0
            text = reference_scorer.score(term_weights)
            visual = {}
            for shot_id in query.example_shot_ids:
                for candidate, similarity in reference_similar_to_vector(
                    engine.visual_index,
                    engine.visual_index.features_of(shot_id),
                    limit=engine.config.result_limit,
                    exclude=(shot_id,),
                ):
                    visual[candidate] = max(visual.get(candidate, 0.0), similarity)
            maps, weights = [text], [engine.config.text_weight]
            if visual:
                maps.append(visual)
                weights.append(engine.config.visual_weight)
            fused = weighted_fusion(maps, weights)
            expected = ranking(fused, limit=50)
            assert results.shot_ids() == [doc for doc, _ in expected]
            for item, (_, score) in zip(results, expected):
                assert item.score == pytest.approx(score, abs=1e-9)

    def test_more_like_this_consistent_with_cache_disabled(self, corpus):
        cached = VideoRetrievalEngine(corpus.collection)
        uncached = VideoRetrievalEngine(
            corpus.collection, config=EngineConfig(result_cache_size=0)
        )
        shot_id = corpus.collection.shot_ids()[0]
        first = cached.more_like_this(shot_id, limit=10)
        second = cached.more_like_this(shot_id, limit=10)  # served via cache
        fresh = uncached.more_like_this(shot_id, limit=10)
        assert first.shot_ids() == second.shot_ids() == fresh.shot_ids()
        assert [item.score for item in first] == [item.score for item in fresh]

    def test_result_cache_invalidated_on_index_mutation(self, corpus):
        engine = VideoRetrievalEngine(corpus.collection)
        query_text = " ".join(list(corpus.topics)[0].query_terms)
        before = engine.search_text(query_text, limit=10)
        assert engine.search_text(query_text, limit=10).shot_ids() == before.shot_ids()
        # Mutating the index must drop cached results and change statistics.
        engine.inverted_index.add_document("extra-doc", query_text)
        after = engine.search_text(query_text, limit=10)
        assert "extra-doc" in after.scores() or after.shot_ids() != []

    def test_fast_item_construction_matches_dataclass(self, corpus):
        from repro.retrieval.results import ResultItem, ResultList

        scores = {"a": 1.0, "b": 0.5}
        shot_id = corpus.collection.shot_ids()[0]
        scores[shot_id] = 2.0
        results = ResultList.from_scores(
            "q", scores, collection=corpus.collection, limit=10
        )
        top = results[0]
        assert isinstance(top, ResultItem)
        shot = corpus.collection.shot(shot_id)
        story = corpus.collection.story(shot.story_id)
        rebuilt = ResultItem(
            shot_id=shot_id,
            score=2.0,
            rank=1,
            story_id=shot.story_id,
            video_id=shot.video_id,
            headline=story.headline,
            category=shot.category,
            duration_seconds=shot.duration,
        )
        assert top == rebuilt
        assert top.as_dict() == rebuilt.as_dict()


# -- the scorers under writes ----------------------------------------------------
#
# A scorer keeps, per index generation, each term's IDF, one norm per distinct
# document length and, from a term's second use on, its contribution column;
# a term's first use is scored straight into the accumulator.  The generated
# differential below interleaves adds, updates, deletes and compactions with
# queries and checks, after every step, that each score map equals the
# reference scorer's over a fresh rebuild of the live documents, by
# ``float.hex()``.  After every write the next query runs three times, so
# each of its terms is scored on its first use, its second use and warm.
# Weights are powers of two: scaling by one is exact, so the kernel's
# ``weight * (idf * x / d)`` and the reference's ``weight * idf * x / d``
# agree in every bit (other weights may differ by an ulp).

WRITE_VOCABULARY = tuple(f"w{number:02d}" for number in range(12))
WRITE_WEIGHTS = (0.25, 0.5, 1.0, 2.0, 4.0, -0.5)
#: "class": the scorer class over a bare index; "service": the scorer a
#: service builds through the registry, with the service's parameters.
WRITE_BUILDS = ("class", "service")
WRITE_SEEDS = range(4)
#: Steps a sequence takes at least; it draws on until every term has been
#: scored on its first use, its second use and warm, within the limit.
WRITE_STEPS = 60
WRITE_STEP_LIMIT = 1000

WRITE_SCORERS = {
    "bm25": (Bm25Scorer, ReferenceBm25Scorer),
    "tfidf": (TfIdfScorer, ReferenceTfIdfScorer),
}


def _frequencies(rng):
    """A term-frequency map; one in eight documents is long."""
    size = rng.randint(1, 6)
    top = 30 if rng.random() < 0.125 else 4
    terms = rng.sample(WRITE_VOCABULARY[: rng.choice((6, 12))], size)
    return {term: rng.randint(1, top) for term in terms}


def _write_query(rng, cycle):
    """Unit weights (repeats count) or a mapping of power-of-two weights.

    ``cycle`` is always among the terms, so the queries after writes cover
    the whole vocabulary; now and then an unknown term rides along.
    """
    others = [term for term in WRITE_VOCABULARY if term != cycle]
    terms = [cycle] + rng.sample(others, rng.randint(0, 3))
    if rng.random() < 0.1:
        terms.append("unknown")
    if rng.random() < 0.5:
        return terms + terms[: rng.randint(0, len(terms))]
    return {term: rng.choice(WRITE_WEIGHTS) for term in terms}


def _touch(scorer, term):
    """Which use of ``term`` in this generation the next score call is.

    Reads the scorer's tables for the current generation, which the score
    call would build anyway.
    """
    columns = scorer._tables.get()[1]
    entry = columns.get(term)
    return "first" if entry is None else "warm" if entry else "second"


def _write_scorer(scorer_name, built, index):
    scorer_class = WRITE_SCORERS[scorer_name][0]
    if built == "class":
        return scorer_class(index)
    scorer = create_scorer(scorer_name, index, ServiceConfig().engine)
    assert type(scorer) is scorer_class
    return scorer


def run_under_writes(scorer_name, built, seed, steps=WRITE_STEPS):
    """Run one generated sequence of at least ``steps`` steps, on until
    every term of the vocabulary has been scored in each of its three
    uses; returns the ``(term, use)`` pairs scored."""
    reference_class = WRITE_SCORERS[scorer_name][1]
    rng = random.Random(f"{scorer_name}:{built}:{seed}")
    index = InvertedIndex()
    scorer = _write_scorer(scorer_name, built, index)
    live = {}
    for number in range(12):
        live[f"d{number:03d}"] = _frequencies(rng)
        index.add_document_frequencies(f"d{number:03d}", live[f"d{number:03d}"])
    reference = None
    touched = set()
    added, writes = 12, 0
    step = 0
    while step < steps or len(touched) < 3 * len(WRITE_VOCABULARY):
        assert step < WRITE_STEP_LIMIT, (scorer_name, built, seed, sorted(touched))
        step += 1
        roll = rng.random()
        if roll < 0.5:
            repeats = 1
        else:
            repeats, writes = 3, writes + 1
            if roll < 0.65 or len(live) < 4:
                document_id, added = f"d{added:03d}", added + 1
                live[document_id] = _frequencies(rng)
                index.add_document_frequencies(document_id, live[document_id])
            elif roll < 0.78:
                document_id = rng.choice(sorted(live))
                del live[document_id]  # an update moves to the end, like the index
                live[document_id] = _frequencies(rng)
                index.update_document_frequencies(document_id, live[document_id])
            elif roll < 0.92:
                document_id = rng.choice(sorted(live))
                del live[document_id]
                index.delete_document(document_id)
            else:
                index.compact()
            reference = None
        if reference is None:
            fresh = InvertedIndex()
            for document_id, frequencies in live.items():
                fresh.add_document_frequencies(document_id, frequencies)
            reference = reference_class(fresh)
        query = _write_query(rng, WRITE_VOCABULARY[writes % len(WRITE_VOCABULARY)])
        expected = {doc: score.hex() for doc, score in reference.score(query).items()}
        for _ in range(repeats):
            for term in query:
                if index.document_frequency(term):
                    touched.add((term, _touch(scorer, term)))
            actual = {doc: score.hex() for doc, score in scorer.score(query).items()}
            assert actual == expected, (scorer_name, built, seed, step, query)
    return touched


class TestScoringUnderWrites:
    @pytest.mark.parametrize("seed", WRITE_SEEDS)
    @pytest.mark.parametrize("built", WRITE_BUILDS)
    @pytest.mark.parametrize("scorer_name", sorted(WRITE_SCORERS))
    def test_generated_writes_match_reference(self, scorer_name, built, seed):
        touched = run_under_writes(scorer_name, built, seed)
        for term in WRITE_VOCABULARY:
            assert {use for name, use in touched if name == term} == {
                "first", "second", "warm"
            }, term

    @pytest.mark.parametrize("built", WRITE_BUILDS)
    @pytest.mark.parametrize(
        "owner, function, replacements",
        [
            # The per-length table survives a generation change.
            (
                "_CachedColumnsScorer",
                "_accumulate",
                [(
                    "idf_cache, columns_cache, norms, slot_ints = self._tables.get()",
                    "idf_cache, columns_cache, norms, slot_ints = self._tables.get()\n"
                    "    norms = self._kept = {**norms, **getattr(self, '_kept', {})}",
                )],
            ),
            # A first use leaves its documents out of the candidates.
            (
                "_CachedColumnsScorer",
                "_accumulate",
                [("candidates.update(docs)", "pass")],
            ),
            # A cached column leaves its documents out of the candidates.
            (
                "_CachedColumnsScorer",
                "_accumulate",
                [("candidates.update(slots)", "pass")],
            ),
            # The second use builds its column with the previous
            # generation's IDF.
            (
                "_CachedColumnsScorer",
                "_accumulate",
                [
                    (
                        "idf_cache, columns_cache, norms, slot_ints = self._tables.get()",
                        "idf_cache, columns_cache, norms, slot_ints = self._tables.get()\n"
                        "    current, stale_idf = getattr(self, '_idfs', (idf_cache, {}))\n"
                        "    if current is not idf_cache:\n"
                        "        stale_idf = current\n"
                        "    self._idfs = (idf_cache, stale_idf)",
                    ),
                    (
                        "self._contributions(docs, freqs, idf, norms)",
                        "self._contributions(docs, freqs, stale_idf.get(term, idf), norms)",
                    ),
                ],
            ),
        ],
    )
    def test_differential_fails_on_mutants(
        self, monkeypatch, owner, function, replacements, built
    ):
        owner = getattr(scoring_module, owner)
        source = textwrap.dedent(inspect.getsource(getattr(owner, function)))
        for original, mutated in replacements:
            assert source.count(original) == 1
            source = source.replace(original, mutated)
        namespace = dict(vars(scoring_module))
        exec(source, namespace)
        monkeypatch.setattr(owner, function, namespace[function])
        with pytest.raises(AssertionError):
            run_under_writes("bm25", built, seed=0)

"""Dense score maps: the mapping contract and the ranking path built on it.

Every text scorer answers with a read-only ``{doc_id: score}`` mapping.
The built-in BM25 and TF-IDF kernels return a :class:`DenseScores` over the
accumulator they scored into, the sharded scorer concatenates its shards'
parts, and the engine's single-source path ranks straight off the dense
values, reading a shot id only for a candidate at or above the exact cut.
These tests pin

* the rankings, by ``float.hex()``, against the general path
  (``weighted_fusion`` + ``ResultList.from_scores`` over a plain dict) for
  every scorer, shard count, scatter path, weight and limit, ties at the
  cut included;
* the mapping contract: the dict a key read builds (items and order), ``==``
  both ways, ``len`` without a dict, ``union`` with a plain-dict partial,
  and :class:`StaleScoresError` exactly when a candidate was deleted or
  updated before the first read;
* that an uncached search builds no dict at all and keeps the traced call
  boundaries (one ``text_scores`` and one ``score`` per shard a search);

and show the differential has teeth against four mutants of the source.
"""

from __future__ import annotations

import asyncio
import inspect
import random
import textwrap
from collections import Counter

import pytest

from repro.index import (
    Bm25Scorer,
    DenseScores,
    DirichletLanguageModelScorer,
    InvertedIndex,
    JelinekMercerLanguageModelScorer,
    StaleScoresError,
    TfIdfScorer,
    Tokenizer,
    weighted_fusion,
)
from repro.index import scoring as scoring_module
from repro.index.reference import (
    ReferenceBm25Scorer,
    ReferenceDirichletScorer,
    ReferenceJelinekMercerScorer,
    ReferenceTfIdfScorer,
)
from repro.retrieval import EngineConfig, Query, VideoRetrievalEngine
from repro.retrieval import engine as engine_module
from repro.retrieval.results import ResultList
from repro.service import RetrievalService, SearchRequest, ServiceConfig
from repro.serving import ServingFrontend
from repro.sharding import ShardedEngine

SCORERS = {
    "bm25": (Bm25Scorer, ReferenceBm25Scorer),
    "tfidf": (TfIdfScorer, ReferenceTfIdfScorer),
    "lm": (DirichletLanguageModelScorer, ReferenceDirichletScorer),
    "jm": (JelinekMercerLanguageModelScorer, ReferenceJelinekMercerScorer),
}
#: ``(shards, pool)``: 1 is the monolithic engine; ``pool`` wraps one shard
#: in a duck-typed, dict-returning scorer, which sends the scatter to the pool.
VARIANTS = [(1, False), (2, False), (4, False), (4, True)]
WEIGHTS = (1.0, 0.4, 0.0, 5e-324)
LIMITS = (1, 5, 50, 10_000)


class _DictShard:
    """A duck-typed shard scorer: no ``may_block``, answers with a dict."""

    def __init__(self, inner):
        self.inner = inner

    def score(self, query_terms):
        return dict(self.inner.score(query_terms))


class _PassThroughScorer:
    """A duck-typed wrapper (no ``may_block``) that passes the map through."""

    def __init__(self, inner):
        self.inner = inner

    def score(self, query_terms):
        return self.inner.score(query_terms)


def _engine(corpus, scorer_name, shards, pool):
    scorer_class = SCORERS[scorer_name][0]
    config = EngineConfig(result_cache_size=0)
    if shards == 1:
        index = InvertedIndex.from_collection(corpus.collection)
        return VideoRetrievalEngine(
            corpus.collection,
            inverted_index=index,
            config=config,
            text_scorer=scorer_class(index),
        )
    engine = ShardedEngine(
        corpus.collection,
        config=config,
        num_shards=shards,
        shard_scorer_factory=scorer_class,
    )
    if pool:
        scorers = engine.text_scorer.shard_scorers
        scorers[-1] = _DictShard(scorers[-1])
        assert engine.text_scorer.may_block
    else:
        assert not engine.text_scorer.may_block
    return engine


def _queries(corpus):
    """Single frequent words (ties at every cut), wide multi-word queries
    (more than 100 candidates) and queries with non-unit term weights."""
    tokenizer = Tokenizer()
    document_frequency = Counter(
        word
        for shot in corpus.collection.iter_shots()
        for word in set(shot.transcript.lower().split())
        if tokenizer.tokenize(word)
    )
    frequent = sorted(document_frequency, key=lambda w: (-document_frequency[w], w))[:40]
    rng = random.Random("dense-scores")
    queries = [Query(text=word) for word in frequent[:5]]
    queries += [Query(text=" ".join(rng.sample(frequent, 5))) for _ in range(5)]
    queries += [
        Query(
            text=" ".join(rng.sample(frequent, 2)),
            term_weights={rng.choice(frequent): rng.choice((0.5, 1.75))},
        )
        for _ in range(3)
    ]
    return queries


@pytest.fixture(scope="module")
def engines(medium_corpus):
    """``engines(scorer, shards, pool)``: one engine per variant, built once."""
    built = {}

    def get(*variant):
        if variant not in built:
            built[variant] = _engine(medium_corpus, *variant)
        return built[variant]

    yield get
    for engine in built.values():
        engine.close()


@pytest.fixture(scope="module")
def queries(medium_corpus):
    return _queries(medium_corpus)


def _general_path(monolithic, query, weight, limit):
    """The reference ranking: fusion and top-k over a plain dict."""
    with monolithic.read_access():
        plain = dict(monolithic.text_scores(query))
    fused = weighted_fusion([plain], [weight])
    expected = ResultList.from_scores(
        query.text, fused, collection=monolithic.collection, limit=limit
    )
    return [(item.shot_id, item.score.hex(), item.rank) for item in expected], plain


def _ranked(results):
    return [(item.shot_id, item.score.hex(), item.rank) for item in results]


def check_rankings(engines, queries, scorer, shards, pool):
    """Every query × weight × limit, dense path against the general path.

    Returns how many cases had a tie exactly at an applied cut.
    """
    monolithic = engines(scorer, 1, False)
    engine = engines(scorer, shards, pool)
    ties_at_cut = 0
    for query in queries:
        for limit in LIMITS:
            expected, plain = _general_path(monolithic, query, 1.0, limit)
            assert _ranked(engine.search(query, limit=limit)) == expected, (query, limit)
            for weight in WEIGHTS:
                expected, _ = _general_path(monolithic, query, weight, limit)
                with engine.read_access():
                    actual = engine._single_source_results(
                        query, engine.text_scores(query), weight, limit
                    )
                assert _ranked(actual) == expected, (query, weight, limit)
            values = sorted(plain.values(), reverse=True)
            if len(values) > 2 * limit and values[0] > values[-1]:
                ties_at_cut += values[limit - 1] == values[limit]
    return ties_at_cut


def _old_dict(scorer, query_terms):
    """The dict the BM25/TF-IDF kernels built before dense score maps."""
    accumulator, candidates, norms = scorer._accumulate(query_terms)
    doc_ids = scorer._index.slots.ids
    if isinstance(scorer, TfIdfScorer):
        lengths = scorer._index.document_lengths_array
        return {doc_ids[d]: accumulator[d] / norms[lengths[d]] for d in candidates}
    return {doc_ids[d]: accumulator[d] for d in candidates}


def _hexed(scores):
    return [(doc_id, score.hex()) for doc_id, score in scores.items()]


def check_contract(index, queries):
    """Each kernel's map against the retained reference loops, bit for bit.

    A twin scorer that sees the same calls rebuilds the dict the kernel
    built before dense score maps, so the order is checked on a term's
    first use, second use and warm column alike.
    """
    for name, (scorer_class, reference_class) in SCORERS.items():
        scorer, twin = scorer_class(index), scorer_class(index)
        reference = reference_class(index)
        for query in queries:
            terms = index.tokenizer.tokenize(query.text)
            expected = sorted(_hexed(reference.score(terms)))
            for _ in range(3):
                scores = scorer.score(terms)
                built = dict(scores)
                assert sorted(_hexed(built)) == expected, (name, query)
                if name in ("bm25", "tfidf"):
                    assert isinstance(scores, DenseScores)
                    assert _hexed(built) == _hexed(_old_dict(twin, terms)), (name, query)


@pytest.fixture(scope="module")
def medium_index(medium_corpus):
    return InvertedIndex.from_collection(medium_corpus.collection)


class TestRankings:
    @pytest.mark.parametrize(
        "shards, pool",
        [
            pytest.param(shards, pool, marks=[pytest.mark.shard] if shards > 1 else [])
            for shards, pool in VARIANTS
        ],
    )
    @pytest.mark.parametrize("scorer", sorted(SCORERS))
    def test_dense_path_matches_general_path(self, engines, queries, scorer, shards, pool):
        ties_at_cut = check_rankings(engines, queries, scorer, shards, pool)
        assert ties_at_cut > 0  # the suite exercises ties exactly at the cut


class TestMappingContract:
    def test_built_dict_matches_reference_and_old_order(self, medium_index, queries):
        check_contract(medium_index, queries)

    @pytest.mark.shard
    def test_sharded_order_is_shard_order(self, engines, queries):
        engine = engines("bm25", 4, False)
        shards = engine.text_scorer.shard_scorers
        for query in queries:
            terms = engine._query_term_weights(query)
            for _ in range(2):  # warm columns: each call then builds one order
                engine.text_scorer.score(terms)
            expected = [
                doc_id for shard in shards for doc_id in dict(shard.score(terms))
            ]
            assert list(dict(engine.text_scorer.score(terms))) == expected

    def test_equality_both_ways(self, medium_index, queries):
        terms = medium_index.tokenizer.tokenize(queries[5].text)
        scores = Bm25Scorer(medium_index).score(terms)
        expected = ReferenceBm25Scorer(medium_index).score(terms)
        assert scores == expected and expected == scores
        assert scores == Bm25Scorer(medium_index).score(terms)
        changed = dict(expected)
        changed[next(iter(changed))] += 1.0
        assert scores != changed and changed != scores
        assert scores != list(expected)

    def test_len_builds_nothing(self, medium_index, queries):
        terms = medium_index.tokenizer.tokenize(queries[5].text)
        scores = Bm25Scorer(medium_index).score(terms)
        assert len(scores) == len(ReferenceBm25Scorer(medium_index).score(terms)) > 0
        assert scores and scores._built is None
        assert len(Bm25Scorer(medium_index).score(["no-such-term"])) == 0
        assert not Bm25Scorer(medium_index).score(["no-such-term"])
        assert Bm25Scorer(medium_index).score(["no-such-term"]) == {}

    def test_union_with_a_plain_dict_partial(self, medium_index, queries):
        terms = medium_index.tokenizer.tokenize(queries[5].text)
        dense = Bm25Scorer(medium_index).score(terms)
        plain = {"extra-b": 0.25, "extra-a": 2.0}
        union = DenseScores.union([dense, plain, DenseScores.of({"extra-c": 1.0})])
        assert len(union) == len(dense) + 3 and union._built is None
        expected = {**dict(dense), **plain, "extra-c": 1.0}
        assert list(union.items()) == list(expected.items())
        assert union["extra-a"] == 2.0 and union.get("missing", -1.0) == -1.0
        assert "extra-c" in union and "missing" not in union
        assert DenseScores.of(union) is union

    def test_of_keeps_key_value_pairs(self):
        mapping = {"z": 3.0, "a": 1.0, "m": 2.0}
        wrapped = DenseScores.of(mapping)
        assert len(wrapped) == 3 and list(wrapped.items()) == list(mapping.items())


def _stale_setup(text_scorer=Bm25Scorer):
    """Five documents; the query's candidates are d0, d1 and d3."""
    index = InvertedIndex()
    for number, frequencies in enumerate(
        [{"a": 1, "b": 1}, {"a": 1, "c": 2}, {"b": 1, "d": 1}, {"c": 1, "d": 1}, {"e": 1}]
    ):
        index.add_document_frequencies(f"d{number}", frequencies)
    scores = text_scorer(index).score(["a", "c"])
    expected = dict(text_scorer(index).score(["a", "c"]))
    assert set(expected) == {"d0", "d1", "d3"}
    return index, scores, expected


class TestStaleness:
    @pytest.mark.parametrize("scorer", [Bm25Scorer, TfIdfScorer])
    @pytest.mark.parametrize(
        "write",
        [
            lambda index: index.delete_document("d1"),
            lambda index: index.update_document_frequencies("d3", {"c": 1, "f": 1}),
        ],
        ids=["delete", "update"],
    )
    def test_candidate_written_before_first_read_raises(self, scorer, write):
        index, scores, _ = _stale_setup(scorer)
        write(index)
        assert len(scores) == 3  # len reads no id
        with pytest.raises(StaleScoresError, match="deleted"):
            dict(scores)
        with pytest.raises(StaleScoresError):
            scores.get("d0")

    @pytest.mark.parametrize(
        "write",
        [
            lambda index: index.add_document_frequencies("d9", {"a": 2}),
            lambda index: index.delete_document("d2"),
            lambda index: (index.delete_document("d4"), index.compact()),
            lambda index: (index.delete_document("d2"), index.compact(),
                           index.delete_document("d0")),
        ],
        ids=["add", "delete-non-candidate", "compact", "delete-after-compact"],
    )
    def test_other_writes_keep_the_snapshot(self, write):
        index, scores, expected = _stale_setup()
        write(index)
        assert _hexed(dict(scores)) == _hexed(expected)

    def test_first_read_is_cached(self):
        index, scores, expected = _stale_setup()
        assert dict(scores) == expected
        index.delete_document("d1")
        assert dict(scores) == expected  # built before the delete

    @pytest.mark.shard
    def test_sharded_candidate_deleted_raises(self, sharding_corpus):
        engine = ShardedEngine(sharding_corpus.collection, num_shards=4)
        try:
            query = Query.from_text(sharding_corpus.topics.topics()[0].query_terms[0])
            scores = engine.text_scores(query)
            victim = next(iter(ReferenceBm25Scorer(engine.inverted_index).score(
                engine._query_term_weights(query))))
            engine.delete_document(victim)
            with pytest.raises(StaleScoresError):
                dict(scores)
        finally:
            engine.close()


# -- an uncached search builds no dict --------------------------------------------


def _count_calls(owner, name, counts):
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[id(owner)] += 1
        return inner(*args, **kwargs)

    setattr(owner, name, counted)


class TestNoDictPerSearch:
    """Exact work counts that hold on any host.

    N uncached searches through the serving edge, on the inline and the
    pool path, monolithic and sharded: no :class:`DenseScores` is ever
    turned into a dict, ``engine.text_scores`` runs once a search and each
    shard's ``score`` once a search (the call boundaries the end-to-end
    benchmark's tracer wraps).  The commit before dense score maps fails
    this test: its scorers built a dict per shard and the scatter merged
    them into another, and it had no ``DenseScores`` to spy on.
    """

    SEARCHES = 8

    @pytest.mark.parametrize(
        "shards, pool",
        [
            (1, False),
            (1, True),
            pytest.param(4, False, marks=pytest.mark.shard),
            pytest.param(4, True, marks=pytest.mark.shard),
        ],
    )
    def test_zero_dicts_one_call_per_boundary(
        self, medium_corpus, monkeypatch, shards, pool
    ):
        service = RetrievalService.from_corpus(
            medium_corpus, config=ServiceConfig(num_shards=shards, result_cache_size=0)
        )
        try:
            engine = service.engine
            if shards == 1:
                if pool:
                    engine._text_scorer = _PassThroughScorer(engine._text_scorer)
                scorers = [engine._text_scorer]
            else:
                scorers = engine.text_scorer.shard_scorers
                if pool:
                    scorers[1] = _PassThroughScorer(scorers[1])
            assert engine.may_block is pool
            built = []
            materialise = DenseScores._materialise
            monkeypatch.setattr(
                DenseScores,
                "_materialise",
                lambda self: built.append(1) or materialise(self),
            )
            counts = Counter()
            _count_calls(engine, "text_scores", counts)
            for scorer in scorers:
                _count_calls(scorer, "score", counts)
            session = service.open_session("alice", policy="baseline").session_id
            texts = [query.text for query in _queries(medium_corpus)][: self.SEARCHES]
            assert len(set(texts)) == self.SEARCHES

            async def drive(frontend):
                for text in texts:
                    response = await frontend.search(
                        SearchRequest(user_id="alice", query=text, session_id=session)
                    )
                    assert response.hits

            with ServingFrontend(service) as frontend:
                asyncio.run(drive(frontend))
            assert built == []
            assert counts[id(engine)] == self.SEARCHES
            assert [counts[id(scorer)] for scorer in scorers] == [self.SEARCHES] * shards
        finally:
            service.close()


# -- the differential has teeth ---------------------------------------------------


def _mutate(monkeypatch, module, owner_name, function, original, mutated):
    owner = getattr(module, owner_name) if owner_name else module
    source = textwrap.dedent(inspect.getsource(getattr(owner, function)))
    assert source.count(original) == 1, (function, original)
    namespace = dict(vars(module))
    exec(source.replace(original, mutated), namespace)
    monkeypatch.setattr(owner, function, namespace[function])


@pytest.mark.parametrize(
    "module, owner, function, original, mutated, check",
    [
        # The union loses the last shard's candidates.
        (
            scoring_module, "DenseScores", "union",
            "for partial in partials:", "for partial in list(partials)[:-1]:",
            ("rankings", "bm25", 4, False),
        ),
        # A wrapped dict pairs its keys with misordered values.
        (
            scoring_module, "DenseScores", "of",
            "list(mapping.values())", "sorted(mapping.values())",
            ("rankings", "lm", 1, False),
        ),
        # TF-IDF forgets its length norm.
        (
            scoring_module, "TfIdfScorer", "score",
            "accumulator[doc] /= norms[lengths[doc]]", "pass",
            ("contract",),
        ),
        # A candidate tied with the cut is dropped.
        (
            engine_module, None, "_decorate",
            "if scores[d] >= cut", "if scores[d] > cut",
            ("rankings", "bm25", 1, False),
        ),
    ],
    ids=["union-drops-last", "of-misorders", "tfidf-no-norm", "decorate-strict"],
)
def test_differential_fails_on_mutants(
    engines, queries, medium_index, monkeypatch, module, owner, function, original,
    mutated, check,
):
    _mutate(monkeypatch, module, owner, function, original, mutated)
    with pytest.raises(AssertionError):
        if check[0] == "contract":
            check_contract(medium_index, queries)
        else:
            check_rankings(engines, queries, *check[1:])

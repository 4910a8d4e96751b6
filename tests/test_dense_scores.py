"""Dense score maps: the mapping contract and the ranking path built on it.

Every text scorer answers with a read-only ``{doc_id: score}`` mapping.
The built-in BM25 and TF-IDF kernels return a :class:`DenseScores` over the
accumulator they scored into — one ``(ids, scores, candidates)`` column —
and the engine's single-source path ranks straight off the dense values,
reading a shot id only for a candidate at or above the exact cut.  These
tests pin

* the rankings, by ``float.hex()``, against the general path
  (``weighted_fusion`` + ``ResultList.from_scores`` over a plain dict) for
  every scorer, the engine a service builds at one, two and four shards, a
  dict-returning scorer, weight and limit, ties at the cut included;
* the mapping contract: the dict a key read builds (items and order), ``==``
  both ways, ``len`` without a dict, and :class:`StaleScoresError` exactly
  when a candidate was deleted or updated before the first read;
* that an uncached search builds no dict at all and keeps the traced call
  boundaries (one ``text_scores`` and one ``score`` a search, at one shard
  or four);

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
from repro.service.service import build_engine
from repro.serving import ServingFrontend

#: A service's default ranking (depth 50) with the result cache off.
UNCACHED = EngineConfig(result_limit=50, result_cache_size=0)

SCORERS = {
    "bm25": (Bm25Scorer, ReferenceBm25Scorer),
    "tfidf": (TfIdfScorer, ReferenceTfIdfScorer),
    "lm": (DirichletLanguageModelScorer, ReferenceDirichletScorer),
    "jm": (JelinekMercerLanguageModelScorer, ReferenceJelinekMercerScorer),
}
#: ``(shards, wrapped)``: the engine a ``num_shards=shards`` service builds;
#: ``wrapped`` wraps its scorer in a duck-typed scorer that answers with a
#: plain dict, which the engine reads through ``DenseScores.of``.
VARIANTS = [(1, False), (1, True), (2, False), (4, False), (4, True)]
WEIGHTS = (1.0, 0.4, 0.0, 5e-324)
LIMITS = (1, 5, 50, 10_000)


class _DictScorer:
    """A duck-typed scorer: no ``may_block``, answers with a dict."""

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


def _engine(corpus, scorer_name, shards, wrapped):
    scorer = SCORERS[scorer_name][0]
    if shards == 1 and not wrapped:
        # The monolithic reference, built without the service.
        index = InvertedIndex.from_collection(corpus.collection)
        return VideoRetrievalEngine(
            corpus.collection,
            inverted_index=index,
            config=EngineConfig(result_cache_size=0),
            text_scorer=scorer(index),
        )
    engine = build_engine(
        corpus.collection, ServiceConfig(engine=UNCACHED, num_shards=shards)
    )
    kernel = scorer(engine.inverted_index)
    engine._text_scorer = _DictScorer(kernel) if wrapped else kernel
    assert engine.may_block is wrapped
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
    """``engines(scorer, shards, wrapped)``: one engine per variant, built once."""
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


def check_rankings(engines, queries, scorer, shards, wrapped):
    """Every query × weight × limit, dense path against the general path.

    Returns how many cases had a tie exactly at an applied cut.
    """
    monolithic = engines(scorer, 1, False)
    engine = engines(scorer, shards, wrapped)
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
    @pytest.mark.parametrize("shards, wrapped", VARIANTS)
    @pytest.mark.parametrize("scorer", sorted(SCORERS))
    def test_dense_path_matches_general_path(
        self, engines, queries, scorer, shards, wrapped
    ):
        ties_at_cut = check_rankings(engines, queries, scorer, shards, wrapped)
        assert ties_at_cut > 0  # the suite exercises ties exactly at the cut


class TestMappingContract:
    def test_built_dict_matches_reference_and_old_order(self, medium_index, queries):
        check_contract(medium_index, queries)

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

    def test_of_keeps_key_value_pairs(self):
        mapping = {"z": 3.0, "a": 1.0, "m": 2.0}
        wrapped = DenseScores.of(mapping)
        assert len(wrapped) == 3 and wrapped._built is None
        assert list(wrapped.items()) == list(mapping.items())
        assert wrapped["a"] == 1.0 and wrapped.get("missing", -1.0) == -1.0
        assert "m" in wrapped and "missing" not in wrapped
        assert DenseScores.of(wrapped) is wrapped


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

    def test_engine_candidate_deleted_raises(self, sharding_corpus):
        service = RetrievalService.from_corpus(
            sharding_corpus, config=ServiceConfig(num_shards=4)
        )
        engine = service.engine
        query = Query.from_text(sharding_corpus.topics.topics()[0].query_terms[0])
        scores = engine.text_scores(query)
        victim = next(iter(ReferenceBm25Scorer(engine.inverted_index).score(
            engine._query_term_weights(query))))
        engine.delete_document(victim)
        with pytest.raises(StaleScoresError):
            dict(scores)
        service.close()


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
    pool path, at one shard and four: no :class:`DenseScores` is ever
    turned into a dict, ``engine.text_scores`` runs once a search and the
    engine's one scorer ``score`` once a search (the call boundaries the
    end-to-end benchmark's tracer wraps).  The commit before dense score
    maps fails this test: its scorers built a dict per shard and the
    scatter merged them into another, and it had no ``DenseScores`` to spy
    on.
    """

    SEARCHES = 8

    @pytest.mark.parametrize("pool", (False, True))
    @pytest.mark.parametrize("shards", (1, 4))
    def test_zero_dicts_one_call_per_boundary(
        self, medium_corpus, monkeypatch, shards, pool
    ):
        service = RetrievalService.from_corpus(
            medium_corpus, config=ServiceConfig(engine=UNCACHED, num_shards=shards)
        )
        try:
            engine = service.engine
            if pool:
                engine._text_scorer = _PassThroughScorer(engine._text_scorer)
            scorer = engine._text_scorer
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
            assert counts[id(engine)] == counts[id(scorer)] == self.SEARCHES
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
        # The built dict loses the last candidate.
        (
            scoring_module, "DenseScores", "_materialise",
            "map(self.ids.__getitem__, candidates)",
            "map(self.ids.__getitem__, list(candidates)[:-1])",
            ("contract",),
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
        # The lowest candidate that can rank is left undecorated.
        (
            engine_module, "VideoRetrievalEngine", "_single_source_results",
            "limit):]", "limit) + 1:]",
            ("rankings", "bm25", 1, False),
        ),
    ],
    ids=[
        "materialise-drops-last", "of-misorders", "tfidf-no-norm", "cut-start-drops-one",
    ],
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

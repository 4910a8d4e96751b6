"""Cross-shard equivalence & fault-injection suite for scatter-gather retrieval.

The sharded engine's contract is absolute: for any query, any scorer, any
fusion mode and any shard count, the merged ranking must be **bit-identical**
(ids, scores and ranks) to the monolithic engine over the same corpus —
including after interleaved document/shot writes.  This suite pins that
contract differentially with the seeded randomized query/document generators
from ``conftest`` and then injects faults (failing, flaky and slow shards,
mid-batch write failures) to check that errors propagate cleanly and never
poison caches or partial state.

All tests carry the ``shard`` marker (``pytest -m shard``).
"""

from __future__ import annotations

import dataclasses
import gc
import threading
import time
import types
from typing import List

import pytest

from repro.feedback import EventKind, InteractionEvent
from repro.index.inverted_index import InvertedIndex
from repro.index.language_model import DirichletLanguageModelScorer
from repro.index.scoring import Bm25Scorer, TextScorer, TfIdfScorer
from repro.index.visual import NeighbourTable, VisualIndex
from repro.retrieval import Query, VideoRetrievalEngine
from repro.retrieval.engine import EngineConfig
from repro.service import (
    FeedbackBatch,
    RetrievalService,
    SearchRequest,
    ServiceConfig,
)
from repro.sharding import (
    GlobalStatsView,
    ShardedEngine,
    ShardedInvertedIndex,
    ShardRouter,
)
from repro.utils.concurrency import ScatterGather
from repro.utils.rng import RandomSource

pytestmark = pytest.mark.shard

#: The acceptance matrix's shard counts.
SHARD_COUNTS = (1, 2, 3, 8)

#: Fusion modes: engine-weight configurations selecting which evidence
#: sources can contribute (the randomized queries then sweep which sources
#: actually fire per query, including the single-source fast path).
FUSION_MODES = {
    "multimodal": {},
    "text_only": {"visual_weight": 0.0, "concept_weight": 0.0},
    "visual_heavy": {"text_weight": 0.5, "visual_weight": 1.0, "concept_weight": 0.8},
}


def _config(scorer: str, mode: str, **overrides) -> EngineConfig:
    # The result cache is disabled in the matrix so every search is a
    # genuine scatter-gather evaluation; cache interplay has its own tests.
    fields = {"scorer": scorer, "result_cache_size": 0}
    fields.update(FUSION_MODES[mode])
    fields.update(overrides)
    return EngineConfig(**fields)


#: Monolithic engines are pure functions of (corpus, config); cache them
#: across the parametrized matrix so each is built once, not once per
#: shard count.
_MONO_CACHE = {}


def _monolithic(corpus, config: EngineConfig) -> VideoRetrievalEngine:
    key = (id(corpus), config)
    engine = _MONO_CACHE.get(key)
    if engine is None:
        engine = VideoRetrievalEngine(corpus.collection, config=config)
        _MONO_CACHE[key] = engine
    return engine


def assert_identical_rankings(
    mono: VideoRetrievalEngine,
    sharded: VideoRetrievalEngine,
    queries: List[Query],
    limit=None,
) -> None:
    """Bit-identical ids, scores and ranks for every query."""
    for query in queries:
        expected = mono.search(query, limit=limit)
        actual = sharded.search(query, limit=limit)
        assert expected.shot_ids() == actual.shot_ids(), query
        assert [item.score for item in expected.items] == [
            item.score for item in actual.items
        ], query
        assert [item.rank for item in expected.items] == [
            item.rank for item in actual.items
        ], query


# -- router ----------------------------------------------------------------------


class TestShardRouter:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShardRouter(0)
        with pytest.raises(ValueError):
            ShardRouter(-3)

    def test_routing_is_deterministic_across_instances(self):
        ids = [f"shot-{index:04d}" for index in range(200)]
        first = [ShardRouter(5).shard_of(item) for item in ids]
        second = [ShardRouter(5).shard_of(item) for item in ids]
        assert first == second
        assert all(0 <= shard < 5 for shard in first)
        assert len(set(first)) > 1  # hash actually spreads

    def test_partition_covers_everything_in_order(self):
        router = ShardRouter(3)
        ids = [f"doc-{index}" for index in range(50)]
        parts = router.partition(ids)
        assert len(parts) == 3
        assert sorted(item for part in parts for item in part) == sorted(ids)
        for shard, part in enumerate(parts):
            assert [router.shard_of(item) for item in part] == [shard] * len(part)
            # Order within a shard is input order.
            assert part == [item for item in ids if router.shard_of(item) == shard]

    def test_partition_mapping_routes_payloads(self):
        router = ShardRouter(4)
        items = {f"doc-{index}": index for index in range(20)}
        parts = router.partition_mapping(items)
        merged = {}
        for part in parts:
            merged.update(part)
        assert merged == items


# -- facades ---------------------------------------------------------------------


class TestShardedFacades:
    def test_global_interning_matches_monolithic(self, sharding_corpus):
        mono = InvertedIndex.from_collection(sharding_corpus.collection)
        sharded = ShardedInvertedIndex.from_collection(
            sharding_corpus.collection, ShardRouter(3)
        )
        assert sharded.document_count == mono.document_count
        assert sharded.slots.ids == mono.slots.ids
        for document_id in mono.document_ids():
            assert sharded.slots[document_id] == mono.slots[document_id]
            assert sharded.document_vector(document_id) == mono.document_vector(
                document_id
            )
            assert sharded.document_length(document_id) == mono.document_length(
                document_id
            )

    def test_global_statistics_match_monolithic(self, sharding_corpus):
        mono = InvertedIndex.from_collection(sharding_corpus.collection)
        sharded = ShardedInvertedIndex.from_collection(
            sharding_corpus.collection, ShardRouter(4)
        )
        assert sharded.total_terms == mono.total_terms
        assert sharded.average_document_length == mono.average_document_length
        assert sharded.vocabulary_size == mono.vocabulary_size
        assert sorted(sharded.terms()) == sorted(mono.terms())
        for term in mono.terms():
            assert sharded.document_frequency(term) == mono.document_frequency(term)
            assert sharded.collection_frequency(term) == mono.collection_frequency(
                term
            )
        assert sharded.statistics() == mono.statistics()

    @pytest.mark.parametrize("scorer_class", (Bm25Scorer, TfIdfScorer))
    def test_shard_scorer_length_norms_match_monolithic(
        self, sharding_corpus, scorer_class
    ):
        # A shard scorer's per-length table is built from the shard's own
        # lengths under the global average; every live length of a shard
        # must map to the monolithic scorer's norm, bit for bit, also
        # after a write that moves the global average.
        mono = InvertedIndex.from_collection(sharding_corpus.collection)
        sharded = ShardedInvertedIndex.from_collection(
            sharding_corpus.collection, ShardRouter(3)
        )
        for step in range(2):
            if step:
                text = "election summit vote " * 40
                mono.add_document("long-doc", text)
                sharded.add_document("long-doc", text)
            mono_norms = scorer_class(mono)._norm_table()
            for shard in sharded.shard_indexes:
                norms = scorer_class(GlobalStatsView(shard, sharded))._norm_table()
                live = {shard.document_length(d) for d in shard.document_ids()}
                assert live <= set(norms)
                for length in live:
                    assert norms[length].hex() == mono_norms[length].hex()

    def test_writes_route_to_owning_shard_only(self, sharding_corpus):
        router = ShardRouter(3)
        sharded = ShardedInvertedIndex.from_collection(
            sharding_corpus.collection, router
        )
        generation = sharded.generation
        sharded.add_document("routed-doc-1", "election summit vote")
        assert sharded.generation == generation + 1
        owner = router.shard_of("routed-doc-1")
        for shard_number, shard in enumerate(sharded.shard_indexes):
            assert shard.has_document("routed-doc-1") == (shard_number == owner)
        assert sharded.has_document("routed-doc-1")

    def test_duplicate_ids_rejected_globally(self, sharding_corpus):
        sharded = ShardedInvertedIndex.from_collection(
            sharding_corpus.collection, ShardRouter(3)
        )
        existing = sharded.document_ids()[0]
        with pytest.raises(ValueError, match="already indexed"):
            sharded.add_document(existing, "anything")

    def test_text_facade_rejects_direct_scoring(self, sharding_corpus):
        # Scorers must be built over per-shard GlobalStatsViews; the facade
        # has no global postings columns, so wiring a scorer straight over
        # it fails loudly instead of ranking wrongly.
        sharded = ShardedInvertedIndex.from_collection(
            sharding_corpus.collection, ShardRouter(2)
        )
        assert not hasattr(sharded, "postings_arrays")
        # Norms are derived inside the scorers; the facade has no norm API.
        assert not any("norm" in name for name in dir(sharded))
        term = sharded.terms()[0]
        for scorer_class in (Bm25Scorer, TfIdfScorer):
            with pytest.raises(AttributeError):
                scorer_class(sharded).score([term])


# -- visual evidence -------------------------------------------------------------


def _neighbour_tables(engine) -> List[NeighbourTable]:
    """Every :class:`NeighbourTable` reachable from ``engine``'s own objects.

    Classes, modules and functions are not followed: through their globals
    every object in the interpreter is reachable.
    """
    found, seen, stack = [], set(), [engine]
    while stack:
        value = stack.pop()
        if id(value) in seen or isinstance(
            value, (type, types.ModuleType, types.FunctionType)
        ):
            continue
        seen.add(id(value))
        if isinstance(value, NeighbourTable):
            found.append(value)
        stack.extend(gc.get_referents(value))
    return found


def _scatter_pool_threads():
    return {
        thread for thread in threading.enumerate() if thread.name.startswith("shard")
    }


class TestVisualEvidence:
    """Shots are not sharded: one ``VisualIndex`` per engine, as monolithic."""

    WEIGHTS = {"crowd": 1.0, "flag": 0.4, "studio": 0.7}

    def test_equals_monolithic_through_one_neighbour_table(
        self, sharding_corpus, make_random_queries
    ):
        config = _config("bm25", "visual_heavy")
        mono = _monolithic(sharding_corpus, config)
        sharded = ShardedEngine(
            sharding_corpus.collection, config=config, num_shards=4
        )
        try:
            assert type(sharded.visual_index) is VisualIndex
            assert len(_neighbour_tables(mono)) == 1
            assert len(_neighbour_tables(sharded)) == 1
            shot_ids = mono.visual_index.shot_ids()
            for shot_id in shot_ids[:10]:
                assert sharded.visual_index.similar_to_shot(
                    shot_id, limit=15
                ) == mono.visual_index.similar_to_shot(shot_id, limit=15)
            concepts = Query(concept_weights=self.WEIGHTS)
            assert mono.concept_scores(concepts)
            assert sharded.concept_scores(concepts) == mono.concept_scores(concepts)
            queries = make_random_queries(sharding_corpus, seed=91, count=8)
            queries.append(
                Query(text="election vote", example_shot_ids=shot_ids[:2],
                      concept_weights=self.WEIGHTS)
            )
            assert_identical_rankings(mono, sharded, queries)
            features = mono.visual_index.features_of(shot_ids[0])
            with pytest.raises(ValueError, match="already in visual index"):
                sharded.index_shot(shot_ids[0], features)
        finally:
            sharded.close()

    @pytest.mark.parametrize("evidence", ("concepts", "example shot"))
    def test_visual_evidence_starts_no_pool_thread(self, sharding_corpus, evidence):
        before = _scatter_pool_threads()
        engine = ShardedEngine(
            sharding_corpus.collection,
            config=_config("bm25", "multimodal"),
            num_shards=4,
        )
        try:
            if evidence == "concepts":
                query = Query(concept_weights=self.WEIGHTS)
            else:
                query = Query(example_shot_ids=engine.visual_index.shot_ids()[:1])
            assert engine.search(query).items
            misses = engine.visual_index.neighbour_table_info()["misses"]
            assert misses == (evidence == "example shot")
            assert _scatter_pool_threads() - before == set()
        finally:
            engine.close()


# -- the equivalence matrix ------------------------------------------------------


class TestShardedRankingEquivalence:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("mode", sorted(FUSION_MODES))
    @pytest.mark.parametrize("scorer", ("bm25", "tfidf", "lm"))
    def test_bit_identical_rankings(
        self, sharding_corpus, make_random_queries, scorer, mode, num_shards
    ):
        random_queries = make_random_queries
        config = _config(scorer, mode)
        mono = _monolithic(sharding_corpus, config)
        sharded = ShardedEngine(
            sharding_corpus.collection, config=config, num_shards=num_shards
        )
        queries = random_queries(sharding_corpus, seed=7_000 + num_shards, count=10)
        assert_identical_rankings(mono, sharded, queries)

    @pytest.mark.parametrize("num_shards", (2, 3, 8))
    @pytest.mark.parametrize("scorer", ("bm25", "lm", "tfidf"))
    def test_bit_identical_after_interleaved_writes(
        self, sharding_corpus, make_random_queries, make_random_documents,
        scorer, num_shards,
    ):
        random_queries, random_documents = make_random_queries, make_random_documents
        # Result caches stay ON here: generation-keyed invalidation across
        # the write barrier is part of what this pins.
        config = EngineConfig(scorer=scorer)
        mono = VideoRetrievalEngine(sharding_corpus.collection, config=config)
        sharded = ShardedEngine(
            sharding_corpus.collection, config=config, num_shards=num_shards
        )
        queries = random_queries(sharding_corpus, seed=11, count=6)
        assert_identical_rankings(mono, sharded, queries)

        batch = random_documents(sharding_corpus, seed=21, count=5)
        mono.index_documents(batch)
        sharded.index_documents(batch)
        assert_identical_rankings(mono, sharded, queries)

        mono.index_document("late-doc-1", "election summit crisis vote")
        sharded.index_document("late-doc-1", "election summit crisis vote")

        dimensions = len(
            next(iter(sharding_corpus.collection.iter_shots())).features
        )
        rng = RandomSource(33).spawn("late-shot")
        features = tuple(rng.uniform(0.0, 1.0) for _ in range(dimensions))
        mono.index_shot("late-shot-1", features, {"crowd": 0.7})
        sharded.index_shot("late-shot-1", features, {"crowd": 0.7})

        post_write = random_queries(sharding_corpus, seed=31, count=6)
        post_write.append(Query(example_shot_ids=["late-shot-1"]))
        post_write.append(Query(text="election vote", concept_weights={"crowd": 1.0}))
        assert_identical_rankings(mono, sharded, post_write)

    def test_result_cache_still_identical(self, sharding_corpus, make_random_queries):
        random_queries = make_random_queries
        config = EngineConfig()  # caches on
        mono = VideoRetrievalEngine(sharding_corpus.collection, config=config)
        sharded = ShardedEngine(
            sharding_corpus.collection, config=config, num_shards=3
        )
        queries = random_queries(sharding_corpus, seed=55, count=5)
        # Twice: second pass is served from the result caches on both sides.
        assert_identical_rankings(mono, sharded, queries)
        assert_identical_rankings(mono, sharded, queries)


class _RecordingScorer(TextScorer):
    """A pass-through shard wrapper noting the thread each score runs on.

    It inherits ``may_block = True``, so a scatter over it takes the pool.
    """

    def __init__(self, inner: TextScorer, seen: List[str]) -> None:
        self._inner = inner
        self._seen = seen

    def score(self, query_terms):
        self._seen.append(threading.current_thread().name)
        return self._inner.score(query_terms)


def _record_shard_threads(engine: ShardedEngine) -> List[str]:
    """Wrap every shard scorer of ``engine``; returns the shared thread log."""
    seen: List[str] = []
    scorers = engine.text_scorer.shard_scorers
    scorers[:] = [_RecordingScorer(scorer, seen) for scorer in scorers]
    return seen


class TestPooledScatterEquivalence:
    """The pool branch of the text scatter merges exactly like the inline one.

    Built-in kernels score inline, so the matrix above never leaves the
    calling thread for text; wrapping each shard scorer in a scorer that may
    block routes the same scatter through the shard pool instead.
    """

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("scorer", ("bm25", "tfidf", "lm"))
    def test_bit_identical_rankings(
        self, sharding_corpus, make_random_queries, scorer, num_shards
    ):
        config = _config(scorer, "multimodal")
        mono = _monolithic(sharding_corpus, config)
        sharded = ShardedEngine(
            sharding_corpus.collection, config=config, num_shards=num_shards
        )
        try:
            seen = _record_shard_threads(sharded)
            queries = make_random_queries(
                sharding_corpus, seed=520 + num_shards, count=8
            )
            assert_identical_rankings(mono, sharded, queries)
            assert seen
            if num_shards == 1:
                # A single shard is a single item: it never leaves the caller.
                assert set(seen) == {threading.current_thread().name}
            else:
                assert all(name.startswith("shard") for name in seen)
        finally:
            sharded.close()

    @pytest.mark.parametrize("scorer", ("bm25", "tfidf", "lm"))
    def test_generation_refresh_after_interleaved_writes(
        self, sharding_corpus, make_random_queries, make_random_documents, scorer
    ):
        config = _config(scorer, "text_only")
        mono = VideoRetrievalEngine(sharding_corpus.collection, config=config)
        sharded = ShardedEngine(
            sharding_corpus.collection, config=config, num_shards=4
        )
        try:
            seen = _record_shard_threads(sharded)
            for round_index in range(3):
                queries = make_random_queries(
                    sharding_corpus, seed=700 + round_index, count=4
                )
                assert_identical_rankings(mono, sharded, queries)
                documents = make_random_documents(
                    sharding_corpus, seed=800 + round_index, count=5, prefix="pool"
                )
                mono.index_documents(documents)
                sharded.index_documents(documents)
            queries = make_random_queries(sharding_corpus, seed=790, count=6)
            assert_identical_rankings(mono, sharded, queries)
            assert seen and all(name.startswith("shard") for name in seen)
        finally:
            sharded.close()

    @pytest.mark.parametrize("scorer", ("bm25", "tfidf", "lm"))
    def test_search_after_engine_close_runs_inline(self, sharding_corpus, scorer):
        config = _config(scorer, "text_only")
        mono = _monolithic(sharding_corpus, config)
        sharded = ShardedEngine(
            sharding_corpus.collection, config=config, num_shards=3
        )
        seen = _record_shard_threads(sharded)
        query = Query(text="government election report")
        before = sharded.search(query)
        assert seen and all(name.startswith("shard") for name in seen)
        sharded.close()
        seen.clear()
        after = sharded.search(query)
        expected = mono.search(query)
        assert before.shot_ids() == after.shot_ids() == expected.shot_ids()
        assert [item.score for item in after.items] == [
            item.score for item in expected.items
        ]
        # The closed pool is never resurrected: every shard scored here.
        assert seen == [threading.current_thread().name] * 3
        sharded.close()  # idempotent


class TestShardScorerEquivalence:
    """Each shard's scorer, over its global-statistics view, scores its own
    documents exactly as the monolithic scorer does — the property that
    lets the gather be a plain union."""

    SCORERS = {
        "bm25": Bm25Scorer,
        "tfidf": TfIdfScorer,
        "lm": DirichletLanguageModelScorer,
    }

    @pytest.mark.parametrize("num_shards", (2, 3, 8))
    @pytest.mark.parametrize("scorer", sorted(SCORERS))
    def test_each_shard_scores_its_documents_as_monolithic(
        self, sharding_corpus, scorer, num_shards
    ):
        scorer_class = self.SCORERS[scorer]
        mono = InvertedIndex.from_collection(sharding_corpus.collection)
        sharded = ShardedInvertedIndex.from_collection(
            sharding_corpus.collection, ShardRouter(num_shards)
        )
        terms = sorted(mono.terms())
        queries = [
            terms[::97] + ["no-such-term"],
            {term: 0.5 + (index % 4) for index, term in enumerate(terms[3::53])},
        ]
        mono_scorer = scorer_class(mono)
        for query_terms in queries:
            expected = mono_scorer.score(query_terms)
            merged = {}
            for shard in sharded.shard_indexes:
                view = GlobalStatsView(shard, sharded)
                actual = scorer_class(view).score(query_terms)
                owned = set(shard.slots.ids)
                assert set(actual) <= owned
                assert actual == {
                    doc_id: score
                    for doc_id, score in expected.items()
                    if doc_id in owned
                }
                merged.update(actual)
            assert merged == expected


# -- service-level equivalence ---------------------------------------------------


class TestServiceSharding:
    def _drive(self, service: RetrievalService, corpus) -> List:
        topic = corpus.topics.topics()[0]
        query = " ".join(topic.query_terms[:2])
        observations = []
        info = service.open_session("alice", policy="combined",
                                    topic_id=topic.topic_id)
        first = service.search(
            SearchRequest(
                user_id="alice", query=query, session_id=info.session_id,
                topic_id=topic.topic_id,
            )
        )
        observations.append([(hit.shot_id, hit.score) for hit in first.hits])
        events = tuple(
            InteractionEvent(
                kind=EventKind.PLAY_CLICK,
                timestamp=float(hit.rank),
                shot_id=hit.shot_id,
                rank=hit.rank,
            )
            for hit in first.top(3)
        )
        service.submit_feedback(
            FeedbackBatch(user_id="alice", events=events,
                          session_id=info.session_id)
        )
        second = service.search(
            SearchRequest(
                user_id="alice", query=query, session_id=info.session_id,
                topic_id=topic.topic_id,
            )
        )
        observations.append([(hit.shot_id, hit.score) for hit in second.hits])
        return observations

    @pytest.mark.parametrize("num_shards", (2, 3))
    def test_adaptive_sessions_identical_across_sharding(
        self, sharding_corpus, num_shards
    ):
        baseline = RetrievalService.from_corpus(
            sharding_corpus, config=ServiceConfig(result_cache_size=0)
        )
        sharded = RetrievalService.from_corpus(
            sharding_corpus,
            config=ServiceConfig(result_cache_size=0, num_shards=num_shards),
        )
        assert self._drive(baseline, sharding_corpus) == self._drive(
            sharded, sharding_corpus
        )

    def test_close_shuts_scatter_pool_and_service_stays_usable(
        self, sharding_corpus
    ):
        topic = sharding_corpus.topics.topics()[0]
        query = " ".join(topic.query_terms[:2])
        with RetrievalService.from_corpus(
            sharding_corpus, config=ServiceConfig(num_shards=3)
        ) as service:
            before = service.search(SearchRequest(user_id="alice", query=query))
            assert len(before) > 0
        # The context exit closed the scatter pool; the service still
        # serves (gathers run inline) with identical results.
        after = service.search(SearchRequest(user_id="alice", query=query))
        assert after.shot_ids() == before.shot_ids()
        service.close()  # idempotent

    def test_num_shards_one_builds_plain_engine(self, sharding_corpus):
        service = RetrievalService.from_corpus(
            sharding_corpus, config=ServiceConfig(num_shards=1)
        )
        assert type(service.engine) is VideoRetrievalEngine
        sharded = RetrievalService.from_corpus(
            sharding_corpus, config=ServiceConfig(num_shards=2)
        )
        assert isinstance(sharded.engine, ShardedEngine)
        assert sharded.engine.num_shards == 2


# -- fault injection --------------------------------------------------------------


class _FaultyScorer(TextScorer):
    """Wraps a shard scorer; fails the next ``failures`` evaluations."""

    def __init__(self, inner: TextScorer, failures: int = 1) -> None:
        self._inner = inner
        self.failures_remaining = failures
        self.calls = 0

    def score(self, query_terms):
        self.calls += 1
        if self.failures_remaining > 0:
            self.failures_remaining -= 1
            raise RuntimeError("injected shard failure")
        return self._inner.score(query_terms)


class _SlowScorer(TextScorer):
    """Wraps a shard scorer with a fixed stall (a straggler shard)."""

    def __init__(self, inner: TextScorer, stall_seconds: float) -> None:
        self._inner = inner
        self._stall_seconds = stall_seconds

    def score(self, query_terms):
        time.sleep(self._stall_seconds)
        return self._inner.score(query_terms)


class TestFaultInjection:
    def test_shard_failure_propagates_and_does_not_poison_caches(
        self, sharding_corpus
    ):
        config = EngineConfig()  # result cache ON: a failure must not cache
        mono = _monolithic(
            sharding_corpus, dataclasses.replace(config, result_cache_size=0)
        )
        sharded = ShardedEngine(
            sharding_corpus.collection, config=config, num_shards=3
        )
        query = Query.from_text("election government summit")
        scorers = sharded.text_scorer.shard_scorers
        faulty = _FaultyScorer(scorers[1], failures=1)
        scorers[1] = faulty
        with pytest.raises(RuntimeError, match="injected shard failure"):
            sharded.search(query)
        # The failed evaluation must not have been cached; the retry runs
        # the genuine scatter and matches the monolithic ranking exactly.
        recovered = sharded.search(query)
        expected = mono.search(query)
        assert recovered.shot_ids() == expected.shot_ids()
        assert [item.score for item in recovered.items] == [
            item.score for item in expected.items
        ]
        assert faulty.calls >= 2

    def test_flaky_shard_recovers_after_repeated_failures(self, sharding_corpus):
        sharded = ShardedEngine(
            sharding_corpus.collection,
            config=EngineConfig(result_cache_size=0),
            num_shards=2,
        )
        scorers = sharded.text_scorer.shard_scorers
        scorers[0] = _FaultyScorer(scorers[0], failures=2)
        topic = sharding_corpus.topics.topics()[0]
        query = Query.from_text(" ".join(topic.query_terms[:2]))
        for _ in range(2):
            with pytest.raises(RuntimeError):
                sharded.search(query)
        assert len(sharded.search(query)) > 0

    def test_straggler_shard_does_not_corrupt_merge(
        self, sharding_corpus, make_random_queries
    ):
        random_queries = make_random_queries
        config = _config("bm25", "multimodal")
        mono = _monolithic(sharding_corpus, config)
        sharded = ShardedEngine(
            sharding_corpus.collection, config=config, num_shards=4
        )
        scorers = sharded.text_scorer.shard_scorers
        scorers[2] = _SlowScorer(scorers[2], stall_seconds=0.02)
        assert_identical_rankings(
            mono, sharded, random_queries(sharding_corpus, seed=99, count=4)
        )

    def test_failed_mid_batch_write_leaves_identical_state(
        self, sharding_corpus, make_random_queries
    ):
        random_queries = make_random_queries
        config = EngineConfig(result_cache_size=0)
        mono = VideoRetrievalEngine(sharding_corpus.collection, config=config)
        sharded = ShardedEngine(
            sharding_corpus.collection, config=config, num_shards=3
        )
        existing = next(iter(sharding_corpus.collection.iter_shots())).shot_id
        # Ordered mapping with the duplicate mid-batch: batch ingest is
        # atomic, so both engines reject the whole batch and neither "w1"
        # nor "w2" leaks in as partial state.
        batch = {
            "w1": "summit election",
            existing: "duplicate payload",
            "w2": "crisis vote",
        }
        with pytest.raises(ValueError, match="already indexed"):
            mono.index_documents(batch)
        with pytest.raises(ValueError, match="already indexed"):
            sharded.index_documents(batch)
        for engine in (mono, sharded):
            assert not engine.inverted_index.has_document("w1")
            assert not engine.inverted_index.has_document("w2")
        assert_identical_rankings(
            mono, sharded, random_queries(sharding_corpus, seed=101, count=5)
        )

    def test_writes_still_apply_after_read_side_fault(self, sharding_corpus):
        sharded = ShardedEngine(
            sharding_corpus.collection,
            config=EngineConfig(result_cache_size=0),
            num_shards=2,
        )
        scorers = sharded.text_scorer.shard_scorers
        scorers[1] = _FaultyScorer(scorers[1], failures=1)
        with pytest.raises(RuntimeError):
            sharded.search_text("election")
        sharded.index_document("post-fault-doc", "election landslide victory")
        assert sharded.inverted_index.has_document("post-fault-doc")
        results = sharded.search_text("landslide")
        assert "post-fault-doc" in results.shot_ids()


# -- scatter-gather helper --------------------------------------------------------


class TestScatterGather:
    def test_results_in_item_order(self):
        gather = ScatterGather(4)
        try:
            items = list(range(20))
            assert gather.map(lambda item: item * item, items) == [
                item * item for item in items
            ]
        finally:
            gather.close()

    def test_first_exception_propagates(self):
        gather = ScatterGather(4)
        try:
            def task(item):
                if item == 3:
                    raise ValueError("boom-3")
                return item

            with pytest.raises(ValueError, match="boom-3"):
                gather.map(task, [1, 2, 3, 4])
        finally:
            gather.close()

    def test_pool_stays_usable_after_a_task_error(self):
        gather = ScatterGather(2)
        try:
            with pytest.raises(ZeroDivisionError):
                gather.map(lambda item: 1 // item, [1, 0, 2])
            assert gather.map(lambda item: item * item, [5, 6]) == [25, 36]
            assert not gather.closed
        finally:
            gather.close()

    def test_single_item_runs_inline_on_a_multi_worker_gather(self):
        gather = ScatterGather(4)
        try:
            assert gather.map(lambda item: threading.current_thread().name, [7]) == [
                threading.current_thread().name
            ]
        finally:
            gather.close()

    def test_pool_threads_are_bounded_and_reused(self):
        gather = ScatterGather(3, thread_name_prefix="reuse")
        names: List[str] = []

        def task(item):
            time.sleep(0.01)
            names.append(threading.current_thread().name)
            return item

        try:
            for _ in range(4):
                assert gather.map(task, list(range(6))) == list(range(6))
            assert len(names) == 24
            assert all(name.startswith("reuse") for name in names)
            assert len(set(names)) <= 3
        finally:
            gather.close()

    def test_map_after_close_runs_on_the_calling_thread(self):
        gather = ScatterGather(3)
        here = threading.current_thread().name
        assert all(
            name != here
            for name in gather.map(
                lambda _: threading.current_thread().name, [1, 2, 3]
            )
        )
        gather.close()
        assert gather.map(lambda _: threading.current_thread().name, [1, 2, 3]) == [
            here
        ] * 3

    def test_close_racing_slow_maps_finishes_every_batch(self):
        gather = ScatterGather(2)
        errors: List[BaseException] = []
        results: List[List[int]] = []

        def slow_square(value: int) -> int:
            time.sleep(0.05)
            return value * value

        def mapper() -> None:
            try:
                for _ in range(5):
                    results.append(gather.map(slow_square, [1, 2, 3]))
            except BaseException as error:  # pragma: no cover - the failure mode
                errors.append(error)

        threads = [threading.Thread(target=mapper) for _ in range(3)]
        for thread in threads:
            thread.start()
        time.sleep(0.08)
        gather.close()
        for thread in threads:
            thread.join()
        assert not errors
        assert results == [[1, 4, 9]] * 15

    def test_single_worker_runs_inline(self):
        gather = ScatterGather(1)
        thread_names = []
        gather.map(
            lambda item: thread_names.append(threading.current_thread().name),
            [1, 2, 3],
        )
        assert set(thread_names) == {threading.current_thread().name}

    def test_close_is_idempotent_and_map_still_works(self):
        gather = ScatterGather(3)
        assert gather.map(lambda item: item + 1, [1, 2, 3]) == [2, 3, 4]
        gather.close()
        gather.close()
        assert gather.closed
        assert gather.map(lambda item: item + 1, [1, 2, 3]) == [2, 3, 4]

    def test_close_racing_maps_never_hands_out_a_dead_pool(self):
        """Many maps racing many closes: no 'cannot schedule new futures'."""
        for _ in range(20):
            gather = ScatterGather(4)
            errors: List[BaseException] = []
            barrier = threading.Barrier(4)

            def mapper() -> None:
                try:
                    barrier.wait()
                    for _ in range(10):
                        assert gather.map(lambda value: value * 2, [1, 2, 3]) == [
                            2,
                            4,
                            6,
                        ]
                except BaseException as error:
                    errors.append(error)

            def closer() -> None:
                barrier.wait()
                gather.close()

            threads = [threading.Thread(target=mapper) for _ in range(3)]
            threads.append(threading.Thread(target=closer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors

    def test_concurrent_closes_race_cleanly(self):
        gather = ScatterGather(4)
        gather.map(lambda value: value, [1, 2])  # materialise the pool
        barrier = threading.Barrier(4)

        def closer() -> None:
            barrier.wait()
            gather.close()

        threads = [threading.Thread(target=closer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert gather.closed

    def test_validation(self):
        with pytest.raises(ValueError):
            ScatterGather(0)

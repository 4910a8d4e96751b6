"""Shard segments: the router, the on-disk split, and one index per engine.

``ServiceConfig(num_shards=N)`` splits a durable directory's WAL and
snapshot deltas into N segments by :class:`ShardRouter`; it selects nothing
in memory.  This suite pins

* the router: validation, determinism, order-preserving partitions;
* that a service's engine is the monolithic one at every shard count, by
  counts that hold on any host: one :class:`InvertedIndex` and one text
  scorer in its object graph, no thread started by a search, and one dense
  column behind a ranking — in memory and reopened from its segments;
* that every write lands in the WAL segment its id routes to, and that a
  directory reopened from N segments holds the monolithic interning,
  statistics and length norms;
* the equivalence matrix: for every scorer, fusion mode and shard count, a
  service — in memory and reopened from its segments, also after
  interleaved writes — ranks **bit-identically** (ids, scores, ranks) to
  the monolithic engine, over the seeded random queries of ``conftest``;
* that a scorer which may block is still scored once a search, on the
  calling thread, at every shard count;
* that a failing, flaky or slow scorer (registered with
  ``register_scorer``) propagates its error and never poisons the result
  cache, the index, the WAL or the write path, in memory and durable.

Recovery digests and replicas at ``num_shards=4`` are pinned by
``test_durability_recovery.py``.

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

from repro.durability.wal import WalSegment, segment_filename
from repro.feedback import EventKind, InteractionEvent
from repro.index import Bm25Scorer, DenseScores, InvertedIndex
from repro.index.scoring import TextScorer
from repro.index.visual import NeighbourTable, VisualIndex
from repro.retrieval import Query, VideoRetrievalEngine
from repro.service import (
    FeedbackBatch,
    RetrievalService,
    SearchRequest,
    ServiceConfig,
    register_scorer,
)
from repro.service.registry import SCORER_REGISTRY, create_scorer
from repro.sharding import ShardRouter
from repro.utils.rng import RandomSource

pytestmark = pytest.mark.shard

#: The acceptance matrix's shard counts.
SHARD_COUNTS = (1, 2, 3, 8)

SCORERS = ("bm25", "tfidf", "lm")

#: Fusion modes: engine-weight configurations selecting which evidence
#: sources can contribute (the randomized queries then sweep which sources
#: actually fire per query, including the single-source fast path).
FUSION_MODES = {
    "multimodal": {},
    "text_only": {"visual_weight": 0.0, "concept_weight": 0.0},
    "visual_heavy": {"text_weight": 0.5, "visual_weight": 1.0, "concept_weight": 0.8},
}


def _config(scorer: str = "bm25", mode: str = "multimodal", **overrides) -> ServiceConfig:
    # The result cache is off in the matrix so every search is a genuine
    # evaluation; cache interplay has its own tests.
    fields = {"scorer": scorer, "result_cache_size": 0, **FUSION_MODES[mode]}
    fields.update(overrides)
    return ServiceConfig(**fields)


def _durable(config: ServiceConfig, directory) -> ServiceConfig:
    # A checkpoint every four mutations: writes land in WAL segments and
    # in per-segment snapshot deltas.
    return dataclasses.replace(
        config,
        durability_dir=str(directory),
        fsync_policy="never",
        snapshot_interval_ops=4,
    )


def _reopen(corpus, config: ServiceConfig) -> RetrievalService:
    """Create the durable directory ``config`` names, close it, reopen it."""
    RetrievalService.from_corpus(corpus, config=config).close()
    return RetrievalService.from_corpus(corpus, config=config)


#: Monolithic engines are pure functions of (corpus, scorer, mode); cache
#: them across the parametrized matrix so each is built once.
_MONO_CACHE = {}


def _monolithic(corpus, scorer: str = "bm25", mode: str = "multimodal") -> VideoRetrievalEngine:
    """The engine built straight over the collection: no service, no registry."""
    key = (id(corpus), scorer, mode)
    if key not in _MONO_CACHE:
        _MONO_CACHE[key] = VideoRetrievalEngine(
            corpus.collection, config=_config(scorer, mode).engine_config()
        )
    return _MONO_CACHE[key]


def assert_identical_rankings(
    mono: VideoRetrievalEngine,
    engine: VideoRetrievalEngine,
    queries: List[Query],
    limit=None,
) -> None:
    """Bit-identical ids, scores and ranks for every query."""
    for query in queries:
        expected = mono.search(query, limit=limit)
        actual = engine.search(query, limit=limit)
        assert expected.shot_ids() == actual.shot_ids(), query
        assert [item.score for item in expected.items] == [
            item.score for item in actual.items
        ], query
        assert [item.rank for item in expected.items] == [
            item.rank for item in actual.items
        ], query


def _reachable(root, kind):
    """Every ``kind`` instance reachable from ``root``'s own objects.

    Classes, modules and functions are not followed: through their globals
    every object in the interpreter is reachable.
    """
    found, seen, stack = [], set(), [root]
    while stack:
        value = stack.pop()
        if id(value) in seen or isinstance(
            value, (type, types.ModuleType, types.FunctionType)
        ):
            continue
        seen.add(id(value))
        if isinstance(value, kind):
            found.append(value)
        stack.extend(gc.get_referents(value))
    return found


def _query(corpus) -> str:
    return " ".join(corpus.topics.topics()[0].query_terms[:2])


def _wal_records(directory, num_shards):
    """``[(segment, record)]`` for every record in a directory's WAL."""
    logged = []
    for shard in range(num_shards):
        records, error = WalSegment(directory / segment_filename(shard)).scan()
        assert error is None
        logged.extend((shard, record) for record in records)
    return logged


@pytest.fixture()
def service_at(sharding_corpus, tmp_path):
    """``service_at(num_shards, durable=False, **config)``: a service over
    the sharding corpus; a durable one is created, closed and reopened."""
    built = []

    def build(num_shards, durable=False, **config):
        config = ServiceConfig(num_shards=num_shards, **config)
        if durable:
            directory = tmp_path / f"d{len(built)}"
            service = _reopen(sharding_corpus, _durable(config, directory))
        else:
            service = RetrievalService.from_corpus(sharding_corpus, config=config)
        built.append(service)
        return service

    yield build
    for service in built:
        service.close()


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


# -- one index per engine ------------------------------------------------------------


class _Wrapped(TextScorer):
    """A registered scorer around another, with ``TextScorer``'s ``may_block``.

    Fails its first ``failures`` evaluations and stalls ``stall_seconds``
    in each, then passes through.
    """

    def __init__(self, inner: TextScorer, failures: int = 0, stall_seconds: float = 0.0) -> None:
        self.inner = inner
        self.failures_remaining = failures
        self.stall_seconds = stall_seconds
        self.calls = 0

    def score(self, query_terms):
        self.calls += 1
        if self.stall_seconds:
            time.sleep(self.stall_seconds)
        if self.failures_remaining > 0:
            self.failures_remaining -= 1
            raise RuntimeError("injected scorer failure")
        return self.inner.score(query_terms)


@pytest.fixture()
def wrapped_service(sharding_corpus, tmp_path):
    """``wrapped_service(failures, stall_seconds, durable, **config)``: a
    4-shard service whose scorer is a registered :class:`_Wrapped` around
    BM25; returns ``(service, scorers built)``."""
    built = []

    def build(failures=0, stall_seconds=0.0, durable=False, **config):
        scorers = []

        def factory(index, _config):
            scorers.append(_Wrapped(Bm25Scorer(index), failures, stall_seconds))
            return scorers[-1]

        register_scorer("wrapped", factory, overwrite=True)
        config = ServiceConfig(**{"scorer": "wrapped", "num_shards": 4, **config})
        if durable:
            config = _durable(config, tmp_path / f"w{len(built)}")
        service = RetrievalService.from_corpus(sharding_corpus, config=config)
        built.append(service)
        return service, scorers

    yield build
    for service in built:
        service.close()
    SCORER_REGISTRY.unregister("wrapped")


@pytest.mark.parametrize("num_shards", (1, 2, 4, 8))
class TestOneTextIndex:
    """An in-memory service holds exactly the monolithic engine at any count."""

    def test_engine_reaches_one_index_and_one_scorer(self, service_at, num_shards):
        engine = service_at(num_shards).engine
        assert len(_reachable(engine, InvertedIndex)) == 1
        assert len(_reachable(engine, TextScorer)) == 1

    def test_reopened_engine_reaches_one_index_and_one_scorer(
        self, service_at, num_shards
    ):
        # Recovery rebuilds one index from every segment, not one a segment.
        engine = service_at(num_shards, durable=True).engine
        assert type(engine.inverted_index) is InvertedIndex
        assert len(_reachable(engine, InvertedIndex)) == 1
        assert len(_reachable(engine, TextScorer)) == 1

    def test_engine_inverted_index_is_an_inverted_index(self, service_at, num_shards):
        engine = service_at(num_shards).engine
        assert type(engine) is VideoRetrievalEngine
        assert type(engine.inverted_index) is InvertedIndex

    def test_search_starts_no_thread(self, sharding_corpus, wrapped_service, num_shards):
        # The scorer may block: an engine with in-memory text shards
        # started a thread pool to score them.
        service, _ = wrapped_service(num_shards=num_shards)
        query = _query(sharding_corpus)
        before = set(threading.enumerate())
        assert service.engine.search_text(query).items
        assert service.search(SearchRequest(user_id="alice", query=query)).hits
        assert set(threading.enumerate()) == before

    def test_one_dense_column_behind_a_search(
        self, service_at, sharding_corpus, num_shards
    ):
        engine = service_at(num_shards).engine
        scored = []
        text_scores = engine.text_scores
        engine.text_scores = lambda query: scored.append(text_scores(query)) or scored[-1]
        assert engine.search_text(_query(sharding_corpus)).items
        (scores,) = scored
        assert isinstance(scores, DenseScores)
        assert scores.ids is engine.inverted_index.slots.ids
        assert len(scores) == len(scores.candidates) > 0


# -- segments ---------------------------------------------------------------------


class TestWalSegments:
    @pytest.mark.parametrize("num_shards", (1, 2, 3, 4, 8))
    def test_writes_land_in_the_segment_their_id_routes_to(
        self, sharding_corpus, tmp_path, num_shards
    ):
        directory = tmp_path / "d"
        service = RetrievalService.from_corpus(
            sharding_corpus,
            config=ServiceConfig(num_shards=num_shards, durability_dir=str(directory)),
        )
        shot_id = service.engine.visual_index.shot_ids()[0]
        features = service.engine.visual_index.features_of(shot_id)
        documents = {f"routed-{number}": "election summit vote" for number in range(12)}
        service.index_documents(documents)
        service.index_shot("routed-shot", features, {"crowd": 0.5})
        service.delete_document("routed-3")
        service.close()
        router, logged = ShardRouter(num_shards), []
        for shard, record in _wal_records(directory, num_shards):
            assert router.shard_of(record["id"]) == shard, record
            logged.append(str(record["id"]))
        assert sorted(logged) == sorted([*documents, "routed-shot", "routed-3"])


@pytest.mark.parametrize("num_shards", (3, 4))
class TestReopenedIndex:
    """A directory reopened from N segments holds the monolithic text index:
    recovery merges the segments back under the global interning order."""

    @pytest.fixture()
    def indexes(self, sharding_corpus, make_random_documents, tmp_path, num_shards):
        """``indexes(scorer)``: ``(reopened service, monolithic index)``, both
        after the same writes; the service logged them into its segments."""
        opened = []

        def build(scorer="bm25"):
            config = _durable(
                _config(scorer, num_shards=num_shards), tmp_path / f"d{len(opened)}"
            )
            documents = make_random_documents(sharding_corpus, seed=61, count=9)
            documents["long-doc"] = "election summit vote " * 40
            mono = InvertedIndex.from_collection(sharding_corpus.collection)
            service = RetrievalService.from_corpus(sharding_corpus, config=config)
            for document_id, text in documents.items():
                mono.add_document(document_id, text)
                service.index_documents({document_id: text})
            victim = sorted(documents)[0]
            mono.delete_document(victim)
            service.delete_document(victim)
            service.close()
            # Recovery rebuilds the live documents only: no tombstone slot.
            mono.compact()
            opened.append(RetrievalService.from_corpus(sharding_corpus, config=config))
            return opened[-1], mono

        yield build
        for service in opened:
            service.close()

    def test_global_interning_matches_monolithic(self, indexes):
        service, mono = indexes()
        reopened = service.engine.inverted_index
        assert reopened.document_count == mono.document_count
        assert reopened.slots.ids == mono.slots.ids
        for document_id in mono.document_ids():
            assert reopened.slots[document_id] == mono.slots[document_id]
            assert reopened.document_vector(document_id) == mono.document_vector(
                document_id
            )
            assert reopened.document_length(document_id) == mono.document_length(
                document_id
            )

    def test_global_statistics_match_monolithic(self, indexes):
        service, mono = indexes()
        reopened = service.engine.inverted_index
        assert reopened.total_terms == mono.total_terms
        assert reopened.average_document_length == mono.average_document_length
        assert reopened.vocabulary_size == mono.vocabulary_size
        assert sorted(reopened.terms()) == sorted(mono.terms())
        for term in mono.terms():
            assert reopened.document_frequency(term) == mono.document_frequency(term)
            assert reopened.collection_frequency(term) == mono.collection_frequency(
                term
            )
        assert reopened.statistics() == mono.statistics()

    @pytest.mark.parametrize("scorer", ("bm25", "tfidf"))
    def test_scorer_length_norms_match_monolithic(self, indexes, scorer):
        # The reopened service's registry-built scorer derives its
        # per-length table from the merged index: every live length maps
        # to the monolithic scorer's norm, bit for bit.
        service, mono = indexes(scorer)
        config = service.config
        norms = service.engine._text_scorer._norm_table()
        mono_norms = create_scorer(scorer, mono, config)._norm_table()
        live = {mono.document_length(d) for d in mono.document_ids()}
        assert live <= set(norms)
        for length in live:
            assert norms[length].hex() == mono_norms[length].hex()

    def test_duplicate_ids_rejected_globally(self, indexes, num_shards):
        # One existing id from every segment: each is refused before
        # anything reaches that segment's log.
        service, _ = indexes()
        directory = service.engine.durability.directory
        router = ShardRouter(num_shards)
        owners = {}
        for document_id in service.engine.inverted_index.document_ids():
            owners.setdefault(router.shard_of(document_id), document_id)
        assert sorted(owners) == list(range(num_shards))
        logged = _wal_records(directory, num_shards)
        for document_id in owners.values():
            with pytest.raises(ValueError, match="already indexed"):
                service.index_documents({document_id: "anything"})
        assert _wal_records(directory, num_shards) == logged


# -- the equivalence matrix ------------------------------------------------------


class TestShardedRankingEquivalence:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("mode", sorted(FUSION_MODES))
    @pytest.mark.parametrize("scorer", SCORERS)
    def test_bit_identical_rankings(
        self, sharding_corpus, make_random_queries, tmp_path, scorer, mode, num_shards
    ):
        mono = _monolithic(sharding_corpus, scorer, mode)
        queries = make_random_queries(sharding_corpus, seed=7_000 + num_shards, count=10)
        config = _config(scorer, mode, num_shards=num_shards)
        with RetrievalService.from_corpus(sharding_corpus, config=config) as service:
            assert_identical_rankings(mono, service.engine, queries)
        durable = _durable(config, tmp_path / "d")
        with _reopen(sharding_corpus, durable) as reopened:
            assert_identical_rankings(mono, reopened.engine, queries)

    @pytest.mark.parametrize("num_shards", (2, 3, 8))
    @pytest.mark.parametrize("scorer", ("bm25", "lm", "tfidf"))
    def test_bit_identical_after_interleaved_writes(
        self, sharding_corpus, make_random_queries, make_random_documents, tmp_path,
        scorer, num_shards,
    ):
        # Result caches stay ON here: generation-keyed invalidation across
        # the write barrier is part of what this pins.  Every write is
        # logged into the segment its id routes to, and the reopened
        # directory ranks as the engine that applied the writes in memory.
        config = _durable(
            ServiceConfig(scorer=scorer, num_shards=num_shards), tmp_path / "d"
        )
        mono = VideoRetrievalEngine(
            sharding_corpus.collection, config=config.engine_config()
        )
        service = RetrievalService.from_corpus(sharding_corpus, config=config)
        queries = make_random_queries(sharding_corpus, seed=11, count=6)
        assert_identical_rankings(mono, service.engine, queries)

        batch = make_random_documents(sharding_corpus, seed=21, count=5)
        mono.index_documents(batch)
        service.index_documents(batch)
        assert_identical_rankings(mono, service.engine, queries)

        mono.index_document("late-doc-1", "election summit crisis vote")
        service.index_documents({"late-doc-1": "election summit crisis vote"})
        victim = sorted(batch)[0]
        mono.delete_document(victim)
        service.delete_document(victim)

        dimensions = len(
            next(iter(sharding_corpus.collection.iter_shots())).features
        )
        rng = RandomSource(33).spawn("late-shot")
        features = tuple(rng.uniform(0.0, 1.0) for _ in range(dimensions))
        mono.index_shot("late-shot-1", features, {"crowd": 0.7})
        service.index_shot("late-shot-1", features, {"crowd": 0.7})

        post_write = make_random_queries(sharding_corpus, seed=31, count=6)
        post_write.append(Query(example_shot_ids=["late-shot-1"]))
        post_write.append(Query(text="election vote", concept_weights={"crowd": 1.0}))
        assert_identical_rankings(mono, service.engine, post_write)
        service.close()
        with RetrievalService.from_corpus(sharding_corpus, config=config) as reopened:
            assert_identical_rankings(mono, reopened.engine, post_write)

    def test_result_cache_still_identical(self, sharding_corpus, make_random_queries):
        config = ServiceConfig(num_shards=3)  # caches on
        mono = VideoRetrievalEngine(
            sharding_corpus.collection, config=config.engine_config()
        )
        queries = make_random_queries(sharding_corpus, seed=55, count=5)
        with RetrievalService.from_corpus(sharding_corpus, config=config) as service:
            # Twice: the second pass is served from the result caches.
            assert_identical_rankings(mono, service.engine, queries)
            assert_identical_rankings(mono, service.engine, queries)
            assert service.engine.result_cache_stats()["hits"] == len(queries)


class _RecordingScorer(TextScorer):
    """A registered pass-through scorer noting the thread each score runs on.

    It inherits ``may_block = True``: an engine with in-memory text shards
    sent such a scorer's shards to a thread pool.
    """

    def __init__(self, inner: TextScorer, seen: List[str]) -> None:
        self._inner = inner
        self._seen = seen

    def score(self, query_terms):
        self._seen.append(threading.current_thread().name)
        return self._inner.score(query_terms)


@pytest.fixture()
def recording_service(sharding_corpus):
    """``recording_service(scorer, mode, **config)``: a service whose scorer
    is ``scorer`` wrapped in a :class:`_RecordingScorer`; returns
    ``(service, thread names seen)``."""
    built = []

    def build(scorer, mode="multimodal", **config):
        seen: List[str] = []
        register_scorer(
            "recording",
            lambda index, settings: _RecordingScorer(
                create_scorer(scorer, index, settings), seen
            ),
            overwrite=True,
        )
        service = RetrievalService.from_corpus(
            sharding_corpus, config=_config("recording", mode, **config)
        )
        built.append(service)
        assert service.engine.may_block
        return service, seen

    yield build
    for service in built:
        service.close()
    SCORER_REGISTRY.unregister("recording")


class TestBlockingScorerEquivalence:
    """A scorer that may block is scored on the searching thread.

    One index per engine leaves nothing to scatter whatever ``num_shards``
    says; where a blocking request runs is the serving edge's choice
    (``test_serving.py``), not the engine's.
    """

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("scorer", SCORERS)
    def test_bit_identical_rankings(
        self, sharding_corpus, make_random_queries, recording_service, scorer, num_shards
    ):
        service, seen = recording_service(scorer, num_shards=num_shards)
        mono = _monolithic(sharding_corpus, scorer)
        queries = make_random_queries(sharding_corpus, seed=520 + num_shards, count=8)
        assert_identical_rankings(mono, service.engine, queries)
        assert seen
        assert set(seen) == {threading.current_thread().name}

    @pytest.mark.parametrize("scorer", SCORERS)
    def test_generation_refresh_after_interleaved_writes(
        self, sharding_corpus, make_random_queries, make_random_documents,
        recording_service, scorer,
    ):
        service, seen = recording_service(scorer, "text_only", num_shards=4)
        mono = VideoRetrievalEngine(
            sharding_corpus.collection, config=_config(scorer, "text_only").engine_config()
        )
        for round_index in range(3):
            queries = make_random_queries(sharding_corpus, seed=700 + round_index, count=4)
            assert_identical_rankings(mono, service.engine, queries)
            documents = make_random_documents(
                sharding_corpus, seed=800 + round_index, count=5, prefix="pool"
            )
            mono.index_documents(documents)
            service.index_documents(documents)
        queries = make_random_queries(sharding_corpus, seed=790, count=6)
        assert_identical_rankings(mono, service.engine, queries)
        assert seen
        assert set(seen) == {threading.current_thread().name}

    @pytest.mark.parametrize("scorer", SCORERS)
    def test_search_after_service_close_runs_inline(
        self, sharding_corpus, recording_service, scorer
    ):
        service, seen = recording_service(scorer, "text_only", num_shards=3)
        mono = _monolithic(sharding_corpus, scorer, "text_only")
        query = Query(text="government election report")
        before = service.engine.search(query)
        service.close()
        after = service.engine.search(query)
        expected = mono.search(query)
        assert before.shot_ids() == after.shot_ids() == expected.shot_ids()
        assert [item.score for item in after.items] == [
            item.score for item in expected.items
        ]
        # One score a search, each on this thread.
        assert seen == [threading.current_thread().name] * 2
        service.close()  # idempotent


class TestSegmentScorerEquivalence:
    """The scorer of a directory reopened from N segments scores every
    document exactly as the monolithic scorer does, whichever segment
    logged it."""

    @pytest.mark.parametrize("num_shards", (2, 3, 8))
    @pytest.mark.parametrize("scorer", SCORERS)
    def test_each_segment_scores_its_documents_as_monolithic(
        self, sharding_corpus, make_random_documents, tmp_path, scorer, num_shards
    ):
        config = _durable(_config(scorer, num_shards=num_shards), tmp_path / "d")
        documents = make_random_documents(
            sharding_corpus, seed=61, count=9, prefix="segment"
        )
        service = RetrievalService.from_corpus(sharding_corpus, config=config)
        service.index_documents(documents)
        service.close()
        mono = InvertedIndex.from_collection(sharding_corpus.collection)
        for document_id, text in documents.items():
            mono.add_document(document_id, text)
        mono_scorer = create_scorer(scorer, mono, config)
        terms = sorted(mono.terms())
        written_terms = {
            term for text in documents.values() for term in mono.tokenizer.tokenize(text)
        }
        queries = [
            terms[::97] + ["no-such-term"],
            {term: 0.5 + (index % 4) for index, term in enumerate(terms[3::53])},
            sorted(written_terms)[::5],
        ]
        scored = set()
        with RetrievalService.from_corpus(sharding_corpus, config=config) as reopened:
            text_scorer = reopened.engine._text_scorer
            for query_terms in queries:
                expected = {d: s.hex() for d, s in mono_scorer.score(query_terms).items()}
                actual = {d: s.hex() for d, s in text_scorer.score(query_terms).items()}
                assert actual == expected
                scored.update(d for d in actual if d in documents)
        # The written documents scored came from more than one segment.
        router = ShardRouter(num_shards)
        assert len({router.shard_of(d) for d in scored}) > 1


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

    @pytest.mark.parametrize("num_shards", (2, 3, 4, 8))
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

    def test_close_leaves_the_service_usable(self, sharding_corpus):
        query = _query(sharding_corpus)
        before_threads = set(threading.enumerate())
        with RetrievalService.from_corpus(
            sharding_corpus, config=ServiceConfig(num_shards=3)
        ) as service:
            before = service.search(SearchRequest(user_id="alice", query=query))
            assert len(before) > 0
        # The context exit closed the service; it still serves, with
        # identical results, and no thread outlives it.
        after = service.search(SearchRequest(user_id="alice", query=query))
        assert after.shot_ids() == before.shot_ids()
        service.close()  # idempotent
        assert set(threading.enumerate()) == before_threads


# -- visual evidence -------------------------------------------------------------


class TestVisualEvidence:
    """Shots are not sharded: one ``VisualIndex`` per engine, as monolithic."""

    WEIGHTS = {"crowd": 1.0, "flag": 0.4, "studio": 0.7}

    def test_equals_monolithic_through_one_neighbour_table(
        self, sharding_corpus, make_random_queries, service_at
    ):
        mono = _monolithic(sharding_corpus, "bm25", "visual_heavy")
        service = service_at(
            4, result_cache_size=0, **FUSION_MODES["visual_heavy"]
        )
        engine = service.engine
        assert type(engine.visual_index) is VisualIndex
        assert len(_reachable(mono, NeighbourTable)) == 1
        assert len(_reachable(engine, NeighbourTable)) == 1
        shot_ids = mono.visual_index.shot_ids()
        for shot_id in shot_ids[:10]:
            assert engine.visual_index.similar_to_shot(
                shot_id, limit=15
            ) == mono.visual_index.similar_to_shot(shot_id, limit=15)
        concepts = Query(concept_weights=self.WEIGHTS)
        assert mono.concept_scores(concepts)
        assert engine.concept_scores(concepts) == mono.concept_scores(concepts)
        queries = make_random_queries(sharding_corpus, seed=91, count=8)
        queries.append(
            Query(text="election vote", example_shot_ids=shot_ids[:2],
                  concept_weights=self.WEIGHTS)
        )
        assert_identical_rankings(mono, engine, queries)
        features = mono.visual_index.features_of(shot_ids[0])
        with pytest.raises(ValueError, match="already in visual index"):
            service.index_shot(shot_ids[0], features)

    @pytest.mark.parametrize("evidence", ("concepts", "example shot"))
    def test_visual_evidence_starts_no_thread(self, service_at, evidence):
        engine = service_at(4, result_cache_size=0).engine
        before = set(threading.enumerate())
        if evidence == "concepts":
            query = Query(concept_weights=self.WEIGHTS)
        else:
            query = Query(example_shot_ids=engine.visual_index.shot_ids()[:1])
        assert engine.search(query).items
        misses = engine.visual_index.neighbour_table_info()["misses"]
        assert misses == (evidence == "example shot")
        assert set(threading.enumerate()) == before


# -- fault injection --------------------------------------------------------------


@pytest.mark.parametrize("durable", (False, True), ids=("memory", "durable"))
class TestFaultInjection:
    def test_failing_scorer_propagates_and_does_not_poison_caches(
        self, sharding_corpus, wrapped_service, durable
    ):
        service, (scorer,) = wrapped_service(failures=1, durable=durable)  # cache ON
        mono = _monolithic(sharding_corpus)
        query = Query.from_text("election government summit")
        with pytest.raises(RuntimeError, match="injected scorer failure"):
            service.engine.search(query)
        assert service.engine.result_cache_stats()["entries"] == 0
        # The retry evaluates afresh and matches the monolithic ranking.
        recovered = service.engine.search(query)
        expected = mono.search(query)
        assert recovered.shot_ids() == expected.shot_ids()
        assert [item.score for item in recovered.items] == [
            item.score for item in expected.items
        ]
        assert scorer.calls == 2

    def test_flaky_scorer_recovers_after_repeated_failures(
        self, sharding_corpus, wrapped_service, durable
    ):
        service, (scorer,) = wrapped_service(
            failures=2, durable=durable, result_cache_size=0
        )
        query = Query.from_text(_query(sharding_corpus))
        for _ in range(2):
            with pytest.raises(RuntimeError):
                service.engine.search(query)
        assert len(service.engine.search(query)) > 0
        assert scorer.calls == 3

    def test_straggler_scorer_does_not_corrupt_ranking(
        self, sharding_corpus, make_random_queries, wrapped_service, durable
    ):
        service, _ = wrapped_service(
            stall_seconds=0.02, durable=durable, result_cache_size=0
        )
        assert_identical_rankings(
            _monolithic(sharding_corpus),
            service.engine,
            make_random_queries(sharding_corpus, seed=99, count=4),
        )

    def test_writes_still_apply_after_read_side_fault(self, wrapped_service, durable):
        service, _ = wrapped_service(failures=1, durable=durable, result_cache_size=0)
        with pytest.raises(RuntimeError):
            service.engine.search_text("election")
        service.index_documents({"post-fault-doc": "election landslide victory"})
        assert service.engine.inverted_index.has_document("post-fault-doc")
        assert "post-fault-doc" in service.engine.search_text("landslide").shot_ids()

    def test_failed_mid_batch_write_leaves_identical_state(
        self, sharding_corpus, wrapped_service, make_random_queries, durable
    ):
        service, _ = wrapped_service(durable=durable, result_cache_size=0)
        mono = VideoRetrievalEngine(
            sharding_corpus.collection, config=_config().engine_config()
        )
        durability = service.engine.durability
        logged = _wal_records(durability.directory, 4) if durable else None
        existing = next(iter(sharding_corpus.collection.iter_shots())).shot_id
        # The duplicate sits mid-batch: batch ingest is atomic, so neither
        # "w1" nor "w2" leaks in as partial state, nor into any WAL segment.
        batch = {"w1": "summit election", existing: "duplicate", "w2": "crisis vote"}
        for engine in (mono, service.engine):
            with pytest.raises(ValueError, match="already indexed"):
                engine.index_documents(batch)
            assert not engine.inverted_index.has_document("w1")
            assert not engine.inverted_index.has_document("w2")
        if durable:
            assert _wal_records(durability.directory, 4) == logged
        assert_identical_rankings(
            mono, service.engine, make_random_queries(sharding_corpus, seed=101, count=5)
        )

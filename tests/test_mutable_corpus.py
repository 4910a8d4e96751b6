"""Mutable-corpus tier: deletes, updates, tombstones, and compaction.

The contract under test everywhere in this module: after any sequence of
deletes and updates (and optionally a compaction), collection statistics
and rankings are **bit-identical** to a from-scratch rebuild over the
surviving documents.  Covered layers: the dense-id indexes themselves
(one lifecycle contract over the three classes that share a slot table),
the engine writer path (atomic batches, result-cache invalidation,
near-duplicate screening), the background compactor, and a differential
matrix across scorers × shard counts.
"""

from __future__ import annotations

import random

import pytest

from repro.durability import engine_state_digest
from repro.errors import InvalidArgumentError, NotIndexedError, ReproError
from repro.feedback import EventKind, InteractionEvent
from repro.index import InvertedIndex, VisualIndex
from repro.index.compaction import BackgroundCompactor, compact_engine
from repro.index.dedup import NearDuplicateDetector
from repro.retrieval import EngineConfig, Query, VideoRetrievalEngine
from repro.service import FeedbackBatch, RetrievalService, SearchRequest, ServiceConfig
from repro.workload.ingest import (
    apply_ingest,
    service_feature_dim,
    synthetic_ingest_ops,
)

#: A service's default ranking (depth 50) with the result cache off.
UNCACHED = EngineConfig(result_limit=50, result_cache_size=0)


def _text_fingerprint(index: InvertedIndex) -> dict:
    """Every statistic a text scorer can observe, as one comparable value."""
    terms = sorted(index.terms())
    return {
        "document_count": index.document_count,
        "vocabulary_size": index.vocabulary_size,
        "total_terms": index.total_terms,
        "average_document_length": index.average_document_length,
        "document_ids": sorted(index.document_ids()),
        "document_frequency": {t: index.document_frequency(t) for t in terms},
        "collection_frequency": {t: index.collection_frequency(t) for t in terms},
        "postings": {
            t: [(p.document_id, p.term_frequency) for p in index.postings(t)]
            for t in terms
        },
        "vectors": {
            d: dict(index.document_vector(d)) for d in index.document_ids()
        },
    }


def _fresh_text_index(documents: dict) -> InvertedIndex:
    index = InvertedIndex()
    for document_id, text in documents.items():
        index.add_document(document_id, text)
    return index


_DOCS = {
    "d0": "election protest flood election",
    "d1": "summit economy ceasefire",
    "d2": "wildfire transfer verdict launch",
    "d3": "strike harvest border vaccine",
    "d4": "tournament blackout election summit",
    "d5": "flood flood protest verdict",
}


class TestInvertedIndexMutations:
    def test_delete_matches_rebuild_over_survivors(self):
        index = _fresh_text_index(_DOCS)
        index.delete_document("d1")
        index.delete_document("d4")
        survivors = {k: v for k, v in _DOCS.items() if k not in ("d1", "d4")}
        assert _text_fingerprint(index) == _text_fingerprint(
            _fresh_text_index(survivors)
        )
        assert index.tombstone_count == 2
        assert not index.has_document("d1")

    def test_delete_scrubs_term_entirely_owned_by_victim(self):
        index = _fresh_text_index(_DOCS)
        assert "tournament" in index
        index.delete_document("d4")
        assert "tournament" not in index
        assert index.collection_frequency("tournament") == 0
        assert index.postings("tournament") == []

    def test_update_matches_delete_plus_add(self):
        updated = _fresh_text_index(_DOCS)
        updated.update_document("d2", "ceasefire summit ceasefire")
        rebuilt = _fresh_text_index(_DOCS)
        rebuilt.delete_document("d2")
        rebuilt.add_document("d2", "ceasefire summit ceasefire")
        assert _text_fingerprint(updated) == _text_fingerprint(rebuilt)
        # An update moves the document to a fresh dense slot and leaves a
        # tombstone behind — exactly what WAL replay of del+add produces.
        assert updated.tombstone_count == 1
        assert updated.slots["d2"] == len(_DOCS)

    def test_update_unknown_document_raises(self):
        index = _fresh_text_index(_DOCS)
        with pytest.raises(KeyError):
            index.update_document("missing", "flood")

    def test_compact_reclaims_and_preserves_statistics(self):
        index = _fresh_text_index(_DOCS)
        index.delete_document("d0")
        index.update_document("d3", "border border vaccine")
        before = _text_fingerprint(index)
        generation = index.generation
        reclaimed = index.compact()
        assert reclaimed == 2  # one delete hole + one update hole
        assert index.tombstone_count == 0
        assert index.generation > generation
        assert _text_fingerprint(index) == before
        assert None not in index.slots.ids
        # Compacting a hole-free index is a no-op.
        assert index.compact() == 0


#: The two index classes that keep their ids in a slot table.
_SLOTTED = {
    "InvertedIndex": InvertedIndex,
    "VisualIndex": VisualIndex,
}


def _is_text(index) -> bool:
    return hasattr(index, "add_document")


def _add(index, item_id: str) -> None:
    if _is_text(index):
        index.add_document(item_id, f"flood summit {item_id}")
    else:
        index.add_shot(item_id, [1.0, float(len(item_id)), 0.5], {"crowd": 0.5})


def _delete(index, item_id: str) -> None:
    if _is_text(index):
        index.delete_document(item_id)
    else:
        index.delete_shot(item_id)


def _slotted_state(index) -> tuple:
    """``(live ids, payloads, statistics, slot ids, tombstones, generation)``."""
    if _is_text(index):
        ids = index.document_ids()
        payloads = [index.document_vector(item_id) for item_id in ids]
        statistics = index.statistics()
    else:
        ids = index.shot_ids()
        payloads = [(index.features_of(i), index.concept_scores_of(i)) for i in ids]
        statistics = index.score_by_concepts({"crowd": 1.0})
    return (
        ids, payloads, statistics, list(index.slots.ids),
        index.tombstone_count, index.generation,
    )


@pytest.fixture(params=list(_SLOTTED))
def slotted(request):
    """One of the three slotted index classes, holding six items."""
    index = _SLOTTED[request.param]()
    for number in range(6):
        _add(index, f"item-{number}")
    return index


class TestSlotLifecycle:
    """The add/delete/compact contract every index shares through its slots."""

    def test_duplicate_add_leaves_index_untouched(self, slotted):
        before = _slotted_state(slotted)
        with pytest.raises(ValueError, match="'item-2' already"):
            _add(slotted, "item-2")
        if _is_text(slotted):
            # The batch validates every id up front, so a duplicate anywhere
            # lands none of it, not even the valid ids before it.
            with pytest.raises(ValueError, match="'item-3' already indexed"):
                slotted.add_documents({"fresh-a": "flood summit", "item-3": "economy"})
            assert not slotted.has_document("fresh-a")
        assert _slotted_state(slotted) == before

    def test_unknown_delete_raises_and_leaves_index_untouched(self, slotted):
        _delete(slotted, "item-1")
        before = _slotted_state(slotted)
        for unknown in ("missing", "item-1"):  # never added; already deleted
            with pytest.raises(KeyError, match=f"'{unknown}' not"):
                _delete(slotted, unknown)
        assert _slotted_state(slotted) == before

    def test_compact_without_tombstones_keeps_generation(self, slotted):
        before = _slotted_state(slotted)
        assert slotted.compact() == 0
        assert _slotted_state(slotted) == before

    def test_compact_reclaims_tombstones_in_place(self, slotted):
        _delete(slotted, "item-0")
        _delete(slotted, "item-4")
        ids, payloads, statistics, _, tombstones, generation = _slotted_state(slotted)
        assert tombstones == 2
        table = slotted.slots
        assert slotted.compact() == 2
        assert _slotted_state(slotted)[:5] == (ids, payloads, statistics, ids, 0)
        assert slotted.generation > generation
        assert slotted.slots is table


def _bits(scores: dict) -> list:
    return [(shot_id, score.hex()) for shot_id, score in scores.items()]


class TestVisualIndexMutations:
    @staticmethod
    def _index() -> VisualIndex:
        index = VisualIndex()
        index.add_shot("s0", [1.0, 0.0, 0.0], {"crowd": 0.9})
        index.add_shot("s1", [0.0, 1.0, 0.0], {"flag": 0.8})
        index.add_shot("s2", [0.0, 0.0, 1.0], {"water": 0.7})
        return index

    def test_delete_shot_matches_rebuild(self):
        index = self._index()
        index.delete_shot("s1")
        assert index.shot_ids() == ["s0", "s2"]
        assert index.shot_count == 2
        assert index.tombstone_count == 1
        assert not index.has_shot("s1")
        ranked = index.similar_to_vector([0.0, 1.0, 0.0], limit=10)
        assert "s1" not in [shot_id for shot_id, _ in ranked]
        with pytest.raises(KeyError):
            index.delete_shot("s1")

    def test_concept_scores_match_rebuild_under_writes(self):
        # Seeded interleaving of adds, deletes and compactions; after every
        # step the concept scores (ids, order and bits) equal those of an
        # index built fresh over the live shots in slot order.
        rng = random.Random(13)
        concepts = ["crowd", "flag", "water", "fire", "car"]
        index, live, added = VisualIndex(), {}, 0
        for _ in range(400):
            action = rng.random()
            if action < 0.55 or not live:
                shot_id, added = f"s{added}", added + 1
                features = [rng.random() + 0.1 for _ in range(3)]
                picked = rng.sample(concepts, rng.randint(0, 3))
                scores = {concept: rng.random() for concept in picked}
                index.add_shot(shot_id, features, scores)
                live[shot_id] = (features, scores)
            elif action < 0.95:
                shot_id = rng.choice(list(live))
                index.delete_shot(shot_id)
                del live[shot_id]
            else:
                index.compact()
            fresh = VisualIndex()
            for shot_id, (features, scores) in live.items():
                fresh.add_shot(shot_id, features, scores)
            weights = {
                concept: rng.choice([2.0, 1.0, 0.5, -0.25])
                for concept in rng.sample(concepts, 3)
            }
            assert _bits(index.score_by_concepts(weights)) == _bits(
                fresh.score_by_concepts(weights)
            )

    def test_compact_preserves_payloads(self):
        index = self._index()
        index.delete_shot("s0")
        features = index.features_of("s2")
        concepts = index.concept_scores_of("s2")
        generation = index.generation
        assert index.compact() == 1
        assert index.tombstone_count == 0
        assert index.generation > generation
        assert index.shot_ids() == ["s1", "s2"]
        assert index.features_of("s2") == features
        assert index.concept_scores_of("s2") == concepts


class TestEngineMutations:
    def test_index_documents_batch_is_atomic(self, small_corpus):
        engine = VideoRetrievalEngine(small_corpus.collection)
        existing = engine.inverted_index.document_ids()[0]
        count = engine.inverted_index.document_count
        with pytest.raises(ValueError):
            engine.index_documents({"eng-a": "flood summit", existing: "economy"})
        assert not engine.inverted_index.has_document("eng-a")
        assert engine.inverted_index.document_count == count

    def test_sharded_service_batch_is_atomic(self, small_corpus):
        # A 4-shard service validates the whole batch before anything is
        # logged or applied: "svc-a" and "svc-b" route to other WAL
        # segments than the duplicate, and none of them may land.
        service = RetrievalService(
            small_corpus.collection,
            config=ServiceConfig(engine=UNCACHED, num_shards=4),
        )
        try:
            index = service.engine.inverted_index
            existing = index.document_ids()[0]
            count = index.document_count
            with pytest.raises(ValueError):
                service.index_documents(
                    {"svc-a": "flood", "svc-b": "summit", existing: "economy"}
                )
            assert not index.has_document("svc-a")
            assert not index.has_document("svc-b")
            assert index.document_count == count
        finally:
            service.close()

    @pytest.mark.parametrize("setup", ("memory", "screened", "durable"))
    def test_write_refusals_are_typed_and_log_nothing(self, small_corpus, tmp_path, setup):
        # Each refusal is a ReproError (one CLI line) that keeps its builtin
        # base, raised by the same check on every config before anything
        # changes: the state digest holds, and no LSN is consumed.
        engine_config = UNCACHED
        if setup == "screened":
            engine_config = EngineConfig(
                result_limit=50, result_cache_size=0, near_duplicate_threshold=0.9
            )
        durable = {"durability_dir": str(tmp_path / "d"), "fsync_policy": "never"}
        service = RetrievalService(
            small_corpus.collection,
            config=ServiceConfig(
                engine=engine_config, **(durable if setup == "durable" else {})
            ),
        )
        try:
            engine = service.engine
            document = engine.inverted_index.document_ids()[0]
            shot = engine.visual_index.shot_ids()[0]
            features = engine.visual_index.features_of(shot)
            refusals = [
                (InvalidArgumentError, ValueError,
                 lambda: engine.index_document(document, "economy")),
                (InvalidArgumentError, ValueError,
                 lambda: engine.index_documents({"new-doc": "flood", document: "x"})),
                (InvalidArgumentError, ValueError,
                 lambda: engine.index_shot(shot, features)),
                (InvalidArgumentError, ValueError,
                 lambda: engine.index_shot("nan-shot", [float("nan")] * len(features))),
                (InvalidArgumentError, ValueError,
                 lambda: engine.index_shot("odd-shot", [0.5] * (len(features) + 3))),
                (NotIndexedError, KeyError, lambda: engine.delete_document("absent")),
                (NotIndexedError, KeyError,
                 lambda: engine.update_document("absent", "flood")),
                (NotIndexedError, KeyError, lambda: engine.delete_shot("absent")),
            ]
            digest = engine_state_digest(engine)
            lsn = engine.durability.wal.last_lsn if setup == "durable" else None
            for error, builtin, write in refusals:
                with pytest.raises(error) as raised:
                    write()
                assert isinstance(raised.value, ReproError)
                assert isinstance(raised.value, builtin)
                assert engine_state_digest(engine) == digest
                if setup == "durable":
                    assert engine.durability.wal.last_lsn == lsn
            assert str(raised.value) == "shot 'absent' not in visual index"
            assert not engine.inverted_index.has_document("new-doc")
            # The shot of the right length still lands, and query-by-example
            # still answers after the refused one.
            engine.index_shot("even-shot", [0.5] * len(features))
            assert engine.search(Query(example_shot_ids=[shot])).shot_ids()
        finally:
            service.close()

    def test_delete_invalidates_result_cache(self, small_corpus):
        config = EngineConfig(result_cache_size=8)
        engine = VideoRetrievalEngine(small_corpus.collection, config=config)
        engine.index_document("cache-doc", "ceasefire blackout ceasefire")
        query = Query(text="ceasefire blackout")
        first = engine.search(query, limit=None)
        assert "cache-doc" in first.shot_ids()
        engine.search(query, limit=None)
        assert engine.result_cache_stats()["hits"] >= 1
        engine.delete_document("cache-doc")
        after = engine.search(query, limit=None)
        assert "cache-doc" not in after.shot_ids()
        # The served post-delete ranking must match a cache-less engine
        # that never saw the document at all.
        reference = VideoRetrievalEngine(
            small_corpus.collection, config=EngineConfig(result_cache_size=0)
        )
        expected = reference.search(query, limit=None)
        assert after.shot_ids() == expected.shot_ids()
        assert [i.score for i in after.items] == [i.score for i in expected.items]


class TestNearDuplicateScreening:
    def test_detector_validation(self):
        with pytest.raises(ValueError):
            NearDuplicateDetector(0.0)
        with pytest.raises(ValueError):
            NearDuplicateDetector(1.5)

    def test_screen_and_discard(self):
        detector = NearDuplicateDetector(threshold=1.0)
        # A 3-4-5 vector keeps the norm (and hence the cosine) float-exact.
        detector.add("a", {"flood": 3, "summit": 4})
        assert detector.tracked_count == 1
        assert detector.screen({"flood": 3, "summit": 4}) == "a"
        assert detector.screen({"flood": 6, "summit": 8}) == "a"  # same direction
        assert detector.screen({"flood": 1, "economy": 1}) is None
        assert detector.skipped_count == 2
        detector.discard("a")
        assert detector.screen({"flood": 3, "summit": 4}) is None
        assert detector.tracked_count == 0
        detector.discard("a")  # idempotent

    def test_partial_overlap_below_one(self):
        detector = NearDuplicateDetector(threshold=0.9)
        detector.add("a", {"flood": 10, "summit": 10})
        assert detector.find_duplicate({"flood": 10, "summit": 9}) == "a"
        assert detector.find_duplicate({"flood": 10, "economy": 10}) is None

    def test_engine_screens_duplicates_at_ingest(self, small_corpus):
        config = EngineConfig(near_duplicate_threshold=1.0, result_cache_size=0)
        engine = VideoRetrievalEngine(small_corpus.collection, config=config)
        engine.index_document("dup-a", "ceasefire summit verdict")
        engine.index_document("dup-b", "ceasefire summit verdict")
        assert engine.inverted_index.has_document("dup-a")
        assert not engine.inverted_index.has_document("dup-b")
        stats = engine.near_duplicate_stats()
        assert stats["skipped"] == 1.0
        # Deleting the original frees the content for re-ingest.
        engine.delete_document("dup-a")
        engine.index_document("dup-b", "ceasefire summit verdict")
        assert engine.inverted_index.has_document("dup-b")
        # An update refreshes the screened vector: the old content is no
        # longer a duplicate, the new content is.
        engine.update_document("dup-b", "wildfire wildfire wildfire border border border border")
        engine.index_document("dup-c", "ceasefire summit verdict")
        assert engine.inverted_index.has_document("dup-c")
        assert engine.near_duplicate_stats()["skipped"] == 1.0
        engine.index_document("dup-d", "wildfire wildfire wildfire border border border border")
        assert not engine.inverted_index.has_document("dup-d")
        assert engine.near_duplicate_stats()["skipped"] == 2.0

    def test_disabled_by_default(self, small_corpus):
        engine = VideoRetrievalEngine(small_corpus.collection)
        assert engine.near_duplicate_stats() is None
        service = RetrievalService(small_corpus.collection)
        try:
            assert service.engine.near_duplicate_stats() is None
        finally:
            service.close()

    def test_service_config_threads_threshold(self, small_corpus):
        with pytest.raises(ValueError):
            ServiceConfig(engine=EngineConfig(near_duplicate_threshold=-0.5))
        config = ServiceConfig(
            engine=EngineConfig(
                result_limit=50, near_duplicate_threshold=0.99, result_cache_size=0
            )
        )
        assert config.engine.near_duplicate_threshold == 0.99
        service = RetrievalService(small_corpus.collection, config=config)
        try:
            service.index_documents({"svc-dup-a": "blackout harvest blackout"})
            service.index_documents({"svc-dup-b": "blackout harvest blackout"})
            assert not service.engine.inverted_index.has_document("svc-dup-b")
            assert service.engine.near_duplicate_stats()["skipped"] == 1.0
        finally:
            service.close()


def _play_top_two(response) -> tuple:
    """Click and watch the top two hits of a response to the end."""
    events, clock = [], 0.0
    for hit in response.top(2):
        clock += 2.0
        events.append(InteractionEvent(kind=EventKind.PLAY_CLICK, timestamp=clock,
                                       shot_id=hit.shot_id, rank=hit.rank))
        clock += max(1.0, hit.duration_seconds)
        events.append(InteractionEvent(kind=EventKind.PLAY_COMPLETE, timestamp=clock,
                                       shot_id=hit.shot_id, rank=hit.rank))
    return tuple(events)


class TestAdaptationOverTombstones:
    """Implicit evidence re-ranks over slots, and a delete keeps slot numbers."""

    @staticmethod
    def _implicit_session(service, corpus) -> tuple:
        topic = corpus.topics.topics()[0]
        info = service.open_session("viewer", policy="implicit", topic_id=topic.topic_id)
        request = SearchRequest(user_id="viewer", query=" ".join(topic.query_terms[:2]),
                                session_id=info.session_id)
        first = service.search(request)
        service.submit_feedback(FeedbackBatch(user_id="viewer", events=_play_top_two(first),
                                              session_id=info.session_id))
        return first.hits, service.search(request).hits

    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_search_feedback_search_matches_compacted(self, small_corpus, num_shards):
        config = ServiceConfig(num_shards=num_shards)
        tombstoned = RetrievalService(small_corpus.collection, config=config)
        compacted = RetrievalService(small_corpus.collection, config=config)
        try:
            for service in (tombstoned, compacted):
                for document_id in service.engine.inverted_index.document_ids()[::2]:
                    service.delete_document(document_id)
            assert compacted.compact().documents_reclaimed > 0
            assert tombstoned.engine.inverted_index.tombstone_count > 0
            hits = self._implicit_session(tombstoned, small_corpus)
            assert hits[1]
            assert hits == self._implicit_session(compacted, small_corpus)
        finally:
            tombstoned.close()
            compacted.close()


class TestBackgroundCompactor:
    def test_validation(self, small_corpus):
        engine = VideoRetrievalEngine(small_corpus.collection)
        for ratio in (0.0, 1.5):
            with pytest.raises(InvalidArgumentError, match=r"tombstone_ratio must be in \(0, 1\]"):
                BackgroundCompactor(engine, tombstone_ratio=ratio)
        assert issubclass(InvalidArgumentError, ValueError)

    def test_ratio_gate_and_reclaim(self, small_corpus):
        engine = VideoRetrievalEngine(
            small_corpus.collection, config=EngineConfig(result_cache_size=0)
        )
        for i in range(8):
            engine.index_document(f"bg-{i}", f"flood summit economy {i}")
        compactor = BackgroundCompactor(engine, tombstone_ratio=0.01, interval=30.0)
        try:
            assert compactor.run_once() is None  # no tombstones yet
            for i in range(4):
                engine.delete_document(f"bg-{i}")
            before = engine_state_digest(engine)
            stats = compactor.run_once()
            assert stats is not None and stats.reclaimed == 4
            assert compactor.passes == 1
            assert compactor.reclaimed == 4
            assert engine.inverted_index.tombstone_count == 0
            assert engine_state_digest(engine) == before
        finally:
            compactor.close(final_pass=False)
        compactor.close()  # idempotent

    def test_close_runs_final_pass(self, small_corpus):
        engine = VideoRetrievalEngine(
            small_corpus.collection, config=EngineConfig(result_cache_size=0)
        )
        engine.index_document("bg-final", "verdict launch")
        compactor = BackgroundCompactor(engine, tombstone_ratio=0.001, interval=30.0)
        engine.delete_document("bg-final")
        compactor.close(final_pass=True)
        assert compactor.reclaimed >= 1
        assert engine.inverted_index.tombstone_count == 0


def _mutate(service, ops):
    """Apply the module's canonical delete/update script to a service."""
    doc_ids = [op[1] for op in ops if op[0] == "doc"]
    shot_ids = [op[1] for op in ops if op[0] == "shot"]
    deleted_docs = doc_ids[::4]
    updated_docs = doc_ids[1::4]
    deleted_shots = shot_ids[::5]
    for document_id in deleted_docs:
        service.delete_document(document_id)
    for document_id in updated_docs:
        service.update_document(document_id, f"verdict ceasefire {document_id}")
    for shot_id in deleted_shots:
        service.delete_shot(shot_id)
    return deleted_docs, updated_docs, deleted_shots


def _rebuild_over_survivors(corpus, config, ops, deleted_docs, updated_docs,
                            deleted_shots):
    """A from-scratch service that only ever saw the surviving content."""
    service = RetrievalService(corpus.collection, config=config)
    for op in ops:
        if op[0] == "doc":
            if op[1] in deleted_docs or op[1] in updated_docs:
                continue
            service.index_documents({op[1]: op[2]})
        else:
            if op[1] in deleted_shots:
                continue
            service.index_shot(op[1], op[2], op[3])
    # Updated documents land last: an update relocates the document to the
    # dense tail, so the compacted mutant's slot order has them at the end.
    for document_id in updated_docs:
        service.index_documents({document_id: f"verdict ceasefire {document_id}"})
    return service


def _matrix_queries(service):
    anchor = service.engine.visual_index.shot_ids()[0]  # collection shot
    return [
        Query(text="election flood summit"),
        Query(text="verdict ceasefire"),
        Query(text="wildfire border vaccine launch strike"),
        Query(text="economy blackout", example_shot_ids=[anchor]),
    ]


def _assert_same_rankings(reference, candidate, queries):
    for query in queries:
        expected = reference.search(query, limit=None)
        actual = candidate.search(query, limit=None)
        assert expected.shot_ids() == actual.shot_ids(), query
        assert [item.score for item in expected.items] == [
            item.score for item in actual.items
        ], query


class TestDifferentialMatrix:
    """Satellite: delete+compact ≡ rebuild, across scorers × shards."""

    def _run(self, corpus, scorer, num_shards):
        config = ServiceConfig(
            engine=EngineConfig(scorer=scorer, result_limit=50, result_cache_size=0),
            num_shards=num_shards,
        )
        mutant = RetrievalService(corpus.collection, config=config)
        reference = None
        try:
            ops = synthetic_ingest_ops(
                26, seed=11, feature_dim=service_feature_dim(mutant)
            )
            apply_ingest(mutant, ops)
            deleted_docs, updated_docs, deleted_shots = _mutate(mutant, ops)
            reference = _rebuild_over_survivors(
                corpus, config, ops, deleted_docs, updated_docs, deleted_shots
            )
            queries = _matrix_queries(mutant)
            for query in queries:
                hits = mutant.engine.search(query, limit=None).shot_ids()
                for gone in deleted_docs + deleted_shots:
                    assert gone not in hits
            _assert_same_rankings(reference.engine, mutant.engine, queries)
            # Compaction must not move a single ranking bit.
            before = engine_state_digest(mutant.engine)
            stats = mutant.compact()
            assert stats.reclaimed == (
                len(deleted_docs) + len(updated_docs) + len(deleted_shots)
            )
            assert engine_state_digest(mutant.engine) == before
            _assert_same_rankings(reference.engine, mutant.engine, queries)
            # And the compacted state digests identically to the rebuild.
            assert engine_state_digest(mutant.engine) == engine_state_digest(
                reference.engine
            )
        finally:
            mutant.close()
            if reference is not None:
                reference.close()

    @pytest.mark.parametrize("scorer", ["bm25", "tfidf", "lm"])
    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_delete_compact_equals_rebuild(self, analysed_corpus, scorer,
                                           num_shards):
        self._run(analysed_corpus, scorer, num_shards)


class TestEngineCompaction:
    def test_compact_engine_noop_without_tombstones(self, small_corpus):
        engine = VideoRetrievalEngine(small_corpus.collection)
        stats = compact_engine(engine)
        assert stats.reclaimed == 0
        assert stats.retries == 0

    def test_compact_preserves_object_identity(self, small_corpus):
        # The scorer and the engine hold direct references to the index
        # objects; adoption must swap internals, never the objects.
        engine = VideoRetrievalEngine(small_corpus.collection)
        engine.index_document("ident-a", "flood summit")
        engine.index_document("ident-b", "economy verdict")
        engine.delete_document("ident-a")
        text_index = engine.inverted_index
        visual_index = engine.visual_index
        stats = engine.compact()
        assert stats.documents_reclaimed == 1
        assert engine.inverted_index is text_index
        assert engine.visual_index is visual_index
        assert text_index.has_document("ident-b")

"""Concurrent-serving tests: stress, parallel-batch equivalence, eviction races.

The service's fine-grained locking claims are only trustworthy under real
thread interleaving, so these tests hammer a live service from 8–16 threads
and assert the invariants that matter: no deadlocks, no lost updates,
per-session iteration counts equal to requests issued, parallel
``search_batch`` bit-identical to sequential execution, and LRU eviction
that surfaces :class:`SessionExpiredError` instead of tearing down
mid-flight work.

All tests here carry the ``concurrency`` marker (``pytest -m concurrency``).
"""

from __future__ import annotations

import threading
from typing import Dict, List

import pytest

from repro.feedback import EventKind, InteractionEvent
from repro.retrieval import EngineConfig
from repro.service import (
    FeedbackBatch,
    RetrievalService,
    SearchRequest,
    ServiceConfig,
    SessionExpiredError,
    SessionNotFoundError,
)
from repro.utils.rng import RandomSource

#: A service's default ranking (depth 50) with the result cache off.
UNCACHED = EngineConfig(result_limit=50, result_cache_size=0)

pytestmark = pytest.mark.concurrency

#: Generous upper bound for joining worker threads; hitting it means a
#: deadlock, which the tests report as a failure rather than hanging CI.
JOIN_TIMEOUT = 60.0


def _topic_query(corpus, index: int = 0):
    topic = corpus.topics.topics()[index % len(corpus.topics.topics())]
    return topic, " ".join(topic.query_terms[:2])


def _play_event(shot_id: str, timestamp: float = 1.0) -> InteractionEvent:
    return InteractionEvent(
        kind=EventKind.PLAY_CLICK, timestamp=timestamp, shot_id=shot_id
    )


def _run_threads(workers: List[threading.Thread]) -> None:
    """Start, join (bounded), and fail loudly on stuck threads."""
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=JOIN_TIMEOUT)
    stuck = [worker.name for worker in workers if worker.is_alive()]
    assert not stuck, f"threads deadlocked or still running: {stuck}"


class TestStress:
    def test_mixed_operations_no_deadlock_no_bare_keyerror(self, small_corpus):
        """12 threads hammer every public entry point against a small LRU pool.

        Session churn guarantees eviction races; the only acceptable errors
        are the typed session-lifecycle ones (``SessionExpiredError`` /
        ``SessionNotFoundError``) — a bare ``KeyError`` or any other
        exception is a bug.
        """
        service = RetrievalService.from_corpus(
            small_corpus, config=ServiceConfig(max_sessions=8)
        )
        _topic, query = _topic_query(small_corpus)
        shot_ids = [shot.shot_id for shot in small_corpus.collection.iter_shots()]
        unexpected: List[BaseException] = []

        def hammer(worker_index: int) -> None:
            rng = RandomSource(1234).spawn("hammer", worker_index)
            user_id = f"user{worker_index % 5}"  # users shared across threads
            session_id = None
            for _ in range(40):
                action = rng.choice(
                    ["open", "search", "search_implicit", "feedback", "close", "list"]
                )
                try:
                    if action == "open":
                        session_id = service.open_session(user_id).session_id
                    elif action == "search" and session_id is not None:
                        service.search(
                            SearchRequest(
                                user_id=user_id, query=query, session_id=session_id
                            )
                        )
                    elif action == "search_implicit":
                        service.search(SearchRequest(user_id=user_id, query=query))
                    elif action == "feedback":
                        service.submit_feedback(
                            FeedbackBatch(
                                user_id=user_id,
                                events=(_play_event(rng.choice(shot_ids)),),
                                session_id=session_id,
                            )
                        )
                    elif action == "close" and session_id is not None:
                        service.close_session(session_id)
                        session_id = None
                    elif action == "list":
                        service.list_sessions(user_id)
                except (SessionExpiredError, SessionNotFoundError, PermissionError):
                    # Expected lifecycle races: the session aged out, was
                    # closed by a sibling thread, or implicit addressing
                    # resolved another thread's session for this user.
                    session_id = None
                except BaseException as error:  # noqa: BLE001 - collected for assert
                    unexpected.append(error)
                    raise

        _run_threads(
            [
                threading.Thread(target=hammer, args=(index,), name=f"hammer-{index}")
                for index in range(12)
            ]
        )
        assert unexpected == []
        assert service.session_count <= 8

    def test_iteration_counts_equal_requests_issued(self, small_corpus):
        """Every session's iteration count equals the searches routed to it."""
        service = RetrievalService.from_corpus(small_corpus)
        _topic, query = _topic_query(small_corpus)
        sessions = [service.open_session(f"user{index}") for index in range(6)]
        issued: Dict[str, int] = {info.session_id: 0 for info in sessions}
        issued_lock = threading.Lock()

        def worker(worker_index: int) -> None:
            rng = RandomSource(77).spawn("issue", worker_index)
            for _ in range(25):
                info = sessions[rng.randint(0, len(sessions) - 1)]
                service.search(
                    SearchRequest(
                        user_id=info.user_id,
                        query=query,
                        session_id=info.session_id,
                    )
                )
                with issued_lock:
                    issued[info.session_id] += 1

        _run_threads(
            [
                threading.Thread(target=worker, args=(index,), name=f"issue-{index}")
                for index in range(8)
            ]
        )
        for info in sessions:
            assert (
                service.session_info(info.session_id).iteration_count
                == issued[info.session_id]
            )

    def test_no_lost_feedback_updates(self, small_corpus):
        """16 threads submit disjoint feedback to one session; nothing is lost."""
        service = RetrievalService.from_corpus(small_corpus)
        info = service.open_session("alice", policy="implicit")
        shot_ids = [shot.shot_id for shot in small_corpus.collection.iter_shots()]
        per_thread = 6
        threads = 16
        assert len(shot_ids) >= threads * per_thread

        def worker(worker_index: int) -> None:
            start = worker_index * per_thread
            for offset in range(per_thread):
                shot_id = shot_ids[start + offset]
                service.submit_feedback(
                    FeedbackBatch(
                        user_id="alice",
                        events=(_play_event(shot_id),),
                        session_id=info.session_id,
                    )
                )

        _run_threads(
            [
                threading.Thread(target=worker, args=(index,), name=f"feedback-{index}")
                for index in range(threads)
            ]
        )
        final = service.session_info(info.session_id)
        assert final.seen_shot_count == threads * per_thread
        evidence = service.adaptive_session(info.session_id).implicit_evidence()
        assert set(evidence) == set(shot_ids[: threads * per_thread])


class TestParallelBatchEquivalence:
    """``search_batch(max_workers>1)`` must be bit-identical to sequential."""

    def _diverged_requests(self, service, corpus, policy: str, users: int = 6):
        """Open per-user sessions under a policy and diverge them via feedback."""
        topic, query = _topic_query(corpus)
        infos = [
            service.open_session(f"{policy}-user{index}", policy=policy,
                                 topic_id=topic.topic_id)
            for index in range(users)
        ]
        requests = [
            SearchRequest(user_id=info.user_id, query=query,
                          session_id=info.session_id)
            for info in infos
        ]
        first = [service.search(request) for request in requests]
        for index in range(0, users, 2):  # even users diverge, odd stay clean
            hits = first[index].top(1 + index // 2)
            service.submit_feedback(
                FeedbackBatch(
                    user_id=infos[index].user_id,
                    events=tuple(
                        _play_event(hit.shot_id, timestamp=float(rank))
                        for rank, hit in enumerate(hits, start=1)
                    ),
                    session_id=infos[index].session_id,
                )
            )
        return requests

    @pytest.mark.parametrize("scorer", ["bm25", "tfidf", "lm"])
    @pytest.mark.parametrize("policy", ["baseline", "profile", "implicit", "combined"])
    def test_parallel_batch_bit_identical(self, small_corpus, scorer, policy):
        config = ServiceConfig(engine=EngineConfig(scorer=scorer, result_limit=50))
        sequential_service = RetrievalService.from_corpus(small_corpus, config=config)
        parallel_service = RetrievalService.from_corpus(small_corpus, config=config)

        seq_requests = self._diverged_requests(sequential_service, small_corpus, policy)
        par_requests = self._diverged_requests(parallel_service, small_corpus, policy)

        sequential = [sequential_service.search(r) for r in seq_requests]
        parallel = parallel_service.search_batch(par_requests, max_workers=4)

        assert len(parallel) == len(sequential)
        for seq, par in zip(sequential, parallel):
            assert seq.shot_ids() == par.shot_ids()
            assert seq.scores() == par.scores()
            assert seq.iteration == par.iteration

    def test_parallel_batch_matches_own_sequential_batch(self, small_corpus):
        """Same service, same requests: workers=1 and workers=8 agree exactly."""
        service_a = RetrievalService.from_corpus(small_corpus)
        service_b = RetrievalService.from_corpus(small_corpus)
        requests_a = self._diverged_requests(service_a, small_corpus, "combined")
        requests_b = self._diverged_requests(service_b, small_corpus, "combined")
        ones = service_a.search_batch(requests_a, max_workers=1)
        eights = service_b.search_batch(requests_b, max_workers=8)
        for one, eight in zip(ones, eights):
            assert one.shot_ids() == eight.shot_ids()
            assert one.scores() == eight.scores()

    def test_batch_requests_same_session_stay_ordered(self, small_corpus):
        """Multiple batch requests against one session keep arrival order."""
        service = RetrievalService.from_corpus(small_corpus)
        _topic, query = _topic_query(small_corpus)
        info = service.open_session("alice")
        requests = [
            SearchRequest(user_id="alice", query=query, session_id=info.session_id)
            for _ in range(5)
        ]
        responses = service.search_batch(requests, max_workers=4)
        assert [response.iteration for response in responses] == [1, 2, 3, 4, 5]

    def test_invalid_max_workers_rejected(self, small_corpus):
        service = RetrievalService.from_corpus(small_corpus)
        with pytest.raises(ValueError):
            service.search_batch([], max_workers=0)

    def test_batch_survives_session_pool_overflow(self, small_corpus):
        """Implicit requests whose bound session is evicted mid-batch are
        re-resolved onto fresh sessions instead of aborting the batch."""
        service = RetrievalService.from_corpus(
            small_corpus, config=ServiceConfig(max_sessions=2)
        )
        _topic, query = _topic_query(small_corpus)
        requests = [
            SearchRequest(user_id=f"overflow-user{index}", query=query)
            for index in range(5)  # more users than the pool holds
        ]
        for workers in (1, 4):
            responses = service.search_batch(requests, max_workers=workers)
            assert len(responses) == len(requests)
            assert all(len(response) > 0 for response in responses)
            assert [response.user_id for response in responses] == [
                request.user_id for request in requests
            ]

    def test_batch_explicit_session_evicted_mid_batch_raises_expired(
        self, small_corpus
    ):
        """An explicitly addressed request keeps strict semantics: if its
        session ages out during the batch, the caller sees the typed
        expiry, not a silent re-open."""
        service = RetrievalService.from_corpus(
            small_corpus, config=ServiceConfig(max_sessions=1)
        )
        _topic, query = _topic_query(small_corpus)
        pinned = service.open_session("pinned")
        requests = [
            SearchRequest(user_id="pinned", query=query,
                          session_id=pinned.session_id),
            # Binding this implicit request opens a session and evicts the
            # pinned one before any search runs.
            SearchRequest(user_id="interloper", query=query),
        ]
        with pytest.raises(SessionExpiredError):
            service.search_batch(requests, max_workers=2)


class TestEvictionRaces:
    def test_evicted_session_raises_session_expired(self, small_corpus):
        service = RetrievalService.from_corpus(
            small_corpus, config=ServiceConfig(max_sessions=2)
        )
        _topic, query = _topic_query(small_corpus)
        first = service.open_session("u1")
        service.open_session("u2")
        service.open_session("u3")  # evicts u1's session
        with pytest.raises(SessionExpiredError) as excinfo:
            service.search(
                SearchRequest(user_id="u1", query=query, session_id=first.session_id)
            )
        assert "evicted" in str(excinfo.value)
        # The typed error still honours the historical KeyError contract,
        # but no caller ever sees a *bare* KeyError.
        assert isinstance(excinfo.value, SessionNotFoundError)
        assert isinstance(excinfo.value, KeyError)
        with pytest.raises(SessionExpiredError):
            service.submit_feedback(
                FeedbackBatch(user_id="u1", events=(),
                              session_id=first.session_id)
            )

    def test_closed_session_still_plain_not_found(self, small_corpus):
        service = RetrievalService.from_corpus(small_corpus)
        info = service.open_session("u1")
        service.close_session(info.session_id)
        with pytest.raises(SessionNotFoundError) as excinfo:
            service.session_info(info.session_id)
        assert not isinstance(excinfo.value, SessionExpiredError)

    def test_implicit_request_survives_eviction(self, small_corpus):
        """Implicitly addressed search after eviction opens a fresh session."""
        service = RetrievalService.from_corpus(
            small_corpus, config=ServiceConfig(max_sessions=2)
        )
        _topic, query = _topic_query(small_corpus)
        old = service.open_session("alice")
        service.open_session("bob")
        service.open_session("carol")  # evicts alice's idle session
        response = service.search(SearchRequest(user_id="alice", query=query))
        assert response.session_id != old.session_id
        assert response.iteration == 1

    def test_midflight_feedback_completes_before_eviction(self, small_corpus):
        """Eviction waits for a batch already inside the session; the batch
        is fully applied (not dropped), and only *later* requests see
        ``SessionExpiredError``."""
        service = RetrievalService.from_corpus(
            small_corpus, config=ServiceConfig(max_sessions=2)
        )
        victim = service.open_session("victim", policy="implicit")
        service.open_session("other")
        session = service.adaptive_session(victim.session_id)
        shot_ids = [shot.shot_id for shot in small_corpus.collection.iter_shots()][:3]

        entered = threading.Event()
        release = threading.Event()
        original_observe = session.observe

        def slow_observe(events):
            entered.set()
            assert release.wait(timeout=JOIN_TIMEOUT), "test gate never released"
            return original_observe(events)

        session.observe = slow_observe  # instance-level patch
        feedback_result: List[object] = []

        def feedback_worker() -> None:
            feedback_result.append(
                service.submit_feedback(
                    FeedbackBatch(
                        user_id="victim",
                        events=tuple(_play_event(shot_id) for shot_id in shot_ids),
                        session_id=victim.session_id,
                    )
                )
            )

        def evictor_worker() -> None:
            # Opening two sessions pushes "victim" (the LRU entry) out; the
            # eviction must block until the in-flight feedback finishes.
            service.open_session("newcomer1")
            service.open_session("newcomer2")

        feedback_thread = threading.Thread(target=feedback_worker, name="feedback")
        feedback_thread.start()
        assert entered.wait(timeout=JOIN_TIMEOUT)

        evictor_thread = threading.Thread(target=evictor_worker, name="evictor")
        evictor_thread.start()
        evictor_thread.join(timeout=0.3)
        assert evictor_thread.is_alive(), "eviction did not wait for in-flight work"

        release.set()
        feedback_thread.join(timeout=JOIN_TIMEOUT)
        evictor_thread.join(timeout=JOIN_TIMEOUT)
        assert not feedback_thread.is_alive() and not evictor_thread.is_alive()

        # The mid-flight batch was applied in full before the teardown...
        assert feedback_result and feedback_result[0].seen_shot_count == len(shot_ids)
        # ...and the session is now expired for any later request.
        with pytest.raises(SessionExpiredError):
            service.submit_feedback(
                FeedbackBatch(user_id="victim", events=(),
                              session_id=victim.session_id)
            )


class TestWriterPath:
    def test_concurrent_searches_during_index_mutation(self, small_corpus):
        """Readers never observe a half-applied index mutation."""
        service = RetrievalService.from_corpus(small_corpus)
        _topic, query = _topic_query(small_corpus)
        errors: List[BaseException] = []
        stop = threading.Event()

        def searcher(worker_index: int) -> None:
            user_id = f"reader{worker_index}"
            try:
                while not stop.is_set():
                    response = service.search(
                        SearchRequest(user_id=user_id, query=query)
                    )
                    assert len(response) > 0
            except BaseException as error:  # noqa: BLE001 - collected for assert
                errors.append(error)

        searchers = [
            threading.Thread(target=searcher, args=(index,), name=f"reader-{index}")
            for index in range(6)
        ]
        for thread in searchers:
            thread.start()
        try:
            generation_before = service.engine.inverted_index.generation
            for round_index in range(5):
                service.index_documents(
                    {
                        f"NEWDOC{round_index:04d}": f"{query} breaking update "
                        f"round {round_index}"
                    }
                )
            assert (
                service.engine.inverted_index.generation
                == generation_before + 5
            )
        finally:
            stop.set()
            for thread in searchers:
                thread.join(timeout=JOIN_TIMEOUT)
        assert errors == []
        # The freshly indexed documents are searchable once the writer exits.
        hits = service.engine.search_text(query, limit=200)
        assert any(item.shot_id.startswith("NEWDOC") for item in hits)

    def test_repeat_after_a_write_never_serves_pre_mutation_rankings(
        self, small_corpus
    ):
        """A mutation between two identical searches drops the result
        cache's store, so the repeated query after ``index_documents``
        re-evaluates against the new index."""
        service = RetrievalService.from_corpus(small_corpus)
        engine = service.engine
        _topic, query = _topic_query(small_corpus)
        before = engine.search_text(query, limit=200)
        service.index_documents({"MUTDOC001": f"{query} {query} mid-batch"})
        after = engine.search_text(query, limit=200)
        assert not any(item.shot_id == "MUTDOC001" for item in before)
        assert any(item.shot_id == "MUTDOC001" for item in after)


class TestConcurrentServingEquivalence:
    """Concurrent serving over one service against a sequential twin.

    Reuses the seeded property-style generators from ``conftest``: many
    threads fire randomized multimodal queries at one service while a
    second service answers the same queries sequentially;
    every response pair must be bit-identical, and nothing may deadlock
    against the session or engine locks.
    """

    def test_concurrent_randomized_queries_match_sequential(
        self, sharding_corpus, make_random_queries
    ):
        random_queries = make_random_queries
        baseline = RetrievalService.from_corpus(
            sharding_corpus, config=ServiceConfig(engine=UNCACHED)
        )
        concurrent = RetrievalService.from_corpus(
            sharding_corpus,
            config=ServiceConfig(engine=UNCACHED),
        )
        queries = random_queries(sharding_corpus, seed=424_242, count=24)
        expected = [
            baseline.engine.search(query, limit=20) for query in queries
        ]

        results: Dict[int, object] = {}
        errors: List[BaseException] = []

        def worker(worker_index: int) -> None:
            try:
                for query_index in range(worker_index, len(queries), 8):
                    results[query_index] = concurrent.engine.search(
                        queries[query_index], limit=20
                    )
            except BaseException as error:  # noqa: BLE001 - collected for assert
                errors.append(error)

        _run_threads(
            [
                threading.Thread(target=worker, args=(index,), name=f"query-{index}")
                for index in range(8)
            ]
        )
        assert errors == []
        assert len(results) == len(queries)
        for query_index, expected_list in enumerate(expected):
            actual = results[query_index]
            assert actual.shot_ids() == expected_list.shot_ids()
            assert [item.score for item in actual.items] == [
                item.score for item in expected_list.items
            ]

    def test_writer_path_under_concurrent_searches(self, sharding_corpus):
        """Writes land while searches hammer a service's engine."""
        service = RetrievalService.from_corpus(sharding_corpus)
        _topic, query = _topic_query(sharding_corpus)
        stop = threading.Event()
        errors: List[BaseException] = []

        def searcher(worker_index: int) -> None:
            try:
                while not stop.is_set():
                    service.engine.search_text(query, limit=20)
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        searchers = [
            threading.Thread(target=searcher, args=(index,), name=f"sreader-{index}")
            for index in range(6)
        ]
        for thread in searchers:
            thread.start()
        try:
            generation_before = service.engine.inverted_index.generation
            for round_index in range(5):
                service.index_documents(
                    {f"SHARDDOC{round_index:04d}": f"{query} sharded update"}
                )
            assert (
                service.engine.inverted_index.generation == generation_before + 5
            )
        finally:
            stop.set()
            for thread in searchers:
                thread.join(timeout=JOIN_TIMEOUT)
        assert errors == []
        hits = service.engine.search_text(query, limit=200)
        assert any(item.shot_id.startswith("SHARDDOC") for item in hits)
        index = service.engine.inverted_index
        assert all(index.has_document(f"SHARDDOC{i:04d}") for i in range(5))

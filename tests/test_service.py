"""Tests for the public service facade (repro.service).

Covers the session lifecycle (create -> search -> observe -> close), LRU
eviction, registry error paths and extension, per-user isolation, and the
guarantee that ``search_batch`` matches sequential per-session searches.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import implicit_only_policy
from repro.feedback import EventKind, InteractionEvent
from repro.index import InvertedIndex, TfIdfScorer
from repro.retrieval import EngineConfig, Query, VideoRetrievalEngine
from repro.retrieval.results import ResultList
from repro.service import (
    FeedbackBatch,
    RetrievalService,
    SearchHit,
    SearchRequest,
    SearchResponse,
    ServiceConfig,
    SessionInfo,
    SessionNotFoundError,
    UnknownComponentError,
    available_policies,
    available_scorers,
    available_weighting_schemes,
    register_policy,
    register_scorer,
    register_weighting_scheme,
)
from repro.service.registry import (
    POLICY_REGISTRY,
    SCORER_REGISTRY,
    WEIGHTING_SCHEME_REGISTRY,
    create_scorer,
)


@pytest.fixture()
def service(small_corpus) -> RetrievalService:
    """A fresh service over the shared small corpus."""
    return RetrievalService.from_corpus(small_corpus)


def _topic_query(corpus, index: int = 0):
    topic = corpus.topics.topics()[index]
    return topic, " ".join(topic.query_terms[:2])


def _play_events(response, count: int = 2):
    events = []
    clock = 0.0
    for hit in response.top(count):
        clock += 2.0
        events.append(
            InteractionEvent(kind=EventKind.PLAY_CLICK, timestamp=clock,
                             shot_id=hit.shot_id, rank=hit.rank)
        )
        clock += max(1.0, hit.duration_seconds)
        events.append(
            InteractionEvent(kind=EventKind.PLAY_COMPLETE, timestamp=clock,
                             shot_id=hit.shot_id, rank=hit.rank)
        )
    return tuple(events)


class TestSessionLifecycle:
    def test_open_search_observe_close(self, service, small_corpus):
        topic, query = _topic_query(small_corpus)
        info = service.open_session("alice", policy="implicit",
                                    topic_id=topic.topic_id)
        assert isinstance(info, SessionInfo)
        assert info.user_id == "alice"
        assert info.policy == "implicit"
        assert info.iteration_count == 0

        first = service.search(SearchRequest(user_id="alice", query=query,
                                             session_id=info.session_id))
        assert isinstance(first, SearchResponse)
        assert len(first) > 0
        assert first.iteration == 1
        assert first.session_id == info.session_id
        assert all(isinstance(hit, SearchHit) for hit in first)

        after_feedback = service.submit_feedback(
            FeedbackBatch(user_id="alice", events=_play_events(first),
                          session_id=info.session_id)
        )
        assert after_feedback.seen_shot_count > 0

        second = service.search(SearchRequest(user_id="alice", query=query,
                                              session_id=info.session_id))
        assert second.iteration == 2
        assert service.session_info(info.session_id).iteration_count == 2

        closed = service.close_session(info.session_id)
        assert closed.iteration_count == 2
        with pytest.raises(SessionNotFoundError):
            service.search(SearchRequest(user_id="alice", query=query,
                                         session_id=info.session_id))

    def test_search_auto_opens_session(self, service, small_corpus):
        _topic, query = _topic_query(small_corpus)
        assert service.session_count == 0
        response = service.search(SearchRequest(user_id="bob", query=query))
        assert service.session_count == 1
        assert response.policy == service.config.policy
        # A second search for the same user reuses the session.
        again = service.search(SearchRequest(user_id="bob", query=query))
        assert again.session_id == response.session_id
        assert again.iteration == 2

    def test_list_sessions_per_user(self, service):
        service.open_session("alice")
        service.open_session("alice")
        service.open_session("bob")
        assert len(service.list_sessions()) == 3
        assert len(service.list_sessions("alice")) == 2
        assert {info.user_id for info in service.list_sessions("bob")} == {"bob"}

    def test_recommendations_from_feedback(self, service, small_corpus):
        topic, query = _topic_query(small_corpus)
        info = service.open_session("carol", policy="implicit",
                                    topic_id=topic.topic_id)
        response = service.search(SearchRequest(user_id="carol", query=query,
                                                session_id=info.session_id))
        service.submit_feedback(FeedbackBatch(user_id="carol",
                                              events=_play_events(response),
                                              session_id=info.session_id))
        recommended = service.recommend("carol", session_id=info.session_id, limit=5)
        assert len(recommended) > 0
        # Recommendations exclude what the user already saw.
        seen = {event.shot_id for event in _play_events(response)}
        assert not seen & set(recommended.shot_ids())


class TestLruEviction:
    def test_oldest_session_evicted_at_capacity(self, small_corpus):
        service = RetrievalService.from_corpus(
            small_corpus, config=ServiceConfig(max_sessions=3)
        )
        first = service.open_session("u1")
        second = service.open_session("u2")
        third = service.open_session("u3")
        assert service.session_count == 3
        fourth = service.open_session("u4")
        assert service.session_count == 3
        with pytest.raises(SessionNotFoundError):
            service.session_info(first.session_id)
        for info in (second, third, fourth):
            assert service.session_info(info.session_id).session_id == info.session_id

    def test_recent_use_protects_from_eviction(self, small_corpus, small_corpus_query):
        service = RetrievalService.from_corpus(
            small_corpus, config=ServiceConfig(max_sessions=3)
        )
        first = service.open_session("u1")
        service.open_session("u2")
        service.open_session("u3")
        # Touch the oldest session via a search; u2 becomes the LRU victim.
        service.search(SearchRequest(user_id="u1", query=small_corpus_query,
                                     session_id=first.session_id))
        service.open_session("u4")
        assert first.session_id in [s.session_id for s in service.list_sessions()]
        assert not service.list_sessions("u2")

    def test_implicit_session_reuse_refreshes_recency(self, small_corpus,
                                                      small_corpus_query):
        service = RetrievalService.from_corpus(
            small_corpus, config=ServiceConfig(max_sessions=2)
        )
        alice = service.open_session("alice")
        service.open_session("bob")
        # Implicitly addressed search (no session_id) must touch alice's
        # session, otherwise her active session becomes the eviction victim.
        response = service.search(SearchRequest(user_id="alice",
                                                query=small_corpus_query))
        assert response.session_id == alice.session_id
        service.open_session("carol")  # must evict idle bob, never active alice
        assert service.list_sessions("alice")
        assert not service.list_sessions("bob")
        follow_up = service.search(SearchRequest(user_id="alice",
                                                 query=small_corpus_query))
        assert follow_up.session_id == alice.session_id
        assert follow_up.iteration == 2


@pytest.fixture()
def small_corpus_query(small_corpus) -> str:
    return _topic_query(small_corpus)[1]


class TestRegistries:
    def test_unknown_scorer_rejected_with_alternatives(self, small_corpus):
        with pytest.raises(UnknownComponentError) as excinfo:
            RetrievalService.from_corpus(
                small_corpus,
                config=ServiceConfig(engine=EngineConfig(scorer="quantum")),
            )
        assert "quantum" in str(excinfo.value)
        for name in available_scorers():
            assert name in str(excinfo.value)

    def test_unknown_policy_rejected(self, service):
        with pytest.raises(UnknownComponentError) as excinfo:
            service.open_session("alice", policy="telepathy")
        assert "telepathy" in str(excinfo.value)
        assert "baseline" in str(excinfo.value)

    def test_unknown_weighting_scheme_rejected(self, service):
        with pytest.raises(UnknownComponentError):
            service.open_session("alice", scheme="vibes")

    def test_builtin_names_registered(self):
        assert {"bm25", "tfidf", "lm"} <= set(available_scorers())
        assert {"baseline", "profile", "implicit", "combined"} <= set(available_policies())
        assert {"heuristic", "uniform"} <= set(available_weighting_schemes())

    def test_register_custom_policy_and_use_by_name(self, service):
        name = "test_custom_policy"
        register_policy(
            name, lambda: implicit_only_policy().with_overrides(name=name)
        )
        try:
            info = service.open_session("alice", policy=name)
            assert info.policy == name
        finally:
            POLICY_REGISTRY.unregister(name)
        with pytest.raises(UnknownComponentError):
            service.open_session("alice", policy=name)

    def test_register_custom_scorer_builds_service(self, small_corpus):
        name = "test_custom_scorer"
        register_scorer(name, lambda index, config: TfIdfScorer(index))
        try:
            service = RetrievalService.from_corpus(
                small_corpus, config=ServiceConfig(engine=EngineConfig(scorer=name))
            )
            topic, query = _topic_query(small_corpus)
            response = service.search(SearchRequest(user_id="alice", query=query))
            assert len(response) > 0
        finally:
            SCORER_REGISTRY.unregister(name)

    def test_register_custom_weighting_scheme(self, service):
        from repro.feedback import WeightingScheme

        name = "test_custom_scheme"
        register_weighting_scheme(
            name, lambda: WeightingScheme(name=name, weights={"play_click": 1.0})
        )
        try:
            info = service.open_session("alice", scheme=name)
            assert info.weighting_scheme == name
        finally:
            WEIGHTING_SCHEME_REGISTRY.unregister(name)

    def test_duplicate_registration_requires_overwrite(self):
        name = "test_duplicate"
        register_policy(name, implicit_only_policy)
        try:
            with pytest.raises(ValueError):
                register_policy(name, implicit_only_policy)
            register_policy(name, implicit_only_policy, overwrite=True)
        finally:
            POLICY_REGISTRY.unregister(name)


class TestUserIsolation:
    def test_feedback_does_not_leak_across_users(self, service, small_corpus):
        topic, query = _topic_query(small_corpus)
        alice = service.open_session("alice", policy="implicit",
                                     topic_id=topic.topic_id)
        bob = service.open_session("bob", policy="implicit",
                                   topic_id=topic.topic_id)

        alice_first = service.search(SearchRequest(user_id="alice", query=query,
                                                   session_id=alice.session_id))
        bob_first = service.search(SearchRequest(user_id="bob", query=query,
                                                 session_id=bob.session_id))
        assert alice_first.shot_ids() == bob_first.shot_ids()

        service.submit_feedback(FeedbackBatch(user_id="alice",
                                              events=_play_events(alice_first),
                                              session_id=alice.session_id))
        # Alice's evidence lives only in her session...
        assert service.adaptive_session(alice.session_id).implicit_evidence()
        assert not service.adaptive_session(bob.session_id).implicit_evidence()
        # ...so Bob's repeated search is unaffected by her feedback.
        bob_second = service.search(SearchRequest(user_id="bob", query=query,
                                                  session_id=bob.session_id))
        assert bob_second.shot_ids() == bob_first.shot_ids()
        assert dict(bob_second.scores()) == dict(bob_first.scores())

    def test_session_of_another_user_is_rejected(self, service, small_corpus):
        _topic, query = _topic_query(small_corpus)
        alice = service.open_session("alice")
        with pytest.raises(PermissionError):
            service.search(SearchRequest(user_id="mallory", query=query,
                                         session_id=alice.session_id))
        with pytest.raises(PermissionError):
            service.submit_feedback(FeedbackBatch(user_id="mallory",
                                                  events=(),
                                                  session_id=alice.session_id))


class TestBatchSearch:
    def _fleet_requests(self, corpus, users: int):
        requests = []
        topics = corpus.topics.topics()
        for index in range(users):
            topic = topics[index % len(topics)]
            requests.append(
                SearchRequest(
                    user_id=f"user{index:02d}",
                    query=" ".join(topic.query_terms[:2]),
                    topic_id=topic.topic_id,
                )
            )
        return requests

    def test_batch_matches_sequential_over_many_sessions(self, small_corpus):
        # Two identically configured services over the same corpus: one
        # searched sequentially, one batched; rankings must coincide exactly.
        users = 10
        sequential_service = RetrievalService.from_corpus(small_corpus)
        batch_service = RetrievalService.from_corpus(small_corpus)
        requests = self._fleet_requests(small_corpus, users)

        sequential = [sequential_service.search(request) for request in requests]
        batched = batch_service.search_batch(requests)

        assert len(batched) == users
        for seq, bat in zip(sequential, batched):
            assert seq.shot_ids() == bat.shot_ids()
            assert seq.scores() == bat.scores()
            assert seq.iteration == bat.iteration

    def test_batch_matches_sequential_with_diverged_feedback(self, small_corpus):
        # Sessions that received different feedback adapt differently; the
        # batch path must keep them distinct (no false cache sharing).
        topic = small_corpus.topics.topics()[0]
        query = " ".join(topic.query_terms[:2])

        def prepare(service):
            infos = [
                service.open_session(f"user{i}", policy="implicit",
                                     topic_id=topic.topic_id)
                for i in range(8)
            ]
            requests = [
                SearchRequest(user_id=f"user{i}", query=query,
                              session_id=infos[i].session_id)
                for i in range(8)
            ]
            first = [service.search(request) for request in requests]
            # Even users watch their top results; odd users give no feedback.
            for i in range(0, 8, 2):
                service.submit_feedback(
                    FeedbackBatch(user_id=f"user{i}",
                                  events=_play_events(first[i], count=1 + i // 2),
                                  session_id=infos[i].session_id)
                )
            return requests

        sequential_service = RetrievalService.from_corpus(small_corpus)
        batch_service = RetrievalService.from_corpus(small_corpus)
        seq_requests = prepare(sequential_service)
        bat_requests = prepare(batch_service)

        sequential = [sequential_service.search(r) for r in seq_requests]
        batched = batch_service.search_batch(bat_requests)
        for seq, bat in zip(sequential, batched):
            assert seq.shot_ids() == bat.shot_ids()
            assert seq.scores() == bat.scores()

    def test_batch_cache_does_not_alias_result_objects(self, small_corpus):
        service = RetrievalService.from_corpus(small_corpus)
        requests = self._fleet_requests(small_corpus, 4)
        responses = service.search_batch(requests)
        # Same underlying engine evaluation, but every response is its own value.
        assert len({id(response.hits) for response in responses}) == len(responses)


class TestTypedRequests:
    def test_request_types_are_frozen(self):
        request = SearchRequest(user_id="alice", query="x")
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.query = "y"
        batch = FeedbackBatch(user_id="alice")
        with pytest.raises(dataclasses.FrozenInstanceError):
            batch.user_id = "bob"
        hit = SearchHit(shot_id="s", score=1.0, rank=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            hit.score = 2.0

    def test_response_shares_the_cached_items_not_the_list(self, service, small_corpus):
        _topic, query = _topic_query(small_corpus)
        responses = []
        for user in ("alice", "bob"):
            service.open_session(user, policy="baseline")
            responses.append(service.search(SearchRequest(user_id=user, query=query)))
        first, second = responses
        assert isinstance(first.hits, tuple) and len(first.hits) > 1
        # One frozen record from kernel to response: bob's result-cache hit
        # hands out the very items alice's miss built.
        assert all(a is b for a, b in zip(first.hits, second.hits))

        results = ResultList("q", items=list(first.hits))
        response = SearchResponse.from_result_list(
            results, session_id="s", user_id="u", iteration=1, policy="baseline"
        )
        assert all(hit is item for hit, item in zip(response.hits, results.items))
        results.items.reverse()
        results.items.pop()
        assert response.hits == first.hits

    def test_empty_user_rejected(self):
        with pytest.raises(ValueError):
            SearchRequest(user_id="", query="x")
        with pytest.raises(ValueError):
            FeedbackBatch(user_id="")

    def test_non_positive_limits_rejected(self, service):
        with pytest.raises(ValueError):
            SearchRequest(user_id="alice", query="x", limit=0)
        with pytest.raises(ValueError):
            SearchRequest(user_id="alice", query="x", limit=-3)
        with pytest.raises(ValueError):
            service.open_session("alice", result_limit=-1)
        with pytest.raises(ValueError):
            service.recommend("alice", limit=0)

    def test_feedback_events_coerced_to_tuple(self):
        events = [InteractionEvent(kind=EventKind.PLAY_CLICK, timestamp=1.0,
                                   shot_id="s1")]
        batch = FeedbackBatch(user_id="alice", events=events)
        assert isinstance(batch.events, tuple)
        assert len(batch) == 1

    def test_response_round_trips_to_dicts(self, service, small_corpus):
        _topic, query = _topic_query(small_corpus)
        response = service.search(SearchRequest(user_id="alice", query=query))
        assert response.shot_ids() == [hit.shot_id for hit in response.hits]
        for hit in response.top(3):
            record = hit.as_dict()
            assert record["shot_id"] == hit.shot_id
            assert record["rank"] == hit.rank


class TestServiceConstruction:
    def test_from_directory_round_trip(self, small_corpus, tmp_path):
        from repro.collection import save_corpus

        save_corpus(small_corpus, tmp_path / "corpus")
        service = RetrievalService.from_directory(tmp_path / "corpus")
        topic, query = _topic_query(small_corpus)
        response = service.search(SearchRequest(user_id="alice", query=query,
                                                topic_id=topic.topic_id))
        assert len(response) > 0
        assert service.qrels is not None

    def test_generate_constructor(self):
        from repro.collection import CollectionConfig

        service = RetrievalService.generate(
            seed=11, collection_config=CollectionConfig.small()
        )
        assert service.topics is not None
        assert service.session_count == 0

    def test_service_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(max_sessions=0)
        with pytest.raises(ValueError):
            ServiceConfig(engine=EngineConfig(result_limit=-1))
        with pytest.raises(ValueError):
            ServiceConfig(engine=EngineConfig(visual_weight=-0.1))

    def test_process_executor_is_refused(self):
        with pytest.raises(ValueError, match="removed"):
            ServiceConfig(executor="process", num_shards=2)
        with pytest.raises(TypeError):
            ServiceConfig(process_workers=2)
        assert ServiceConfig(executor="thread", num_shards=4).executor == "thread"


class TestConfigShape:
    """Each ranking knob has one field: the service config embeds the
    engine's, and the engine builds its scorer from the one registry."""

    def test_no_field_is_declared_twice(self):
        service_fields = {field.name for field in dataclasses.fields(ServiceConfig)}
        engine_fields = {field.name for field in dataclasses.fields(EngineConfig)}
        assert service_fields & engine_fields == set()

    def test_service_default_is_the_engine_default_at_depth_50(self):
        assert ServiceConfig().engine == EngineConfig(result_limit=50)

    @pytest.mark.parametrize("scorer", ("bm25", "tfidf", "lm", "test_shape_scorer"))
    def test_service_and_engine_score_with_the_registry_scorer(
        self, small_corpus, scorer
    ):
        register_scorer(
            "test_shape_scorer",
            lambda index, config: TfIdfScorer(index),
            overwrite=True,
        )
        try:
            config = EngineConfig(scorer=scorer, lm_mu=150.0, bm25_k1=0.9)
            service = RetrievalService.from_corpus(
                small_corpus, config=ServiceConfig(engine=config)
            )
            engine = VideoRetrievalEngine(small_corpus.collection, config=config)
            query = Query.from_text(_topic_query(small_corpus)[1])
            index = InvertedIndex.from_collection(small_corpus.collection)
            expected = dict(
                create_scorer(scorer, index, config).score(
                    engine._query_term_weights(query)
                )
            )
            assert expected
            for built in (service.engine, engine):
                with built.read_access():
                    assert dict(built.text_scores(query)) == expected
            service.close()
        finally:
            SCORER_REGISTRY.unregister("test_shape_scorer")


NON_FINITE = (float("nan"), float("inf"), -float("inf"))
#: Ranking parameters that take any finite number in their domain.
REAL_FIELDS = ("text_weight", "visual_weight", "concept_weight", "bm25_k1", "lm_mu")
#: Counts: a positive (cache size: non-negative) integer, never a float.
COUNT_FIELDS = ("result_limit", "result_cache_size")


class TestRankingParameterDomain:
    """Non-finite or non-integer ranking parameters are refused up front.

    NaN weights ranked every hit by ``nan``, an infinite one by ``inf`` and
    ``nan``, a NaN or infinite ``bm25_k1`` returned no hits at all, and a
    float limit was accepted and raised a raw ``TypeError`` from inside the
    ranking on the first search.
    """

    @pytest.mark.parametrize("field", REAL_FIELDS)
    def test_real_fields_refuse_non_finite(self, field):
        for value in NON_FINITE:
            with pytest.raises(ValueError, match=f"{field} must be .*finite"):
                EngineConfig(**{field: value})
        assert getattr(EngineConfig(**{field: 2.5}), field) == 2.5

    @pytest.mark.parametrize(
        "config_class, field",
        [(ServiceConfig, "max_sessions")]
        + [(EngineConfig, field) for field in COUNT_FIELDS],
    )
    def test_counts_refuse_non_integers(self, config_class, field):
        for value in NON_FINITE + (2.5, True):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                config_class(**{field: value})
        assert getattr(config_class(**{field: 3}), field) == 3

    def test_bm25_b_refuses_nan(self):
        with pytest.raises(ValueError, match="bm25_b"):
            EngineConfig(bm25_b=float("nan"))

    def test_search_request_limit(self):
        for value in NON_FINITE + (2.5, True):
            with pytest.raises(ValueError, match="SearchRequest.limit must be an integer"):
                SearchRequest(user_id="u", query="q", limit=value)
        assert SearchRequest(user_id="u", query="q", limit=7).limit == 7

    def test_open_session_result_limit_refused_before_any_work(self, service):
        for value in NON_FINITE + (2.5,):
            with pytest.raises(ValueError, match="result_limit must be an integer"):
                service.open_session("alice", result_limit=value)
        assert service.session_count == 0
        assert service.open_session("alice", result_limit=4).result_limit == 4


class TestErrorPaths:
    """Error paths the rest of the suite only exercises incidentally."""

    def test_num_shards_validation(self):
        with pytest.raises(ValueError, match="num_shards must be positive"):
            ServiceConfig(num_shards=0)
        with pytest.raises(ValueError, match="num_shards must be positive"):
            ServiceConfig(num_shards=-4)
        assert ServiceConfig(num_shards=1).num_shards == 1
        assert ServiceConfig(num_shards=8).num_shards == 8

    def test_session_expired_error_through_search_batch(self, small_corpus):
        from repro.service import SessionExpiredError

        service = RetrievalService.from_corpus(
            small_corpus, config=ServiceConfig(max_sessions=1)
        )
        _topic, query = _topic_query(small_corpus)
        evicted = service.open_session("alice").session_id
        service.open_session("bob")  # capacity 1: evicts alice's session
        batch = [
            SearchRequest(user_id="bob", query=query),
            SearchRequest(user_id="alice", query=query, session_id=evicted),
        ]
        with pytest.raises(SessionExpiredError):
            service.search_batch(batch, max_workers=4)
        # Sequential search surfaces the identical error type.
        with pytest.raises(SessionExpiredError):
            service.search(
                SearchRequest(user_id="alice", query=query, session_id=evicted)
            )

    @pytest.mark.parametrize("num_shards", (1, 2))
    def test_unknown_scorer_key_fails_at_construction(self, small_corpus, num_shards):
        with pytest.raises(UnknownComponentError) as excinfo:
            RetrievalService.from_corpus(
                small_corpus,
                config=ServiceConfig(
                    engine=EngineConfig(scorer="no-such-scorer"), num_shards=num_shards
                ),
            )
        message = str(excinfo.value)
        assert "no-such-scorer" in message
        for name in ("bm25", "tfidf", "lm"):
            assert name in message

    def test_unknown_default_policy_key_fails_at_first_use(self, small_corpus):
        # A bad *default* policy name passes construction (policies resolve
        # lazily) and must fail loudly on the first session open — both the
        # explicit and the implicit (auto-open via search) paths.
        service = RetrievalService.from_corpus(
            small_corpus, config=ServiceConfig(policy="no-such-policy")
        )
        _topic, query = _topic_query(small_corpus)
        with pytest.raises(UnknownComponentError, match="no-such-policy"):
            service.open_session("alice")
        with pytest.raises(UnknownComponentError, match="no-such-policy"):
            service.search(SearchRequest(user_id="alice", query=query))

    def test_unknown_weighting_scheme_key_fails_at_first_use(self, small_corpus):
        service = RetrievalService.from_corpus(
            small_corpus, config=ServiceConfig(weighting_scheme="no-such-scheme")
        )
        with pytest.raises(UnknownComponentError, match="no-such-scheme"):
            service.open_session("alice")

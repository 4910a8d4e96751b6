"""Equivalence and regression tests for the adaptation path.

The adaptive serving path (incremental ostensive evidence, memoised
feedback derivations, dense fused re-ranking, shared O(1) session state)
must be **bit-identical** to the naive references in
``tests/reference/adaptation.py``:

* :meth:`OstensiveAccumulator.weighted_evidence` vs the full-recompute
  :class:`ReferenceOstensiveFold` across all four discount profiles;
* :class:`EvidenceAccumulator` vs the cache-free
  :class:`ReferenceAccumulator`;
* memoised :meth:`ImplicitFeedbackModel.expansion_term_weights` /
  :meth:`~repro.core.feedback_model.ImplicitFeedbackModel.rerank_scores`
  vs their ``*_uncached`` counterparts, including post-eviction reuse and
  index-generation invalidation;
* :func:`~repro.core.adaptation_kernel.rerank_and_demote` vs the
  two-stage ``rerank_with_scores`` → ``demote_seen_shots`` fold;
* :func:`profile_affinity_shared` vs affinity read from shot objects; and
* whole sessions vs :class:`ReferenceSession` across policies × discount
  profiles × weighting schemes with interleaved observe/query traffic.

Plus the scalability regression the shared state fixes: opening a session
must not iterate the collection's shots.
"""

from __future__ import annotations

import math

import pytest

from repro.core import (
    AdaptiveVideoRetrievalSystem,
    DenseScratch,
    ImplicitFeedbackModel,
    OstensiveAccumulator,
    combined_policy,
    explicit_policy,
    full_policy,
    make_discount,
    profile_affinity_shared,
    rerank_and_demote,
    standard_policies,
)
from repro.core.ostensive import DISCOUNT_PROFILES
from repro.feedback import EventKind, InteractionEvent
from repro.feedback.accumulator import EvidenceAccumulator
from repro.feedback.weighting import default_schemes
from repro.index import InvertedIndex, VisualIndex
from repro.profiles import UserProfile
from repro.retrieval import VideoRetrievalEngine
from repro.retrieval.results import ResultList
from repro.workload import WorkloadSpec, generate_workload

from reference.adaptation import (
    ReferenceAccumulator,
    ReferenceOstensiveFold,
    demote_seen_shots,
    profile_affinity,
    reference_session,
    rerank_then_demote,
)

#: Observation histories exercising overlap, drift and negative evidence.
_HISTORIES = [
    [{"a": 1.0}],
    [{"a": 1.0, "b": 0.5}, {"b": 1.0, "c": 0.25}, {"c": 2.0}],
    [{"a": 1.0}, {}, {"a": -0.5, "b": 0.75}, {"c": 0.3}, {"a": 0.1}],
    [{f"s{i}": 0.1 * i for i in range(6)} for _ in range(9)],
]


class TestOstensiveIncremental:
    @pytest.mark.parametrize("profile", DISCOUNT_PROFILES)
    @pytest.mark.parametrize("history", _HISTORIES)
    def test_fast_equals_reference_interleaved(self, profile, history):
        accumulator = OstensiveAccumulator.for_profile(profile, base=0.6, horizon=3)
        reference = ReferenceOstensiveFold(profile, base=0.6, horizon=3)
        for iteration in history:
            accumulator.observe_iteration(iteration)
            reference.observe_iteration(iteration)
            # Interleaved reads: the incremental totals / lazy cache must
            # agree with a full recompute at *every* step, not just the end.
            assert accumulator.weighted_evidence() == reference.weighted_evidence()

    def test_generic_callable_unchanged(self):
        discount = make_discount("exponential", base=0.5)
        accumulator = OstensiveAccumulator(discount=discount)
        reference = ReferenceOstensiveFold(discount=discount)
        for iteration in _HISTORIES[1]:
            accumulator.observe_iteration(iteration)
            reference.observe_iteration(iteration)
        # The plain-callable path keeps the original factor-sum semantics.
        expected = {}
        latest = accumulator.iteration_count - 1
        for index, iteration in enumerate(_HISTORIES[1]):
            factor = 0.5 ** (latest - index)
            for key, mass in iteration.items():
                expected[key] = expected.get(key, 0.0) + factor * mass
        assert accumulator.weighted_evidence() == expected
        assert accumulator.weighted_evidence() == reference.weighted_evidence()

    def test_lazy_cache_invalidated_by_new_iteration(self):
        accumulator = OstensiveAccumulator.for_profile("reciprocal")
        accumulator.observe_iteration({"a": 1.0})
        first = accumulator.weighted_evidence()
        assert accumulator.weighted_evidence() == first  # cached read
        accumulator.observe_iteration({"a": 1.0})
        assert accumulator.weighted_evidence()["a"] == pytest.approx(1.5)

    def test_linear_profile_drops_old_ages(self):
        accumulator = OstensiveAccumulator.for_profile("linear", horizon=2)
        reference = ReferenceOstensiveFold("linear", horizon=2)
        for iteration in ({"old": 1.0}, {"mid": 1.0}, {"new": 1.0}):
            accumulator.observe_iteration(iteration)
            reference.observe_iteration(iteration)
        evidence = accumulator.weighted_evidence()
        assert "old" not in evidence  # age 2 >= horizon -> factor 0
        assert evidence == reference.weighted_evidence()

    def test_reset(self):
        accumulator = OstensiveAccumulator.for_profile("exponential", base=0.5)
        accumulator.observe_iteration({"a": 1.0})
        accumulator.reset()
        assert accumulator.weighted_evidence() == {}
        assert accumulator.iteration_count == 0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            OstensiveAccumulator()
        with pytest.raises(ValueError):
            OstensiveAccumulator.for_profile("quadratic")
        with pytest.raises(ValueError):
            OstensiveAccumulator(discount=lambda age: 1.0, profile="uniform")

    @pytest.mark.parametrize("profile", ["uniform", "exponential"])
    def test_foldable_profile_keeps_no_history(self, profile):
        accumulator = OstensiveAccumulator.for_profile(profile, base=0.6)
        reference = ReferenceOstensiveFold(profile, base=0.6)
        for iteration in _HISTORIES[1]:
            accumulator.observe_iteration(iteration)
            reference.observe_iteration(iteration)
        assert accumulator._history == []  # no per-batch memory growth
        assert accumulator.iteration_count == len(_HISTORIES[1])
        assert accumulator.weighted_evidence() == reference.weighted_evidence()

    def test_linear_history_trimmed_to_horizon(self):
        accumulator = OstensiveAccumulator.for_profile("linear", horizon=2)
        reference = ReferenceOstensiveFold("linear", horizon=2)
        for index in range(7):
            iteration = {f"s{index}": 1.0}
            accumulator.observe_iteration(iteration)
            reference.observe_iteration(iteration)
            assert len(accumulator._history) <= 2
            assert accumulator.weighted_evidence() == reference.weighted_evidence()

    def test_reciprocal_keeps_full_history(self):
        # Every age keeps a nonzero reciprocal factor, so the history is
        # structurally required: nothing may be dropped.
        accumulator = OstensiveAccumulator.for_profile("reciprocal")
        reference = ReferenceOstensiveFold("reciprocal")
        for iteration in _HISTORIES[1]:
            accumulator.observe_iteration(iteration)
            reference.observe_iteration(iteration)
        assert len(accumulator._history) == len(_HISTORIES[1])
        assert accumulator.weighted_evidence() == reference.weighted_evidence()


def _play_events(shot_ids, base=0.0):
    events = []
    for index, shot_id in enumerate(shot_ids):
        events.append(
            InteractionEvent(
                kind=EventKind.PLAY_CLICK, timestamp=base + index, shot_id=shot_id,
                rank=index + 1,
            )
        )
        events.append(
            InteractionEvent(
                kind=EventKind.PLAY_PROGRESS, timestamp=base + index + 0.4,
                shot_id=shot_id, duration=4.0 + index,
            )
        )
    return events


class TestEvidenceAccumulatorProfiles:
    @pytest.mark.parametrize("profile", DISCOUNT_PROFILES)
    def test_fast_equals_reference_accumulator(self, profile, small_corpus):
        shots = small_corpus.collection.shot_ids()[:6]
        fast = EvidenceAccumulator(discount_profile=profile, decay=0.7, horizon=3)
        naive = ReferenceAccumulator(discount_profile=profile, decay=0.7, horizon=3)
        for round_index in range(4):
            batch = _play_events(shots[round_index : round_index + 3], base=10.0 * round_index)
            for accumulator in (fast, naive):
                accumulator.observe_batch(batch)
            assert fast.evidence() == naive.evidence()
            assert fast.positive_mass() == naive.positive_mass()
            assert fast.evidence_digest() == naive.evidence_digest()

    def test_legacy_decay_behaviour_is_exponential(self):
        legacy = EvidenceAccumulator(decay=0.5)
        assert legacy.discount_profile == "exponential"
        static = EvidenceAccumulator()
        assert static.discount_profile == "uniform"

    def test_digest_and_mass_cached_per_batch(self, small_corpus):
        accumulator = EvidenceAccumulator(decay=0.8)
        shots = small_corpus.collection.shot_ids()[:2]
        accumulator.observe_batch(_play_events(shots))
        digest = accumulator.evidence_digest()
        assert accumulator.evidence_digest() is digest  # cached object
        accumulator.observe_batch(_play_events(shots, base=50.0))
        assert accumulator.evidence_digest() is not digest
        assert accumulator.version == 2

    def test_shot_durations_shared_by_reference(self):
        durations = {"s1": 10.0}
        accumulator = EvidenceAccumulator(shot_durations=durations)
        assert accumulator._shot_durations is durations

    def test_serving_accumulator_memory_bounded(self, small_corpus):
        shots = small_corpus.collection.shot_ids()[:4]
        fast = EvidenceAccumulator(discount_profile="exponential", decay=0.7)
        for round_index in range(20):
            fast.observe_batch(_play_events(shots, base=10.0 * round_index))
        # The serving path folds in place: no per-batch history retained.
        assert fast._ostensive._history == []
        naive = ReferenceAccumulator(discount_profile="exponential", decay=0.7)
        for round_index in range(20):
            naive.observe_batch(_play_events(shots, base=10.0 * round_index))
        assert len(naive.fold.history) == 20
        assert fast.evidence() == naive.evidence()


class TestImplicitFeedbackModelMemoisation:
    def _model(self, corpus, **kwargs):
        index = InvertedIndex.from_collection(corpus.collection)
        visual = VisualIndex.from_collection(corpus.collection)
        return ImplicitFeedbackModel(index, visual_index=visual, **kwargs), index

    def test_memoised_equals_uncached(self, small_corpus):
        model, _ = self._model(small_corpus)
        shots = small_corpus.collection.shot_ids()
        evidence = {shots[0]: 1.0, shots[3]: 0.5, shots[5]: -0.25, "ALIEN": 0.4}
        assert model.expansion_term_weights(evidence) == (
            model.expansion_term_weights_uncached(evidence)
        )
        assert model.rerank_scores(evidence) == model.rerank_scores_uncached(evidence)
        # Second read is served from the cache and must still be equal.
        assert model.rerank_scores(evidence) == model.rerank_scores_uncached(evidence)
        assert model.cache_info()["entries"] == 2

    def test_cached_map_is_an_owned_copy(self, small_corpus):
        model, _ = self._model(small_corpus)
        evidence = {small_corpus.collection.shot_ids()[0]: 1.0}
        first = model.rerank_scores(evidence)
        first["INJECTED"] = 99.0
        assert "INJECTED" not in model.rerank_scores(evidence)

    def test_generation_bump_invalidates(self, small_corpus):
        model, index = self._model(small_corpus)
        shot_id = small_corpus.collection.shot_ids()[0]
        evidence = {shot_id: 1.0}
        before = model.expansion_term_weights(evidence)
        index.add_document("extra-doc", "an entirely fresh transcript about chess")
        after = model.expansion_term_weights(evidence)
        assert after == model.expansion_term_weights_uncached(evidence)
        # The IDF landscape moved, so served terms must be recomputed, not
        # replayed from the stale generation's entry — which the write
        # dropped with its whole memo, leaving only the fresh entry.
        assert model.cache_info()["entries"] == 1
        assert before == ImplicitFeedbackModel(
            InvertedIndex.from_collection(small_corpus.collection),
            visual_index=VisualIndex.from_collection(small_corpus.collection),
        ).expansion_term_weights_uncached(evidence)

    @pytest.mark.parametrize("cache_size", [math.nan, math.inf, 2.5, True, -1, "8"])
    def test_cache_size_must_be_a_non_negative_integer(self, small_corpus, cache_size):
        # A NaN bound would never evict (``len(memo) > nan`` is false).
        with pytest.raises(ValueError, match="cache_size must be"):
            self._model(small_corpus, cache_size=cache_size)

    def test_post_eviction_reuse(self, small_corpus):
        model, _ = self._model(small_corpus, cache_size=1)
        shots = small_corpus.collection.shot_ids()
        first = {shots[0]: 1.0}
        second = {shots[1]: 0.5}
        a1 = model.rerank_scores(first)
        model.rerank_scores(second)  # evicts the entry for `first`
        assert model.cache_info()["entries"] == 1
        assert model.rerank_scores(first) == a1  # recomputed, identical

    def test_order_sensitive_digest(self, small_corpus):
        model, _ = self._model(small_corpus)
        shots = small_corpus.collection.shot_ids()
        forward = {shots[0]: 1.0, shots[1]: 0.5}
        reverse = {shots[1]: 0.5, shots[0]: 1.0}
        # Different insertion orders are distinct cache keys: each must be
        # served exactly what its own uncached fold computes.
        assert model.rerank_scores(forward) == model.rerank_scores_uncached(forward)
        assert model.rerank_scores(reverse) == model.rerank_scores_uncached(reverse)


class TestFusedRerankDemote:
    def _results(self, engine, corpus, limit=30):
        topic = corpus.topics.topics()[0]
        return engine.search_text(" ".join(topic.query_terms[:2]), limit=limit), topic

    @pytest.mark.parametrize("penalty", [0.0, 0.5])
    @pytest.mark.parametrize("weight", [0.0, 0.35, 0.9])
    def test_fused_matches_composition(self, small_corpus, engine, weight, penalty):
        results, _ = self._results(engine, small_corpus)
        shot_ids = results.shot_ids()
        evidence = {
            shot_ids[2]: 1.5,
            shot_ids[0]: 0.25,
            "UNINDEXED-A": 0.75,  # feedback on a shot the index never saw
            shot_ids[7]: -0.5,
            "UNINDEXED-B": -0.1,
        }
        seen = [shot_ids[1], "UNINDEXED-A", shot_ids[4]]
        fused = rerank_and_demote(
            results, evidence, weight, seen, penalty,
            collection=small_corpus.collection,
            index=engine.inverted_index,
            scratch=DenseScratch(),
        )
        reference = rerank_then_demote(
            results, evidence, weight, seen, penalty, small_corpus.collection
        )
        assert fused.shot_ids() == reference.shot_ids()
        assert [item.score for item in fused] == [item.score for item in reference]
        assert [item.rank for item in fused] == [item.rank for item in reference]

    def test_scratch_reuse_across_queries(self, small_corpus, engine):
        scratch = DenseScratch()
        results, _ = self._results(engine, small_corpus)
        shot_ids = results.shot_ids()
        for round_index in range(4):
            evidence = {shot_ids[round_index]: 1.0 + round_index}
            fused = rerank_and_demote(
                results, evidence, 0.4, shot_ids[:round_index], 0.3,
                collection=small_corpus.collection,
                index=engine.inverted_index,
                scratch=scratch,
            )
            reference = rerank_then_demote(
                results, evidence, 0.4, shot_ids[:round_index], 0.3,
                small_corpus.collection,
            )
            assert fused.shot_ids() == reference.shot_ids()
            assert [item.score for item in fused] == [item.score for item in reference]

    def test_constant_scores_edge(self, small_corpus, engine):
        results, _ = self._results(engine, small_corpus, limit=5)
        constant = ResultList(
            query_text="flat",
            items=[type(item)(shot_id=item.shot_id, score=1.0, rank=rank)
                   for rank, item in enumerate(results, start=1)],
        )
        evidence = {results.shot_ids()[0]: 2.0}
        fused = rerank_and_demote(
            constant, evidence, 0.5, [results.shot_ids()[1]], 0.4,
            collection=None, index=engine.inverted_index, scratch=DenseScratch(),
        )
        reference = rerank_then_demote(
            constant, evidence, 0.5, [results.shot_ids()[1]], 0.4, None
        )
        assert fused.shot_ids() == reference.shot_ids()
        assert [item.score for item in fused] == [item.score for item in reference]

    def test_noop_returns_input(self, small_corpus, engine):
        results, _ = self._results(engine, small_corpus, limit=5)
        assert rerank_and_demote(
            results, {}, 0.0, [], 0.0,
            collection=small_corpus.collection,
            index=engine.inverted_index,
            scratch=DenseScratch(),
        ) is results

    def test_empty_results_with_evidence(self, small_corpus, engine):
        empty = ResultList(query_text="nothing", items=[])
        fused = rerank_and_demote(
            empty, {"X": 1.0}, 0.5, ["X"], 0.5,
            collection=small_corpus.collection,
            index=engine.inverted_index,
            scratch=DenseScratch(),
        )
        reference = rerank_then_demote(
            empty, {"X": 1.0}, 0.5, ["X"], 0.5, small_corpus.collection
        )
        assert fused.shot_ids() == reference.shot_ids() == []

    def test_demote_seen_shots(self, engine):
        results = ResultList.from_scores("q", {"a": 1.0, "b": 0.99, "c": 0.5})
        demoted = rerank_and_demote(
            results, {}, 0.0, ["a"], 0.9,
            collection=None, index=engine.inverted_index, scratch=DenseScratch(),
        )
        assert demoted.shot_ids()[0] == "b"
        assert demoted.shot_ids() == demote_seen_shots(results, ["a"], penalty=0.9).shot_ids()


class TestSharedProfileAffinity:
    def test_matches_reference(self, small_corpus, adaptive_system_shared):
        system, corpus = adaptive_system_shared
        profile = UserProfile.single_interest("u", corpus.collection.categories()[0], 0.9)
        profile.boost_concept_interest(next(iter(
            corpus.collection.shots()[0].concepts or ("c",)
        )), 0.5)
        shot_ids = corpus.collection.shot_ids()[:40] + ["MISSING"]
        assert profile_affinity_shared(
            profile, system.shared_state, shot_ids
        ) == profile_affinity(profile, corpus.collection, shot_ids)


@pytest.fixture(scope="module")
def adaptive_system_shared(small_corpus):
    engine = VideoRetrievalEngine(small_corpus.collection)
    return AdaptiveVideoRetrievalSystem(engine), small_corpus


class TestSessionEquivalence:
    """Whole sessions vs reference sessions, bit-identical rankings."""

    def _drive(self, session, topic, corpus, rounds=3):
        outputs = []
        relevant = sorted(corpus.qrels.relevant_shots(topic.topic_id))
        query = topic.query_terms[0]
        for round_index in range(rounds):
            results = session.submit_query(
                query if round_index < 2 else " ".join(topic.query_terms[:2])
            )
            outputs.append([(item.shot_id, item.score, item.rank) for item in results])
            fed = relevant[: 2 + round_index] + ["GHOST-SHOT"]
            session.observe(_play_events(fed, base=100.0 * round_index))
            outputs.append(
                [(item.shot_id, item.score) for item in session.recommendations(limit=5)]
            )
        outputs.append(session.seen_shots())
        outputs.append(sorted(session.implicit_evidence().items()))
        return outputs

    @pytest.mark.parametrize("profile_name", DISCOUNT_PROFILES)
    @pytest.mark.parametrize(
        "policy_factory", list(standard_policies()) + [full_policy(), explicit_policy()],
        ids=lambda policy: policy.name,
    )
    def test_policies_times_profiles(
        self, adaptive_system_shared, policy_factory, profile_name
    ):
        system, corpus = adaptive_system_shared
        topic = corpus.topics.topics()[0]
        policy = policy_factory.with_overrides(
            ostensive_profile=profile_name, demote_seen=0.25
        )
        profile = UserProfile.single_interest("u", topic.category, 0.8)
        session = system.create_session(
            profile=profile, policy=policy, topic_id=topic.topic_id
        )
        reference = reference_session(
            system, profile=profile, policy=policy, topic_id=topic.topic_id
        )
        assert self._drive(session, topic, corpus) == self._drive(reference, topic, corpus)

    def _scheme_pair(self, system, corpus, scheme, profile, demote):
        topic = corpus.topics.topics()[1]
        policy = combined_policy().with_overrides(demote_seen=demote)
        session = system.create_session(
            profile=profile, policy=policy, scheme=scheme, topic_id=topic.topic_id
        )
        reference = reference_session(
            system, profile=profile, policy=policy, scheme=scheme, topic_id=topic.topic_id
        )
        assert self._drive(session, topic, corpus) == self._drive(reference, topic, corpus)

    @pytest.mark.parametrize("scheme", default_schemes(), ids=lambda scheme: scheme.name)
    def test_weighting_schemes(self, adaptive_system_shared, scheme):
        system, corpus = adaptive_system_shared
        self._scheme_pair(system, corpus, scheme, None, 0.3)

    @pytest.mark.parametrize("scheme", default_schemes(), ids=lambda scheme: scheme.name)
    def test_weighting_schemes_with_profile(self, adaptive_system_shared, scheme):
        # The scheme sweep with a category profile in the gate (E14's combos).
        system, corpus = adaptive_system_shared
        profile = UserProfile.single_interest("u", corpus.topics.topics()[1].category, 0.8)
        self._scheme_pair(system, corpus, scheme, profile, 0.25)


class TestSessionBringUp:
    def test_session_open_does_not_iterate_shots(self, monkeypatch):
        from repro.collection import CollectionConfig, generate_corpus
        from repro.collection.documents import Collection

        corpus = generate_corpus(seed=59, config=CollectionConfig.small())
        system = AdaptiveVideoRetrievalSystem(VideoRetrievalEngine(corpus.collection))
        system.create_session()  # warm-up builds the shared state once

        def forbidden(self):
            raise AssertionError("session bring-up iterated the collection's shots")

        monkeypatch.setattr(Collection, "iter_shots", forbidden)
        for _ in range(50):
            session = system.create_session(policy=combined_policy())
        # The shared durations map really is shared, not rebuilt.
        assert session._accumulator._shot_durations is (
            system.shared_state.shot_durations
        )

    def test_shared_state_built_once(self, adaptive_system_shared):
        system, _ = adaptive_system_shared
        assert system.shared_state is system.shared_state

    def test_reference_session_still_builds_its_own(self, adaptive_system_shared):
        system, _ = adaptive_system_shared
        reference = reference_session(system)
        assert reference._accumulator.shot_durations is not (
            system.shared_state.shot_durations
        )
        assert reference.shot_categories is not system.shared_state.shot_categories
        assert reference._accumulator.shot_durations == system.shared_state.shot_durations
        assert reference.shot_categories == system.shared_state.shot_categories


class TestAdaptationHeavyWorkload:
    def test_feedback_per_query_shapes_scripts(self, small_corpus):
        spec = WorkloadSpec(users=3, queries_per_user=2, feedback_per_query=3, seed=11)
        workloads = generate_workload(spec, small_corpus.topics)
        for workload in workloads:
            kinds = [step.kind for step in workload.steps]
            assert len(kinds) == 2 * (1 + 3)
            assert kinds.count("search") == 2
            assert kinds.count("feedback") == 6
            # step indexes stay dense and ordered (the driver's log seq keys)
            assert [step.step for step in workload.steps] == list(range(len(kinds)))

    def test_adaptation_heavy_mix_is_deterministic(self, small_corpus):
        from repro.service import RetrievalService
        from repro.workload import ServiceLoadDriver

        spec = WorkloadSpec(
            users=4, queries_per_user=2, feedback_per_query=3, seed=23
        )

        def factory():
            return RetrievalService.from_corpus(small_corpus)

        digests = {
            ServiceLoadDriver(factory, max_workers=workers).run(spec).digest()
            for workers in (1, 4)
        }
        assert len(digests) == 1

    def test_feedback_per_query_validated(self):
        with pytest.raises(ValueError):
            WorkloadSpec(feedback_per_query=0)

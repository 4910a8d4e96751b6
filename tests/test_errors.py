"""Every error class of the package derives from one root, ReproError.

The CLI turns a ReproError into one stderr line and exit 2; any other
exception keeps its traceback.  A new error class that forgets the root
fails here instead of printing a traceback to a user.
"""

from __future__ import annotations

import importlib
import pkgutil
from types import SimpleNamespace

import pytest

import repro
from repro.analysis.features import (
    cosine_similarity,
    euclidean_distance,
    histogram_intersection,
)
from repro.collection.qrels import Qrels
from repro.collection.storage import load_collection, load_corpus, load_topics
from repro.collection.topics import Topic, TopicSet
from repro.collection.vocabulary import CategoryLanguageModel, Vocabulary
from repro.core.ostensive import (
    OstensiveAccumulator,
    exponential_discount,
    linear_discount,
    make_discount,
    reciprocal_discount,
    uniform_discount,
)
from repro.durability import DurabilityManager
from repro.collection.documents import Collection, Keyframe, NewsStory, Shot, Video
from repro.errors import InvalidArgumentError, NotIndexedError, ReproError
from repro.core.policies import AdaptationPolicy
from repro.evaluation import metrics, significance
from repro.evaluation.experiment import make_interface
from repro.feedback.events import EventKind
from repro.feedback.accumulator import EvidenceAccumulator
from repro.feedback.indicators import IndicatorExtractor
from repro.feedback.weighting import IndicatorWeightLearner
from repro.index import fusion
from repro.index.scoring import normalise_query
from repro.interfaces import InteractionLogger, ItvInterface
from repro.interfaces.base import ActionCost, InterfaceModel
from repro.replication import (
    ChaosEvent,
    ChaosSchedule,
    ReplicatedService,
    run_replicated_loadtest,
)
from repro.retrieval import (
    EngineConfig,
    RocchioExpander,
    story_scores_from_shots,
)
from repro.service import ServiceConfig
from repro.serving.quotas import TokenBucket
from repro.simulation import SimulatedUser
from repro.simulation.strategies import DriftingQueryStrategy
from repro.utils import validation
from repro.utils.registry import ComponentRegistry
from repro.utils.serialization import encode_uvarint, write_json
from repro.workload import ContinuousMixSpec, run_continuous_mix
from repro.workload.driver import ServiceLoadDriver
from repro.workload.spec import WorkloadSpec
from repro.workload.ingest import apply_ingest, synthetic_ingest_ops

#: The builtin base each error class kept when it took ReproError as a root.
BUILTIN_BASES = {
    "repro.durability.recovery.RecoveryError": ValueError,
    "repro.durability.replay.ReplayError": ValueError,
    "repro.durability.snapshots.SnapshotError": ValueError,
    "repro.durability.wal.WalError": ValueError,
    "repro.errors.InvalidArgumentError": ValueError,
    "repro.errors.NotIndexedError": KeyError,
    "repro.index.scoring.StaleScoresError": RuntimeError,
    "repro.replication.errors.NoReplicaAvailableError": RuntimeError,
    "repro.replication.errors.PrimaryUnavailableError": RuntimeError,
    "repro.replication.errors.PromotionError": RuntimeError,
    "repro.replication.errors.ReplicaClosedError": RuntimeError,
    "repro.replication.errors.ReplicaLaggingError": RuntimeError,
    "repro.replication.errors.ReplicationError": RuntimeError,
    "repro.service.sessions.SessionExpiredError": KeyError,
    "repro.service.sessions.SessionNotFoundError": KeyError,
    "repro.serving.errors.AdmissionRejectedError": RuntimeError,
    "repro.serving.errors.DeadlineExceededError": TimeoutError,
    "repro.serving.errors.DrainingError": RuntimeError,
    "repro.serving.errors.QueueFullError": RuntimeError,
    "repro.serving.errors.QuotaExceededError": RuntimeError,
    "repro.utils.concurrency.OperationCancelledError": RuntimeError,
    "repro.utils.registry.UnknownComponentError": KeyError,
    "repro.utils.serialization.ChecksumMismatchError": ValueError,
    "repro.utils.serialization.RecordError": ValueError,
    "repro.utils.serialization.TruncatedRecordError": ValueError,
    "repro.utils.serialization.VectorDecodeError": ValueError,
}


@pytest.fixture(scope="module")
def package_errors():
    """Every exception class defined under ``repro``, by qualified name."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    found, pending = {}, [BaseException]
    while pending:
        for cls in pending.pop().__subclasses__():
            pending.append(cls)
            if cls.__module__.split(".")[0] == "repro":
                found[f"{cls.__module__}.{cls.__qualname__}"] = cls
    return found


def test_every_error_class_derives_from_the_root(package_errors):
    assert set(BUILTIN_BASES) <= set(package_errors)
    assert [
        name for name, cls in package_errors.items() if not issubclass(cls, ReproError)
    ] == []


@pytest.mark.parametrize("name, builtin", sorted(BUILTIN_BASES.items()))
def test_each_error_class_keeps_its_builtin_base(package_errors, name, builtin):
    """``except ValueError`` and friends still catch what they caught."""
    cls = package_errors[name]
    assert issubclass(cls, builtin) and issubclass(cls, ReproError)


#: One refused call for each ``ensure_*`` helper that refuses a value;
#: ``ensure_type`` is a type check and raises ``TypeError``.
REFUSALS = {
    "ensure_deadline": lambda: validation.ensure_deadline(0.0, "deadline"),
    "ensure_in_range": lambda: validation.ensure_in_range(2.0, 0.0, 1.0, "weight"),
    "ensure_non_empty": lambda: validation.ensure_non_empty([], "terms"),
    "ensure_number": lambda: validation.ensure_number(float("nan"), "k1"),
    "ensure_positive": lambda: validation.ensure_positive(0, "users"),
    "ensure_probability": lambda: validation.ensure_probability(1.5, "ratio"),
}


def test_every_ensure_helper_has_a_refusal_case():
    helpers = {name for name in vars(validation) if name.startswith("ensure_")}
    assert helpers - {"ensure_type"} == set(REFUSALS)


@pytest.mark.parametrize("helper", sorted(REFUSALS))
def test_ensure_refusals_are_invalid_argument_errors(helper):
    with pytest.raises(InvalidArgumentError) as refused:
        REFUSALS[helper]()
    assert isinstance(refused.value, ValueError)


def _register_twice():
    registry = ComponentRegistry("thing")
    registry.register("name", object)
    registry.register("name", object)


#: The chaos harness's and the component registries' refusals.
MODULE_REFUSALS = {
    "ChaosEvent.at_op": lambda: ChaosEvent(-1, "kill_replica"),
    "ChaosEvent.action": lambda: ChaosEvent(0, "explode"),
    "ChaosSchedule.generate.total_ops": lambda: ChaosSchedule.generate(
        seed=1, total_ops=0, replica_ids=()
    ),
    "run_replicated_loadtest.num_replicas": lambda: run_replicated_loadtest(
        None, "unused", num_replicas=-1
    ),
    "run_replicated_loadtest.ingest_ops": lambda: run_replicated_loadtest(
        None, "unused", ingest_ops=0
    ),
    "ReplicatedService.max_lag_lsn": lambda: ReplicatedService(None, max_lag_lsn=-1),
    "ReplicatedService.max_lag_seconds": lambda: ReplicatedService(
        None, max_lag_seconds=0
    ),
    "ComponentRegistry.register.empty_name": lambda: ComponentRegistry(
        "thing"
    ).register("", object),
    "ComponentRegistry.register.duplicate_name": _register_twice,
    "EngineConfig.unknown_scorer": lambda: EngineConfig(scorer="no-such-scorer"),
}


@pytest.mark.parametrize("refusal", sorted(MODULE_REFUSALS))
def test_module_refusals_are_invalid_argument_errors(refusal):
    with pytest.raises(InvalidArgumentError) as refused:
        MODULE_REFUSALS[refusal]()
    assert isinstance(refused.value, ValueError)


#: A service with no durability manager, for refusals that check before they
#: touch anything else.
_IN_MEMORY = SimpleNamespace(engine=SimpleNamespace(durability=None))

#: Workload and service-config refusals: ``name -> (refused call, message)``.
WORKLOAD_REFUSALS = {
    "synthetic_ingest_ops.count": (
        lambda: synthetic_ingest_ops(-1),
        "count must be non-negative, got -1",
    ),
    "apply_ingest.kind": (
        lambda: apply_ingest(None, [("rename", "d1", "text")]),
        "unknown ingest op kind 'rename'",
    ),
    "run_continuous_mix.negative_stop_lsn": (
        lambda: run_continuous_mix(_IN_MEMORY, ContinuousMixSpec(), stop_lsn=-1),
        "stop_lsn must be non-negative, got -1",
    ),
    "run_continuous_mix.stop_lsn_in_memory": (
        lambda: run_continuous_mix(_IN_MEMORY, ContinuousMixSpec(), stop_lsn=3),
        "stop_lsn requires a durable service: the budget is measured against its WAL",
    ),
    "ServiceConfig.durable_num_shards": (
        lambda: ServiceConfig(num_shards=4, durability_dir="unused"),
        "num_shards=4: a durable directory holds one WAL segment; leave num_shards at 1",
    ),
}


@pytest.mark.parametrize("refusal", sorted(WORKLOAD_REFUSALS))
def test_workload_refusals_are_invalid_argument_errors(refusal):
    call, message = WORKLOAD_REFUSALS[refusal]
    with pytest.raises(InvalidArgumentError) as refused:
        call()
    assert isinstance(refused.value, ValueError)
    assert str(refused.value) == message


def test_an_in_memory_config_still_takes_num_shards():
    # It selects nothing; the E21 benchmark's in-memory workload passes it.
    assert ServiceConfig(num_shards=4).num_shards == 4


#: Fusion, scoring and retrieval refusals: ``name -> (refused call, message)``.
#: None of them reads an index or a collection before it refuses.
RANKING_REFUSALS = {
    "weighted_fusion.weight_count": (
        lambda: fusion.weighted_fusion([{"a": 1.0}], [1.0, 2.0]),
        "need one weight per score map, got 2 weights for 1 maps",
    ),
    "weighted_fusion.negative_weight": (
        lambda: fusion.weighted_fusion([{"a": 1.0}], [-1.0]),
        "fusion weights must be non-negative",
    ),
    "reciprocal_rank_fusion.k": (
        lambda: fusion.reciprocal_rank_fusion([{"a": 1.0}], k=0),
        "k must be positive, got 0",
    ),
    "interpolate.secondary_weight": (
        lambda: fusion.interpolate({"a": 1.0}, {"a": 1.0}, secondary_weight=1.5),
        "secondary_weight must be in [0, 1], got 1.5",
    ),
    "normalise_query.non_finite_weight": (
        lambda: normalise_query({"goal": 1.0, "rain": float("inf")}),
        "query term 'rain' has a non-finite weight inf",
    ),
    "story_scores_from_shots.aggregation": (
        lambda: story_scores_from_shots({}, None, aggregation="median"),
        "unknown aggregation 'median'",
    ),
    "RocchioExpander.coefficients": (
        lambda: RocchioExpander(None, beta=-0.5),
        "Rocchio coefficients must be non-negative",
    ),
}


@pytest.mark.parametrize("refusal", sorted(RANKING_REFUSALS))
def test_ranking_refusals_are_invalid_argument_errors(refusal):
    call, message = RANKING_REFUSALS[refusal]
    with pytest.raises(InvalidArgumentError) as refused:
        call()
    assert isinstance(refused.value, ValueError)
    assert str(refused.value) == message


def _json_file(path, payload):
    write_json(path, payload)
    return path


#: Durable and storage refusals: ``name -> (refused call in a scratch
#: directory, message with that directory as {d})``.
STORAGE_REFUSALS = {
    "DurabilityManager.snapshot_interval_ops": (
        lambda d: DurabilityManager(d / "durable", 1, snapshot_interval_ops=0),
        "snapshot_interval_ops must be positive, got 0",
    ),
    "encode_uvarint.negative": (
        lambda d: encode_uvarint(-3),
        "uvarint cannot encode negative value -3",
    ),
    "load_collection.kind": (
        lambda d: load_collection(_json_file(d / "c.json", {"kind": "topics"})),
        "{d}/c.json does not contain a collection snapshot",
    ),
    "load_collection.format_version": (
        lambda d: load_collection(
            _json_file(d / "c.json", {"kind": "collection", "format_version": 99})
        ),
        "unsupported collection format version 99",
    ),
    "load_topics.kind": (
        lambda d: load_topics(_json_file(d / "t.json", {"kind": "collection"})),
        "{d}/t.json does not contain a topic snapshot",
    ),
    "load_corpus.kind": (
        lambda d: load_corpus(_json_file(d / "manifest.json", {"kind": "corpus"}).parent),
        "{d} does not contain a corpus manifest",
    ),
}


@pytest.mark.parametrize("refusal", sorted(STORAGE_REFUSALS))
def test_storage_refusals_are_invalid_argument_errors(tmp_path, refusal):
    call, message = STORAGE_REFUSALS[refusal]
    with pytest.raises(InvalidArgumentError) as refused:
        call(tmp_path)
    assert isinstance(refused.value, ValueError)
    assert str(refused.value) == message.format(d=tmp_path)
    assert not (tmp_path / "durable").exists()


def _text_file(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def _topic(topic_id):
    return Topic(topic_id, "title", "description", "news")


#: Refusals of the log, qrels and topic readers: ``name -> (refused call in
#: a scratch directory, error class, message with that directory as {d})``.
#: The CLI prints each as one ``<verb> failed`` line.
READER_REFUSALS = {
    "InteractionLogger.read_session.empty": (
        lambda d: InteractionLogger().read_session(_text_file(d / "s.jsonl", "")),
        InvalidArgumentError,
        "log file {d}/s.jsonl is empty",
    ),
    "InteractionLogger.read_session.header": (
        lambda d: InteractionLogger().read_session(
            _text_file(d / "s.jsonl", '{"kind": "play_click"}\n')
        ),
        InvalidArgumentError,
        "log file {d}/s.jsonl does not start with a session header",
    ),
    "Qrels.add.grade": (
        lambda d: Qrels().add("T1", "s1", -1),
        InvalidArgumentError,
        "relevance grade must be non-negative, got -1",
    ),
    "Qrels.load.fields": (
        lambda d: Qrels.load(_text_file(d / "qrels.txt", "T1 0 s1 1\ngarbage\n")),
        InvalidArgumentError,
        "malformed qrels line: 'garbage'",
    ),
    "Qrels.load.grade": (
        lambda d: Qrels.load(_text_file(d / "qrels.txt", "T1 0 s1 high\n")),
        InvalidArgumentError,
        "malformed qrels line: 'T1 0 s1 high'",
    ),
    "TopicSet.duplicate": (
        lambda d: TopicSet([_topic("T1"), _topic("T1")]),
        InvalidArgumentError,
        "duplicate topic id 'T1'",
    ),
    "TopicSet.topic.unknown": (
        lambda d: TopicSet([_topic("T1")]).topic("T9"),
        NotIndexedError,
        "unknown topic 'T9'",
    ),
}


@pytest.mark.parametrize("refusal", sorted(READER_REFUSALS))
def test_reader_refusals_are_typed(tmp_path, refusal):
    call, error, message = READER_REFUSALS[refusal]
    with pytest.raises(error) as refused:
        call(tmp_path)
    assert str(refused.value) == message.format(d=tmp_path)


def _mixture_over_one(category_weight, extra_weight):
    model = CategoryLanguageModel("news", ["goal"])
    vocabulary = Vocabulary(background=model, categories={"news": model})
    return vocabulary.sample_mixture(
        None, "news", 1, category_weight=category_weight, extra_weight=extra_weight
    )


#: Feature-vector and vocabulary refusals: ``name -> (refused call, message)``.
FEATURE_REFUSALS = {
    "cosine_similarity.length": (
        lambda: cosine_similarity((1.0, 0.0), (1.0,)),
        "vectors must have equal length, got 2 and 1",
    ),
    "euclidean_distance.length": (
        lambda: euclidean_distance((1.0,), (1.0, 0.0, 2.0)),
        "vectors must have equal length, got 1 and 3",
    ),
    "histogram_intersection.length": (
        lambda: histogram_intersection((), (0.5,)),
        "vectors must have equal length, got 0 and 1",
    ),
    "CategoryLanguageModel.probabilities_length": (
        lambda: CategoryLanguageModel("news", ["goal", "match"], [1.0]),
        "probabilities must align with terms",
    ),
    "CategoryLanguageModel.probabilities_total": (
        lambda: CategoryLanguageModel("news", ["goal", "match"], [0.0, 0.0]),
        "probabilities must sum to a positive finite total, got 0.0",
    ),
    "Vocabulary.sample_mixture.weights": (
        lambda: _mixture_over_one(0.75, 0.5),
        "category_weight + extra_weight must not exceed 1.0",
    ),
}


@pytest.mark.parametrize("refusal", sorted(FEATURE_REFUSALS))
def test_feature_refusals_are_invalid_argument_errors(refusal):
    call, message = FEATURE_REFUSALS[refusal]
    with pytest.raises(InvalidArgumentError) as refused:
        call()
    assert isinstance(refused.value, ValueError)
    assert str(refused.value) == message


#: Evidence-discount and significance-test refusals: ``name -> (refused
#: call, message)``.
ANALYSIS_REFUSALS = {
    "uniform_discount.age": (
        lambda: uniform_discount(-1), "age must be non-negative"
    ),
    "exponential_discount.age": (
        lambda: exponential_discount(-1), "age must be non-negative"
    ),
    "reciprocal_discount.age": (
        lambda: reciprocal_discount(-2), "age must be non-negative"
    ),
    "linear_discount.age": (
        lambda: linear_discount(-1), "age must be non-negative"
    ),
    "make_discount.profile": (
        lambda: make_discount("harmonic"),
        "unknown discount profile 'harmonic'; expected one of "
        "('uniform', 'exponential', 'reciprocal', 'linear')",
    ),
    "OstensiveAccumulator.neither": (
        lambda: OstensiveAccumulator(),
        "provide a discount callable or a profile name",
    ),
    "OstensiveAccumulator.profile": (
        lambda: OstensiveAccumulator(profile="harmonic"),
        "unknown discount profile 'harmonic'; expected one of "
        "('uniform', 'exponential', 'reciprocal', 'linear')",
    ),
    "OstensiveAccumulator.both": (
        lambda: OstensiveAccumulator(discount=uniform_discount, profile="uniform"),
        "pass either discount or profile, not both",
    ),
    "paired_t_test.lengths": (
        lambda: significance.paired_t_test([0.1, 0.2], [0.3]),
        "paired samples must have equal length, got 2 and 1",
    ),
    "randomisation_test.too_few": (
        lambda: significance.randomisation_test([0.1], [0.3]),
        "need at least two paired observations",
    ),
    "student_t_sf.degrees": (
        lambda: significance._student_t_sf(1.0, 0),
        "degrees of freedom must be positive",
    ),
    "compare_per_topic.shared": (
        lambda: significance.compare_per_topic({"t1": 0.1}, {"t1": 0.2, "t2": 0.3}),
        "need at least two shared topics to compare",
    ),
    "compare_per_topic.method": (
        lambda: significance.compare_per_topic(
            {"t1": 0.1, "t2": 0.2}, {"t1": 0.2, "t2": 0.3}, method="wilcoxon"
        ),
        "unknown method 'wilcoxon'; expected 't-test' or 'randomisation'",
    ),
}


@pytest.mark.parametrize("refusal", sorted(ANALYSIS_REFUSALS))
def test_analysis_refusals_are_invalid_argument_errors(refusal):
    call, message = ANALYSIS_REFUSALS[refusal]
    with pytest.raises(InvalidArgumentError) as refused:
        call()
    assert isinstance(refused.value, ValueError)
    assert str(refused.value) == message


#: Adaptation-layer refusals (evidence accumulation, indicator extraction,
#: weight learning, policies): ``name -> (refused call, message)``.
ADAPTATION_REFUSALS = {
    "EvidenceAccumulator.decay": (
        lambda: EvidenceAccumulator(decay=0.0), "decay must be greater than 0"
    ),
    "IndicatorExtractor.long_play_fraction": (
        lambda: IndicatorExtractor(long_play_fraction=0.0),
        "long_play_fraction must be in (0, 1]",
    ),
    "IndicatorExtractor.hover_threshold_seconds": (
        lambda: IndicatorExtractor(hover_threshold_seconds=-1.0),
        "hover_threshold_seconds must be non-negative",
    ),
    "IndicatorWeightLearner.smoothing": (
        lambda: IndicatorWeightLearner(smoothing=-0.5),
        "smoothing must be non-negative",
    ),
    "AdaptationPolicy.ostensive_profile": (
        lambda: AdaptationPolicy(name="p", ostensive_profile="harmonic"),
        "unknown ostensive profile 'harmonic'; expected one of "
        "('uniform', 'exponential', 'reciprocal', 'linear')",
    ),
    "AdaptationPolicy.demote_seen": (
        lambda: AdaptationPolicy(name="p", demote_seen=2.0),
        "demote_seen must be in [0.0, 1.0], got 2.0",
    ),
    "AdaptationPolicy.expansion_terms": (
        lambda: AdaptationPolicy(name="p", expansion_terms=-1),
        "expansion_terms must be non-negative",
    ),
}


@pytest.mark.parametrize("refusal", sorted(ADAPTATION_REFUSALS))
def test_adaptation_refusals_are_invalid_argument_errors(refusal):
    call, message = ADAPTATION_REFUSALS[refusal]
    with pytest.raises(InvalidArgumentError) as refused:
        call()
    assert isinstance(refused.value, ValueError)
    assert str(refused.value) == message


def _shot(shot_id, story_id):
    return Shot(
        shot_id, "v1", story_id, 0.0, 1.0, "", Keyframe(f"k-{shot_id}", shot_id, ()), "news"
    )


#: Metric, interface and collection refusals: ``name -> (refused call,
#: message)``.
MODEL_REFUSALS = {
    "precision_at_k.k": (
        lambda: metrics.precision_at_k(["s1"], {"s1"}, 0), "k must be positive, got 0"
    ),
    "recall_at_k.k": (
        lambda: metrics.recall_at_k(["s1"], {"s1"}, -1), "k must be positive, got -1"
    ),
    "dcg_at_k.k": (
        lambda: metrics.dcg_at_k(["s1"], {"s1": 2}, 0), "k must be positive, got 0"
    ),
    "success_at_k.k": (
        lambda: metrics.success_at_k(["s1"], {"s1"}, 0), "k must be positive, got 0"
    ),
    "ActionCost.time_seconds": (
        lambda: ActionCost(time_seconds=-1.0, effort=0.5),
        "time_seconds must be non-negative and finite, got -1.0",
    ),
    "ActionCost.effort": (
        lambda: ActionCost(time_seconds=1.0, effort=1.5),
        "effort must be in [0, 1], got 1.5",
    ),
    "InterfaceModel.missing_cost": (
        lambda: InterfaceModel(5, frozenset({EventKind.PLAY_CLICK}), {}),
        "actions missing a cost definition: ['play_click']",
    ),
    "Collection.story_video": (
        lambda: Collection([], [NewsStory("st1", "v9", "news", "")], []),
        "story st1 references unknown video v9",
    ),
    "Collection.story_shot": (
        lambda: Collection(
            [Video("v1", "2008-01-01")], [NewsStory("st1", "v1", "news", "", ["s9"])], []
        ),
        "story st1 references unknown shot s9",
    ),
    "Collection.shot_story": (
        lambda: Collection([Video("v1", "2008-01-01")], [], [_shot("s1", "st9")]),
        "shot s1 references unknown story st9",
    ),
}


@pytest.mark.parametrize("refusal", sorted(MODEL_REFUSALS))
def test_model_refusals_are_invalid_argument_errors(refusal):
    call, message = MODEL_REFUSALS[refusal]
    with pytest.raises(InvalidArgumentError) as refused:
        call()
    assert isinstance(refused.value, ValueError)
    assert str(refused.value) == message



def _driven(max_sessions, users):
    """Run a load driver whose service holds ``max_sessions`` and no topics."""
    service = SimpleNamespace(
        config=SimpleNamespace(max_sessions=max_sessions), topics=None
    )
    return ServiceLoadDriver(lambda: service).run(WorkloadSpec(users=users))


#: Token-bucket, load-driver, experiment and simulated-user refusals:
#: ``name -> (refused call, message)``.
SIMULATION_REFUSALS = {
    "TokenBucket.rate": (
        lambda: TokenBucket(rate=0, burst=1), "rate must be positive, got 0"
    ),
    "TokenBucket.burst": (
        lambda: TokenBucket(rate=1.0, burst=0), "burst must be at least 1, got 0"
    ),
    "ServiceLoadDriver.run.max_sessions": (
        lambda: _driven(max_sessions=2, users=3),
        "workload drives 3 concurrent users but the service holds at most 2 "
        "sessions; raise ServiceConfig.max_sessions or shrink the workload",
    ),
    "ServiceLoadDriver.run.no_topics": (
        lambda: _driven(max_sessions=2, users=2),
        "service has no topics; pass explicit workloads instead",
    ),
    "make_interface.name": (
        lambda: make_interface("tablet"),
        "unknown interface 'tablet'; expected 'desktop' or 'itv'",
    ),
    "DriftingQueryStrategy.shift_after": (
        lambda: DriftingQueryStrategy(None, None, shift_after=0),
        "shift_after must be positive, got 0",
    ),
    "SimulatedUser.query_terms_per_reformulation": (
        lambda: SimulatedUser("u", query_terms_per_reformulation=-1),
        "query_terms_per_reformulation must be non-negative, got -1",
    ),
}


@pytest.mark.parametrize("refusal", sorted(SIMULATION_REFUSALS))
def test_simulation_refusals_are_invalid_argument_errors(refusal):
    call, message = SIMULATION_REFUSALS[refusal]
    with pytest.raises(InvalidArgumentError) as refused:
        call()
    assert isinstance(refused.value, ValueError)
    assert str(refused.value) == message

def test_an_unsupported_action_has_no_cost():
    with pytest.raises(NotIndexedError) as refused:
        ItvInterface().cost_of(EventKind.ADD_TO_PLAYLIST)
    assert isinstance(refused.value, KeyError)
    assert str(refused.value) == "itv interface does not support add_to_playlist"

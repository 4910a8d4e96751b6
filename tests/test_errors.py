"""Every error class of the package derives from one root, ReproError.

The CLI turns a ReproError into one stderr line and exit 2; any other
exception keeps its traceback.  A new error class that forgets the root
fails here instead of printing a traceback to a user.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro
from repro.errors import InvalidArgumentError, ReproError
from repro.replication import ChaosEvent, ChaosSchedule, run_replicated_loadtest
from repro.retrieval import EngineConfig
from repro.utils import validation
from repro.utils.registry import ComponentRegistry

#: The builtin base each error class kept when it took ReproError as a root.
BUILTIN_BASES = {
    "repro.durability.recovery.RecoveryError": ValueError,
    "repro.durability.replay.ReplayError": ValueError,
    "repro.durability.snapshots.SnapshotError": ValueError,
    "repro.durability.wal.WalError": ValueError,
    "repro.errors.InvalidArgumentError": ValueError,
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

"""Pinned bytes of the synthetic traffic the reproduction is judged by.

Every CI ``cmp`` compares two runs of one commit.  These literals compare a
run with the bytes the traffic had when they were recorded, so a refactor
of :mod:`repro.workload` or of the chaos harness that moves a single byte
of a canonical log, an ingest op, a state digest or a fault plan fails
here, at tiny sizes over ``CollectionConfig.small()``:

- the threaded loadtest log, balanced and with three feedback steps a query;
- the served loadtest log (the async serving edge in the path);
- the ``synthetic_ingest_ops`` stream;
- the in-memory continuous mix: its log and its final state digest;
- the durable continuous mix stopped at a ``stop_lsn``;
- a chaos run: its schedule, its final primary digest and its oracle digest.

Builtin ``sum`` adds floats with compensation from CPython 3.12 on, so the
same corpus seed gives other feature bytes there: one literal per
interpreter line.  Recorded on CPython 3.9.18 and 3.11.7 (equal) and
3.12.1 and 3.13.0 (equal).
"""

from __future__ import annotations

import hashlib
import json
import sys

import pytest

from repro.replication import ChaosSchedule, run_replicated_loadtest
from repro.service import RetrievalService, ServiceConfig
from repro.serving import ServingConfig
from repro.workload import (
    ContinuousMixSpec,
    ServiceLoadDriver,
    WorkloadSpec,
    run_continuous_mix,
)
from repro.workload.ingest import synthetic_ingest_ops

LINE = ">=3.12" if sys.version_info >= (3, 12) else "<3.12"

_DURABLE = dict(fsync_policy="never", snapshot_interval_ops=8)
_MIX = ContinuousMixSpec(
    epochs=4,
    mutations_per_epoch=6,
    searches_per_epoch=4,
    compact_every=2,
    search_workers=2,
    seed=7,
)
_REPLICAS = ("replica-1", "replica-2")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _loadtest(corpus, **overrides):
    spec = WorkloadSpec(users=3, queries_per_user=2, seed=7).with_overrides(**overrides)
    driver = ServiceLoadDriver(
        lambda: RetrievalService.from_corpus(corpus), max_workers=3
    )
    return {"log": driver.run(spec).digest()}


def threaded_balanced(corpus, tmp_path):
    return _loadtest(corpus)


def threaded_feedback3(corpus, tmp_path):
    return _loadtest(corpus, feedback_per_query=3)


def served(corpus, tmp_path):
    spec = WorkloadSpec(users=3, queries_per_user=2, seed=7)
    driver = ServiceLoadDriver(
        lambda: RetrievalService.from_corpus(corpus), serving=ServingConfig()
    )
    return {"log": driver.run(spec).digest()}


def ingest_stream(corpus, tmp_path):
    ops = synthetic_ingest_ops(40, seed=7, feature_dim=8)
    return {"ops": _sha(json.dumps(ops))}


def mix_in_memory(corpus, tmp_path):
    service = RetrievalService.from_corpus(corpus)
    try:
        result = run_continuous_mix(service, _MIX)
    finally:
        service.close()
    return {"log": result.digest(), "state": result.state_digest}


def mix_durable_stopped(corpus, tmp_path):
    service = RetrievalService.from_corpus(
        corpus,
        config=ServiceConfig(durability_dir=str(tmp_path / "mix"), **_DURABLE),
    )
    try:
        # Lsn 15 is the 15th mutation: the same cut as lsn 17 when the
        # two feedback batches before it took lsns too, so the log and
        # state digests are the ones recorded then.
        result = run_continuous_mix(service, _MIX, stop_lsn=15)
    finally:
        service.close()
    assert result.stopped_early
    return {"log": result.digest(), "state": result.state_digest}


def chaos(corpus, tmp_path):
    schedule = ChaosSchedule.generate(seed=7, total_ops=24, replica_ids=_REPLICAS)
    report = run_replicated_loadtest(
        corpus,
        tmp_path / "chaos",
        config=ServiceConfig(**_DURABLE),
        num_replicas=len(_REPLICAS),
        ingest_ops=24,
        seed=7,
        chaos=schedule,
    )
    assert report["replicas_match"] and report["oracle_match"]
    plan = [[event.at_op, event.action, event.target] for event in schedule.events]
    return {
        "schedule": _sha(json.dumps(plan)),
        "primary": report["primary_digest"],
        "oracle": report["oracle_digest"],
    }


#: name -> (the run, its digests on each interpreter line).
PINNED = {
    "threaded_balanced": (threaded_balanced, {
        "<3.12": {
            "log": "e47ff4a6daa5624478d00338d60f48470df92ac35d381c84718ade4e017e6d92",
        },
        ">=3.12": {
            "log": "0c55e34ac62dc22d41749c03cebfa827c7632577c45efd0ced54eed23abc6086",
        },
    }),
    "threaded_feedback3": (threaded_feedback3, {
        "<3.12": {
            "log": "7240029f11a48cbcf0fe27211cb04dddc249a3550b4cec96d55cb49813e80645",
        },
        ">=3.12": {
            "log": "4d5191d6845822342875e80171d6b8fb85bc666aa98db2a1571f9e1ad3d4e792",
        },
    }),
    "served": (served, {
        "<3.12": {
            "log": "e47ff4a6daa5624478d00338d60f48470df92ac35d381c84718ade4e017e6d92",
        },
        ">=3.12": {
            "log": "0c55e34ac62dc22d41749c03cebfa827c7632577c45efd0ced54eed23abc6086",
        },
    }),
    "ingest_stream": (ingest_stream, {
        "<3.12": {
            "ops": "e63d11c0c1b2d6a5d30aa9c6e1e1a0cd7b00af64a63a34ad2575444f08515df2",
        },
        ">=3.12": {
            "ops": "e63d11c0c1b2d6a5d30aa9c6e1e1a0cd7b00af64a63a34ad2575444f08515df2",
        },
    }),
    "mix_in_memory": (mix_in_memory, {
        "<3.12": {
            "log": "434e0fddb4a753b93f87a78f4dd309a8c080f1d0bea534627cf536895c361434",
            "state": "2d0fa68a83b589d611fcacb8207b67e7d302f0b1a2b3828394dc5d1c1fc148a3",
        },
        ">=3.12": {
            "log": "d7e0f149b2f92d5e521440ee33e48540fdc098f36e6057fcb96cd1f1419f0f32",
            "state": "8598866290f1639515cfbbb816d8a3c20c2d0afbe42d70d8d543908829f4472b",
        },
    }),
    "mix_durable_stopped": (mix_durable_stopped, {
        "<3.12": {
            "log": "60561a0e6b9b368f4e5e35c5578afe8399d5a275681d5ac083a5a175590b9325",
            "state": "1e06ba219b00ded91e2e4c67e3c8a6ae7d1ecdc8cafee2e8d06123e2515c9a5a",
        },
        ">=3.12": {
            "log": "e4d9cbc4db8b8997086a937481606e4ef2f54dc2ea9d4c031ec7f7cff9eee141",
            "state": "10a74d235afe91bb08a6a2ced96838f8141f616e362ae991a625cc1444efd042",
        },
    }),
    "chaos": (chaos, {
        "<3.12": {
            "oracle": "46426c7f370a28a89f3b0c62d4146ff138a89ab7e2ce92ec3be4a0debc0f3942",
            "primary": "46426c7f370a28a89f3b0c62d4146ff138a89ab7e2ce92ec3be4a0debc0f3942",
            "schedule": "89a62395036bbad94377fb65afb75454b037ac26ff768faf9d16223b766a9c15",
        },
        ">=3.12": {
            "oracle": "b6b4ca2bc99fd8859bf91e217210d710251d2578370128ce4ce0816bb3ebc530",
            "primary": "b6b4ca2bc99fd8859bf91e217210d710251d2578370128ce4ce0816bb3ebc530",
            "schedule": "89a62395036bbad94377fb65afb75454b037ac26ff768faf9d16223b766a9c15",
        },
    }),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_traffic_bytes_pinned(name, small_corpus, tmp_path):
    run, expected = PINNED[name]
    assert run(small_corpus, tmp_path) == expected[LINE]

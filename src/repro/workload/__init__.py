"""Deterministic synthetic traffic: one mutation stream, one applier, one client script.

The load-testing counterpart of :mod:`repro.simulation`: where the
simulator studies *retrieval quality* under simulated behaviour, this
package studies the *serving path* under concurrent, replayable traffic.

- Writes: every mutation is an ingest op tuple built by the synthesisers of
  :mod:`repro.workload.ingest` and applied by its one applier,
  :func:`~repro.workload.ingest.apply_ingest` — the durable loadtest's
  ingest phase, the continuous mix (:mod:`repro.workload.continuous`) and
  the chaos harness alike.
- Reads: N simulated users drawn from the population generator run one
  per-user script (:mod:`repro.workload.driver`), on worker threads
  against a :class:`~repro.service.RetrievalService` or as asyncio tasks
  through its serving edge.
- Judgement: every run writes one canonical log
  (:class:`~repro.workload.log.CanonicalLog`); its digest proves the run
  was deterministic and nothing was lost or leaked across sessions.
"""

from repro.workload.continuous import (
    ContinuousMixResult,
    ContinuousMixSpec,
    run_continuous_mix,
)
from repro.workload.driver import LoadResult, ServiceLoadDriver
from repro.workload.generator import (
    FEEDBACK,
    SEARCH,
    UserWorkload,
    WorkloadStep,
    generate_workload,
)
from repro.workload.spec import WorkloadSpec

__all__ = [
    "FEEDBACK",
    "SEARCH",
    "ContinuousMixResult",
    "ContinuousMixSpec",
    "LoadResult",
    "ServiceLoadDriver",
    "UserWorkload",
    "WorkloadStep",
    "WorkloadSpec",
    "generate_workload",
    "run_continuous_mix",
]

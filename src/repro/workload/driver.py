"""Driving concurrent simulated users through a live retrieval service.

:class:`ServiceLoadDriver` executes the scripts produced by
:mod:`repro.workload.generator` against a fresh
:class:`~repro.service.RetrievalService`: sessions are opened sequentially
(so session-id allocation is deterministic), then every user's script runs
concurrently, exactly as independent clients would.

Each user runs one script, :func:`_user_script`: a generator that yields
each search and feedback request and is sent back its response.  Only the
transport differs.  Threaded (the default), every script runs on a worker
thread calling the service directly; served (``serving=`` a
:class:`~repro.serving.ServingConfig`), every script is an asyncio task
awaiting a :class:`~repro.serving.ServingFrontend` over the same fresh
service, so each request is admitted, deadline-bounded and accounted by
the serving edge, and a rejected or timed-out request gets ``None`` back.

The driver records a **canonical event log**: one JSON record per
completed request, sorted by ``(user, seq)`` — *not* by wall-clock
completion order — with every field a pure function of the workload spec
and corpus.  Its SHA-256 digest is therefore the workload's fingerprint:
running the same spec twice (with any ``max_workers``, on either
transport) must produce byte-identical logs, and
:meth:`ServiceLoadDriver.verify_determinism` automates exactly that check.
A digest mismatch means the serving path leaked state across sessions or
lost an update — a concurrency bug, not noise.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Generator, List, Optional, Sequence, Union

from repro.collection.qrels import Qrels
from repro.errors import InvalidArgumentError
from repro.feedback.events import EventKind, InteractionEvent
from repro.service.service import RetrievalService
from repro.service.types import FeedbackBatch, SearchRequest, SearchResponse
from repro.serving.config import ServingConfig
from repro.serving.errors import AdmissionRejectedError, DeadlineExceededError
from repro.serving.frontend import ServingFrontend
from repro.simulation.noise import JudgementModel
from repro.simulation.user import SimulatedUser
from repro.utils.rng import RandomSource
from repro.utils.validation import ensure_positive
from repro.workload.generator import FEEDBACK, SEARCH, UserWorkload, generate_workload
from repro.workload.log import CanonicalLog
from repro.workload.spec import WorkloadSpec

#: How many ranked hits a search record pins in the canonical log.  Deep
#: enough to catch ranking divergence, shallow enough to keep logs small.
_RECORDED_HITS = 10

#: One user's script: yields requests, is sent each response (or ``None``).
Script = Generator[Union[SearchRequest, FeedbackBatch], object, None]


@dataclass
class LoadResult(CanonicalLog):
    """The outcome of one workload run.

    ``records`` is already in canonical order; wall-clock numbers live
    outside the canonical log so they never perturb the digest.
    """

    spec: WorkloadSpec
    records: List[Dict[str, object]]
    wall_seconds: float
    request_count: int
    #: Side-channel results from the run's prelude/epilogue hooks (e.g. the
    #: durable state digest).  Never part of the canonical log or digest.
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        """Requests per second over the concurrent phase."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.request_count / self.wall_seconds


def _synthesise_feedback(
    user: SimulatedUser,
    response: SearchResponse,
    rng: RandomSource,
    qrels: Optional[Qrels],
    topic_id: Optional[str],
    top_k: int,
) -> List[InteractionEvent]:
    """Deterministic interaction events for one feedback step.

    Walks the top of the previous response with the user's judgement model
    and propensities — the same behavioural levers the session simulator
    sweeps — drawing every decision from ``rng``'s labelled substreams so
    the emitted events depend only on (user, response, seed), never on
    scheduling.
    """
    judgement = JudgementModel(
        surrogate_error_rate=user.surrogate_error_rate,
        post_play_error_rate=user.post_play_error_rate,
    )
    events: List[InteractionEvent] = []

    def emit(kind: EventKind, clock: float, hit, **extra: float) -> None:
        events.append(
            InteractionEvent(
                kind=kind,
                timestamp=clock,
                user_id=response.user_id,
                session_id=response.session_id,
                shot_id=hit.shot_id,
                rank=hit.rank,
                **extra,
            )
        )

    clock = 0.0
    for hit in response.top(top_k):
        item_rng = rng.spawn("item", hit.shot_id)
        truly_relevant = bool(
            qrels is not None
            and topic_id is not None
            and qrels.is_relevant(topic_id, hit.shot_id)
        )
        perceived = judgement.judge_from_surrogate(item_rng, truly_relevant)
        if perceived and item_rng.boolean(user.play_propensity):
            clock += 1.0
            emit(EventKind.PLAY_CLICK, clock, hit)
            dwell = item_rng.uniform(2.0, max(4.0, hit.duration_seconds or 8.0))
            clock += dwell
            emit(EventKind.PLAY_PROGRESS, clock, hit, duration=dwell)
            believes = judgement.judge_after_playing(
                item_rng.spawn("judge"), truly_relevant
            )
            if believes and item_rng.boolean(user.explicit_propensity):
                clock += 1.0
                emit(EventKind.MARK_RELEVANT, clock, hit)
        elif not perceived and item_rng.boolean(user.skip_propensity):
            clock += 0.5
            emit(EventKind.SKIP_RESULT, clock, hit)
    return events


def _search_record(
    user_id: str, seq: int, query: Optional[str], response: SearchResponse
) -> Dict[str, object]:
    """The canonical-log record of one completed search."""
    return {
        "user": user_id,
        "seq": seq,
        "action": "search",
        "query": query,
        "iteration": response.iteration,
        "results": len(response),
        "hits": [
            [hit.shot_id, hit.score] for hit in response.top(_RECORDED_HITS)
        ],
    }


def _batch_record(
    user_id: str, seq: int, events: Sequence[InteractionEvent], info
) -> Dict[str, object]:
    """The canonical-log record of one completed feedback batch."""
    return {
        "user": user_id,
        "seq": seq,
        "action": "feedback",
        "events": len(events),
        "kinds": sorted(event.kind.value for event in events),
        "seen_shots": info.seen_shot_count,
        "iteration": info.iteration_count,
    }


def _close_record(user_id: str, seq: int, final) -> Dict[str, object]:
    """The canonical-log record of one session close."""
    return {
        "user": user_id,
        "seq": seq,
        "action": "close",
        "iterations": final.iteration_count,
        "seen_shots": final.seen_shot_count,
    }


def _user_script(
    service: RetrievalService,
    workload: UserWorkload,
    session_id: str,
    records: List[Dict[str, object]],
    spec: WorkloadSpec,
    feedback_root: RandomSource,
    qrels: Optional[Qrels],
) -> Script:
    """One user's requests in script order, recording each completed one.

    Yields every :class:`SearchRequest` and :class:`FeedbackBatch`; the
    transport sends back the response, or ``None`` for a request that was
    rejected or timed out, which is kept out of the canonical log.  A
    feedback step synthesises its events from the last completed search.
    """
    user_id = workload.user_id
    topic_id = workload.topic.topic_id
    last_response: Optional[SearchResponse] = None
    for step in workload.steps:
        if step.kind == SEARCH:
            response = yield SearchRequest(
                user_id=user_id,
                query=step.query or "",
                session_id=session_id,
                topic_id=topic_id,
            )
            if response is not None:
                last_response = response
                records.append(
                    _search_record(user_id, step.step + 1, step.query, response)
                )
        elif step.kind == FEEDBACK and last_response is not None:
            events = _synthesise_feedback(
                workload.user,
                last_response,
                feedback_root.spawn(user_id, step.step),
                qrels,
                topic_id,
                spec.feedback_top_k,
            )
            info = yield FeedbackBatch(
                user_id=user_id, events=tuple(events), session_id=session_id
            )
            if info is not None:
                records.append(_batch_record(user_id, step.step + 1, events, info))
    if spec.close_sessions:
        # Lifecycle ops go straight to the facade on either transport:
        # closing is not a servable request (it must succeed even while
        # the serving edge drains).
        final = service.close_session(session_id)
        records.append(_close_record(user_id, len(workload.steps) + 1, final))


def _advance(script: Script, response: object):
    """Send ``response`` into the script: its next request, or ``None``."""
    try:
        return script.send(response)
    except StopIteration:
        return None


def _run_direct(service: RetrievalService, script: Script) -> None:
    """The threaded transport: the calling thread calls the service."""
    request = _advance(script, None)
    while request is not None:
        if isinstance(request, SearchRequest):
            response = service.search(request)
        else:
            response = service.submit_feedback(request)
        request = _advance(script, response)


class ServiceLoadDriver:
    """Drives N concurrent simulated users through a live service.

    ``service_factory`` builds a *fresh* service per run (sessions are
    stateful, so replaying a workload on a used service would diverge);
    ``max_workers`` sets the threaded transport's client concurrency.  The
    canonical log — and therefore :meth:`LoadResult.digest` — is
    independent of ``max_workers`` by construction.

    ``serving`` set runs every script through a
    :class:`~repro.serving.ServingFrontend` with that config instead (its
    ``default_deadline_seconds`` bounds every request).  Completed requests
    produce exactly the records the threaded transport produces — digests
    stay byte-identical when nothing is rejected or timed out — while the
    rejected and timed-out ones are tallied in :attr:`LoadResult.extras`
    (``serving_failures``, with ``serving_drained`` and
    ``serving_metrics``).
    """

    def __init__(
        self,
        service_factory: Callable[[], RetrievalService],
        max_workers: int = 4,
        serving: Optional[ServingConfig] = None,
    ) -> None:
        ensure_positive(max_workers, "max_workers")
        self._service_factory = service_factory
        self._max_workers = max_workers
        self._serving = serving

    # -- running ---------------------------------------------------------------

    def run(
        self,
        spec: WorkloadSpec,
        workloads: Optional[Sequence[UserWorkload]] = None,
        prelude: Optional[Callable[[RetrievalService], None]] = None,
        epilogue: Optional[Callable[[RetrievalService], Dict[str, object]]] = None,
    ) -> LoadResult:
        """Execute one workload run against a fresh service.

        ``prelude`` runs against the fresh service *before* any session is
        opened — the hook the durable loadtest uses for its deterministic
        ingest phase (mutating the index mid-workload would perturb the
        canonical log).  ``epilogue`` runs after the concurrent phase but
        before the service is closed; whatever dictionary it returns is
        surfaced as :attr:`LoadResult.extras`.
        """
        service = self._service_factory()
        if spec.users > service.config.max_sessions:
            raise InvalidArgumentError(
                f"workload drives {spec.users} concurrent users but the "
                f"service holds at most {service.config.max_sessions} "
                f"sessions; raise ServiceConfig.max_sessions or shrink the "
                f"workload"
            )
        if workloads is None:
            if service.topics is None:
                raise InvalidArgumentError(
                    "service has no topics; pass explicit workloads instead"
                )
            workloads = generate_workload(spec, service.topics)
        workloads = list(workloads)
        feedback_root = RandomSource(spec.seed).spawn("feedback")
        extras: Dict[str, object] = {}
        if prelude is not None:
            try:
                prelude(service)
            except BaseException:
                service.close()
                raise

        # Open every session sequentially so id allocation (a shared
        # counter) is deterministic; the concurrent phase then only ever
        # addresses sessions explicitly.
        per_user_records: Dict[str, List[Dict[str, object]]] = {}
        scripts: List[Script] = []
        for workload in workloads:
            info = service.open_session(
                workload.user_id,
                policy=workload.policy,
                topic_id=workload.topic.topic_id,
                profile=workload.member.profile,
            )
            records = per_user_records[workload.user_id] = [
                {
                    "user": workload.user_id,
                    "seq": 0,
                    "action": "open",
                    "session": info.session_id,
                    "policy": info.policy,
                    "topic": info.topic_id,
                }
            ]
            scripts.append(
                _user_script(
                    service, workload, info.session_id, records, spec,
                    feedback_root, service.qrels,
                )
            )

        start = time.perf_counter()
        try:
            if self._serving is not None:
                extras = self._run_served(service, scripts)
            elif self._max_workers == 1 or len(scripts) == 1:
                for script in scripts:
                    _run_direct(service, script)
            else:
                with ThreadPoolExecutor(
                    max_workers=min(self._max_workers, len(scripts)),
                    thread_name_prefix="loadtest",
                ) as pool:
                    list(pool.map(partial(_run_direct, service), scripts))
            wall_seconds = time.perf_counter() - start
            if epilogue is not None:
                extras.update(epilogue(service) or {})
        finally:
            # Release engine machinery (a durable service's log) outside
            # the timed region; sessions left open by close_sessions=False
            # survive.
            service.close()

        records = [
            record
            for workload in sorted(workloads, key=lambda w: w.user_id)
            for record in per_user_records[workload.user_id]
        ]
        return LoadResult(
            spec=spec,
            records=records,
            wall_seconds=wall_seconds,
            # Every record past each user's open is one completed request.
            request_count=len(records) - len(workloads),
            extras=extras,
        )

    def _run_served(
        self, service: RetrievalService, scripts: Sequence[Script]
    ) -> Dict[str, object]:
        """The served transport: one asyncio task per script.

        Each task awaits its own requests in turn, so per-user order is
        the threaded transport's.  Returns the serving extras: failures
        per error type, whether the edge drained, and its metrics.
        """
        frontend = ServingFrontend(service, self._serving)
        failures: Dict[str, int] = {}

        async def run_served(script: Script) -> None:
            request = _advance(script, None)
            while request is not None:
                if isinstance(request, SearchRequest):
                    call = frontend.search(request)
                else:
                    call = frontend.submit_feedback(request)
                try:
                    response = await call
                except (AdmissionRejectedError, DeadlineExceededError) as error:
                    name = type(error).__name__
                    failures[name] = failures.get(name, 0) + 1
                    response = None
                request = _advance(script, response)

        async def main() -> bool:
            await asyncio.gather(*(run_served(script) for script in scripts))
            return await frontend.drain()

        try:
            drained = asyncio.run(main())
        finally:
            frontend.close()
        return {
            "serving_failures": failures,
            "serving_drained": drained,
            "serving_metrics": frontend.metrics_snapshot(),
        }

    # -- determinism -----------------------------------------------------------

    def verify_determinism(
        self,
        spec: WorkloadSpec,
        runs: int = 2,
        workloads: Optional[Sequence[UserWorkload]] = None,
    ) -> List[str]:
        """Run the workload ``runs`` times and return the log digests.

        Raises ``AssertionError`` if any digest differs — the same seed
        must yield byte-identical canonical logs no matter how requests
        interleave.
        """
        ensure_positive(runs, "runs")
        digests = [self.run(spec, workloads).digest() for _ in range(runs)]
        if len(set(digests)) != 1:
            raise AssertionError(
                f"workload is non-deterministic: digests {digests}"
            )
        return digests

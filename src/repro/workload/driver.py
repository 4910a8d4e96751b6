"""Driving concurrent simulated users through a live retrieval service.

:class:`ServiceLoadDriver` executes the scripts produced by
:mod:`repro.workload.generator` against a fresh
:class:`~repro.service.RetrievalService`: sessions are opened sequentially
(so session-id allocation is deterministic), then every user's script runs
on its own worker thread, hammering ``search``/``submit_feedback``/
``close_session`` concurrently exactly as independent clients would.

The driver records a **canonical event log**: one JSON record per request,
sorted by ``(user, seq)`` — *not* by wall-clock completion order — with
every field a pure function of the workload spec and corpus.  Its SHA-256
digest is therefore the workload's fingerprint: running the same spec twice
(with any ``max_workers``) must produce byte-identical logs, and
:meth:`ServiceLoadDriver.verify_determinism` automates exactly that check.
A digest mismatch means the serving path leaked state across sessions or
lost an update — a concurrency bug, not noise.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.collection.qrels import Qrels
from repro.feedback.events import EventKind, InteractionEvent
from repro.service.service import RetrievalService
from repro.service.types import FeedbackBatch, SearchRequest, SearchResponse
from repro.serving.config import ServingConfig
from repro.serving.errors import AdmissionRejectedError, DeadlineExceededError
from repro.serving.frontend import ServingFrontend
from repro.simulation.noise import JudgementModel
from repro.simulation.user import SimulatedUser
from repro.utils.rng import RandomSource
from repro.utils.validation import ensure_deadline, ensure_positive
from repro.workload.generator import FEEDBACK, SEARCH, UserWorkload, generate_workload
from repro.workload.spec import WorkloadSpec

PathLike = Union[str, Path]

#: How many ranked hits a search record pins in the canonical log.  Deep
#: enough to catch ranking divergence, shallow enough to keep logs small.
_RECORDED_HITS = 10


@dataclass
class LoadResult:
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

    def canonical_lines(self) -> List[str]:
        """The canonical event log as JSON lines (sorted keys, no spaces)."""
        return [
            json.dumps(record, sort_keys=True, separators=(",", ":"))
            for record in self.records
        ]

    def canonical_log(self) -> str:
        """The canonical event log as one string (trailing newline)."""
        return "\n".join(self.canonical_lines()) + "\n"

    def digest(self) -> str:
        """SHA-256 hex digest of the canonical event log."""
        return hashlib.sha256(self.canonical_log().encode("utf-8")).hexdigest()

    def write_log(self, path: PathLike) -> Path:
        """Write the canonical event log to a file and return its path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.canonical_log(), encoding="utf-8")
        return path


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
            events.append(
                InteractionEvent(
                    kind=EventKind.PLAY_CLICK,
                    timestamp=clock,
                    user_id=response.user_id,
                    session_id=response.session_id,
                    shot_id=hit.shot_id,
                    rank=hit.rank,
                )
            )
            dwell = item_rng.uniform(2.0, max(4.0, hit.duration_seconds or 8.0))
            clock += dwell
            events.append(
                InteractionEvent(
                    kind=EventKind.PLAY_PROGRESS,
                    timestamp=clock,
                    user_id=response.user_id,
                    session_id=response.session_id,
                    shot_id=hit.shot_id,
                    rank=hit.rank,
                    duration=dwell,
                )
            )
            believes = judgement.judge_after_playing(
                item_rng.spawn("judge"), truly_relevant
            )
            if believes and item_rng.boolean(user.explicit_propensity):
                clock += 1.0
                events.append(
                    InteractionEvent(
                        kind=EventKind.MARK_RELEVANT,
                        timestamp=clock,
                        user_id=response.user_id,
                        session_id=response.session_id,
                        shot_id=hit.shot_id,
                        rank=hit.rank,
                    )
                )
        elif not perceived and item_rng.boolean(user.skip_propensity):
            clock += 0.5
            events.append(
                InteractionEvent(
                    kind=EventKind.SKIP_RESULT,
                    timestamp=clock,
                    user_id=response.user_id,
                    session_id=response.session_id,
                    shot_id=hit.shot_id,
                    rank=hit.rank,
                )
            )
    return events


def _search_record(
    user_id: str, seq: int, query: Optional[str], response: SearchResponse
) -> Dict[str, object]:
    """The canonical-log record of one completed search (shared by both
    the threaded and the serving client paths, so digests cannot drift)."""
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


def _feedback_record(
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


class ServiceLoadDriver:
    """Drives N concurrent simulated users through a live service.

    ``service_factory`` builds a *fresh* service per run (sessions are
    stateful, so replaying a workload on a used service would diverge);
    ``max_workers`` sets the client-side concurrency.  The canonical log —
    and therefore :meth:`LoadResult.digest` — is independent of
    ``max_workers`` by construction.

    With ``serve=True`` (or any of ``serving_config`` /
    ``deadline_seconds`` set) the concurrent phase runs as an **async
    client fleet** against a :class:`~repro.serving.ServingFrontend` built
    over the same fresh service: one asyncio task per user, every
    search/feedback request admitted, deadline-bounded and accounted by
    the serving edge.  Requests that complete produce exactly the records
    the direct path produces — digests stay byte-identical when nothing is
    rejected or timed out — while rejected/timed-out requests are kept
    *out* of the canonical log and surfaced in
    :attr:`LoadResult.extras` (``serving_failures``, ``serving_metrics``).
    """

    def __init__(
        self,
        service_factory: Callable[[], RetrievalService],
        max_workers: int = 4,
        serve: bool = False,
        serving_config: Optional[ServingConfig] = None,
        deadline_seconds: Optional[float] = None,
    ) -> None:
        ensure_positive(max_workers, "max_workers")
        ensure_deadline(deadline_seconds, "deadline_seconds")
        self._service_factory = service_factory
        self._max_workers = max_workers
        self._serve = serve or serving_config is not None or deadline_seconds is not None
        self._serving_config = serving_config
        self._deadline_seconds = deadline_seconds

    @property
    def max_workers(self) -> int:
        """Client-side thread count."""
        return self._max_workers

    @property
    def serve(self) -> bool:
        """True when the run goes through the async serving edge."""
        return self._serve

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
            raise ValueError(
                f"workload drives {spec.users} concurrent users but the "
                f"service holds at most {service.config.max_sessions} "
                f"sessions; raise ServiceConfig.max_sessions or shrink the "
                f"workload"
            )
        if workloads is None:
            if service.topics is None:
                raise ValueError(
                    "service has no topics; pass explicit workloads instead"
                )
            workloads = generate_workload(spec, service.topics)
        workloads = list(workloads)
        qrels = service.qrels
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
        session_ids: Dict[str, str] = {}
        per_user_records: Dict[str, List[Dict[str, object]]] = {}
        for workload in workloads:
            info = service.open_session(
                workload.user_id,
                policy=workload.policy,
                topic_id=workload.topic.topic_id,
                profile=workload.member.profile,
            )
            session_ids[workload.user_id] = info.session_id
            per_user_records[workload.user_id] = [
                {
                    "user": workload.user_id,
                    "seq": 0,
                    "action": "open",
                    "session": info.session_id,
                    "policy": info.policy,
                    "topic": info.topic_id,
                }
            ]

        def drive_user(workload: UserWorkload) -> int:
            user_id = workload.user_id
            session_id = session_ids[user_id]
            records = per_user_records[user_id]
            requests = 0
            last_response: Optional[SearchResponse] = None
            for step in workload.steps:
                if step.kind == SEARCH:
                    response = service.search(
                        SearchRequest(
                            user_id=user_id,
                            query=step.query or "",
                            session_id=session_id,
                            topic_id=workload.topic.topic_id,
                        )
                    )
                    last_response = response
                    requests += 1
                    records.append(
                        _search_record(user_id, step.step + 1, step.query, response)
                    )
                elif step.kind == FEEDBACK:
                    if last_response is None:
                        continue
                    events = _synthesise_feedback(
                        workload.user,
                        last_response,
                        feedback_root.spawn(user_id, step.step),
                        qrels,
                        workload.topic.topic_id,
                        spec.feedback_top_k,
                    )
                    info = service.submit_feedback(
                        FeedbackBatch(
                            user_id=user_id,
                            events=tuple(events),
                            session_id=session_id,
                        )
                    )
                    requests += 1
                    records.append(
                        _feedback_record(user_id, step.step + 1, events, info)
                    )
            if spec.close_sessions:
                final = service.close_session(session_id)
                requests += 1
                records.append(
                    _close_record(user_id, len(workload.steps) + 1, final)
                )
            return requests

        serving_extras: Dict[str, object] = {}
        start = time.perf_counter()
        try:
            if self._serve:
                request_counts, serving_extras = self._run_serving_phase(
                    service,
                    workloads,
                    session_ids,
                    per_user_records,
                    feedback_root,
                    qrels,
                    spec,
                )
            elif self._max_workers == 1 or len(workloads) == 1:
                request_counts = [drive_user(workload) for workload in workloads]
            else:
                with ThreadPoolExecutor(
                    max_workers=min(self._max_workers, len(workloads)),
                    thread_name_prefix="loadtest",
                ) as pool:
                    request_counts = list(pool.map(drive_user, workloads))
            wall_seconds = time.perf_counter() - start
            if epilogue is not None:
                extras = dict(epilogue(service) or {})
            extras = {**serving_extras, **extras}
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
            request_count=sum(request_counts),
            extras=extras,
        )

    # -- async serving client ---------------------------------------------------

    def _run_serving_phase(
        self,
        service: RetrievalService,
        workloads: Sequence[UserWorkload],
        session_ids: Dict[str, str],
        per_user_records: Dict[str, List[Dict[str, object]]],
        feedback_root: RandomSource,
        qrels: Optional[Qrels],
        spec: WorkloadSpec,
    ):
        """Drive the concurrent phase through a :class:`ServingFrontend`.

        One asyncio task per user; per-user step order is preserved (each
        task awaits its own requests sequentially), so completed requests
        record exactly what the threaded path records.  Rejections and
        deadline expiries skip the record — the canonical log only ever
        contains completed requests — and are tallied per error type in
        the returned extras, alongside the frontend's metrics snapshot.
        """
        frontend = ServingFrontend(service, self._serving_config)
        deadline = self._deadline_seconds
        failures: Dict[str, int] = {}

        def note_failure(error: Exception) -> None:
            name = type(error).__name__
            failures[name] = failures.get(name, 0) + 1

        async def drive_user(workload: UserWorkload) -> int:
            user_id = workload.user_id
            session_id = session_ids[user_id]
            records = per_user_records[user_id]
            requests = 0
            last_response: Optional[SearchResponse] = None
            for step in workload.steps:
                if step.kind == SEARCH:
                    try:
                        response = await frontend.search(
                            SearchRequest(
                                user_id=user_id,
                                query=step.query or "",
                                session_id=session_id,
                                topic_id=workload.topic.topic_id,
                            ),
                            deadline_seconds=deadline,
                        )
                    except (AdmissionRejectedError, DeadlineExceededError) as error:
                        note_failure(error)
                        continue
                    last_response = response
                    requests += 1
                    records.append(
                        _search_record(user_id, step.step + 1, step.query, response)
                    )
                elif step.kind == FEEDBACK:
                    if last_response is None:
                        continue
                    events = _synthesise_feedback(
                        workload.user,
                        last_response,
                        feedback_root.spawn(user_id, step.step),
                        qrels,
                        workload.topic.topic_id,
                        spec.feedback_top_k,
                    )
                    try:
                        info = await frontend.submit_feedback(
                            FeedbackBatch(
                                user_id=user_id,
                                events=tuple(events),
                                session_id=session_id,
                            ),
                            deadline_seconds=deadline,
                        )
                    except (AdmissionRejectedError, DeadlineExceededError) as error:
                        note_failure(error)
                        continue
                    requests += 1
                    records.append(
                        _feedback_record(user_id, step.step + 1, events, info)
                    )
            if spec.close_sessions:
                # Lifecycle ops go straight to the facade: closing is not a
                # servable request (it must succeed even while draining).
                final = service.close_session(session_id)
                requests += 1
                records.append(
                    _close_record(user_id, len(workload.steps) + 1, final)
                )
            return requests

        async def main():
            counts = await asyncio.gather(
                *(drive_user(workload) for workload in workloads)
            )
            drained = await frontend.drain()
            return list(counts), drained

        try:
            request_counts, drained = asyncio.run(main())
        finally:
            frontend.close()
        serving_extras: Dict[str, object] = {
            "serving_failures": failures,
            "serving_drained": drained,
            "serving_metrics": frontend.metrics_snapshot(),
        }
        return request_counts, serving_extras

    # -- determinism -----------------------------------------------------------

    def replay(
        self,
        spec: WorkloadSpec,
        workloads: Optional[Sequence[UserWorkload]] = None,
    ) -> LoadResult:
        """Run the workload again on a fresh service (alias of :meth:`run`)."""
        return self.run(spec, workloads)

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

"""The session simulator: simulated users interacting with the system.

This is the evaluation framework of the paper's Section 2.2: "a set of
possible steps are assumed when a user is performing a given task with the
evaluated system", and those steps drive the adaptive retrieval model
exactly as a live interface would.  One run of :class:`SessionSimulator`
produces:

* an interaction :class:`~repro.interfaces.logging.SessionLog` (the logfile
  the paper's methodology analyses),
* per-iteration result lists (so ranking quality can be scored against the
  qrels), and
* outcome counters (relevant shots found, actions performed, time spent).

The simulated user inspects results page by page.  For each result they form
a noisy judgement from the surrogate, decide whether to play it, form a more
reliable judgement after playing, and then perform optional actions
(metadata, playlist, explicit marking) with propensities gated by the
interface's action costs.  Query reformulation is likewise gated by the
interface — which is precisely what makes desktop and iTV sessions differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.collection.documents import Collection
from repro.collection.qrels import Qrels
from repro.collection.topics import Topic
from repro.core.adaptive import AdaptiveSession
from repro.feedback.dwell import DwellTimeModel
from repro.feedback.events import EventKind, InteractionEvent
from repro.interfaces.base import InterfaceModel
from repro.interfaces.logging import SessionLog
from repro.retrieval.results import ResultList
from repro.simulation.noise import JudgementModel
from repro.simulation.strategies import QueryStrategy, TitleQueryStrategy
from repro.simulation.user import SimulatedUser
from repro.utils.rng import RandomSource


@dataclass
class IterationOutcome:
    """What happened during one query iteration of a simulated session."""

    iteration: int
    query_text: str
    result_shot_ids: List[str]
    inspected_shot_ids: List[str]
    relevant_found: List[str]
    event_count: int


@dataclass
class SessionOutcome:
    """The full record of one simulated session."""

    session_log: SessionLog
    iterations: List[IterationOutcome] = field(default_factory=list)
    relevant_shots_found: Set[str] = field(default_factory=set)
    shots_inspected: Set[str] = field(default_factory=set)
    queries_issued: List[str] = field(default_factory=list)
    total_time_seconds: float = 0.0

    @property
    def event_count(self) -> int:
        """Total events emitted by the session."""
        return self.session_log.event_count

    @property
    def implicit_event_count(self) -> int:
        """Number of implicit-indicator events."""
        return sum(1 for event in self.session_log.events if event.is_implicit())

    @property
    def explicit_event_count(self) -> int:
        """Number of explicit-judgement events."""
        return sum(1 for event in self.session_log.events if event.is_explicit())

    def final_results(self) -> Optional[List[str]]:
        """The shot ids of the last iteration's result list."""
        if not self.iterations:
            return None
        return list(self.iterations[-1].result_shot_ids)

    def per_iteration_results(self) -> List[Tuple[str, List[str]]]:
        """``(query_text, result_shot_ids)`` for every iteration."""
        return [
            (outcome.query_text, list(outcome.result_shot_ids))
            for outcome in self.iterations
        ]


class SessionSimulator:
    """Runs one simulated user through one search task."""

    def __init__(
        self,
        collection: Collection,
        qrels: Qrels,
        interface: InterfaceModel,
        dwell_model: Optional[DwellTimeModel] = None,
        seed: int = 5151,
    ) -> None:
        self._collection = collection
        self._qrels = qrels
        self._interface = interface
        self._dwell_model = dwell_model or DwellTimeModel()
        self._seed = int(seed)

    @property
    def interface(self) -> InterfaceModel:
        """The interface model driving action availability and costs."""
        return self._interface

    # -- helpers ---------------------------------------------------------------------

    def _action_kind(self, semantic: str) -> Optional[EventKind]:
        """Map a semantic action to the interface's concrete event kind."""
        alternatives = {
            "play": (EventKind.PLAY_CLICK, EventKind.REMOTE_SELECT),
            "mark_positive": (EventKind.MARK_RELEVANT, EventKind.REMOTE_RATE_UP),
            "mark_negative": (EventKind.MARK_NOT_RELEVANT, EventKind.REMOTE_RATE_DOWN),
            "skip": (EventKind.SKIP_RESULT, EventKind.REMOTE_CHANNEL_SKIP),
            "hover": (EventKind.HOVER_RESULT,),
            "metadata": (EventKind.HIGHLIGHT_METADATA,),
            "playlist": (EventKind.ADD_TO_PLAYLIST,),
            "seek": (EventKind.SEEK_VIDEO,),
        }
        for kind in alternatives[semantic]:
            if self._interface.supports(kind):
                return kind
        return None

    def _effective_propensity(self, propensity: float, kind: Optional[EventKind]) -> float:
        """Scale an action propensity by the interface's effort for it."""
        if kind is None:
            return 0.0
        effort = self._interface.cost_of(kind).effort
        return propensity * (1.0 - effort)

    def _is_relevant(self, topic_id: str, shot_id: str) -> bool:
        return self._qrels.is_relevant(topic_id, shot_id)

    # -- the main loop ------------------------------------------------------------------

    def run(
        self,
        session: AdaptiveSession,
        topic: Topic,
        user: SimulatedUser,
        strategy: Optional[QueryStrategy] = None,
        task: Optional[str] = None,
        session_id: Optional[str] = None,
    ) -> SessionOutcome:
        """Simulate one complete search session.

        ``session`` is an :class:`~repro.core.adaptive.AdaptiveSession`
        created by the system under test; the simulator never touches the
        adaptive state directly, it only submits queries and feeds back the
        events the user performed, exactly as a live interface would.
        """
        strategy = strategy or TitleQueryStrategy()
        rng = RandomSource(self._seed).spawn(
            "session", user.user_id, topic.topic_id, self._interface.name
        )
        judgement = JudgementModel(
            surrogate_error_rate=user.surrogate_error_rate,
            post_play_error_rate=user.post_play_error_rate,
        )
        session_identifier = session_id or (
            f"{user.user_id}-{topic.topic_id}-{self._interface.name}"
        )
        log = SessionLog(
            session_id=session_identifier,
            user_id=user.user_id,
            interface=self._interface.name,
            topic_id=topic.topic_id,
            task=task,
            metadata={
                "policy": session.policy.name,
                "interface": self._interface.capability_summary(),
                "user": user.describe(),
            },
        )
        outcome = SessionOutcome(session_log=log)
        clock = 0.0

        def emit(kind: EventKind, **kwargs: object) -> InteractionEvent:
            nonlocal clock
            cost = self._interface.cost_of(kind) if self._interface.supports(kind) else None
            if cost is not None:
                clock += cost.time_seconds
            event = InteractionEvent(
                kind=kind,
                timestamp=clock,
                user_id=user.user_id,
                session_id=session_identifier,
                **kwargs,
            )
            log.events.append(event)
            return event

        emit(EventKind.SESSION_STARTED, payload={"topic": topic.topic_id})

        query_text: Optional[str] = strategy.initial_query(
            topic, rng.spawn("query", 0), user.query_terms_initial
        )
        queries_issued: List[str] = []
        query_index = 0
        while query_text is not None and query_index < user.max_queries:
            queries_issued.append(query_text)
            emit(EventKind.QUERY_SUBMITTED, query_text=query_text)
            results = session.submit_query(query_text)
            emit(
                EventKind.RESULTS_DISPLAYED,
                query_text=query_text,
                payload={"result_count": len(results)},
            )
            iteration_events: List[InteractionEvent] = []
            inspected, relevant_found = self._examine_results(
                results=results,
                topic=topic,
                user=user,
                judgement=judgement,
                rng=rng.spawn("examine", query_index),
                emit=emit,
                iteration_events=iteration_events,
                task=task,
            )
            session.observe(iteration_events)
            outcome.shots_inspected.update(inspected)
            outcome.relevant_shots_found.update(relevant_found)
            outcome.iterations.append(
                IterationOutcome(
                    iteration=query_index + 1,
                    query_text=query_text,
                    result_shot_ids=results.shot_ids(),
                    inspected_shot_ids=list(inspected),
                    relevant_found=list(relevant_found),
                    event_count=len(iteration_events),
                )
            )
            query_index += 1
            if query_index >= user.max_queries:
                break
            if not self._user_reformulates(rng.spawn("reformulate", query_index)):
                break
            query_text = strategy.reformulate(
                topic,
                rng.spawn("query", query_index),
                queries_issued,
                user.query_terms_per_reformulation,
            )

        emit(EventKind.SESSION_ENDED, payload={"queries": len(queries_issued)})
        outcome.queries_issued = queries_issued
        outcome.total_time_seconds = clock
        return outcome

    # -- result examination ---------------------------------------------------------------

    def _user_reformulates(self, rng: RandomSource) -> bool:
        """Whether the user is willing to enter another query on this interface."""
        if not self._interface.supports(EventKind.QUERY_SUBMITTED):
            return False
        effort = self._interface.cost_of(EventKind.QUERY_SUBMITTED).effort
        return rng.boolean(1.0 - effort)

    def _examine_results(
        self,
        results: ResultList,
        topic: Topic,
        user: SimulatedUser,
        judgement: JudgementModel,
        rng: RandomSource,
        emit,
        iteration_events: List[InteractionEvent],
        task: Optional[str],
    ) -> Tuple[List[str], List[str]]:
        """Walk the result pages, emitting events; returns (inspected, relevant found)."""
        inspected: List[str] = []
        relevant_found: List[str] = []
        per_page = self._interface.results_per_page
        page_count = math.ceil(len(results) / per_page) if len(results) else 0
        pages_to_examine = min(user.patience_pages, page_count)

        def record(event: InteractionEvent) -> None:
            iteration_events.append(event)

        for page in range(pages_to_examine):
            page_items = results.items[page * per_page : (page + 1) * per_page]
            if not page_items:
                break
            if page > 0:
                # Reaching this page required scrolling/paging: every shot on
                # it receives a "browsed past" observation.
                for item in page_items:
                    record(
                        emit(
                            EventKind.BROWSE_RESULTS,
                            shot_id=item.shot_id,
                            rank=item.rank,
                        )
                    )
            for item in page_items:
                inspected.append(item.shot_id)
                item_rng = rng.spawn("item", item.shot_id)
                truly_relevant = self._is_relevant(topic.topic_id, item.shot_id)
                shot = (
                    self._collection.shot(item.shot_id)
                    if self._collection.has_shot(item.shot_id)
                    else None
                )
                perceived = judgement.judge_from_surrogate(item_rng, truly_relevant)

                hover_kind = self._action_kind("hover")
                if hover_kind is not None and item_rng.boolean(
                    self._effective_propensity(user.hover_propensity, hover_kind)
                ):
                    hover_duration = item_rng.uniform(1.0, 5.0)
                    if perceived:
                        hover_duration += 2.0
                    record(
                        emit(
                            hover_kind,
                            shot_id=item.shot_id,
                            rank=item.rank,
                            duration=hover_duration,
                        )
                    )

                play_kind = self._action_kind("play")
                wants_to_play = perceived and item_rng.boolean(user.play_propensity)
                curiosity_play = not perceived and item_rng.boolean(
                    0.15 * user.play_propensity
                )
                if play_kind is not None and (wants_to_play or curiosity_play):
                    self._play_and_follow_up(
                        item=item,
                        shot_duration=shot.duration if shot is not None else None,
                        truly_relevant=truly_relevant,
                        user=user,
                        judgement=judgement,
                        rng=item_rng,
                        emit=emit,
                        record=record,
                        relevant_found=relevant_found,
                        play_kind=play_kind,
                        task=task,
                    )
                elif perceived:
                    # Judged promising but not played: maybe peek at metadata.
                    metadata_kind = self._action_kind("metadata")
                    if metadata_kind is not None and item_rng.boolean(
                        self._effective_propensity(
                            0.5 * user.metadata_propensity, metadata_kind
                        )
                    ):
                        record(
                            emit(metadata_kind, shot_id=item.shot_id, rank=item.rank)
                        )
                else:
                    skip_kind = self._action_kind("skip")
                    if skip_kind is not None and item_rng.boolean(
                        self._effective_propensity(user.skip_propensity, skip_kind)
                    ):
                        record(emit(skip_kind, shot_id=item.shot_id, rank=item.rank))
                    negative_kind = self._action_kind("mark_negative")
                    if negative_kind is not None and item_rng.boolean(
                        self._effective_propensity(
                            user.explicit_negative_propensity, negative_kind
                        )
                    ):
                        record(
                            emit(negative_kind, shot_id=item.shot_id, rank=item.rank)
                        )
        return inspected, relevant_found

    def _play_and_follow_up(
        self,
        item,
        shot_duration: Optional[float],
        truly_relevant: bool,
        user: SimulatedUser,
        judgement: JudgementModel,
        rng: RandomSource,
        emit,
        record,
        relevant_found: List[str],
        play_kind: EventKind,
        task: Optional[str],
    ) -> None:
        """Play a shot and perform the post-play follow-up actions."""
        record(emit(play_kind, shot_id=item.shot_id, rank=item.rank))
        dwell = self._dwell_model.sample_duration(
            rng.spawn("dwell"),
            relevant=truly_relevant,
            task=task,
            shot_duration=shot_duration,
        )
        record(
            emit(
                EventKind.PLAY_PROGRESS,
                shot_id=item.shot_id,
                rank=item.rank,
                duration=dwell,
            )
        )
        if shot_duration is not None and dwell >= 0.9 * shot_duration:
            record(
                emit(EventKind.PLAY_COMPLETE, shot_id=item.shot_id, rank=item.rank)
            )
        believes_relevant = judgement.judge_after_playing(rng.spawn("judge"), truly_relevant)
        if believes_relevant and truly_relevant:
            relevant_found.append(item.shot_id)
        if believes_relevant:
            seek_kind = self._action_kind("seek")
            if seek_kind is not None and rng.boolean(
                self._effective_propensity(user.seek_propensity, seek_kind)
            ):
                record(emit(seek_kind, shot_id=item.shot_id, rank=item.rank))
            metadata_kind = self._action_kind("metadata")
            if metadata_kind is not None and rng.boolean(
                self._effective_propensity(user.metadata_propensity, metadata_kind)
            ):
                record(emit(metadata_kind, shot_id=item.shot_id, rank=item.rank))
            playlist_kind = self._action_kind("playlist")
            if playlist_kind is not None and rng.boolean(
                self._effective_propensity(user.playlist_propensity, playlist_kind)
            ):
                record(emit(playlist_kind, shot_id=item.shot_id, rank=item.rank))
            positive_kind = self._action_kind("mark_positive")
            if positive_kind is not None and rng.boolean(
                self._effective_propensity(user.explicit_propensity, positive_kind)
            ):
                record(emit(positive_kind, shot_id=item.shot_id, rank=item.rank))
        else:
            negative_kind = self._action_kind("mark_negative")
            if negative_kind is not None and rng.boolean(
                self._effective_propensity(
                    user.explicit_negative_propensity, negative_kind
                )
            ):
                record(emit(negative_kind, shot_id=item.shot_id, rank=item.rank))

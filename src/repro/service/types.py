"""Typed request/response surface of the retrieval service.

These frozen dataclasses are the *wire format* of :class:`~repro.service.
service.RetrievalService`: callers build :class:`SearchRequest` /
:class:`FeedbackBatch` values and receive :class:`SearchResponse` /
:class:`SessionInfo` values back, without ever touching the internal
:class:`~repro.retrieval.results.ResultList` or session objects.  Keeping
the boundary to plain immutable values is what lets the service evolve its
internals (caching, sharding, remote transports) without breaking callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import InvalidArgumentError
from repro.feedback.events import InteractionEvent
from repro.retrieval.results import ResultItem, ResultList
from repro.utils.validation import ensure_number


#: One ranked shot in a :class:`SearchResponse`: the engine's own
#: :class:`~repro.retrieval.results.ResultItem`, an immutable named tuple, so
#: a response shares the hits the kernel built instead of copying them.
SearchHit = ResultItem


@dataclass(frozen=True)
class SearchRequest:
    """One user's search call.

    Attributes
    ----------
    user_id:
        Who is searching.  Required: the service is multi-user and every
        request is resolved against that user's sessions.
    query:
        Free-text query.
    session_id:
        Target an existing session explicitly.  When omitted the service
        reuses the user's most recent compatible session, or opens a new
        one with the service defaults.
    topic_id:
        The search topic being pursued (used for evaluation bookkeeping).
    limit:
        Maximum results to return; service default when ``None``.
    """

    user_id: str
    query: str
    session_id: Optional[str] = None
    topic_id: Optional[str] = None
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.user_id:
            raise InvalidArgumentError("SearchRequest.user_id must be non-empty")
        if self.limit is not None:
            ensure_number(self.limit, "SearchRequest.limit", positive=True, integer=True)


@dataclass(frozen=True)
class SearchResponse:
    """The ranked answer to one :class:`SearchRequest`."""

    session_id: str
    user_id: str
    query: str
    hits: Tuple[SearchHit, ...] = ()
    topic_id: Optional[str] = None
    iteration: int = 1
    policy: str = ""

    def __len__(self) -> int:
        return len(self.hits)

    def __iter__(self) -> Iterator[SearchHit]:
        return iter(self.hits)

    def shot_ids(self) -> List[str]:
        """The ranked shot ids."""
        return [hit.shot_id for hit in self.hits]

    def top(self, count: int) -> Tuple[SearchHit, ...]:
        """The first ``count`` hits."""
        return self.hits[:count]

    def scores(self) -> Dict[str, float]:
        """A ``{shot_id: score}`` view of the ranking."""
        return {hit.shot_id: hit.score for hit in self.hits}

    @classmethod
    def from_result_list(
        cls,
        results: ResultList,
        *,
        session_id: str,
        user_id: str,
        iteration: int,
        policy: str,
    ) -> "SearchResponse":
        """Build a response from an internal result list."""
        return cls(
            session_id=session_id,
            user_id=user_id,
            query=results.query_text,
            hits=tuple(results.items),
            topic_id=results.topic_id,
            iteration=iteration,
            policy=policy,
        )


@dataclass(frozen=True)
class FeedbackBatch:
    """A batch of interaction events a user produced since their last query.

    Events are routed to the user's session (explicitly via ``session_id``
    or implicitly to their most recent session) where they update the
    implicit/explicit evidence stores according to the session's policy.
    """

    user_id: str
    events: Tuple[InteractionEvent, ...] = ()
    session_id: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.user_id:
            raise InvalidArgumentError("FeedbackBatch.user_id must be non-empty")
        # Accept any iterable of events but always store an immutable tuple.
        object.__setattr__(self, "events", tuple(self.events))

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class SessionInfo:
    """A snapshot of one managed session's public state."""

    session_id: str
    user_id: str
    policy: str
    weighting_scheme: str
    topic_id: Optional[str] = None
    result_limit: int = 50
    iteration_count: int = 0
    seen_shot_count: int = 0

    def as_dict(self) -> Dict[str, object]:
        """Plain-dictionary view for logging and JSON transports."""
        return {
            "session_id": self.session_id,
            "user_id": self.user_id,
            "policy": self.policy,
            "weighting_scheme": self.weighting_scheme,
            "topic_id": self.topic_id,
            "result_limit": self.result_limit,
            "iteration_count": self.iteration_count,
            "seen_shot_count": self.seen_shot_count,
        }

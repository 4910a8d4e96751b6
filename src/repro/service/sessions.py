"""Thread-safe session management with LRU eviction and per-session locking.

The service is multi-user: every user can hold several concurrent adaptive
sessions, and a production deployment cannot let abandoned sessions (and
their evidence accumulators) grow without bound.  :class:`SessionManager`
owns that lifecycle: it hands out ids, tracks recency, evicts the least
recently used session once ``max_sessions`` is reached, and isolates users
from each other — a session can only ever be resolved for the user that
opened it.

Concurrency discipline
----------------------

The manager's own registry lock is held only for map operations (lookup,
insert, pop) — never while session work runs.  Each :class:`ManagedSession`
carries its *own* lock, which the service holds for the duration of one
request against that session; independent sessions therefore proceed in
parallel while requests targeting the same session serialise in arrival
order.

Eviction cooperates with that scheme: the LRU victim is removed from the
registry immediately (so new lookups fail fast), but it is only *marked*
evicted after its per-session lock has been acquired — i.e. after any
request already operating on it has finished.  A request that loses the
race (resolves the entry, then finds it marked before doing its work) gets
a :class:`SessionExpiredError`; mid-flight work is never silently dropped
and no caller ever sees a bare ``KeyError``.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.adaptive import AdaptiveSession
from repro.errors import ReproError
from repro.service.types import SessionInfo
from repro.utils.validation import ensure_positive

#: How many evicted session ids the manager remembers, so that stragglers
#: addressing a recently evicted session get ``SessionExpiredError`` rather
#: than the generic not-found error.  Bounded to keep memory flat.
_EVICTION_MEMORY = 4096


class SessionNotFoundError(KeyError, ReproError):
    """Raised when a session id is unknown (never opened, closed or evicted)."""

    def __init__(self, session_id: str, detail: Optional[str] = None) -> None:
        self.session_id = session_id
        super().__init__(detail or f"no open session with id {session_id!r}")

    def __str__(self) -> str:
        return self.args[0]


class SessionExpiredError(SessionNotFoundError):
    """Raised when a request addresses a session evicted by the LRU policy.

    Subclasses :class:`SessionNotFoundError` (and therefore ``KeyError``)
    so existing handlers keep working, but tells the caller *why* the
    session is gone: it aged out under ``max_sessions`` pressure, rather
    than never existing or being closed deliberately.
    """

    def __init__(self, session_id: str, detail: Optional[str] = None) -> None:
        super().__init__(
            session_id,
            detail
            or (
                f"session {session_id!r} expired: evicted by the LRU session "
                f"manager (capacity pressure); open a new session and retry"
            ),
        )


@dataclass
class ManagedSession:
    """One live session plus the metadata the service tracks about it.

    ``lock`` serialises requests against this session; the service holds it
    for the whole of one search/feedback call.  ``evicted``/``closed`` are
    only ever flipped while ``lock`` is held, so a request that holds the
    lock can trust them for the duration of its work.
    """

    session_id: str
    user_id: str
    session: AdaptiveSession
    policy_name: str
    scheme_name: str
    result_limit: int
    lock: threading.RLock = field(default_factory=threading.RLock, repr=False)
    evicted: bool = False
    closed: bool = False

    @property
    def is_active(self) -> bool:
        """True while the session is neither closed nor evicted."""
        return not (self.closed or self.evicted)

    def raise_if_inactive(self) -> None:
        """Raise the error describing why this session is unavailable."""
        if self.evicted:
            raise SessionExpiredError(self.session_id)
        if self.closed:
            raise SessionNotFoundError(self.session_id)

    def info(self) -> SessionInfo:
        """A frozen snapshot of the session's public state.

        Takes the session lock (reentrant for a request already holding
        it), so observers never see a half-applied request — e.g. an
        iteration count from mid-way through a concurrent search.
        """
        with self.lock:
            return SessionInfo(
                session_id=self.session_id,
                user_id=self.user_id,
                policy=self.policy_name,
                weighting_scheme=self.scheme_name,
                topic_id=self.session.topic_id,
                result_limit=self.result_limit,
                iteration_count=self.session.iteration_count,
                seen_shot_count=self.session.seen_shot_count,
            )


class SessionManager:
    """Bounded, thread-safe registry of live sessions keyed by session id."""

    def __init__(self, max_sessions: int = 1024) -> None:
        ensure_positive(max_sessions, "max_sessions")
        self._max_sessions = max_sessions
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, ManagedSession]" = OrderedDict()
        self._evicted_ids: "OrderedDict[str, None]" = OrderedDict()
        self._counter = itertools.count(1)

    @property
    def max_sessions(self) -> int:
        """The LRU capacity."""
        return self._max_sessions

    def next_session_id(self, user_id: str) -> str:
        """A fresh, unique session id for a user."""
        return f"{user_id}:s{next(self._counter):05d}"

    def add(self, entry: ManagedSession) -> List[ManagedSession]:
        """Track a new session; returns any sessions evicted to make room.

        Victims are removed from the registry under the manager lock (new
        lookups fail immediately with :class:`SessionExpiredError`), then
        marked evicted under their *own* lock — which waits for any request
        currently operating on the victim to complete, so in-flight work is
        never torn down midway.
        """
        evicted: List[ManagedSession] = []
        with self._lock:
            self._entries[entry.session_id] = entry
            self._entries.move_to_end(entry.session_id)
            while len(self._entries) > self._max_sessions:
                _, old = self._entries.popitem(last=False)
                self._remember_eviction(old.session_id)
                evicted.append(old)
        # Outside the manager lock: waiting for a victim's in-flight request
        # here must not block unrelated lookups and session openings.  The
        # loop is exception-safe: every victim popped above *must* end up
        # marked, or a request that resolved it before the pop (and is now
        # blocked on its lock — e.g. about to be unwound by a deadline
        # cancellation) would resume against a session that silently lost
        # its registry slot.
        try:
            for old in evicted:
                with old.lock:
                    old.evicted = True
        except BaseException:
            for old in evicted:
                if not old.evicted:
                    with old.lock:
                        old.evicted = True
            raise
        return evicted

    def _remember_eviction(self, session_id: str) -> None:
        self._evicted_ids[session_id] = None
        self._evicted_ids.move_to_end(session_id)
        while len(self._evicted_ids) > _EVICTION_MEMORY:
            self._evicted_ids.popitem(last=False)

    def get(self, session_id: str, *, touch: bool = True) -> ManagedSession:
        """Look up a session by id, refreshing its recency unless ``touch=False``."""
        with self._lock:
            try:
                entry = self._entries[session_id]
            except KeyError:
                if session_id in self._evicted_ids:
                    raise SessionExpiredError(session_id) from None
                raise SessionNotFoundError(session_id) from None
            if touch:
                self._entries.move_to_end(session_id)
            return entry

    def close(self, session_id: str) -> ManagedSession:
        """Remove a session and return it (after in-flight work completes)."""
        with self._lock:
            try:
                entry = self._entries.pop(session_id)
            except KeyError:
                if session_id in self._evicted_ids:
                    raise SessionExpiredError(session_id) from None
                raise SessionNotFoundError(session_id) from None
        with entry.lock:
            entry.closed = True
        return entry

    def latest_for_user(self, user_id: str) -> Optional[ManagedSession]:
        """The user's most recently used session, if any."""
        with self._lock:
            for entry in reversed(self._entries.values()):
                if entry.user_id == user_id:
                    return entry
        return None

    def for_user(self, user_id: str) -> List[ManagedSession]:
        """All of a user's sessions, least recently used first."""
        with self._lock:
            return [entry for entry in self._entries.values() if entry.user_id == user_id]

    def all(self) -> List[ManagedSession]:
        """Every live session, least recently used first."""
        with self._lock:
            return list(self._entries.values())

    def session_ids(self) -> List[str]:
        """Ids of every live session, least recently used first."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        """Drop every session."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, session_id: str) -> bool:
        with self._lock:
            return session_id in self._entries

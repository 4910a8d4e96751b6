"""Interface capability models.

The paper's methodology compares interaction environments — desktop PCs and
interactive TV — whose affordances differ: what actions are available, how
costly each action is for the user, and how many results can be displayed at
once.  An :class:`InterfaceModel` captures exactly those properties.  The
simulation layer asks the interface which actions a user *can* perform and
how much simulated time each costs; the feedback layer is interface-agnostic
and just consumes the resulting events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping

from repro.errors import InvalidArgumentError, NotIndexedError
from repro.feedback.events import EventKind
from repro.utils.validation import ensure_number, ensure_positive, ensure_probability


@dataclass(frozen=True)
class ActionCost:
    """The cost of performing one action on a given interface.

    ``time_seconds`` is how long the action takes; ``effort`` is an abstract
    reluctance factor in ``[0, 1]`` — simulated users perform high-effort
    actions less often (entering a query with a remote control is possible
    but painful, so it happens rarely).
    """

    time_seconds: float
    effort: float

    def __post_init__(self) -> None:
        ensure_number(self.time_seconds, "time_seconds")
        ensure_probability(self.effort, "effort")


class InterfaceModel:
    """Base class describing an interaction environment."""

    #: Short machine name ("desktop", "itv"); subclasses override.
    name: str = "abstract"

    def __init__(
        self,
        results_per_page: int,
        supported_actions: FrozenSet[EventKind],
        action_costs: Mapping[EventKind, ActionCost],
        query_entry_supported: bool = True,
        description: str = "",
    ) -> None:
        ensure_positive(results_per_page, "results_per_page")
        self._results_per_page = results_per_page
        self._supported = frozenset(supported_actions)
        self._costs = dict(action_costs)
        self._query_entry = query_entry_supported
        self.description = description
        missing = self._supported - set(self._costs)
        if missing:
            raise InvalidArgumentError(
                f"actions missing a cost definition: {sorted(kind.value for kind in missing)}"
            )

    # -- capabilities ----------------------------------------------------------

    @property
    def results_per_page(self) -> int:
        """How many result surrogates the interface shows at once."""
        return self._results_per_page

    @property
    def query_entry_supported(self) -> bool:
        """Whether free-text query entry is practical on this interface."""
        return self._query_entry

    def supported_actions(self) -> FrozenSet[EventKind]:
        """The event kinds a user can generate on this interface."""
        return self._supported

    def supports(self, kind: EventKind) -> bool:
        """True if the interface supports an action."""
        return kind in self._supported

    def cost_of(self, kind: EventKind) -> ActionCost:
        """The cost of an action; an unsupported one is a
        :class:`~repro.errors.NotIndexedError` (a ``KeyError``)."""
        if kind not in self._supported:
            raise NotIndexedError(f"{self.name} interface does not support {kind.value}")
        return self._costs[kind]

    def implicit_action_kinds(self) -> List[EventKind]:
        """Supported actions that yield implicit evidence."""
        from repro.feedback.events import IMPLICIT_EVENT_KINDS

        return sorted(
            (kind for kind in self._supported if kind in IMPLICIT_EVENT_KINDS),
            key=lambda kind: kind.value,
        )

    def explicit_action_kinds(self) -> List[EventKind]:
        """Supported actions that yield explicit judgements."""
        from repro.feedback.events import EXPLICIT_EVENT_KINDS

        return sorted(
            (kind for kind in self._supported if kind in EXPLICIT_EVENT_KINDS),
            key=lambda kind: kind.value,
        )

    def capability_summary(self) -> Dict[str, object]:
        """A dictionary summary used by logs and reports."""
        return {
            "interface": self.name,
            "results_per_page": self._results_per_page,
            "query_entry_supported": self._query_entry,
            "implicit_actions": [kind.value for kind in self.implicit_action_kinds()],
            "explicit_actions": [kind.value for kind in self.explicit_action_kinds()],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"

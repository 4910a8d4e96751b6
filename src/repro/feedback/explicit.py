"""Explicit relevance feedback store.

Explicit feedback is "given when a user actively informs a system what it
has to do on purpose, such as selecting something and marking it as
relevant".  The store keeps each shot's latest per-session judgement,
exposes them in the form the Rocchio expander and the adaptive model expect,
and records the cost the user paid (number of judgements), which the
interface-comparison experiment uses to contrast desktop and iTV feedback
economics.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from repro.feedback.events import EventKind, InteractionEvent


class ExplicitFeedbackStore:
    """Collects explicit judgements during a session.

    State is one ``{shot_id: relevant}`` entry per *distinct* judged shot
    plus a judgement counter, so re-judging costs no memory and every query
    below is O(judged shots), not O(judgements made).  A re-judged shot
    keeps its first-judgement position in every returned ordering.
    """

    def __init__(self) -> None:
        self._latest: Dict[str, bool] = {}
        self._judgement_count = 0

    # -- recording --------------------------------------------------------------

    def record(self, shot_id: str, relevant: bool) -> None:
        """Record one judgement (a later judgement of a shot replaces the earlier)."""
        self._latest[shot_id] = relevant
        self._judgement_count += 1

    def record_event(self, event: InteractionEvent) -> bool:
        """Record a judgement from an explicit-feedback event.

        Returns True if the event was an explicit judgement and was recorded.
        """
        if event.shot_id is None:
            return False
        if event.kind in (EventKind.MARK_RELEVANT, EventKind.REMOTE_RATE_UP):
            self.record(event.shot_id, True)
            return True
        if event.kind in (EventKind.MARK_NOT_RELEVANT, EventKind.REMOTE_RATE_DOWN):
            self.record(event.shot_id, False)
            return True
        return False

    def record_events(self, events: Iterable[InteractionEvent]) -> int:
        """Record all explicit judgements in an event stream; returns the count."""
        return sum(1 for event in events if self.record_event(event))

    # -- queries ------------------------------------------------------------------

    def relevant_shots(self) -> List[str]:
        """Shots most recently judged relevant (later judgements win)."""
        return [shot_id for shot_id, relevant in self._latest.items() if relevant]

    def non_relevant_shots(self) -> List[str]:
        """Shots most recently judged not relevant."""
        return [shot_id for shot_id, relevant in self._latest.items() if not relevant]

    def judged_shots(self) -> Set[str]:
        """All shots with at least one judgement."""
        return set(self._latest)

    def judgement_count(self) -> int:
        """Total number of judgements made (the user's explicit-feedback cost)."""
        return self._judgement_count

    def evidence_map(self, positive_weight: float = 1.0, negative_weight: float = 1.0) -> Dict[str, float]:
        """Evidence scores from explicit judgements alone."""
        evidence: Dict[str, float] = {}
        for shot_id, relevant in self._latest.items():
            evidence[shot_id] = positive_weight if relevant else -negative_weight
        return evidence

    def __len__(self) -> int:
        return self._judgement_count

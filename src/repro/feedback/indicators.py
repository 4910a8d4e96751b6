"""Implicit relevance indicators extracted from interaction events.

An *indicator* is a named, interpretable summary of a user's behaviour
towards one shot — "the user clicked its keyframe", "the user watched more
than half of it", "the user expanded its metadata".  The research question
the paper poses (RQ1) is which of these indicators are reliable positive
evidence of relevance; experiment E2 measures exactly that by comparing each
indicator's firing pattern against the ground-truth qrels.

Indicators deliberately stay *binary-ish and interpretable*: an indicator
fires (with a strength in ``[0, 1]``) or it does not.  Combining indicators
into relevance evidence is the job of the weighting schemes in
:mod:`repro.feedback.weighting`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.errors import InvalidArgumentError
from repro.feedback.events import EventKind, InteractionEvent

#: Canonical indicator names, in the order the paper lists them plus the
#: negative indicators needed for completeness.
INDICATOR_NAMES = (
    "play_click",        # clicked a keyframe to start playing the video
    "play_duration",     # played the video for a (long) amount of time
    "play_complete",     # watched the shot to its end
    "browse",            # browsed / scrolled the result list past the shot
    "hover",             # hovered over the result surrogate
    "seek",              # slid through the video timeline
    "metadata",          # highlighted / expanded additional metadata
    "playlist",          # added the shot to a playlist
    "explicit_positive", # explicit relevance marking (desktop) or rate-up (iTV)
    "explicit_negative", # explicit non-relevance marking or rate-down
    "skip",              # skipped the result without engaging
    "select",            # selected the story with the remote control
)


@dataclass(frozen=True)
class IndicatorObservation:
    """One firing of one indicator for one shot."""

    indicator: str
    shot_id: str
    strength: float
    timestamp: float
    rank: Optional[int] = None


class IndicatorExtractor:
    """Turns an event stream into per-shot indicator observations.

    Parameters
    ----------
    long_play_fraction:
        Fraction of a shot's duration that must be played for the
        ``play_duration`` indicator to fire at full strength; shorter plays
        fire proportionally.
    hover_threshold_seconds:
        Minimum hover duration for the ``hover`` indicator to fire.
    """

    def __init__(
        self,
        long_play_fraction: float = 0.5,
        hover_threshold_seconds: float = 2.0,
    ) -> None:
        if not 0.0 < long_play_fraction <= 1.0:
            raise InvalidArgumentError("long_play_fraction must be in (0, 1]")
        if hover_threshold_seconds < 0:
            raise InvalidArgumentError("hover_threshold_seconds must be non-negative")
        self._long_play_fraction = long_play_fraction
        self._hover_threshold = hover_threshold_seconds

    # -- single event ----------------------------------------------------------

    def observations_for_event(
        self,
        event: InteractionEvent,
        shot_durations: Optional[Mapping[str, float]] = None,
    ) -> List[IndicatorObservation]:
        """Indicator observations contributed by a single event."""
        if event.shot_id is None:
            return []
        shot_id = event.shot_id
        observations: List[IndicatorObservation] = []

        def fire(indicator: str, strength: float) -> None:
            observations.append(
                IndicatorObservation(
                    indicator=indicator,
                    shot_id=shot_id,
                    strength=max(0.0, min(1.0, strength)),
                    timestamp=event.timestamp,
                    rank=event.rank,
                )
            )

        kind = event.kind
        if kind is EventKind.PLAY_CLICK:
            fire("play_click", 1.0)
        elif kind is EventKind.PLAY_PROGRESS:
            duration = event.duration or 0.0
            shot_duration = None
            if shot_durations is not None:
                shot_duration = shot_durations.get(shot_id)
            if shot_duration and shot_duration > 0:
                fraction = duration / shot_duration
            else:
                # Without the shot's duration, treat 30 seconds as a full view.
                fraction = duration / 30.0
            fire("play_duration", fraction / self._long_play_fraction)
        elif kind is EventKind.PLAY_COMPLETE:
            fire("play_complete", 1.0)
            fire("play_duration", 1.0)
        elif kind is EventKind.BROWSE_RESULTS:
            fire("browse", 1.0)
        elif kind is EventKind.HOVER_RESULT:
            duration = event.duration or 0.0
            if duration >= self._hover_threshold:
                fire("hover", min(1.0, duration / (self._hover_threshold * 3)))
        elif kind is EventKind.SEEK_VIDEO:
            fire("seek", 1.0)
        elif kind is EventKind.HIGHLIGHT_METADATA:
            fire("metadata", 1.0)
        elif kind is EventKind.ADD_TO_PLAYLIST:
            fire("playlist", 1.0)
        elif kind is EventKind.SKIP_RESULT:
            fire("skip", 1.0)
        elif kind is EventKind.REMOTE_SELECT:
            fire("select", 1.0)
        elif kind is EventKind.REMOTE_CHANNEL_SKIP:
            fire("skip", 1.0)
        elif kind is EventKind.MARK_RELEVANT or kind is EventKind.REMOTE_RATE_UP:
            fire("explicit_positive", 1.0)
        elif kind is EventKind.MARK_NOT_RELEVANT or kind is EventKind.REMOTE_RATE_DOWN:
            fire("explicit_negative", 1.0)
        return observations

    # -- whole stream ---------------------------------------------------------------

    def extract(
        self,
        events: Iterable[InteractionEvent],
        shot_durations: Optional[Mapping[str, float]] = None,
    ) -> List[IndicatorObservation]:
        """Indicator observations for a whole event stream."""
        observations: List[IndicatorObservation] = []
        for event in events:
            observations.extend(self.observations_for_event(event, shot_durations))
        return observations

    def per_shot_indicator_strengths(
        self,
        events: Iterable[InteractionEvent],
        shot_durations: Optional[Mapping[str, float]] = None,
    ) -> Dict[str, Dict[str, float]]:
        """Maximum strength of each indicator per shot.

        Returns ``{shot_id: {indicator: strength}}``; taking the maximum over
        repeated firings keeps strengths in ``[0, 1]`` and makes the output
        independent of how many identical events the log happens to contain.
        """
        strengths: Dict[str, Dict[str, float]] = {}
        for observation in self.extract(events, shot_durations):
            per_shot = strengths.setdefault(observation.shot_id, {})
            per_shot[observation.indicator] = max(
                per_shot.get(observation.indicator, 0.0), observation.strength
            )
        return strengths


def indicator_counts(observations: Sequence[IndicatorObservation]) -> Dict[str, int]:
    """How many times each indicator fired in a set of observations."""
    counts: Dict[str, int] = {name: 0 for name in INDICATOR_NAMES}
    for observation in observations:
        counts[observation.indicator] = counts.get(observation.indicator, 0) + 1
    return counts

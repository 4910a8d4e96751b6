"""Simulated user models.

A :class:`SimulatedUser` is a bundle of behavioural parameters: how
accurately the user recognises relevant material from a result surrogate,
how their judgement improves after actually playing a shot, how patient they
are, and how inclined they are to perform each kind of optional action
(expanding metadata, building playlists, giving explicit feedback).  The
values are deliberately interpretable — they are the levers the
simulation-based evaluation methodology of Section 2.2 exists to sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

from repro.utils.validation import ensure_in_range, ensure_number, ensure_positive


@dataclass(frozen=True)
class SimulatedUser:
    """Behavioural parameters of one simulated searcher.

    Attributes
    ----------
    user_id:
        Identifier; also used to derive the user's private random stream.
    surrogate_error_rate:
        Probability of misjudging a shot's relevance from its result-list
        surrogate (keyframe + headline) alone.
    post_play_error_rate:
        Probability of still misjudging after playing the shot (watching is
        more informative than looking at a keyframe, so this is lower).
    patience_pages:
        How many result pages the user is willing to examine per query.
    max_queries:
        How many query (re)formulations the user will issue per session.
    play_propensity:
        Probability of playing a shot whose surrogate looks relevant.
    metadata_propensity / playlist_propensity / explicit_propensity /
    hover_propensity / seek_propensity:
        Probabilities of the corresponding optional actions, conditioned on
        the situations described in the session simulator.
    explicit_negative_propensity:
        Probability of explicitly marking an obviously irrelevant shot.
    skip_propensity:
        Probability of emitting an explicit skip action for a surrogate the
        user judges irrelevant (rather than silently moving on).
    query_terms_initial / query_terms_per_reformulation:
        How many topic terms the user types initially and adds on each
        reformulation.
    """

    user_id: str
    surrogate_error_rate: float = 0.2
    post_play_error_rate: float = 0.08
    patience_pages: int = 3
    max_queries: int = 4
    play_propensity: float = 0.85
    metadata_propensity: float = 0.35
    playlist_propensity: float = 0.3
    explicit_propensity: float = 0.25
    explicit_negative_propensity: float = 0.1
    hover_propensity: float = 0.4
    seek_propensity: float = 0.25
    skip_propensity: float = 0.3
    query_terms_initial: int = 2
    query_terms_per_reformulation: int = 1

    def __post_init__(self) -> None:
        ensure_in_range(self.surrogate_error_rate, 0.0, 1.0, "surrogate_error_rate")
        ensure_in_range(self.post_play_error_rate, 0.0, 1.0, "post_play_error_rate")
        ensure_positive(self.patience_pages, "patience_pages")
        ensure_positive(self.max_queries, "max_queries")
        for name in (
            "play_propensity",
            "metadata_propensity",
            "playlist_propensity",
            "explicit_propensity",
            "explicit_negative_propensity",
            "hover_propensity",
            "seek_propensity",
            "skip_propensity",
        ):
            ensure_in_range(getattr(self, name), 0.0, 1.0, name)
        ensure_positive(self.query_terms_initial, "query_terms_initial")
        ensure_number(
            self.query_terms_per_reformulation,
            "query_terms_per_reformulation",
            integer=True,
        )

    def with_overrides(self, **overrides: object) -> "SimulatedUser":
        """A copy of this user with some parameters replaced."""
        return replace(self, **overrides)

    def describe(self) -> Dict[str, object]:
        """Dictionary view for logs and reports."""
        return {
            "user_id": self.user_id,
            "surrogate_error_rate": self.surrogate_error_rate,
            "post_play_error_rate": self.post_play_error_rate,
            "patience_pages": self.patience_pages,
            "max_queries": self.max_queries,
            "play_propensity": self.play_propensity,
            "explicit_propensity": self.explicit_propensity,
        }


def diligent_user(user_id: str = "diligent") -> SimulatedUser:
    """A careful user: low error rates, inspects a lot, gives explicit feedback."""
    return SimulatedUser(
        user_id=user_id,
        surrogate_error_rate=0.12,
        post_play_error_rate=0.04,
        patience_pages=4,
        max_queries=5,
        play_propensity=0.9,
        metadata_propensity=0.5,
        playlist_propensity=0.4,
        explicit_propensity=0.5,
        explicit_negative_propensity=0.2,
    )


def casual_user(user_id: str = "casual") -> SimulatedUser:
    """A casual user: noisier judgements, little patience, almost no explicit feedback."""
    return SimulatedUser(
        user_id=user_id,
        surrogate_error_rate=0.28,
        post_play_error_rate=0.12,
        patience_pages=2,
        max_queries=3,
        play_propensity=0.7,
        metadata_propensity=0.15,
        playlist_propensity=0.1,
        explicit_propensity=0.05,
        explicit_negative_propensity=0.02,
    )


def lazy_user(user_id: str = "lazy") -> SimulatedUser:
    """A minimal-effort user: looks at one page and rarely does anything optional."""
    return SimulatedUser(
        user_id=user_id,
        surrogate_error_rate=0.32,
        post_play_error_rate=0.15,
        patience_pages=1,
        max_queries=2,
        play_propensity=0.5,
        metadata_propensity=0.05,
        playlist_propensity=0.05,
        explicit_propensity=0.01,
        explicit_negative_propensity=0.0,
        hover_propensity=0.2,
        seek_propensity=0.1,
        skip_propensity=0.15,
    )


def standard_personas() -> Tuple[SimulatedUser, ...]:
    """The persona mix used by the population generator."""
    return (diligent_user(), casual_user(), lazy_user())

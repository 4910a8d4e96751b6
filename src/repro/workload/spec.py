"""Declarative description of a multi-user service workload.

A :class:`WorkloadSpec` is the single value that pins down an entire
concurrent load test: how many simulated users, how many query iterations
each runs, how much of the result list they give feedback on, which
adaptation policy their sessions use, and the seed every random decision is
derived from.  Two runs from the same spec — regardless of thread count or
scheduling — must produce byte-identical canonical event logs; that
property is what makes concurrency bugs in the serving path *observable*
(any divergence is a bug, not noise).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import InvalidArgumentError
from repro.utils.validation import ensure_positive


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one deterministic multi-user workload.

    Attributes
    ----------
    users:
        How many simulated users (one service session each) the workload
        drives.  Users are drawn from :func:`repro.simulation.population.
        generate_population`, so personas and behavioural jitter follow
        the same distributions as the paper's simulated studies.
    queries_per_user:
        Query iterations per user.  Each iteration is a search step
        followed by ``feedback_per_query`` feedback steps, so a user
        contributes ``(1 + feedback_per_query) * queries_per_user + 2``
        canonical log records (open/close included).
    feedback_per_query:
        Feedback steps after every search step.  The default of 1 is the
        classic search/judge loop; higher values model a user who keeps
        interacting with the same result page (an adaptation-heavy mix
        that hammers the session's evidence fold far more often than its
        query path).  Each feedback step draws from its own labelled RNG
        stream, so the mix stays deterministic at any worker count.
    feedback_top_k:
        How deep into each result list the user's feedback pass looks.
    policy:
        Registered adaptation policy name for every session.
    seed:
        Root seed; every query formulation and judgement decision is
        derived from it through labelled RNG streams, never from shared
        stream consumption order.
    close_sessions:
        Whether each user closes their session at the end of their script
        (exercises the close path under concurrency).
    """

    users: int = 8
    queries_per_user: int = 3
    feedback_per_query: int = 1
    feedback_top_k: int = 5
    policy: str = "combined"
    seed: int = 97
    close_sessions: bool = True

    def __post_init__(self) -> None:
        ensure_positive(self.users, "users")
        ensure_positive(self.queries_per_user, "queries_per_user")
        ensure_positive(self.feedback_per_query, "feedback_per_query")
        ensure_positive(self.feedback_top_k, "feedback_top_k")
        if not self.policy:
            raise InvalidArgumentError("policy must be non-empty")

    def with_overrides(self, **overrides: object) -> "WorkloadSpec":
        """A copy of this spec with some fields replaced."""
        return replace(self, **overrides)

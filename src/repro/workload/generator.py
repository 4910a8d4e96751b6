"""Seeded generation of per-user service workload scripts.

The generator turns :mod:`repro.simulation.population` members into
*scripts*: per-user interleaved streams of search and feedback steps that a
:class:`~repro.workload.driver.ServiceLoadDriver` executes against a live
:class:`~repro.service.RetrievalService`.

Everything decidable ahead of time (which user, which topic, which query
text at which step) is decided here, deterministically from the spec seed.
What depends on live responses (which shots the user ends up judging) is
deferred to the driver, but parameterised by seeded RNG streams labelled
``(seed, "feedback", user_id, step)`` — independent of thread scheduling —
so the driver's canonical log is a pure function of the spec and corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.collection.topics import Topic, TopicSet
from repro.simulation.population import PopulationMember, assign_topics, generate_population
from repro.simulation.strategies import QueryStrategy, TitleQueryStrategy
from repro.simulation.user import SimulatedUser
from repro.utils.rng import RandomSource, derive_seed
from repro.workload.spec import WorkloadSpec

#: Step kinds a user script is built from.
SEARCH = "search"
FEEDBACK = "feedback"


@dataclass(frozen=True)
class WorkloadStep:
    """One scripted action of one simulated user.

    ``query`` is set for search steps.  Feedback steps carry no payload:
    the driver synthesises the interaction events from the *previous*
    response using the user's behavioural parameters and the step's own
    seeded RNG stream.
    """

    kind: str
    step: int
    query: Optional[str] = None


@dataclass
class UserWorkload:
    """One user's complete script against the service."""

    user_id: str
    member: PopulationMember
    topic: Topic
    policy: str
    steps: List[WorkloadStep] = field(default_factory=list)

    @property
    def user(self) -> SimulatedUser:
        """The simulated user's behavioural parameters."""
        return self.member.user

    @property
    def search_count(self) -> int:
        """Number of search steps in the script."""
        return sum(1 for step in self.steps if step.kind == SEARCH)


def _user_queries(
    member: PopulationMember,
    topic: Topic,
    strategy: QueryStrategy,
    rng: RandomSource,
    count: int,
) -> List[str]:
    """The user's deterministic query sequence for a topic."""
    user = member.user
    queries: List[str] = [
        strategy.initial_query(topic, rng.spawn("query", 0), user.query_terms_initial)
    ]
    while len(queries) < count:
        reformulated = strategy.reformulate(
            topic,
            rng.spawn("query", len(queries)),
            queries,
            user.query_terms_per_reformulation,
        )
        if reformulated is None:
            # Nothing new to try: re-issue the last query (a refresh), which
            # still exercises the adapted ranking with fresh evidence.
            reformulated = queries[-1]
        queries.append(reformulated)
    return queries


def generate_workload(
    spec: WorkloadSpec,
    topics: TopicSet,
    personas: Sequence[SimulatedUser] = (),
    strategy: Optional[QueryStrategy] = None,
) -> List[UserWorkload]:
    """Generate the per-user scripts for a workload spec.

    Users come from the population generator (personas cycled, behavioural
    jitter applied), each is assigned one topic aligned with their profile
    where possible, and each script interleaves ``queries_per_user`` search
    steps with ``feedback_per_query`` feedback steps after every search
    (values above 1 give the adaptation-heavy mix: every extra feedback
    step re-enters the session's evidence fold without a new query).  The
    result is a pure function of ``(spec, topics, personas, strategy)``.
    """
    strategy = strategy or TitleQueryStrategy()
    members = generate_population(
        spec.users, seed=spec.seed, personas=personas, topics=topics
    )
    assignment = assign_topics(
        members,
        topics,
        topics_per_user=1,
        seed=derive_seed(spec.seed, "workload-topics"),
    )
    root = RandomSource(spec.seed).spawn("workload")
    workloads: List[UserWorkload] = []
    for member in members:
        user_id = member.user.user_id
        topic = assignment[user_id][0]
        queries = _user_queries(
            member, topic, strategy, root.spawn("user", user_id), spec.queries_per_user
        )
        steps: List[WorkloadStep] = []
        for query in queries:
            steps.append(WorkloadStep(kind=SEARCH, step=len(steps), query=query))
            for _ in range(spec.feedback_per_query):
                steps.append(WorkloadStep(kind=FEEDBACK, step=len(steps)))
        workloads.append(
            UserWorkload(
                user_id=user_id,
                member=member,
                topic=topic,
                policy=spec.policy,
                steps=steps,
            )
        )
    return workloads

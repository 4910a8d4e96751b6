"""Simulated user populations.

The paper notes that "a large quantity of different users interacting with
the system is necessary to draw generalisable conclusions".  The population
generator produces that quantity: a reproducible set of simulated users with
varied behavioural parameters and, optionally, static profiles whose
declared interests are aligned (or deliberately misaligned) with the search
topics they will be given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.collection.topics import Topic, TopicSet
from repro.profiles.profile import Demographics, UserProfile
from repro.simulation.user import SimulatedUser, standard_personas
from repro.utils.rng import RandomSource
from repro.utils.validation import ensure_positive


@dataclass
class PopulationMember:
    """One member of a simulated user population."""

    user: SimulatedUser
    profile: UserProfile


def _perturb(value: float, rng: RandomSource, spread: float, low: float, high: float) -> float:
    return min(high, max(low, value + rng.gauss(0.0, spread)))


def generate_population(
    size: int,
    seed: int = 77,
    personas: Sequence[SimulatedUser] = (),
    topics: Optional[TopicSet] = None,
    profile_alignment: float = 0.8,
) -> List[PopulationMember]:
    """Generate ``size`` simulated users with individual parameter jitter.

    Each user is based on one of the personas (cycled), with behavioural
    parameters perturbed so no two users are identical.  When ``topics`` is
    given, each user also receives a static profile interested in a couple
    of categories; with probability ``profile_alignment`` the user's primary
    interest matches the category of the topics they will later search
    (aligned profile), otherwise it is a different category (misaligned),
    which is what the profile-combination experiment varies.
    """
    ensure_positive(size, "size")
    base_personas = list(personas) if personas else list(standard_personas())
    rng = RandomSource(seed).spawn("population")
    members: List[PopulationMember] = []
    categories: List[str] = topics.categories() if topics is not None else []
    for index in range(size):
        persona = base_personas[index % len(base_personas)]
        user_rng = rng.spawn("user", index)
        user = persona.with_overrides(
            user_id=f"user{index + 1:03d}",
            surrogate_error_rate=_perturb(
                persona.surrogate_error_rate, user_rng, 0.05, 0.0, 0.6
            ),
            post_play_error_rate=_perturb(
                persona.post_play_error_rate, user_rng, 0.02, 0.0, 0.4
            ),
            play_propensity=_perturb(persona.play_propensity, user_rng, 0.08, 0.2, 1.0),
            metadata_propensity=_perturb(
                persona.metadata_propensity, user_rng, 0.08, 0.0, 1.0
            ),
            explicit_propensity=_perturb(
                persona.explicit_propensity, user_rng, 0.08, 0.0, 1.0
            ),
        )
        profile = UserProfile(user_id=user.user_id, demographics=Demographics())
        if categories:
            primary_rng = user_rng.spawn("profile")
            aligned = primary_rng.boolean(profile_alignment)
            primary = primary_rng.choice(categories)
            profile.set_category_interest(primary, primary_rng.uniform(0.7, 1.0))
            secondary = primary_rng.choice(categories)
            if secondary != primary:
                profile.set_category_interest(secondary, primary_rng.uniform(0.2, 0.5))
            profile.demographics.expertise = (
                "expert" if primary_rng.boolean(0.25) else "novice"
            )
            # Record alignment for experiment stratification.
            profile_alignment_flag = aligned
            members.append(PopulationMember(user=user, profile=profile))
            members[-1].profile.term_interests["__aligned__"] = (
                1.0 if profile_alignment_flag else 0.0
            )
            continue
        members.append(PopulationMember(user=user, profile=profile))
    return members


def assign_topics(
    members: Sequence[PopulationMember],
    topics: TopicSet,
    topics_per_user: int = 2,
    seed: int = 78,
    prefer_profile_category: bool = True,
) -> Dict[str, List[Topic]]:
    """Assign each user the topics they will search.

    With ``prefer_profile_category`` the assignment favours topics whose
    category matches the user's primary declared interest (the aligned
    condition of the profile experiments); otherwise topics are assigned
    uniformly at random.  Each user gets distinct topics, so
    ``topics_per_user`` above the topic count raises ``ValueError``.
    """
    ensure_positive(topics_per_user, "topics_per_user")
    rng = RandomSource(seed).spawn("topic-assignment")
    all_topics = topics.topics()
    if topics_per_user > len(all_topics):
        raise ValueError(
            f"topics_per_user={topics_per_user} exceeds the "
            f"{len(all_topics)} topics available"
        )
    assignment: Dict[str, List[Topic]] = {}
    for member in members:
        user_rng = rng.spawn(member.user.user_id)
        preferred = member.profile.top_categories(1)
        chosen: List[Topic] = []
        if prefer_profile_category and preferred:
            matching = topics.by_category(preferred[0])
            if matching:
                chosen.extend(
                    user_rng.sample(matching, min(len(matching), topics_per_user))
                )
        # Ends: the check above leaves at least topics_per_user distinct
        # topics to draw, and every draw of a new one is kept.
        while len(chosen) < topics_per_user:
            candidate = user_rng.choice(all_topics)
            if candidate not in chosen:
                chosen.append(candidate)
        assignment[member.user.user_id] = chosen[:topics_per_user]
    return assignment

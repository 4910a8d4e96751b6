"""Query formulation strategies for simulated users.

How a simulated user turns a search topic into query text, and how they
reformulate when results disappoint, is a strategy separate from the user's
behavioural parameters so that experiments can hold behaviour constant while
varying search strategy (or vice versa).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.collection.topics import Topic
from repro.utils.rng import RandomSource
from repro.utils.validation import ensure_number, ensure_probability


class QueryStrategy:
    """Interface: produce the next query for a topic given the session so far."""

    def initial_query(self, topic: Topic, rng: RandomSource, term_count: int) -> str:
        """The first query of a session."""
        raise NotImplementedError

    def reformulate(
        self,
        topic: Topic,
        rng: RandomSource,
        previous_queries: Sequence[str],
        extra_terms: int,
    ) -> Optional[str]:
        """The next query, or ``None`` if the strategy has nothing new to try."""
        raise NotImplementedError


@dataclass
class TitleQueryStrategy(QueryStrategy):
    """Queries built from the topic's discriminative terms, in order.

    This is the classic TRECVID simulated-searcher assumption: the user
    knows the topic statement and types its salient terms, adding more on
    each reformulation.  An optional ``vagueness`` probability replaces a
    term with a generic term drawn from ``vague_terms`` (typically common
    news vocabulary), modelling users whose information need is vague —
    vague queries match material across categories, which is exactly the
    ambiguity static profiles and implicit feedback are meant to resolve.
    """

    vagueness: float = 0.0
    vague_terms: Sequence[str] = ()

    def __post_init__(self) -> None:
        ensure_probability(self.vagueness, "vagueness")

    def _maybe_vague(self, term: str, rng: RandomSource) -> str:
        if self.vagueness > 0 and self.vague_terms and rng.boolean(self.vagueness):
            return rng.choice(list(self.vague_terms))
        return term

    def initial_query(self, topic: Topic, rng: RandomSource, term_count: int) -> str:
        terms = [
            self._maybe_vague(term, rng)
            for term in topic.query_terms[: max(1, term_count)]
        ]
        return " ".join(terms)

    def reformulate(
        self,
        topic: Topic,
        rng: RandomSource,
        previous_queries: Sequence[str],
        extra_terms: int,
    ) -> Optional[str]:
        used_terms: List[str] = []
        for query in previous_queries:
            used_terms.extend(query.split())
        unused = [term for term in topic.query_terms if term not in used_terms]
        if not unused:
            # Shuffle the known terms as a last resort; stop once we've
            # issued as many reformulations as the topic has terms.
            if len(previous_queries) > len(topic.query_terms):
                return None
            return " ".join(rng.shuffled(topic.query_terms)[: max(2, extra_terms + 1)])
        previous = previous_queries[-1] if previous_queries else ""
        addition = [
            self._maybe_vague(term, rng) for term in unused[: max(1, extra_terms)]
        ]
        combined = (previous + " " + " ".join(addition)).strip()
        return combined


@dataclass
class DriftingQueryStrategy(QueryStrategy):
    """A strategy whose target topic changes mid-session.

    Used by the ostensive-drift experiment (E7): the user starts searching
    for ``first_topic`` and, after ``shift_after`` queries, switches to
    ``second_topic``.  The wrapped base strategy does the actual term
    selection.
    """

    first_topic: Topic
    second_topic: Topic
    shift_after: int = 2
    base: QueryStrategy = None

    def __post_init__(self) -> None:
        ensure_number(self.shift_after, "shift_after", positive=True, integer=True)
        if self.base is None:
            self.base = TitleQueryStrategy()

    def _topic_for(self, query_index: int) -> Topic:
        return self.first_topic if query_index < self.shift_after else self.second_topic

    def initial_query(self, topic: Topic, rng: RandomSource, term_count: int) -> str:
        return self.base.initial_query(self._topic_for(0), rng, term_count)

    def reformulate(
        self,
        topic: Topic,
        rng: RandomSource,
        previous_queries: Sequence[str],
        extra_terms: int,
    ) -> Optional[str]:
        query_index = len(previous_queries)
        active_topic = self._topic_for(query_index)
        if query_index == self.shift_after:
            # At the moment of the shift the user starts from scratch with
            # the new topic rather than appending to the old query.
            return self.base.initial_query(active_topic, rng, max(2, extra_terms + 1))
        relevant_previous = (
            previous_queries
            if query_index < self.shift_after
            else previous_queries[self.shift_after :]
        )
        return self.base.reformulate(active_topic, rng, relevant_previous, extra_terms)

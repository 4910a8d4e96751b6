"""Search topics in the style of TRECVID ad-hoc search tasks.

A :class:`Topic` is a statement of information need ("find shots of ...").
Topics are generated alongside the collection so that each topic owns a set
of discriminative query terms, a category, and ground-truth relevant shots
recorded in the accompanying :class:`~repro.collection.qrels.Qrels`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence

from repro.errors import InvalidArgumentError, NotIndexedError


@dataclass
class Topic:
    """A single search topic.

    Attributes
    ----------
    topic_id:
        Stable identifier, e.g. ``"T003"``.
    title:
        Short query-like statement (space-separated terms).
    description:
        Longer statement of the information need.
    category:
        News category the topic belongs to (drives profile experiments).
    query_terms:
        The discriminative terms that identify relevant material; simulated
        users draw their queries from these (plus noise).
    """

    topic_id: str
    title: str
    description: str
    category: str
    query_terms: List[str] = field(default_factory=list)

    def initial_query(self, term_count: int = 3) -> str:
        """A plausible first query for the topic: its leading terms."""
        terms = self.query_terms[: max(1, term_count)]
        return " ".join(terms)


class TopicSet:
    """An ordered, id-addressable set of topics."""

    def __init__(self, topics: Sequence[Topic]) -> None:
        self._topics: Dict[str, Topic] = {}
        self._order: List[str] = []
        for topic in topics:
            if topic.topic_id in self._topics:
                raise InvalidArgumentError(f"duplicate topic id {topic.topic_id!r}")
            self._topics[topic.topic_id] = topic
            self._order.append(topic.topic_id)

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[Topic]:
        for topic_id in self._order:
            yield self._topics[topic_id]

    def __contains__(self, topic_id: str) -> bool:
        return topic_id in self._topics

    def topic(self, topic_id: str) -> Topic:
        """Look up a topic by id."""
        if topic_id not in self._topics:
            raise NotIndexedError(f"unknown topic {topic_id!r}")
        return self._topics[topic_id]

    def topic_ids(self) -> List[str]:
        """All topic ids in order."""
        return list(self._order)

    def topics(self) -> List[Topic]:
        """All topics in order."""
        return [self._topics[topic_id] for topic_id in self._order]

    def by_category(self, category: str) -> List[Topic]:
        """Topics belonging to a category."""
        return [topic for topic in self if topic.category == category]

    def categories(self) -> List[str]:
        """Sorted list of categories covered by the topics."""
        return sorted({topic.category for topic in self})

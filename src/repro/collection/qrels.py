"""Graded relevance judgements (qrels) in the TREC style.

Qrels map ``(topic_id, shot_id)`` pairs to integer relevance grades:
``0`` not relevant, ``1`` relevant, ``2`` highly relevant.  They are produced
by the collection generator (ground truth by construction) and consumed by
the evaluation metrics and by simulated users, whose judgements of what they
see on screen are noisy observations of the qrels.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Set, Tuple, Union

from repro.errors import InvalidArgumentError

PathLike = Union[str, Path]


class Qrels:
    """Graded relevance judgements for a set of topics."""

    def __init__(self, judgements: Mapping[str, Mapping[str, int]] = ()) -> None:
        self._judgements: Dict[str, Dict[str, int]] = {}
        if judgements:
            for topic_id, by_shot in dict(judgements).items():
                for shot_id, grade in dict(by_shot).items():
                    self.add(topic_id, shot_id, grade)

    # -- mutation --------------------------------------------------------------

    def add(self, topic_id: str, shot_id: str, grade: int) -> None:
        """Record a judgement; higher grades overwrite lower ones."""
        if grade < 0:
            raise InvalidArgumentError(f"relevance grade must be non-negative, got {grade}")
        topic_judgements = self._judgements.setdefault(topic_id, {})
        existing = topic_judgements.get(shot_id, 0)
        topic_judgements[shot_id] = max(existing, int(grade))

    # -- queries ----------------------------------------------------------------

    def topics(self) -> List[str]:
        """Topic ids with at least one judgement."""
        return sorted(self._judgements)

    def grade(self, topic_id: str, shot_id: str) -> int:
        """The grade for a pair, defaulting to 0 (not relevant / unjudged)."""
        return self._judgements.get(topic_id, {}).get(shot_id, 0)

    def is_relevant(self, topic_id: str, shot_id: str) -> bool:
        """True if the pair is judged relevant (grade > 0)."""
        return self.grade(topic_id, shot_id) > 0

    def relevant_shots(self, topic_id: str) -> Set[str]:
        """Shot ids judged relevant for a topic."""
        return {
            shot_id
            for shot_id, grade in self._judgements.get(topic_id, {}).items()
            if grade > 0
        }

    def relevant_count(self, topic_id: str) -> int:
        """Number of relevant shots for a topic."""
        return len(self.relevant_shots(topic_id))

    def judgements_for(self, topic_id: str) -> Dict[str, int]:
        """A copy of all judgements (including explicit zeros) for a topic."""
        return dict(self._judgements.get(topic_id, {}))

    def items(self) -> Iterator[Tuple[str, str, int]]:
        """Iterate ``(topic_id, shot_id, grade)`` triples in sorted order."""
        for topic_id in sorted(self._judgements):
            for shot_id in sorted(self._judgements[topic_id]):
                yield topic_id, shot_id, self._judgements[topic_id][shot_id]

    def __len__(self) -> int:
        return sum(len(by_shot) for by_shot in self._judgements.values())

    def __contains__(self, topic_id: str) -> bool:
        return topic_id in self._judgements

    # -- persistence (TREC qrels format) -----------------------------------------

    def to_trec_lines(self) -> List[str]:
        """Render as standard TREC qrels lines: ``topic 0 doc grade``."""
        return [
            f"{topic_id} 0 {shot_id} {grade}"
            for topic_id, shot_id, grade in self.items()
        ]

    def save(self, path: PathLike) -> None:
        """Write TREC-format qrels to ``path``."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("\n".join(self.to_trec_lines()) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: PathLike) -> "Qrels":
        """Read TREC-format qrels from ``path``."""
        qrels = cls()
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4 or not parts[3].isdecimal():
                raise InvalidArgumentError(f"malformed qrels line: {line!r}")
            topic_id, _iteration, shot_id, grade = parts
            qrels.add(topic_id, shot_id, int(grade))
        return qrels

    @classmethod
    def from_triples(cls, triples: Iterable[Tuple[str, str, int]]) -> "Qrels":
        """Build qrels from an iterable of ``(topic, shot, grade)`` triples."""
        qrels = cls()
        for topic_id, shot_id, grade in triples:
            qrels.add(topic_id, shot_id, grade)
        return qrels

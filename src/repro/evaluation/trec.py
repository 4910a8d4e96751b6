"""TREC run files and per-topic evaluation against qrels.

A *run* is a named set of per-topic rankings, serialisable in the standard
six-column TREC format (``topic Q0 doc rank score run_name``).  Runs are the
interchange unit between the retrieval/simulation layers and the evaluation
harness, and persisting them makes every experiment's raw output
re-scoreable without re-running the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Union

from repro.collection.qrels import Qrels
from repro.evaluation.metrics import evaluate_ranking, mean_metric

PathLike = Union[str, Path]


@dataclass
class Run:
    """A named retrieval run: one ranking per topic."""

    name: str
    rankings: Dict[str, List[str]] = field(default_factory=dict)

    def add_topic(self, topic_id: str, ranking: Sequence[str]) -> None:
        """Set the ranking for a topic (replacing any previous one)."""
        self.rankings[topic_id] = list(ranking)

    def topics(self) -> List[str]:
        """Topic ids present in the run."""
        return sorted(self.rankings)

    def ranking_for(self, topic_id: str) -> List[str]:
        """The ranking for a topic (empty if absent)."""
        return list(self.rankings.get(topic_id, []))

    def __len__(self) -> int:
        return len(self.rankings)

    # -- persistence ---------------------------------------------------------------

    def to_trec_lines(self) -> List[str]:
        """Render in the standard TREC run format."""
        lines: List[str] = []
        for topic_id in self.topics():
            ranking = self.rankings[topic_id]
            for rank, doc_id in enumerate(ranking, start=1):
                score = len(ranking) - rank + 1
                lines.append(f"{topic_id} Q0 {doc_id} {rank} {score} {self.name}")
        return lines

    def save(self, path: PathLike) -> None:
        """Write the run to a TREC-format file."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("\n".join(self.to_trec_lines()) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: PathLike, name: str = "") -> "Run":
        """Read a run from a TREC-format file."""
        rankings: Dict[str, List[tuple]] = {}
        run_name = name
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 6:
                raise ValueError(f"malformed run line: {line!r}")
            topic_id, _q0, doc_id, rank, _score, line_name = parts
            run_name = run_name or line_name
            rankings.setdefault(topic_id, []).append((int(rank), doc_id))
        run = cls(name=run_name or "run")
        for topic_id, entries in rankings.items():
            entries.sort(key=lambda item: item[0])
            run.rankings[topic_id] = [doc_id for _rank, doc_id in entries]
        return run


@dataclass
class RunEvaluation:
    """Per-topic and aggregate metrics for one run against one qrels set."""

    run_name: str
    per_topic: Dict[str, Dict[str, float]]
    aggregate: Dict[str, float]

    def metric(self, name: str) -> float:
        """An aggregate metric by name."""
        return self.aggregate[name]

    @property
    def map(self) -> float:
        """Mean average precision."""
        return self.aggregate["average_precision"]


def evaluate_run(
    run: Run, qrels: Qrels, cutoffs: Sequence[int] = (5, 10, 20)
) -> RunEvaluation:
    """Evaluate a run against qrels.

    Topics are taken from the qrels (the judged topic set), so a run that
    skipped a judged topic scores zero on it — the same convention as
    trec_eval with ``-c``.
    """
    per_topic: Dict[str, Dict[str, float]] = {}
    for topic_id in qrels.topics():
        ranking = run.ranking_for(topic_id)
        judgements = qrels.judgements_for(topic_id)
        per_topic[topic_id] = evaluate_ranking(ranking, judgements, cutoffs=cutoffs)
    metric_names = set()
    for metrics in per_topic.values():
        metric_names.update(metrics)
    aggregate = {
        name: mean_metric(metrics.get(name, 0.0) for metrics in per_topic.values())
        for name in sorted(metric_names)
    }
    return RunEvaluation(run_name=run.name, per_topic=per_topic, aggregate=aggregate)


def compare_runs(
    evaluations: Sequence[RunEvaluation], metric: str = "average_precision"
) -> List[Dict[str, float]]:
    """Tabulate several run evaluations on one metric, best first."""
    rows = [
        {"run": evaluation.run_name, metric: evaluation.aggregate.get(metric, 0.0)}
        for evaluation in evaluations
    ]
    rows.sort(key=lambda row: -row[metric])
    return rows

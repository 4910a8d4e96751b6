"""Log-file analysis.

"Within this study, we aim to [...] analyse the resulting user interaction
logfiles. This analysis should help to understand how users interacted with
this application."  The analyser aggregates a corpus of session logs into
the statistics the paper's proposed study would report: action frequencies,
per-interface comparisons, per-indicator relevance precision, and session-
level summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.collection.qrels import Qrels
from repro.feedback.events import EventKind
from repro.feedback.indicators import INDICATOR_NAMES, IndicatorExtractor
from repro.feedback.weighting import NEGATIVE_INDICATORS
from repro.interfaces.logging import SessionLog


@dataclass
class IndicatorReliability:
    """How reliably one indicator points at relevant shots."""

    indicator: str
    firings: int
    relevant_firings: int

    @property
    def precision(self) -> float:
        """Fraction of firings that landed on a relevant shot."""
        if self.firings == 0:
            return 0.0
        return self.relevant_firings / self.firings


@dataclass
class LogAnalysisReport:
    """Aggregated statistics over a corpus of session logs."""

    session_count: int
    event_counts: Dict[str, int]
    events_per_session: float
    implicit_events_per_session: float
    explicit_events_per_session: float
    queries_per_session: float
    mean_session_duration: float
    indicator_reliability: Dict[str, IndicatorReliability] = field(default_factory=dict)

    def indicator_precision_table(self) -> List[Tuple[str, float, int]]:
        """``(indicator, precision, firings)`` rows sorted by precision."""
        rows = [
            (name, reliability.precision, reliability.firings)
            for name, reliability in self.indicator_reliability.items()
            if reliability.firings > 0
        ]
        rows.sort(key=lambda row: (-row[1], row[0]))
        return rows


class LogAnalyser:
    """Aggregates session logs into a :class:`LogAnalysisReport`."""

    def __init__(
        self,
        extractor: Optional[IndicatorExtractor] = None,
        shot_durations: Optional[Mapping[str, float]] = None,
    ) -> None:
        self._extractor = extractor or IndicatorExtractor()
        self._shot_durations = dict(shot_durations or {})

    def analyse(
        self, logs: Sequence[SessionLog], qrels: Optional[Qrels] = None
    ) -> LogAnalysisReport:
        """Analyse a corpus of logs; qrels enable indicator-reliability stats."""
        if not logs:
            return LogAnalysisReport(
                session_count=0,
                event_counts={},
                events_per_session=0.0,
                implicit_events_per_session=0.0,
                explicit_events_per_session=0.0,
                queries_per_session=0.0,
                mean_session_duration=0.0,
            )
        event_counts: Dict[str, int] = {}
        implicit_total = 0
        explicit_total = 0
        query_total = 0
        duration_total = 0.0
        reliability: Dict[str, IndicatorReliability] = {
            name: IndicatorReliability(indicator=name, firings=0, relevant_firings=0)
            for name in INDICATOR_NAMES
        }
        for log in logs:
            duration_total += log.duration_seconds()
            for event in log.events:
                event_counts[event.kind.value] = event_counts.get(event.kind.value, 0) + 1
                if event.is_implicit():
                    implicit_total += 1
                if event.is_explicit():
                    explicit_total += 1
                if event.kind is EventKind.QUERY_SUBMITTED:
                    query_total += 1
            if qrels is not None and log.topic_id:
                per_shot = self._extractor.per_shot_indicator_strengths(
                    log.events, self._shot_durations
                )
                for shot_id, strengths in per_shot.items():
                    relevant = qrels.is_relevant(log.topic_id, shot_id)
                    for indicator, strength in strengths.items():
                        if strength <= 0:
                            continue
                        entry = reliability.setdefault(
                            indicator,
                            IndicatorReliability(indicator=indicator, firings=0, relevant_firings=0),
                        )
                        entry.firings += 1
                        # Negative indicators are "reliable" when they fire on
                        # non-relevant material.
                        if indicator in NEGATIVE_INDICATORS:
                            if not relevant:
                                entry.relevant_firings += 1
                        elif relevant:
                            entry.relevant_firings += 1
        count = len(logs)
        return LogAnalysisReport(
            session_count=count,
            event_counts=event_counts,
            events_per_session=sum(event_counts.values()) / count,
            implicit_events_per_session=implicit_total / count,
            explicit_events_per_session=explicit_total / count,
            queries_per_session=query_total / count,
            mean_session_duration=duration_total / count,
            indicator_reliability=reliability,
        )

    def compare_interfaces(
        self, logs: Sequence[SessionLog], qrels: Optional[Qrels] = None
    ) -> Dict[str, LogAnalysisReport]:
        """Analyse logs grouped by interface name (the E5 comparison)."""
        grouped: Dict[str, List[SessionLog]] = {}
        for log in logs:
            grouped.setdefault(log.interface, []).append(log)
        return {
            interface: self.analyse(interface_logs, qrels=qrels)
            for interface, interface_logs in grouped.items()
        }

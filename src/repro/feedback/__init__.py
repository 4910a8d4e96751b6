"""Interaction events, implicit indicators, weighting schemes and feedback models."""

from repro.feedback.accumulator import EvidenceAccumulator
from repro.feedback.dwell import DwellObservation, DwellTimeClassifier, DwellTimeModel
from repro.feedback.events import (
    EXPLICIT_EVENT_KINDS,
    IMPLICIT_EVENT_KINDS,
    NEGATIVE_EVENT_KINDS,
    EventKind,
    EventStream,
    InteractionEvent,
)
from repro.feedback.explicit import ExplicitFeedbackStore
from repro.feedback.graph import GraphEdge, ImplicitGraph
from repro.feedback.indicators import (
    INDICATOR_NAMES,
    IndicatorExtractor,
    IndicatorObservation,
    indicator_counts,
)
from repro.feedback.weighting import (
    NEGATIVE_INDICATORS,
    IndicatorWeightLearner,
    WeightingScheme,
    binary_click_scheme,
    default_schemes,
    dwell_only_scheme,
    explicit_only_scheme,
    heuristic_scheme,
    uniform_scheme,
)

__all__ = [
    "EvidenceAccumulator",
    "DwellObservation",
    "DwellTimeClassifier",
    "DwellTimeModel",
    "EXPLICIT_EVENT_KINDS",
    "IMPLICIT_EVENT_KINDS",
    "NEGATIVE_EVENT_KINDS",
    "EventKind",
    "EventStream",
    "InteractionEvent",
    "ExplicitFeedbackStore",
    "GraphEdge",
    "ImplicitGraph",
    "INDICATOR_NAMES",
    "IndicatorExtractor",
    "IndicatorObservation",
    "indicator_counts",
    "NEGATIVE_INDICATORS",
    "IndicatorWeightLearner",
    "WeightingScheme",
    "binary_click_scheme",
    "default_schemes",
    "dwell_only_scheme",
    "explicit_only_scheme",
    "heuristic_scheme",
    "uniform_scheme",
]

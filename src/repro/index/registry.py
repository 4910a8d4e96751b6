"""The one name → text scorer map.

:class:`~repro.retrieval.engine.EngineConfig` names its scorer, and the
engine builds it here, so the built-in scorers and every
:func:`register_scorer` extension resolve through the same lookup.  A
factory takes ``(inverted_index, engine_config)`` and returns a
:class:`~repro.index.scoring.TextScorer`.
"""

from __future__ import annotations

from typing import Callable, List

from repro.index.inverted_index import InvertedIndex
from repro.index.language_model import DirichletLanguageModelScorer
from repro.index.scoring import Bm25Scorer, TextScorer, TfIdfScorer
from repro.utils.registry import ComponentRegistry

#: Text scorers: ``factory(inverted_index, engine_config) -> TextScorer``.
SCORER_REGISTRY = ComponentRegistry("scorer")


def register_scorer(
    name: str,
    factory: Callable[[InvertedIndex, "object"], TextScorer],
    *,
    overwrite: bool = False,
) -> None:
    """Register a text scorer factory ``(inverted_index, engine_config) -> TextScorer``."""
    SCORER_REGISTRY.register(name, factory, overwrite=overwrite)


def create_scorer(name: str, inverted_index: InvertedIndex, config) -> TextScorer:
    """Build the scorer registered under ``name``."""
    return SCORER_REGISTRY.create(name, inverted_index, config)


def available_scorers() -> List[str]:
    """Names of all registered scorers."""
    return SCORER_REGISTRY.names()


register_scorer(
    "bm25", lambda index, config: Bm25Scorer(index, k1=config.bm25_k1, b=config.bm25_b)
)
register_scorer("tfidf", lambda index, config: TfIdfScorer(index))
register_scorer(
    "lm", lambda index, config: DirichletLanguageModelScorer(index, mu=config.lm_mu)
)

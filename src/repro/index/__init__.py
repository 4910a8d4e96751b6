"""Retrieval substrate: tokenisation, inverted index, scorers, visual index, fusion."""

from repro.index.fusion import (
    comb_mnz,
    comb_sum,
    interpolate,
    min_max_normalise,
    reciprocal_rank_fusion,
    top_documents,
    weighted_fusion,
)
from repro.index.inverted_index import InvertedIndex, Posting
from repro.index.language_model import (
    DirichletLanguageModelScorer,
    JelinekMercerLanguageModelScorer,
)
from repro.index.scoring import (
    Bm25Scorer,
    DenseScores,
    StaleScoresError,
    TextScorer,
    TfIdfScorer,
    normalise_query,
)
from repro.index.tokenizer import Tokenizer
from repro.index.visual import VisualIndex

__all__ = [
    "comb_mnz",
    "comb_sum",
    "interpolate",
    "min_max_normalise",
    "reciprocal_rank_fusion",
    "top_documents",
    "weighted_fusion",
    "InvertedIndex",
    "Posting",
    "DirichletLanguageModelScorer",
    "JelinekMercerLanguageModelScorer",
    "Bm25Scorer",
    "DenseScores",
    "StaleScoresError",
    "TextScorer",
    "TfIdfScorer",
    "normalise_query",
    "Tokenizer",
    "VisualIndex",
]

"""Video retrieval engine: queries, results, expansion, re-ranking."""

from repro.retrieval.engine import EngineConfig, VideoRetrievalEngine
from repro.retrieval.expansion import RocchioExpander, extract_key_terms
from repro.retrieval.query import Query
from repro.retrieval.reranking import rerank_with_scores, story_scores_from_shots
from repro.retrieval.results import ResultItem, ResultList, merge_result_lists

__all__ = [
    "EngineConfig",
    "VideoRetrievalEngine",
    "RocchioExpander",
    "extract_key_terms",
    "Query",
    "rerank_with_scores",
    "story_scores_from_shots",
    "ResultItem",
    "ResultList",
    "merge_result_lists",
]

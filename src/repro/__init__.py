"""repro: reproduction of "Studying Interaction Methodologies in Video Retrieval".

The package implements an adaptive news-video retrieval system with implicit
relevance feedback, static user profiles and a simulated-user evaluation
framework, together with every substrate those pieces depend on (synthetic
TRECVID-like collection, video analysis, text/visual indexing, interface
models and an evaluation harness).

The supported entry point is the multi-user service facade:

>>> from repro import RetrievalService, SearchRequest
>>> service = RetrievalService.generate(seed=7)
>>> session = service.open_session("alice", policy="implicit")
>>> response = service.search(
...     SearchRequest(user_id="alice", query="election results",
...                   session_id=session.session_id))
>>> response.top(3)  # doctest: +SKIP

Sessions accumulate the user's implicit/explicit feedback
(``service.submit_feedback``) and every later search is adapted to it; the
lower layers (``repro.core``, ``repro.retrieval``, ...) remain importable
for code that needs the engine room directly.
"""

from repro.collection import (
    Collection,
    CollectionConfig,
    CollectionGenerator,
    Qrels,
    SyntheticCorpus,
    Topic,
    TopicSet,
    generate_corpus,
    load_corpus,
    save_corpus,
)
from repro.core import (
    AdaptationPolicy,
    baseline_policy,
    combined_policy,
    implicit_only_policy,
    profile_only_policy,
)
from repro.retrieval import EngineConfig, Query, ResultList, VideoRetrievalEngine
from repro.service import (
    FeedbackBatch,
    RetrievalService,
    SearchHit,
    SearchRequest,
    SearchResponse,
    ServiceConfig,
    SessionExpiredError,
    SessionInfo,
    SessionManager,
    SessionNotFoundError,
    UnknownComponentError,
    available_policies,
    available_scorers,
    available_weighting_schemes,
    register_policy,
    register_scorer,
    register_weighting_scheme,
)
from repro.workload import (
    LoadResult,
    ServiceLoadDriver,
    WorkloadSpec,
    generate_workload,
)

__version__ = "1.2.0"

__all__ = [
    # collection substrate
    "Collection",
    "CollectionConfig",
    "CollectionGenerator",
    "Qrels",
    "SyntheticCorpus",
    "Topic",
    "TopicSet",
    "generate_corpus",
    "load_corpus",
    "save_corpus",
    # adaptation policies
    "AdaptationPolicy",
    "baseline_policy",
    "profile_only_policy",
    "implicit_only_policy",
    "combined_policy",
    # engine-room types
    "EngineConfig",
    "Query",
    "ResultList",
    "VideoRetrievalEngine",
    # service facade
    "RetrievalService",
    "ServiceConfig",
    "SearchRequest",
    "SearchResponse",
    "SearchHit",
    "FeedbackBatch",
    "SessionInfo",
    "SessionManager",
    "SessionExpiredError",
    "SessionNotFoundError",
    "UnknownComponentError",
    "available_policies",
    "available_scorers",
    "available_weighting_schemes",
    "register_policy",
    "register_scorer",
    "register_weighting_scheme",
    # workload harness
    "LoadResult",
    "ServiceLoadDriver",
    "WorkloadSpec",
    "generate_workload",
    "__version__",
]

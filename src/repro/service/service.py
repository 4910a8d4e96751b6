"""The :class:`RetrievalService` facade: the package's public entry point.

One service owns one corpus and everything built over it — the multimodal
engine, the adaptive retrieval system, and a bounded pool of per-user
sessions — behind a typed, multi-user API:

>>> from repro.service import RetrievalService, SearchRequest
>>> service = RetrievalService.generate(seed=7)
>>> info = service.open_session("alice", policy="implicit")
>>> response = service.search(SearchRequest(user_id="alice", query="election"))

Every entry point of the repository (CLI, examples, experiment runner,
benchmarks) goes through this facade, so that "baseline vs adaptive" and
"sequential vs batch" comparisons always run on the same substrate under
different configurations.

Concurrency model
-----------------

The service is safe to call from many threads at once, and independent
sessions never serialise behind each other:

* Every :class:`~repro.service.sessions.ManagedSession` carries its own
  lock; one request against a session holds that lock for the duration of
  its work, so requests targeting the *same* session execute in arrival
  order while requests targeting *different* sessions run in parallel.
* The engine and its indexes are read-mostly.  Searches take the shared
  side of the engine's read/write discipline (they never block one
  another; state derived from the indexes lives for one index
  ``generation``), and index mutation goes through the engine's exclusive
  writer path (:meth:`index_documents`), which drains in-flight searches
  first.
* The session registry's own lock is held only for map operations —
  lookup, insert, pop — never across session work, so session management
  cannot become the global bottleneck it was when the whole service
  serialised behind one lock.
* :meth:`search_batch` partitions a batch by target session and fans the
  per-session partitions out over a thread pool (``max_workers``);
  responses are bit-identical to sequential execution because per-session
  order is preserved and the engine is deterministic.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.collection.documents import Collection
from repro.collection.generator import CollectionConfig, SyntheticCorpus, generate_corpus
from repro.collection.qrels import Qrels
from repro.collection.storage import PathLike, StoredCorpus, load_corpus
from repro.collection.topics import TopicSet
from repro.core.adaptive import AdaptiveSession, AdaptiveVideoRetrievalSystem
from repro.core.policies import AdaptationPolicy
from repro.durability.manager import DurabilityManager
from repro.durability.recovery import (
    RecoveredState,
    RecoveryManager,
    build_monolithic_indexes,
)
from repro.errors import InvalidArgumentError
from repro.feedback.events import InteractionEvent
from repro.feedback.weighting import WeightingScheme
from repro.index.inverted_index import InvertedIndex
from repro.index.tokenizer import Tokenizer
from repro.profiles.ontology import InterestOntology
from repro.profiles.profile import UserProfile
from repro.retrieval.engine import VideoRetrievalEngine
from repro.service.config import ServiceConfig
from repro.service.registry import create_policy, create_weighting_scheme
from repro.service.sessions import (
    ManagedSession,
    SessionExpiredError,
    SessionManager,
    SessionNotFoundError,
)
from repro.service.types import (
    FeedbackBatch,
    SearchRequest,
    SearchResponse,
    SessionInfo,
)
from repro.utils.validation import ensure_number, ensure_positive

#: A corpus the service can be built from directly.
CorpusLike = Union[SyntheticCorpus, StoredCorpus]

#: How often a request retries resolving an implicitly addressed session
#: that keeps being evicted underneath it before giving up.  Hitting this
#: bound requires pathological capacity pressure (every freshly opened
#: session evicted before its first use).
_RESOLVE_RETRIES = 8


def build_engine(
    collection: Collection,
    config: ServiceConfig,
    recovered: Optional[RecoveredState] = None,
    tokenizer: Optional[Tokenizer] = None,
) -> VideoRetrievalEngine:
    """Build the engine a :class:`ServiceConfig` describes over a collection.

    When ``recovered`` is given, the indexes are rebuilt from the recovered
    insertion sequence instead of the collection (the collection then only
    decorates results) — the exact construction a durable service performs
    on restart.  Factored out of :class:`RetrievalService` so read replicas
    (:mod:`repro.replication`) build bit-identical engines through the very
    same path, without owning sessions or a durability manager.

    Every engine holds one :class:`~repro.index.inverted_index.
    InvertedIndex` and the one scorer ``config.engine`` names.
    """
    tokenizer = tokenizer or Tokenizer()
    if recovered is not None:
        inverted_index, visual_index = build_monolithic_indexes(
            recovered, tokenizer=tokenizer
        )
    else:
        inverted_index = InvertedIndex.from_collection(collection, tokenizer=tokenizer)
        visual_index = None
    return VideoRetrievalEngine(
        collection,
        inverted_index=inverted_index,
        visual_index=visual_index,
        config=config.engine,
        tokenizer=tokenizer,
    )


class RetrievalService:
    """Multi-user adaptive retrieval over one collection.

    The service resolves its scorer, default policy and default weighting
    scheme by name through the component registries, hands out per-user
    adaptive sessions through a thread-safe LRU :class:`SessionManager`,
    and exposes search/feedback as frozen request/response values.  All
    public methods are thread-safe; see the module docstring for the
    locking discipline.
    """

    def __init__(
        self,
        collection: Collection,
        topics: Optional[TopicSet] = None,
        qrels: Optional[Qrels] = None,
        config: Optional[ServiceConfig] = None,
        ontology: Optional[InterestOntology] = None,
    ) -> None:
        self._config = config or ServiceConfig()
        self._collection = collection
        self._topics = topics
        self._qrels = qrels
        tokenizer = Tokenizer()

        # Durable services recover existing state before building anything:
        # the recovered insertion sequence replaces the collection as the
        # index substrate (the collection then only decorates results).
        recovered: Optional[RecoveredState] = None
        durability_dir = self._config.durability_dir
        if durability_dir is not None and DurabilityManager.has_state(durability_dir):
            recovered = RecoveryManager(durability_dir).recover()

        self._engine: VideoRetrievalEngine = build_engine(
            collection, self._config, recovered=recovered, tokenizer=tokenizer
        )

        if durability_dir is not None:
            if recovered is not None:
                durability = DurabilityManager.attach(
                    durability_dir,
                    recovered,
                    fsync_policy=self._config.fsync_policy,
                    snapshot_interval_ops=self._config.snapshot_interval_ops,
                )
            else:
                durability = DurabilityManager.create(
                    durability_dir,
                    self._engine,
                    fsync_policy=self._config.fsync_policy,
                    snapshot_interval_ops=self._config.snapshot_interval_ops,
                )
            self._engine.attach_durability(durability)

        self._system = AdaptiveVideoRetrievalSystem(self._engine, ontology=ontology)
        self._sessions = SessionManager(self._config.max_sessions)

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_corpus(
        cls,
        corpus: CorpusLike,
        config: Optional[ServiceConfig] = None,
        ontology: Optional[InterestOntology] = None,
    ) -> "RetrievalService":
        """Build a service over a generated or reloaded corpus."""
        return cls(
            collection=corpus.collection,
            topics=corpus.topics,
            qrels=corpus.qrels,
            config=config,
            ontology=ontology,
        )

    @classmethod
    def from_directory(
        cls, directory: PathLike, config: Optional[ServiceConfig] = None
    ) -> "RetrievalService":
        """Build a service over a corpus saved by ``save_corpus``/``repro generate``."""
        return cls.from_corpus(load_corpus(directory), config=config)

    @classmethod
    def generate(
        cls,
        seed: int = 13,
        collection_config: Optional[CollectionConfig] = None,
        config: Optional[ServiceConfig] = None,
    ) -> "RetrievalService":
        """Generate a synthetic corpus and build a service over it."""
        corpus = generate_corpus(seed=seed, config=collection_config or CollectionConfig())
        return cls.from_corpus(corpus, config=config)

    # -- accessors ----------------------------------------------------------------

    @property
    def config(self) -> ServiceConfig:
        """The service configuration."""
        return self._config

    @property
    def collection(self) -> Collection:
        """The collection being served."""
        return self._collection

    @property
    def topics(self) -> Optional[TopicSet]:
        """The corpus topics, when the service was built from a corpus."""
        return self._topics

    @property
    def qrels(self) -> Optional[Qrels]:
        """The corpus relevance judgements, when available."""
        return self._qrels

    @property
    def engine(self) -> VideoRetrievalEngine:
        """The underlying multimodal engine (read-mostly substrate)."""
        return self._engine

    @property
    def system(self) -> AdaptiveVideoRetrievalSystem:
        """The underlying adaptive system.

        Exposed for infrastructure that needs to create sessions with fully
        custom policy/scheme *objects* (e.g. the experiment runner); regular
        callers should use :meth:`open_session` with registered names.
        """
        return self._system

    @property
    def session_count(self) -> int:
        """Number of live sessions."""
        return len(self._sessions)

    # -- session lifecycle ---------------------------------------------------------

    def _resolve_policy(
        self, policy: Union[str, AdaptationPolicy, None]
    ) -> tuple:
        if policy is None:
            policy = self._config.policy
        if isinstance(policy, str):
            return policy, create_policy(policy)
        return policy.name, policy

    def _resolve_scheme(
        self, scheme: Union[str, WeightingScheme, None]
    ) -> tuple:
        if scheme is None:
            scheme = self._config.weighting_scheme
        if isinstance(scheme, str):
            return scheme, create_weighting_scheme(scheme)
        return scheme.name, scheme

    def open_session(
        self,
        user_id: str,
        policy: Union[str, AdaptationPolicy, None] = None,
        scheme: Union[str, WeightingScheme, None] = None,
        topic_id: Optional[str] = None,
        profile: Optional[UserProfile] = None,
        result_limit: Optional[int] = None,
    ) -> SessionInfo:
        """Open an adaptive session for a user and return its snapshot.

        ``policy`` and ``scheme`` may be registered names or pre-built
        objects; defaults come from the service config.  Opening a session
        beyond ``max_sessions`` evicts the least recently used one (after
        any request currently running against the victim completes).
        """
        if not user_id:
            raise InvalidArgumentError("user_id must be non-empty")
        if result_limit is not None:
            ensure_number(result_limit, "result_limit", positive=True, integer=True)
        policy_name, policy_obj = self._resolve_policy(policy)
        scheme_name, scheme_obj = self._resolve_scheme(scheme)
        limit = result_limit or self._config.engine.result_limit
        session = self._system.create_session(
            profile=profile or UserProfile(user_id=user_id),
            policy=policy_obj,
            scheme=scheme_obj,
            topic_id=topic_id,
            result_limit=limit,
        )
        entry = ManagedSession(
            session_id=self._sessions.next_session_id(user_id),
            user_id=user_id,
            session=session,
            policy_name=policy_name,
            scheme_name=scheme_name,
            result_limit=limit,
        )
        self._sessions.add(entry)
        return entry.info()

    def session_info(self, session_id: str) -> SessionInfo:
        """Snapshot of a session's state (does not refresh LRU recency)."""
        return self._sessions.get(session_id, touch=False).info()

    def list_sessions(self, user_id: Optional[str] = None) -> List[SessionInfo]:
        """Snapshots of all live sessions, optionally for one user."""
        entries = self._sessions.for_user(user_id) if user_id else self._sessions.all()
        return [entry.info() for entry in entries]

    def close_session(self, session_id: str) -> SessionInfo:
        """Close a session and return its final snapshot.

        Waits for any request currently running against the session, so the
        snapshot reflects every completed request.
        """
        return self._sessions.close(session_id).info()

    def adaptive_session(self, session_id: str) -> AdaptiveSession:
        """The live core session behind a session id.

        An escape hatch for in-process drivers (e.g. the session simulator)
        that need to step a session directly; remote callers only ever see
        :class:`SessionInfo`.
        """
        return self._sessions.get(session_id, touch=False).session

    # -- request resolution ---------------------------------------------------------

    def _entry_for(
        self,
        user_id: str,
        session_id: Optional[str],
        topic_id: Optional[str] = None,
    ) -> ManagedSession:
        """The session a request targets, opening one when needed."""
        if session_id is not None:
            entry = self._sessions.get(session_id)
            if entry.user_id != user_id:
                raise PermissionError(
                    f"session {session_id!r} belongs to user {entry.user_id!r}, "
                    f"not {user_id!r}"
                )
            return entry
        entry = self._sessions.latest_for_user(user_id)
        if entry is not None and (topic_id is None or entry.session.topic_id == topic_id):
            try:
                # Refresh recency just like the explicit-session path, so a
                # session in active implicit use is not the LRU eviction victim.
                return self._sessions.get(entry.session_id)
            except SessionNotFoundError:
                # Evicted or closed by a concurrent thread between the scan
                # and the touch; fall through and open a fresh session.
                pass
        info = self.open_session(user_id, topic_id=topic_id)
        try:
            return self._sessions.get(info.session_id)
        except SessionNotFoundError:
            # The freshly opened session was itself evicted before first
            # use (extreme capacity pressure).  Surface as expiry so the
            # implicit-addressing retry loop in _locked_entry spins again.
            raise SessionExpiredError(info.session_id) from None

    @contextmanager
    def _locked_entry(
        self,
        user_id: str,
        session_id: Optional[str],
        topic_id: Optional[str] = None,
    ) -> Iterator[ManagedSession]:
        """Resolve a request's session and hold its lock for the scope.

        Resolution and locking race with LRU eviction: between ``get`` and
        acquiring the session lock the entry may be marked evicted (or
        closed).  Explicitly addressed sessions surface that as
        :class:`SessionExpiredError` / :class:`SessionNotFoundError`;
        implicitly addressed requests simply resolve again, which opens a
        fresh session for the user.
        """
        last_session_id: Optional[str] = None
        for _ in range(_RESOLVE_RETRIES):
            try:
                entry = self._entry_for(user_id, session_id, topic_id)
            except SessionExpiredError as error:
                if session_id is not None:
                    raise
                last_session_id = error.session_id
                continue  # implicit addressing: resolve a replacement
            last_session_id = entry.session_id
            with entry.lock:
                if entry.is_active:
                    yield entry
                    return
                if session_id is not None:
                    entry.raise_if_inactive()
            # Implicit addressing: the resolved session died underneath us;
            # retry, which will open a replacement.
        raise SessionExpiredError(
            last_session_id or "<none>",
            detail=(
                f"session resolution for user {user_id!r} lost to LRU "
                f"eviction {_RESOLVE_RETRIES} times in a row (last session "
                f"{last_session_id!r}); the session pool is undersized for "
                f"the concurrent load"
            ),
        )

    # -- search -----------------------------------------------------------------------

    def _respond(self, entry: ManagedSession, request: SearchRequest) -> SearchResponse:
        """Run one search on an entry whose lock the caller already holds."""
        with self._engine.read_access():
            results = entry.session.submit_query(request.query, limit=request.limit)
        return SearchResponse.from_result_list(
            results,
            session_id=entry.session_id,
            user_id=entry.user_id,
            iteration=entry.session.iteration_count,
            policy=entry.policy_name,
        )

    def search(self, request: SearchRequest) -> SearchResponse:
        """Run one adapted search for one user.

        Holds only the target session's lock: concurrent searches for
        different sessions proceed in parallel against the shared index.
        """
        with self._locked_entry(
            request.user_id, request.session_id, request.topic_id
        ) as entry:
            return self._respond(entry, request)

    def search_text(
        self,
        user_id: str,
        query: str,
        session_id: Optional[str] = None,
        topic_id: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> SearchResponse:
        """Convenience wrapper building the :class:`SearchRequest` inline."""
        return self.search(
            SearchRequest(
                user_id=user_id,
                query=query,
                session_id=session_id,
                topic_id=topic_id,
                limit=limit,
            )
        )

    def _resolve_batch(
        self, requests: Sequence[SearchRequest]
    ) -> List[ManagedSession]:
        """Bind every batch request to its session, in request order.

        Resolution is sequential and happens before any search runs, so
        implicit session opening (including LRU eviction) is deterministic
        regardless of how many workers later execute the searches.
        """
        entries: List[ManagedSession] = []
        for request in requests:
            entries.append(
                self._entry_for(request.user_id, request.session_id, request.topic_id)
            )
        return entries

    def search_batch(
        self,
        requests: Sequence[SearchRequest],
        max_workers: Optional[int] = None,
    ) -> List[SearchResponse]:
        """Run many search requests, amortising and parallelising shared work.

        The batch is first *bound*: every request is resolved to its target
        session sequentially in request order (so implicit session opening
        is deterministic), then partitioned by session.  With
        ``max_workers`` greater than 1 the per-session partitions execute
        on a :class:`~concurrent.futures.ThreadPoolExecutor` — requests for
        the same session stay in submission order under that session's
        lock, while different sessions' requests run concurrently.  With
        ``max_workers`` of ``None``/``1`` the partitions run on the calling
        thread, one partition at a time (per-session order and response
        order are preserved; cross-session interleaving is not).

        Repeated engine queries within the batch — typically many users
        issuing the same query before feedback diverges them — are served
        by the engine's persistent result cache like any other repeat
        (racing threads that miss on the same key evaluate the same
        deterministic result); with ``result_cache_size=0`` each repeat is
        evaluated again, with the same answer.  Responses are returned in
        request order and are bit-identical (ids and scores) to issuing
        the same requests sequentially through :meth:`search`, because
        per-session execution order is preserved and the engine is
        deterministic.

        The bit-identical guarantee assumes the session pool does not
        overflow during the batch; under capacity pressure an implicitly
        addressed request whose bound session is evicted mid-batch is
        re-resolved onto a fresh session (exactly as sequential
        :meth:`search` would), while an explicitly addressed one raises
        :class:`SessionExpiredError`.
        """
        requests = list(requests)
        if max_workers is not None:
            ensure_positive(max_workers, "max_workers")
        entries = self._resolve_batch(requests)
        responses: List[Optional[SearchResponse]] = [None] * len(requests)

        # Partition by session, preserving request order within a partition.
        partitions: "Dict[str, List[Tuple[int, SearchRequest, ManagedSession]]]" = {}
        for index, (request, entry) in enumerate(zip(requests, entries)):
            partitions.setdefault(entry.session_id, []).append((index, request, entry))

        def run_partition(
            partition: List[Tuple[int, SearchRequest, ManagedSession]]
        ) -> None:
            for index, request, entry in partition:
                served = False
                with entry.lock:
                    if entry.is_active:
                        responses[index] = self._respond(entry, request)
                        served = True
                    elif request.session_id is not None:
                        entry.raise_if_inactive()
                if not served:
                    # The bound session lost to LRU eviction mid-batch (e.g.
                    # a later bind overflowed the pool).  The request was
                    # implicitly addressed, so do what sequential search()
                    # does: resolve a replacement session and serve it.
                    responses[index] = self.search(request)

        workers = max_workers or 1
        if workers <= 1 or len(partitions) <= 1:
            for partition in partitions.values():
                run_partition(partition)
        else:
            pool_size = min(workers, len(partitions))
            with ThreadPoolExecutor(
                max_workers=pool_size, thread_name_prefix="search-batch"
            ) as pool:
                futures = [
                    pool.submit(run_partition, partition)
                    for partition in partitions.values()
                ]
                for future in futures:
                    future.result()
        # Every partition either filled all of its slots or raised (and the
        # exception propagated above), so the response list is complete.
        return [response for response in responses if response is not None]

    # -- feedback ------------------------------------------------------------------------

    def submit_feedback(self, batch: FeedbackBatch) -> SessionInfo:
        """Route a user's interaction events into their session.

        Serialises against other requests on the same session only; the
        returned snapshot reflects the batch.  If the session is evicted
        while the batch is mid-flight, the batch still completes (eviction
        waits for the session lock); a batch arriving *after* eviction gets
        :class:`SessionExpiredError`.  Feedback adapts the session only, so
        a durable service writes nothing for it: its directory holds index
        state, and sessions start afresh after a restart.
        """
        with self._locked_entry(batch.user_id, batch.session_id) as entry:
            with self._engine.read_access():
                entry.session.observe(batch.events)
            return entry.info()

    def observe(
        self,
        user_id: str,
        events: Iterable[InteractionEvent],
        session_id: Optional[str] = None,
    ) -> SessionInfo:
        """Convenience wrapper building the :class:`FeedbackBatch` inline."""
        return self.submit_feedback(
            FeedbackBatch(user_id=user_id, events=tuple(events), session_id=session_id)
        )

    # -- teardown ----------------------------------------------------------------------

    def close(self) -> None:
        """Release the engine's auxiliary resources (idempotent).

        Syncs and closes a durable service's write-ahead log; an
        in-memory service remains usable afterwards, so closing is safe
        even with sessions still open.  The service is also a context
        manager: ``with RetrievalService...``.
        """
        self._engine.close()

    def __enter__(self) -> "RetrievalService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- corpus mutation (exclusive writer path) -------------------------------------------

    def index_documents(self, documents: Mapping[str, str]) -> None:
        """Add transcript documents to the live text index.

        Takes the engine's exclusive writer path: in-flight searches drain
        first, new searches wait for the mutation, and the index generation
        bump invalidates every derived cache — so no search ever observes a
        half-applied mutation.
        """
        self._engine.index_documents(documents)

    def index_shot(
        self,
        shot_id: str,
        features: Sequence[float],
        concept_scores: Optional[Mapping[str, float]] = None,
    ) -> None:
        """Add one shot's visual evidence to the live visual index.

        Same exclusive-writer discipline (and, on a durable service, the
        same WAL-before-apply ordering) as :meth:`index_documents`.
        """
        self._engine.index_shot(shot_id, features, concept_scores)

    def delete_document(self, document_id: str) -> None:
        """Delete one transcript document from the live text index.

        Same exclusive-writer discipline as :meth:`index_documents`; on a
        durable service the delete is WAL-logged before it is applied, so
        recovery and replicas replay it.  Unknown ids raise ``KeyError``.
        """
        self._engine.delete_document(document_id)

    def update_document(self, document_id: str, text: str) -> None:
        """Replace one transcript document's text (delete + re-add)."""
        self._engine.update_document(document_id, text)

    def delete_shot(self, shot_id: str) -> None:
        """Delete one shot's visual evidence from the live visual index."""
        self._engine.delete_shot(shot_id)

    def compact(self):
        """Reclaim tombstoned index slots (see :meth:`VideoRetrievalEngine.compact`).

        Rankings are bit-identical before and after; safe to call while
        other threads search and write.  Returns the
        :class:`~repro.index.compaction.CompactionStats` of the pass.
        """
        return self._engine.compact()

    # -- recommendations ------------------------------------------------------------------

    def recommend(
        self,
        user_id: str,
        session_id: Optional[str] = None,
        limit: int = 10,
    ) -> SearchResponse:
        """Shots recommended from a session's accumulated positive evidence."""
        ensure_positive(limit, "limit")
        with self._locked_entry(user_id, session_id) as entry:
            with self._engine.read_access():
                results = entry.session.recommendations(limit=limit)
            return SearchResponse.from_result_list(
                results,
                session_id=entry.session_id,
                user_id=entry.user_id,
                iteration=entry.session.iteration_count,
                policy=entry.policy_name,
            )

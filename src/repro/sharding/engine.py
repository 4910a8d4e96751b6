"""Scatter-gather text retrieval over hash-partitioned index shards.

:class:`ShardedEngine` is a :class:`~repro.retrieval.engine.
VideoRetrievalEngine` whose text substrate is partitioned: documents are
hash-routed onto N per-shard inverted indexes, every text query scatters
to one scorer per shard (each built over a :class:`~repro.sharding.global_stats.
GlobalStatsView`, so idf / average-length / collection-probability inputs
are global), and the gathered partial score maps are concatenated into one
:class:`~repro.index.scoring.DenseScores` holding exactly the scores the
monolithic engine computes — no per-shard dict and no merged dict is built.
Because the union happens *before* fusion, the engine's inherited fusion,
normalisation, top-k selection, result caches and read/write locking all
run unchanged — the sharded ranking is bit-identical to the unsharded one
by construction, a property pinned by ``tests/test_sharding_equivalence.py``.

Where a text scatter runs is decided per query from the live shard scorers:
the scatter pool is used only when :attr:`ShardedTextScorer.may_block`,
i.e. some scorer ``may_block`` (see :class:`~repro.index.scoring.
TextScorer`; wrappers and registered scorers do unless they say
otherwise), because only a wait can overlap under the GIL.  The built-in
kernels are in-memory, so their shards are scored inline on the calling
thread.  The same property feeds :attr:`~repro.retrieval.engine.
VideoRetrievalEngine.may_block`, which the serving edge reads to evaluate
such a request on the event loop's own thread: no thread hop at all.

Shots are not partitioned.  The engine keeps them in one
:class:`~repro.index.visual.VisualIndex`, exactly as the monolithic engine
does, so visual and concept evidence, and the one
:class:`~repro.index.visual.NeighbourTable` behind ``similar_to_shot``,
are the monolithic code path itself; no read of them starts a thread.

Writes inherit the engine's exclusive-writer discipline: ``index_document``
/ ``index_documents`` drain in-flight searches, route each id to its owning
shard, and bump that shard's generation — which moves the text facade's
combined generation and invalidates every derived cache (global df/cf
sums, scorer term caches and length norms, engine result caches) in one
stroke.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence

from repro.collection.documents import Collection
from repro.index.language_model import DirichletLanguageModelScorer
from repro.index.scoring import (
    Bm25Scorer,
    DenseScores,
    QueryTerms,
    TextScorer,
    TfIdfScorer,
)
from repro.index.tokenizer import Tokenizer
from repro.index.visual import VisualIndex
from repro.retrieval.engine import EngineConfig, VideoRetrievalEngine
from repro.sharding.global_stats import GlobalStatsView
from repro.sharding.router import ShardRouter
from repro.sharding.views import ShardedInvertedIndex
from repro.utils.concurrency import ScatterGather, checkpoint_if_cancelled

#: ``observer(elapsed_seconds, num_shards)`` called after each completed
#: scatter-gather fan-out (serving metrics hook; never called on failure).
FanoutObserver = Callable[[float, int], None]

#: ``factory(stats_view) -> TextScorer`` building one shard's scorer.
ShardScorerFactory = Callable[[GlobalStatsView], TextScorer]


class ShardedTextScorer(TextScorer):
    """Scatter a text query across per-shard scorers and union the maps.

    Shards partition the document space, so the per-shard score maps are
    disjoint and the union is a concatenation of their dense parts
    (:meth:`~repro.index.scoring.DenseScores.union`) — no score arithmetic
    happens at the gather, which is what keeps the gathered scores
    bit-identical to the monolithic evaluation (each shard already scored
    its documents with global statistics).

    ``shard_scorers`` is exposed as the live list so the fault-injection
    suite can wrap or replace individual shards; the list is re-read on
    every query, so replacing a scorer also re-decides inline vs pool.
    """

    def __init__(
        self, shard_scorers: Sequence[TextScorer], gather: ScatterGather
    ) -> None:
        self._scorers = list(shard_scorers)
        self._gather = gather
        self._fanout_observer: Optional[FanoutObserver] = None

    @property
    def shard_scorers(self) -> List[TextScorer]:
        """The live per-shard scorer list (mutable, for fault injection)."""
        return self._scorers

    @property
    def may_block(self) -> bool:
        """True when some live shard scorer may block.

        An absent attribute counts as ``True`` (wrapped, registered and
        duck-typed scorers), and the list is read on every call, so
        replacing a shard changes the answer for the very next query.
        """
        return any(getattr(scorer, "may_block", True) for scorer in self._scorers)

    def set_fanout_observer(self, observer: Optional[FanoutObserver]) -> None:
        """Install (or clear) the fan-out timing callback.

        The observer receives ``(elapsed_seconds, num_shards)`` once per
        *completed* scatter; cancelled or failed fan-outs are not reported.
        """
        self._fanout_observer = observer

    def score(self, query_terms: QueryTerms) -> DenseScores:
        """Gathered scores for all matching documents across shards.

        The pool is used only when :attr:`may_block` — a stalled shard then
        overlaps the others and the gather's token poll bounds how long a
        fired deadline waits for it.  In-memory kernels are pure CPU under
        the GIL, where a pool hand-off costs more than a shard's score, so
        they run inline on the calling thread (which, behind the serving
        edge, is the event loop's own) with a cancellation checkpoint
        before each shard.
        """
        started = time.perf_counter()
        scorers = self._scorers
        if self.may_block:
            # ``ScatterGather.map`` resolves the caller's thread-local
            # cancellation token, so a deadline firing mid-scatter abandons
            # the fan-out and queued shard sub-tasks free their slots.
            partials = self._gather.map(
                lambda scorer: scorer.score(query_terms), scorers
            )
        else:
            partials = []
            for scorer in scorers:
                checkpoint_if_cancelled()
                partials.append(scorer.score(query_terms))
        scores = DenseScores.union(partials)
        observer = self._fanout_observer
        if observer is not None:
            observer(time.perf_counter() - started, len(scorers))
        return scores


def _shard_scorer_from_config(
    view: GlobalStatsView, config: EngineConfig
) -> TextScorer:
    """The built-in scorer named by an engine config, over one shard view."""
    if config.scorer == "bm25":
        return Bm25Scorer(view, k1=config.bm25_k1, b=config.bm25_b)
    if config.scorer == "tfidf":
        return TfIdfScorer(view)
    return DirichletLanguageModelScorer(view, mu=config.lm_mu)


class ShardedEngine(VideoRetrievalEngine):
    """Multimodal search with its text scatter-gathered over N index shards.

    Construction partitions the collection's transcripts and builds one
    text scorer per shard over a global-statistics view; the shots go into
    one :class:`~repro.index.visual.VisualIndex`.  ``shard_scorer_factory``
    lets the service build registry-resolved scorers per shard; by default
    the engine config's built-in scorer name is used.  Prebuilt indexes
    (the crash-recovery path hands in indexes rebuilt from a snapshot + WAL
    replay) are used as they are.
    """

    def __init__(
        self,
        collection: Collection,
        config: EngineConfig = EngineConfig(),
        tokenizer: Optional[Tokenizer] = None,
        num_shards: int = 2,
        router: Optional[ShardRouter] = None,
        shard_scorer_factory: Optional[ShardScorerFactory] = None,
        text_index: Optional[ShardedInvertedIndex] = None,
        visual_index: Optional[VisualIndex] = None,
    ) -> None:
        tokenizer = tokenizer or Tokenizer()
        if text_index is None:
            text_index = ShardedInvertedIndex.from_collection(
                collection, router or ShardRouter(num_shards), tokenizer=tokenizer
            )
        gather = ScatterGather(text_index.router.num_shards, thread_name_prefix="shard")
        factory = shard_scorer_factory or (
            lambda view: _shard_scorer_from_config(view, config)
        )
        shard_scorers = [
            factory(GlobalStatsView(shard, text_index))
            for shard in text_index.shard_indexes
        ]
        super().__init__(
            collection,
            inverted_index=text_index,
            visual_index=visual_index,
            config=config,
            tokenizer=tokenizer,
            text_scorer=ShardedTextScorer(shard_scorers, gather),
        )
        self._gather = gather

    # -- sharding accessors -------------------------------------------------------

    @property
    def router(self) -> ShardRouter:
        """The id router deciding which shard owns a document."""
        return self._inverted_index.router

    @property
    def num_shards(self) -> int:
        """How many shards the substrate is partitioned into."""
        return self._inverted_index.router.num_shards

    @property
    def text_scorer(self) -> ShardedTextScorer:
        """The scatter-gather text scorer (per-shard list is mutable)."""
        return self._text_scorer

    @property
    def sharded_inverted_index(self) -> ShardedInvertedIndex:
        """The text facade, typed (same object as :attr:`inverted_index`)."""
        return self._inverted_index

    def shard_document_counts(self) -> List[int]:
        """Documents per text shard (balance reporting, benchmarks)."""
        return self._inverted_index.shard_document_counts()

    def set_fanout_observer(self, observer: Optional[FanoutObserver]) -> None:
        """Install the scatter fan-out timing callback on the text scorer."""
        self._text_scorer.set_fanout_observer(observer)

    def close(self) -> None:
        """Shut down the scatter pool and durability."""
        super().close()
        self._gather.close()

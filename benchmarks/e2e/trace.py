"""Spans around the layers' public methods, recorded from outside ``src/``.

A :class:`Tracer` replaces a method on a *live object* (``setattr`` on the
instance, never on a class) with a wrapper that records one span per call:
``[name, start, end, parent, request, count]``.  Parents come from a
thread-local stack; a call that crosses threads (the serving edge's worker
pool, the shard scatter pool) finds its parent through the identity of an
argument both sides see.  Spans stay in memory and are written out when
the run ends.  Self time is a span's duration minus the part of it its
child spans cover (children on several threads may overlap).
"""

from __future__ import annotations

import inspect
import json
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e.metrics import median, percentile

# Span fields, by position.  PARENT and REQUEST hold span records (or None).
NAME, START, END, PARENT, REQUEST, COUNT = range(6)


class Tracer:
    """Records spans; owns the wrappers it installed so they can be removed."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._links: Dict[int, list] = {}
        self._installed: List[Tuple[object, str]] = []

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, parent: Optional[list]) -> list:
        # Spans point at their parent and root *records*, so recording needs
        # no lock and no ids: list.append is atomic.
        span = [name, 0.0, 0.0, parent, None, 0]
        span[REQUEST] = parent[REQUEST] if parent is not None else span
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def wrap(
        self,
        target: object,
        attribute: str,
        name: str,
        link: Optional[int] = None,
        adopt: Optional[int] = None,
        keep: Optional[Callable[[object], bool]] = None,
        count: Optional[Callable[[tuple, object], object]] = None,
    ) -> None:
        """Record a span named ``name`` around ``target.attribute(...)``.

        ``link`` / ``adopt`` are positional-argument indexes: the wrapper
        publishes its span under ``id(args[link])`` for the duration of the
        call, and a wrapper on another thread whose ``args[adopt]`` is the
        same object takes that span as its parent.  ``keep(result)`` false
        drops the span (a no-op call); ``count(args, result)`` stores exact
        work counts on it, computed after the span has closed.  A call made
        from inside a span of the same name (``update`` = ``delete`` +
        ``add``) is not recorded again.
        """
        inner = getattr(target, attribute)
        tracer = self

        if inspect.iscoroutinefunction(inner):
            # Tasks interleave on the loop thread, so an awaited span is
            # never pushed on the thread-local stack.
            async def traced_async(*args, **kwargs):
                span = tracer._open(name, None)
                key = id(args[link]) if link is not None else None
                if key is not None:
                    tracer._links[key] = span
                try:
                    return await inner(*args, **kwargs)
                finally:
                    span[END] = perf_counter()
                    if key is not None:
                        tracer._links.pop(key, None)

            setattr(target, attribute, traced_async)
        else:

            def traced(*args, **kwargs):
                stack = tracer._stack()
                if stack:
                    parent = stack[-1]
                    if parent[NAME] == name:
                        return inner(*args, **kwargs)
                else:
                    parent = tracer._links.get(id(args[adopt])) if adopt is not None else None
                span = tracer._open(name, parent)
                stack.append(span)
                key = id(args[link]) if link is not None else None
                if key is not None:
                    tracer._links[key] = span
                try:
                    result = inner(*args, **kwargs)
                finally:
                    span[END] = perf_counter()
                    stack.pop()
                    if key is not None:
                        tracer._links.pop(key, None)
                if keep is not None and not keep(result):
                    span[NAME] = None
                elif count is not None:
                    span[COUNT] = count(args, result)
                return result

            setattr(target, attribute, traced)
        self._installed.append((target, attribute))

    def uninstall(self) -> None:
        """Remove every wrapper (the class's own method shows through again)."""
        for target, attribute in self._installed:
            delattr(target, attribute)
        self._installed.clear()

    def write(self, path: str) -> None:
        """Write the kept spans as JSON lines: id, name, start, end, parent, request, count."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                if span[NAME] is None:
                    continue
                parent = ids[id(span[PARENT])] if span[PARENT] is not None else None
                handle.write(
                    json.dumps(
                        [index, span[NAME], span[START], span[END], parent,
                         ids[id(span[REQUEST])], span[COUNT]]
                    )
                    + "\n"
                )


def install(tracer: Tracer, service, frontend=None, sessions: Sequence[str] = ()) -> None:
    """Wrap every layer boundary the live ``service`` has.

    ``sessions`` are the ids of the adaptive sessions the phase will drive.
    """
    engine = service.engine
    if frontend is not None:
        tracer.wrap(frontend, "search", "serving.search", link=0)
    # service: the facade's request and mutation entry points
    tracer.wrap(
        service, "search", "service.search", adopt=0,
        count=lambda args, response: len(response.hits),
    )
    tracer.wrap(service, "submit_feedback", "service.feedback")
    for method in ("index_documents", "index_shot", "delete_document",
                   "update_document", "delete_shot"):
        tracer.wrap(service, method, "service.mutation")
    tracer.wrap(service, "compact", "index.compact", count=lambda args, stats: stats.reclaimed)
    # core: per-session adaptation and the shared feedback models
    models = {}
    for session_id in sessions:
        session = service.adaptive_session(session_id)
        tracer.wrap(session, "submit_query", "core.submit_query")
        tracer.wrap(session, "observe", "core.observe")
        if session.policy.use_implicit:
            model = service.system.feedback_model(session.policy)
            models[id(model)] = model
    for model in models.values():
        tracer.wrap(model, "expansion_term_weights", "core.expansion_terms")
        tracer.wrap(model, "rerank_scores", "core.rerank_scores")
        tracer.wrap(model, "rerank_scores_uncached", "core.rerank_scores_uncached")
    # retrieval: cache, evidence gathering, fusion, top-k
    tokenizer, text_index = engine.tokenizer, engine.inverted_index

    def query_terms(args, results) -> int:
        query = args[0]
        return len(query.term_weights) + len(tokenizer.tokenize(query.text))

    def postings_and_docs(args, scores) -> Tuple[int, int]:
        query = args[0]
        terms = set(tokenizer.tokenize(query.text))
        terms.update(tokenizer.stem_token(term.lower()) for term in query.term_weights)
        return sum(text_index.document_frequency(term) for term in terms), len(scores)

    tracer.wrap(engine, "search", "retrieval.search", count=query_terms)
    tracer.wrap(engine, "text_scores", "index.text_score", count=postings_and_docs)
    tracer.wrap(engine, "visual_scores", "index.visual_scores")
    tracer.wrap(engine, "concept_scores", "index.concept_scores")
    tracer.wrap(engine.visual_index, "similar_to_shot", "index.visual_similar")
    # sharding: the scatter and each shard's scorer (on the shard pool)
    if hasattr(engine, "text_scorer"):
        tracer.wrap(engine.text_scorer, "score", "sharding.scatter", link=0)
        for scorer in engine.text_scorer.shard_scorers:
            tracer.wrap(scorer, "score", "sharding.shard_score", adopt=0)
    # index mutation path
    for method in ("add_document_frequencies", "delete_document", "update_document_frequencies"):
        tracer.wrap(text_index, method, "index.mutation_apply")
    for method in ("add_shot", "delete_shot"):
        tracer.wrap(engine.visual_index, method, "index.mutation_apply")
    # durability write path
    durability = engine.durability
    if durability is not None:
        directory = durability.directory

        def delta_bytes(args, manifest) -> int:
            return sum((directory / name).stat().st_size for name in manifest["deltas"])

        tracer.wrap(durability.wal, "append", "durability.wal_append")
        tracer.wrap(
            durability, "maybe_checkpoint", "durability.checkpoint",
            keep=lambda manifest: manifest is not None, count=delta_bytes,
        )


def _covered(interval: Tuple[float, float], children: List[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    start, end = interval
    covered = 0.0
    cursor = start
    for child_start, child_end in sorted(children):
        child_start = max(child_start, cursor)
        child_end = min(child_end, end)
        if child_end > child_start:
            covered += child_end - child_start
            cursor = child_end
    return covered


class LayerTable:
    """Per-name aggregates over the spans of one timed phase."""

    def __init__(self, spans: Sequence[list]) -> None:
        spans = [span for span in spans if span[NAME] is not None]
        children: Dict[int, List[list]] = {}
        for span in spans:
            if span[PARENT] is not None:
                children.setdefault(id(span[PARENT]), []).append(span)
        self._children = children
        self._by_name: Dict[str, List[list]] = {}
        self.selfs: Dict[str, List[float]] = {}
        for span in spans:
            covered = _covered(
                (span[START], span[END]),
                [(child[START], child[END]) for child in children.get(id(span), ())],
            )
            self._by_name.setdefault(span[NAME], []).append(span)
            self.selfs.setdefault(span[NAME], []).append(span[END] - span[START] - covered)

    def calls(self, name: str) -> int:
        return len(self._by_name.get(name, ()))

    def durations(self, name: str) -> List[float]:
        return [span[END] - span[START] for span in self._by_name.get(name, ())]

    def duration_ms(self, name: str, q: float = 0.5) -> float:
        return 1000.0 * percentile(self.durations(name), q)

    def self_ms_p50(self, name: str) -> float:
        return 1000.0 * median(self.selfs.get(name, ()))

    def total_self_s(self) -> float:
        return sum(sum(values) for values in self.selfs.values())

    def count_sum(self, name: str, field: Optional[int] = None) -> float:
        counts = [span[COUNT] for span in self._by_name.get(name, ())]
        return sum(count if field is None else count[field] for count in counts)

    def child_durations(self, parent: str, child: str) -> List[List[float]]:
        """Per ``parent`` span, the durations of its ``child`` spans."""
        return [
            [c[END] - c[START] for c in self._children.get(id(span), ()) if c[NAME] == child]
            for span in self._by_name.get(parent, ())
        ]

    def rows(self) -> List[Dict[str, object]]:
        """One row per span name, largest total self time first."""
        total = self.total_self_s() or 1.0
        rows = [
            {
                "span": name,
                "calls": len(selfs),
                "self_s": sum(selfs),
                "self_share": sum(selfs) / total,
                "self_ms_p50": self.self_ms_p50(name),
                "total_ms_p50": self.duration_ms(name),
                "total_ms_p95": self.duration_ms(name, 0.95),
            }
            for name, selfs in self.selfs.items()
        ]
        rows.sort(key=lambda row: -row["self_s"])
        return rows

"""Continuous-ingest workload mix: the mutable corpus under live load.

The mix interleaves the four op families a long-lived news archive sees —
**ingest** (new documents and shots), **delete** (retention expiry),
**update** (corrected transcripts) and **feedback** (session events) —
with concurrent ranked searches, in one stream of steps that is a pure
function of ``(spec, feature_dim)`` (:func:`mix_stream`).  Its mutation
steps are ingest op tuples from :mod:`repro.workload.ingest`'s
synthesisers, applied by the one applier,
:func:`~repro.workload.ingest.apply_ingest`; the stream itself keeps the
ids the mix created, which are the only victims of its deletes and
updates.  The schedule is epoch-barriered:

- Each epoch first applies its mutation steps *sequentially* (every one
  is a WAL append and a kill point on a durable service), then runs its
  searches *concurrently* on a thread pool, then submits its feedback
  batches sequentially.  Because no mutation races a search, every
  search observes exactly the epoch-boundary corpus, so the canonical
  record of every op is independent of ``search_workers`` — running the
  mix with 1 or 16 threads produces byte-identical logs.
- After every ``compact_every``-th epoch the service compacts its
  tombstones.  Compaction is deliberately *absent* from the state the
  digest pins (the canonical digest is hole-insensitive and rankings are
  bit-identical across compaction), which is exactly the mutable-corpus
  contract this mix exercises end to end.

Durable-prefix oracle: on a durable service every mutation step appends
exactly one WAL record, sequentially, and nothing else appends, so the
mutations map 1:1 onto the LSN sequence past the bootstrap watermark.
``stop_lsn`` replays the stream only until the service's WAL reaches
that LSN — a clean run told to stop at a crashed run's recovered
``applied_lsn`` lands on the byte-identical state digest (the SIGKILL
smoke in CI pins this).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import InvalidArgumentError
from repro.feedback.events import EventKind, InteractionEvent
from repro.service.types import FeedbackBatch
from repro.utils.serialization import canonical_json
from repro.utils.validation import ensure_number, ensure_positive, ensure_probability
from repro.workload.ingest import (
    _VOCAB,
    IngestOp,
    _draws,
    _mix,
    apply_ingest,
    service_feature_dim,
    synthetic_shot,
    synthetic_text,
)
from repro.workload.log import CanonicalLog

#: Ranked hits each search record pins (ids and exact scores).
_RECORDED_HITS = 5

#: The log's name for each mutation and feedback step.
_RECORDED_AS = {
    "doc": "ingest-doc",
    "shot": "ingest-shot",
    "del": "del-doc",
    "delshot": "del-shot",
    "upd": "upd",
    "feedback": "feedback",
}

#: :attr:`ContinuousMixResult.counts` keys: records per op, and tombstones
#: reclaimed by compaction.
_COUNTED = (
    "ingest-doc", "ingest-shot", "del-doc", "del-shot", "upd",
    "search", "feedback", "compact", "reclaimed",
)


@dataclass(frozen=True)
class ContinuousMixSpec:
    """Shape of one continuous-ingest mix run (all ratios per epoch)."""

    epochs: int = 6
    mutations_per_epoch: int = 10
    searches_per_epoch: int = 8
    delete_ratio: float = 0.2
    update_ratio: float = 0.2
    feedback_per_epoch: int = 1
    compact_every: int = 3
    search_workers: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        ensure_positive(self.epochs, "epochs")
        ensure_positive(self.mutations_per_epoch, "mutations_per_epoch")
        ensure_positive(self.search_workers, "search_workers")
        for name in ("searches_per_epoch", "feedback_per_epoch", "compact_every"):
            ensure_number(getattr(self, name), name, integer=True)
        ensure_probability(self.delete_ratio, "delete_ratio")
        ensure_probability(self.update_ratio, "update_ratio")
        if self.delete_ratio + self.update_ratio > 1.0:
            raise InvalidArgumentError(
                "delete_ratio + update_ratio must not exceed 1 (the rest "
                "of the mutation slots are ingests)"
            )


@dataclass
class ContinuousMixResult(CanonicalLog):
    """Outcome of one mix run: canonical op log + final state digest."""

    spec: ContinuousMixSpec
    records: List[Dict[str, object]]
    state_digest: str
    wall_seconds: float
    counts: Dict[str, int] = field(default_factory=dict)
    #: True when ``stop_lsn`` ended the run before the schedule did.
    stopped_early: bool = False

    def canonical_lines(self) -> List[str]:
        """Canonical op log as JSON lines, final line the state digest."""
        return super().canonical_lines() + [
            canonical_json({"state_digest": self.state_digest})
        ]


def mix_stream(
    spec: ContinuousMixSpec, feature_dim: int
) -> Iterator[Tuple[int, Tuple]]:
    """The mix's steps in order, each as ``(epoch, step)``.

    A step is an ingest op tuple, ``("search", queries)``,
    ``("feedback", shot_id)`` (``shot_id`` is None while the mix has no
    live shot) or ``("compact",)``.  Deletes and updates only ever pick
    ids an earlier step of the stream created, so the mix composes with
    any pre-indexed corpus without touching it.
    """
    seed = spec.seed
    live_docs: List[str] = []
    live_shots: List[str] = []
    for epoch in range(spec.epochs):
        for slot in range(spec.mutations_per_epoch):
            yield epoch, _mutation(
                spec, feature_dim, epoch, slot, live_docs, live_shots
            )
        if spec.searches_per_epoch:
            queries = [
                " ".join(
                    _VOCAB[h % len(_VOCAB)]
                    for h in _draws(seed, (23, epoch, slot, 0), 2)
                )
                for slot in range(spec.searches_per_epoch)
            ]
            yield epoch, ("search", queries)
        for slot in range(spec.feedback_per_epoch):
            shot_id = None
            if live_shots:
                shot_id = sorted(live_shots)[
                    _mix(seed, 61, epoch, slot) % len(live_shots)
                ]
            yield epoch, ("feedback", shot_id)
        if spec.compact_every and (epoch + 1) % spec.compact_every == 0:
            yield epoch, ("compact",)


def _mutation(
    spec: ContinuousMixSpec,
    feature_dim: int,
    epoch: int,
    slot: int,
    live_docs: List[str],
    live_shots: List[str],
) -> IngestOp:
    """One mutation slot's op; keeps the live-id lists in step with it."""
    seed = spec.seed
    delete_bound = int(spec.delete_ratio * 1000)
    update_bound = delete_bound + int(spec.update_ratio * 1000)
    roll = _mix(seed, 11, epoch, slot) % 1000
    if roll < delete_bound and (live_docs or live_shots):
        # High bits: _mix's low bit is visibly biased for some salts.
        kind_roll = (_mix(seed, 29, epoch, slot) >> 8) % 2
        docs = bool(live_docs) and (not live_shots or kind_roll == 0)
        victims = live_docs if docs else live_shots
        victim = victims.pop(_mix(seed, 31, epoch, slot) % len(victims))
        return ("del" if docs else "delshot", victim)
    if roll < update_bound and live_docs:
        victim = live_docs[_mix(seed, 37, epoch, slot) % len(live_docs)]
        return ("upd", victim, synthetic_text(seed, (41, epoch, slot), 5))
    if (_mix(seed, 17, epoch, slot) >> 8) % 2 == 0:
        new_id = f"mix-doc-{seed}-{epoch:04d}-{slot:04d}"
        live_docs.append(new_id)
        return ("doc", new_id, synthetic_text(seed, (43, epoch, slot), 5))
    new_id = f"mix-shot-{seed}-{epoch:04d}-{slot:04d}"
    live_shots.append(new_id)
    features, concepts = synthetic_shot(
        seed, (47, epoch, slot, 0), (53, epoch, slot, 0), (59, epoch, slot, 0),
        feature_dim,
    )
    return ("shot", new_id, features, concepts)


def _search_hits(engine, queries: List[str], workers: int) -> List[List[List[object]]]:
    """Each query's top hits as ``[shot_id, score]``, searched concurrently."""

    def run_one(query: str) -> List[List[object]]:
        results = engine.search_text(query, limit=_RECORDED_HITS)
        return [[item.shot_id, item.score] for item in results.items]

    if workers > 1 and len(queries) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_one, queries))
    return [run_one(query) for query in queries]


def run_continuous_mix(
    service,
    spec: ContinuousMixSpec,
    stop_lsn: Optional[int] = None,
    pause: float = 0.0,
) -> ContinuousMixResult:
    """Run the continuous-ingest mix against a live service.

    ``stop_lsn`` (durable services only) stops applying durable ops once
    the service's WAL reaches that LSN — the clean-prefix arm of the
    SIGKILL oracle.  ``pause`` sleeps that many seconds after each
    mutation, stretching the crash window for an external kill.  Returns
    the canonical result; two runs with the same ``(seed, spec)`` produce
    byte-identical logs regardless of ``search_workers``.
    """
    from repro.durability import engine_state_digest

    durability = service.engine.durability
    if stop_lsn is not None:
        if stop_lsn < 0:
            raise InvalidArgumentError(f"stop_lsn must be non-negative, got {stop_lsn}")
        if durability is None:
            raise InvalidArgumentError(
                "stop_lsn requires a durable service: the budget is "
                "measured against its WAL"
            )
    user_id = f"mix-user-{spec.seed}"
    session_id: Optional[str] = None
    records: List[Dict[str, object]] = []
    stopped = False
    started = time.perf_counter()
    for epoch, step in mix_stream(spec, service_feature_dim(service)):
        kind = step[0]
        if kind == "search":
            hits = _search_hits(service.engine, step[1], spec.search_workers)
            records.extend(
                {"e": epoch, "op": "search", "q": query, "hits": query_hits}
                for query, query_hits in zip(step[1], hits)
            )
            continue
        if kind == "compact":
            reclaimed = service.compact().reclaimed
            records.append({"e": epoch, "op": "compact", "reclaimed": reclaimed})
            continue
        if kind == "feedback":
            if step[1] is None:
                continue
            if session_id is None:
                session_id = service.open_session(user_id).session_id
            event = InteractionEvent(
                kind=EventKind.PLAY_CLICK, timestamp=float(epoch), shot_id=step[1]
            )
            service.submit_feedback(
                FeedbackBatch(user_id=user_id, session_id=session_id, events=(event,))
            )
        else:
            # Every mutation is one WAL record: the durable-prefix budget.
            if stop_lsn is not None and durability.wal.last_lsn >= stop_lsn:
                stopped = True
                break
            apply_ingest(service, [step], pause=pause)
        records.append({"e": epoch, "op": _RECORDED_AS[kind], "id": step[1]})
    wall = time.perf_counter() - started
    counts = dict.fromkeys(_COUNTED, 0)
    for record in records:
        counts[record["op"]] += 1
        counts["reclaimed"] += record.get("reclaimed", 0)
    return ContinuousMixResult(
        spec=spec,
        records=records,
        state_digest=engine_state_digest(service.engine),
        wall_seconds=wall,
        counts=counts,
        stopped_early=stopped,
    )

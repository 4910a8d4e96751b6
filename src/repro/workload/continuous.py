"""Continuous-ingest workload mix: the mutable corpus under live load.

The mix interleaves the four op families a long-lived news archive sees —
**ingest** (new documents and shots), **delete** (retention expiry),
**update** (corrected transcripts) and **feedback** (session events) —
with concurrent ranked searches, in a stream that is a pure function of
``(seed, spec)``.  The schedule is epoch-barriered:

- Each epoch first applies its mutation slots *sequentially* (every one
  is a WAL append and a kill point on a durable service), then runs its
  search slots *concurrently* on a thread pool, then submits its
  feedback batches sequentially.  Because no mutation races a search,
  every search observes exactly the epoch-boundary corpus, so the
  canonical record of every op is independent of ``search_workers`` —
  running the mix with 1 or 16 threads produces byte-identical logs.
- After every ``compact_every``-th epoch the service compacts its
  tombstones.  Compaction is deliberately *absent* from the state the
  digest pins (the canonical digest is hole-insensitive and rankings are
  bit-identical across compaction), which is exactly the mutable-corpus
  contract this mix exercises end to end.

Durable-prefix oracle: on a durable service every mutation and feedback
op appends exactly one WAL record, sequentially, so the op stream maps
1:1 onto the LSN sequence past the bootstrap watermark.  ``stop_lsn``
replays the stream only until the service's WAL reaches that LSN — a
clean run told to stop at a crashed run's recovered ``applied_lsn``
lands on the byte-identical state digest (the SIGKILL smoke in CI pins
this).
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.feedback.events import EventKind, InteractionEvent
from repro.service.types import FeedbackBatch
from repro.utils.validation import ensure_positive
from repro.workload.ingest import _CONCEPTS, _VOCAB, _mix

PathLike = Union[str, Path]

#: Ranked hits each search record pins (ids and exact scores).
_RECORDED_HITS = 5


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
        if self.searches_per_epoch < 0:
            raise ValueError(
                f"searches_per_epoch must be non-negative, got "
                f"{self.searches_per_epoch}"
            )
        if self.feedback_per_epoch < 0:
            raise ValueError(
                f"feedback_per_epoch must be non-negative, got "
                f"{self.feedback_per_epoch}"
            )
        if self.compact_every < 0:
            raise ValueError(
                f"compact_every must be non-negative, got {self.compact_every}"
            )
        for name, value in (
            ("delete_ratio", self.delete_ratio),
            ("update_ratio", self.update_ratio),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.delete_ratio + self.update_ratio > 1.0:
            raise ValueError(
                "delete_ratio + update_ratio must not exceed 1 (the rest "
                "of the mutation slots are ingests)"
            )


@dataclass
class ContinuousMixResult:
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
        lines = [
            json.dumps(record, sort_keys=True, separators=(",", ":"))
            for record in self.records
        ]
        lines.append(
            json.dumps(
                {"state_digest": self.state_digest},
                sort_keys=True,
                separators=(",", ":"),
            )
        )
        return lines

    def canonical_log(self) -> str:
        """The canonical op log as one string (trailing newline)."""
        return "\n".join(self.canonical_lines()) + "\n"

    def digest(self) -> str:
        """SHA-256 hex digest of the canonical op log."""
        return hashlib.sha256(self.canonical_log().encode("utf-8")).hexdigest()

    def write_log(self, path: PathLike) -> Path:
        """Write the canonical op log to a file and return its path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.canonical_log(), encoding="utf-8")
        return path


def _mix_text(seed: int, epoch: int, slot: int, salt: int) -> str:
    words = [
        _VOCAB[_mix(seed, salt, epoch, slot, position) % len(_VOCAB)]
        for position in range(5 + _mix(seed, salt, epoch, slot) % 5)
    ]
    return " ".join(words)


def _mix_query(seed: int, epoch: int, slot: int) -> str:
    return " ".join(
        _VOCAB[_mix(seed, 23, epoch, slot, position) % len(_VOCAB)]
        for position in range(2)
    )


class _MixRunner:
    """One mix execution over a live service (any ``num_shards``)."""

    def __init__(
        self,
        service,
        spec: ContinuousMixSpec,
        stop_lsn: Optional[int],
        pause: float = 0.0,
    ):
        self._service = service
        self._spec = spec
        self._stop_lsn = stop_lsn
        self._pause = pause
        self._records: List[Dict[str, object]] = []
        self._counts: Dict[str, int] = {
            "ingest-doc": 0,
            "ingest-shot": 0,
            "del-doc": 0,
            "del-shot": 0,
            "upd": 0,
            "search": 0,
            "feedback": 0,
            "compact": 0,
            "reclaimed": 0,
        }
        # Only ids the mix itself created are mutation victims, so the
        # mix composes with any pre-indexed corpus without touching it.
        self._live_docs: List[str] = []
        self._live_shots: List[str] = []
        self._session_id: Optional[str] = None
        self._stopped = False
        shot_ids = service.engine.visual_index.shot_ids()
        self._feature_dim = (
            len(service.engine.visual_index.features_of(shot_ids[0]))
            if shot_ids
            else 16
        )

    # -- durable-prefix budget -----------------------------------------------------

    def _budget_exhausted(self) -> bool:
        if self._stop_lsn is None:
            return False
        durability = self._service.engine.durability
        if durability is None:
            return False
        if durability.wal.last_lsn >= self._stop_lsn:
            self._stopped = True
        return self._stopped

    # -- phases --------------------------------------------------------------------

    def _apply_mutation(self, epoch: int, slot: int) -> None:
        seed = self._spec.seed
        roll = _mix(seed, 11, epoch, slot) % 1000
        delete_bound = int(self._spec.delete_ratio * 1000)
        update_bound = delete_bound + int(self._spec.update_ratio * 1000)
        can_delete = bool(self._live_docs or self._live_shots)
        if roll < delete_bound and can_delete:
            both = bool(self._live_docs) and bool(self._live_shots)
            # High bits: _mix's low bit is visibly biased for some salts.
            kind_roll = (_mix(seed, 29, epoch, slot) >> 8) % 2
            if self._live_docs and (not both or kind_roll == 0):
                victim = self._live_docs.pop(
                    _mix(seed, 31, epoch, slot) % len(self._live_docs)
                )
                self._service.delete_document(victim)
                self._record(epoch, "del-doc", victim)
            else:
                victim = self._live_shots.pop(
                    _mix(seed, 31, epoch, slot) % len(self._live_shots)
                )
                self._service.delete_shot(victim)
                self._record(epoch, "del-shot", victim)
        elif roll < update_bound and self._live_docs:
            victim = self._live_docs[
                _mix(seed, 37, epoch, slot) % len(self._live_docs)
            ]
            self._service.update_document(
                victim, _mix_text(seed, epoch, slot, 41)
            )
            self._record(epoch, "upd", victim)
        elif (_mix(seed, 17, epoch, slot) >> 8) % 2 == 0:
            new_id = f"mix-doc-{seed}-{epoch:04d}-{slot:04d}"
            self._service.index_documents(
                {new_id: _mix_text(seed, epoch, slot, 43)}
            )
            self._live_docs.append(new_id)
            self._record(epoch, "ingest-doc", new_id)
        else:
            new_id = f"mix-shot-{seed}-{epoch:04d}-{slot:04d}"
            features = [
                (_mix(seed, 47, epoch, slot, dim) % 1000) / 1000.0
                for dim in range(self._feature_dim)
            ]
            concepts = {
                _CONCEPTS[_mix(seed, 53, epoch, slot, c) % len(_CONCEPTS)]: (
                    (_mix(seed, 59, epoch, slot, c) % 900) + 100
                )
                / 1000.0
                for c in range(2)
            }
            self._service.index_shot(new_id, features, concepts)
            self._live_shots.append(new_id)
            self._record(epoch, "ingest-shot", new_id)

    def _run_searches(self, epoch: int) -> None:
        spec = self._spec
        if not spec.searches_per_epoch:
            return
        queries = [
            _mix_query(spec.seed, epoch, slot)
            for slot in range(spec.searches_per_epoch)
        ]
        hits: List[Optional[List[List[object]]]] = [None] * len(queries)
        engine = self._service.engine

        def run_one(index: int) -> None:
            results = engine.search_text(queries[index], limit=_RECORDED_HITS)
            hits[index] = [
                [item.shot_id, item.score] for item in results.items
            ]

        if spec.search_workers > 1 and len(queries) > 1:
            with ThreadPoolExecutor(max_workers=spec.search_workers) as pool:
                list(pool.map(run_one, range(len(queries))))
        else:
            for index in range(len(queries)):
                run_one(index)
        for query, query_hits in zip(queries, hits):
            self._counts["search"] += 1
            self._records.append(
                {"e": epoch, "op": "search", "q": query, "hits": query_hits}
            )

    def _submit_feedback(self, epoch: int, slot: int) -> None:
        if not self._live_shots:
            return
        if self._session_id is None:
            info = self._service.open_session(f"mix-user-{self._spec.seed}")
            self._session_id = info.session_id
        shot_id = sorted(self._live_shots)[
            _mix(self._spec.seed, 61, epoch, slot) % len(self._live_shots)
        ]
        self._service.submit_feedback(
            FeedbackBatch(
                user_id=f"mix-user-{self._spec.seed}",
                session_id=self._session_id,
                events=(
                    InteractionEvent(
                        kind=EventKind.PLAY_CLICK,
                        timestamp=float(epoch),
                        shot_id=shot_id,
                    ),
                ),
            )
        )
        self._record(epoch, "feedback", shot_id)

    def _compact(self, epoch: int) -> None:
        stats = self._service.compact()
        self._counts["compact"] += 1
        self._counts["reclaimed"] += stats.reclaimed
        self._records.append(
            {"e": epoch, "op": "compact", "reclaimed": stats.reclaimed}
        )

    def _record(self, epoch: int, op: str, target: str) -> None:
        self._counts[op] += 1
        self._records.append({"e": epoch, "op": op, "id": target})

    # -- driver --------------------------------------------------------------------

    def run(self) -> ContinuousMixResult:
        from repro.durability import engine_state_digest

        spec = self._spec
        started = time.perf_counter()
        for epoch in range(spec.epochs):
            for slot in range(spec.mutations_per_epoch):
                if self._budget_exhausted():
                    break
                self._apply_mutation(epoch, slot)
                if self._pause > 0.0:
                    time.sleep(self._pause)
            if self._stopped:
                break
            self._run_searches(epoch)
            for slot in range(spec.feedback_per_epoch):
                if self._budget_exhausted():
                    break
                self._submit_feedback(epoch, slot)
            if self._stopped:
                break
            if spec.compact_every and (epoch + 1) % spec.compact_every == 0:
                self._compact(epoch)
        wall = time.perf_counter() - started
        return ContinuousMixResult(
            spec=spec,
            records=self._records,
            state_digest=engine_state_digest(self._service.engine),
            wall_seconds=wall,
            counts=dict(self._counts),
            stopped_early=self._stopped,
        )


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
    if stop_lsn is not None:
        if stop_lsn < 0:
            raise ValueError(f"stop_lsn must be non-negative, got {stop_lsn}")
        if service.engine.durability is None:
            raise ValueError(
                "stop_lsn requires a durable service: the budget is "
                "measured against its WAL"
            )
    return _MixRunner(service, spec, stop_lsn, pause=pause).run()

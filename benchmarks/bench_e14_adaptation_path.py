"""E14 — Adaptation path: incremental evidence, memoised derivations,
dense fused re-ranking and O(1) session bring-up.

PR 2 made raw scoring fast and PR 3 made serving concurrent; this bench
measures the layer the paper actually contributes — the adaptive loop that
folds profile + implicit feedback into every ranking — as an incremental,
array-backed kernel.  Its rankings are pinned bit-identical to a naive
reference session (``tests/reference/adaptation.py``) by tier-1's
``TestSessionEquivalence``, across every policy × ostensive discount
profile × indicator weighting scheme this bench used to sweep before
timing; nothing here compares the two paths any more.

* **Adapted-query throughput** — a feedback-heavy session (one feedback
  batch, then several adapted queries per round: the query/refresh/
  reformulate rhythm of a real session) measured end-to-end through
  ``submit_query``; the qps is the median of ``THROUGHPUT_REPEATS``
  sessions on one engine, warmed first, and is guarded against its
  recorded baseline.

* **Session bring-up** — ``create_session`` cost at 10k-shot corpus
  scale.  Every corpus-derived lookup comes from state shared across
  sessions, so opening one is O(1); reported, not asserted here:
  ``tests/test_adaptation_fast_path.py``'s
  ``test_session_open_does_not_iterate_shots`` fails any bring-up that
  iterates the collection's shots.

* **Adaptation-heavy service mix** — the `repro.workload` harness drives
  the live service with ``feedback_per_query=3`` (the `--mix
  adaptive-heavy` loadtest), pinning the canonical-log digest across
  worker counts (reported, digest asserted, wall-clock not).

* **Session retention** — a serving session holds O(1) state per search.
  A baseline session, an implicit session fed feedback before every
  search and an explicit session re-judging a fixed shot set are each
  driven under ``tracemalloc``; the bytes held at the late checkpoint must
  be within ``RETENTION_SLACK_BYTES`` of those held at the early one.
  Asserted in every run (a count, not a timing), so the regression guard
  fails on any reintroduced per-search retention;
  ``tests/test_session_plateau.py`` runs the same check on the unit-test
  corpus.

``BENCH_e14.json`` next to this file records the baseline numbers.  Run
``--write-baseline`` to refresh it on representative hardware, or
``--smoke`` for the quick CI sanity check (small corpus).  Guarded by
``check_bench_regression.py``: the adapted-query throughput.
"""

from __future__ import annotations

import gc
import statistics
import time
import tracemalloc

from _common import Bench, scale_corpus

from repro.core import (
    AdaptiveVideoRetrievalSystem,
    baseline_policy,
    combined_policy,
    explicit_policy,
    implicit_only_policy,
)
from repro.feedback.events import EventKind, InteractionEvent
from repro.profiles import UserProfile
from repro.retrieval import VideoRetrievalEngine
from repro.workload import ServiceLoadDriver, WorkloadSpec

#: Timed sessions behind the adapted-query qps.  One session is a window
#: of 2-15 ms, as noisy as the host; the median of fifteen is what the
#: guard reads.
THROUGHPUT_REPEATS = 15

#: Traced bytes a session may hold at the late retention checkpoint beyond
#: what it held at the early one: about one ``QueryIteration`` (the session
#: keeps exactly one, and successive ones differ in size).  Measured growth
#: is a few hundred bytes; one retained iteration per search would be
#: 1-17 KB *per search* between the checkpoints.
RETENTION_SLACK_BYTES = 16 * 1024

#: Shots the retention sessions cycle their feedback over: a fixed set, so
#: the evidence stores and every engine-side cache (bounded by the distinct
#: queries and evidence states seen) are full before the early checkpoint
#: and what could still grow is what the session keeps per search.  Five,
#: so the explicit session's judge-then-flip cycle is 10 searches long and
#: checkpoints at multiples of 10 read it in the same phase.
RETENTION_FEEDBACK_SHOTS = 5


def _feedback_events(shot_ids, base):
    events = []
    for index, shot_id in enumerate(shot_ids):
        events.append(
            InteractionEvent(
                kind=EventKind.PLAY_CLICK, timestamp=base + index,
                shot_id=shot_id, rank=index + 1,
            )
        )
        events.append(
            InteractionEvent(
                kind=EventKind.PLAY_PROGRESS, timestamp=base + index + 0.4,
                shot_id=shot_id, duration=5.0 + index,
            )
        )
    return events


def _drive_session(session, topic, relevant, rounds, queries_per_round):
    """One feedback-heavy session: observe once, query several times, repeat."""
    query = topic.query_terms[0]
    reformulated = " ".join(topic.query_terms[:2])
    for round_index in range(rounds):
        offset = round_index % max(1, len(relevant) - 3)
        session.observe(
            _feedback_events(relevant[offset : offset + 3], base=100.0 * round_index)
        )
        for query_index in range(queries_per_round):
            session.submit_query(query if query_index % 2 == 0 else reformulated)


def _throughput_rows(corpus, rounds, queries_per_round):
    """Adapted-query throughput of fresh sessions on one warmed engine."""
    topic = corpus.topics.topics()[0]
    relevant = sorted(corpus.qrels.relevant_shots(topic.topic_id))
    policy = combined_policy().with_overrides(demote_seen=0.25)
    profile = UserProfile.single_interest("bench-user", topic.category, 0.8)
    system = AdaptiveVideoRetrievalSystem(VideoRetrievalEngine(corpus.collection))

    def drive():
        session = system.create_session(
            profile=profile, policy=policy, topic_id=topic.topic_id
        )
        start = time.perf_counter()
        _drive_session(session, topic, relevant, rounds, queries_per_round)
        return time.perf_counter() - start

    drive()  # warm engine caches and shared state
    seconds = statistics.median(drive() for _ in range(THROUGHPUT_REPEATS))
    queries = rounds * queries_per_round
    return [
        {
            "workload": "feedback_heavy_session",
            "queries": queries,
            "seconds": seconds,
            "qps": queries / seconds if seconds else 0.0,
        }
    ]


def _session_open_rows(corpus, opens):
    """Session bring-up latency over the shared corpus state."""
    system = AdaptiveVideoRetrievalSystem(VideoRetrievalEngine(corpus.collection))
    policy = combined_policy()
    system.create_session(policy=policy)  # build the shared state once
    start = time.perf_counter()
    for _ in range(opens):
        system.create_session(policy=policy)
    elapsed = time.perf_counter() - start
    return [
        {
            "workload": "session_open",
            "opens": opens,
            "shots": corpus.collection.shot_count,
            "per_open_us": elapsed / opens * 1e6,
        }
    ]


def retention_rows(corpus, early, late):
    """Traced bytes three long sessions hold after ``early`` and ``late`` searches.

    Each session gets a private engine and is created after tracing starts,
    so the rows count everything a search leaves behind, wherever it is
    kept.  The explicit session flips its judgement of every shot on each
    pass over the feedback set.
    """
    topic = corpus.topics.topics()[0]
    shots = sorted(corpus.qrels.relevant_shots(topic.topic_id))
    shots = shots[:RETENTION_FEEDBACK_SHOTS]
    queries = (topic.query_terms[0], " ".join(topic.query_terms[:2]))

    def play(step):
        return _feedback_events([shots[step % len(shots)]], base=10.0 * step)

    def judge(step):
        relevant = (step // len(shots)) % 2 == 0
        kind = EventKind.MARK_RELEVANT if relevant else EventKind.MARK_NOT_RELEVANT
        return [
            InteractionEvent(
                kind=kind, timestamp=10.0 * step, shot_id=shots[step % len(shots)]
            )
        ]

    rows = []
    for label, policy, feedback in (
        ("baseline", baseline_policy(), None),
        ("implicit", implicit_only_policy(), play),
        ("explicit", explicit_policy(), judge),
    ):
        system = AdaptiveVideoRetrievalSystem(VideoRetrievalEngine(corpus.collection))
        held = {}
        tracemalloc.start()
        try:
            session = system.create_session(policy=policy, topic_id=topic.topic_id)
            for step in range(late):
                if feedback is not None:
                    session.observe(feedback(step))
                session.submit_query(queries[step % len(queries)])
                if step + 1 in (early, late):
                    gc.collect()
                    held[step + 1] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        rows.append(
            {
                "session": label,
                "early_searches": early,
                "late_searches": late,
                "held_early_bytes": held[early],
                "held_late_bytes": held[late],
                "growth_bytes": held[late] - held[early],
            }
        )
    return rows


def assert_flat_retention(rows):
    """No session may hold more after the late checkpoint than after the early."""
    for row in rows:
        assert row["growth_bytes"] <= RETENTION_SLACK_BYTES, (
            f"{row['session']} session grew {row['growth_bytes']} traced bytes "
            f"between search {row['early_searches']} and {row['late_searches']} "
            f"(allowed {RETENTION_SLACK_BYTES}): per-search state is being retained"
        )


def _loadtest_row(corpus, users, queries_per_user):
    """Adaptation-heavy service mix through the concurrency harness."""
    from repro.service import RetrievalService

    def factory():
        return RetrievalService.from_corpus(corpus)

    spec = WorkloadSpec(
        users=users,
        queries_per_user=queries_per_user,
        feedback_per_query=3,
        seed=2008,
    )
    digests = []
    result = None
    for workers in (1, 8):
        result = ServiceLoadDriver(factory, max_workers=workers).run(spec)
        digests.append(result.digest())
    assert len(set(digests)) == 1, f"adaptation-heavy digests diverged: {digests}"
    return {
        "workload": "loadtest_adaptive_heavy",
        "users": users,
        "feedback_per_query": spec.feedback_per_query,
        "requests": result.request_count,
        "qps": result.throughput_rps,
        "digest": result.digest()[:12],
    }


def _sanity_check(tables, smoke):
    assert_flat_retention(tables["retention"])


def _guarded(tables):
    # Named as recorded when a reference path was timed beside it.
    return {"adapted_query_fast_qps": tables["throughput"][0]["qps"]}


def run_experiment(
    bench_corpus,
    rounds,
    queries_per_round,
    opens,
    open_at_scale,
    retention_searches,
):
    # Session bring-up is reported at 10k-shot corpus scale.
    open_corpus = scale_corpus() if open_at_scale else bench_corpus
    return {
        "throughput": _throughput_rows(bench_corpus, rounds, queries_per_round),
        "session_open": _session_open_rows(open_corpus, opens),
        "loadtest": _loadtest_row(bench_corpus, users=8, queries_per_user=2),
        "retention": retention_rows(bench_corpus, *retention_searches),
    }


BENCH = Bench(
    name="e14",
    run_experiment=run_experiment,
    smoke={
        "rounds": 4,
        "queries_per_round": 3,
        "opens": 4000,
        "open_at_scale": False,
        # 400 searches apart: one retained iteration per search would be
        # >= 300 KB of growth against the 16 KB allowed.
        "retention_searches": (200, 600),
    },
    full={
        "rounds": 10,
        "queries_per_round": 4,
        "opens": 2000,
        "open_at_scale": True,
        "retention_searches": (200, 2000),
    },
    tables={
        "throughput": "E14a: adapted-query throughput (feedback-heavy session)",
        "session_open": "E14b: session bring-up",
        "loadtest": "E14c: adaptation-heavy service mix",
        "retention": "E14d: traced bytes held by one long session",
    },
    sanity_check=_sanity_check,
    guarded=_guarded,
    note=(
        "The feedback_heavy_session row runs one observe batch then several "
        "adapted queries per round through submit_query, the median of 15 "
        "sessions; the session_open row is shared-state bring-up at 10k-shot "
        "scale.  The retention rows are tracemalloc bytes held after the "
        "early and the late search count; growth beyond 16 KB fails every "
        "run.  Rankings are pinned to the naive reference session by "
        "tier-1's TestSessionEquivalence, not here."
    ),
)

# The session-open row of the pytest run stays on the mid-sized fixture
# corpus; ``main`` reports it at 10k-shot scale.
test_e14_adaptation_path = BENCH.as_test(open_at_scale=False)

if __name__ == "__main__":
    raise SystemExit(BENCH.main())

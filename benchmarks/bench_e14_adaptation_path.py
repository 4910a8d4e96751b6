"""E14 — Adaptation fast path: incremental evidence, memoised derivations,
dense fused re-ranking and O(1) session bring-up.

PR 2 made raw scoring fast and PR 3 made serving concurrent; this bench
measures the layer the paper actually contributes — the adaptive loop that
folds profile + implicit feedback into every ranking — after its rework
into an incremental, array-backed kernel:

* **Bit-identical rankings** — before anything is timed, fast-path
  sessions are driven side-by-side with reference sessions
  (``fast_path=False``: per-session O(corpus) bring-up, full-recompute
  ostensive evidence, un-memoised feedback derivations, two-stage
  reference re-ranking) across all policies × ostensive discount profiles
  × indicator weighting schemes, asserting identical ids, scores and
  ranks at every iteration.

* **Adapted-query throughput** — a feedback-heavy session (one feedback
  batch, then several adapted queries per round: the query/refresh/
  reformulate rhythm of a real session) measured end-to-end through
  ``submit_query``, fast vs reference, on separate engines so neither
  mode warms the other's caches; each mode's qps is the median of
  ``THROUGHPUT_REPEATS`` interleaved sessions.  Acceptance: the fast path
  is **never slower** than the reference (>= 1x, both sizes), and both
  throughputs are guarded against their recorded baselines.  The old
  ">= 3x" was a ratio over a denominator this bench did not own: nearly
  all of a reference query was its un-memoised re-rank walking
  ``VisualIndex.similar_to_shot`` scans, and those are now answered by
  the index's neighbour table for every caller — the reference session
  went 83 -> ~3 000 qps, the fast path 5 153 -> ~6 000, so the ratio
  fell to ~2x while nothing got slower.  What the fast path still saves
  is the evidence fold, the term extraction and the fused re-rank.

* **Session bring-up** — ``create_session`` cost at 10k-shot corpus
  scale, where the old per-session ``shot_durations`` build made session
  opening O(corpus) — a real scalability bug under the service's LRU
  session churn.  Acceptance: **>= 100x** vs the reference constructor.

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
``--smoke`` for the quick CI sanity check (small corpus, all equivalence
assertions, a relaxed session-open floor).  Guarded by
``check_bench_regression.py``: the fast and the reference adapted-query
throughput.
"""

from __future__ import annotations

import gc
import statistics
import time
import tracemalloc

from _common import Bench, Floor, scale_corpus

from repro.core import (
    AdaptiveVideoRetrievalSystem,
    baseline_policy,
    combined_policy,
    explicit_policy,
    full_policy,
    implicit_only_policy,
    standard_policies,
)
from repro.core.ostensive import DISCOUNT_PROFILES
from repro.feedback.events import EventKind, InteractionEvent
from repro.feedback.weighting import default_schemes
from repro.profiles import UserProfile
from repro.retrieval import VideoRetrievalEngine
from repro.workload import ServiceLoadDriver, WorkloadSpec

#: Speedup floors asserted by the bench (session-open relaxed in smoke
#: mode, where the tiny corpus shrinks the naive path's work).
QUERY_SPEEDUP_FLOOR = 1.0
FULL_OPEN_SPEEDUP_FLOOR = 100.0
SMOKE_OPEN_SPEEDUP_FLOOR = 3.0

#: Timed sessions behind each mode's adapted-query qps.  One session is a
#: window of 2-15 ms, as noisy as the host; the median of fifteen,
#: alternating the modes, is what the 1x floor and the guard read.
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


def _drive_session(session, topic, relevant, rounds, queries_per_round, capture):
    """One feedback-heavy session: observe once, query several times, repeat."""
    outputs = []
    query = topic.query_terms[0]
    reformulated = " ".join(topic.query_terms[:2])
    queries = 0
    for round_index in range(rounds):
        offset = round_index % max(1, len(relevant) - 3)
        session.observe(
            _feedback_events(relevant[offset : offset + 3], base=100.0 * round_index)
        )
        for query_index in range(queries_per_round):
            text = query if query_index % 2 == 0 else reformulated
            results = session.submit_query(text)
            queries += 1
            if capture:
                outputs.append(
                    [(item.shot_id, item.score, item.rank) for item in results]
                )
    if capture:
        outputs.append(
            [(item.shot_id, item.score) for item in session.recommendations(limit=10)]
        )
        outputs.append(session.seen_shots())
    return queries, outputs


def _session_pair(system, policy, scheme, topic):
    profile = UserProfile.single_interest("bench-user", topic.category, 0.8)
    return [
        system.create_session(
            profile=profile,
            policy=policy,
            scheme=scheme,
            topic_id=topic.topic_id,
            fast_path=fast,
        )
        for fast in (True, False)
    ]


def assert_bit_identical(corpus, rounds=3, queries_per_round=2):
    """Fast-path rankings must match the reference path bit for bit.

    Sweeps every policy × discount profile (heuristic scheme) plus every
    weighting scheme (combined policy), driving fast and reference
    sessions through identical interleaved observe/query scripts.
    """
    system = AdaptiveVideoRetrievalSystem(VideoRetrievalEngine(corpus.collection))
    topic = corpus.topics.topics()[0]
    relevant = sorted(corpus.qrels.relevant_shots(topic.topic_id))
    combos = 0
    policies = list(standard_policies()) + [full_policy()]
    sweeps = [
        (policy.with_overrides(ostensive_profile=profile, demote_seen=0.25), None)
        for policy in policies
        for profile in DISCOUNT_PROFILES
    ] + [
        (combined_policy().with_overrides(demote_seen=0.25), scheme)
        for scheme in default_schemes()
    ]
    for policy, scheme in sweeps:
        fast, reference = _session_pair(system, policy, scheme, topic)
        _, fast_outputs = _drive_session(
            fast, topic, relevant, rounds, queries_per_round, capture=True
        )
        _, reference_outputs = _drive_session(
            reference, topic, relevant, rounds, queries_per_round, capture=True
        )
        assert fast_outputs == reference_outputs, (
            f"fast path diverged from reference: policy={policy.name!r} "
            f"profile={policy.ostensive_profile!r} "
            f"scheme={scheme.name if scheme else 'heuristic'!r}"
        )
        combos += 1
    return combos


def _throughput_rows(corpus, rounds, queries_per_round):
    """Adapted-query throughput, fast vs reference, on separate engines."""
    topic = corpus.topics.topics()[0]
    relevant = sorted(corpus.qrels.relevant_shots(topic.topic_id))
    policy = combined_policy().with_overrides(demote_seen=0.25)
    profile = UserProfile.single_interest("bench-user", topic.category, 0.8)
    modes = (("reference", False), ("fast", True))
    # A private engine per mode: neither mode warms the other's result
    # cache, neighbour table or per-term statistic tables.
    systems = {
        label: AdaptiveVideoRetrievalSystem(VideoRetrievalEngine(corpus.collection))
        for label, _ in modes
    }

    def drive(label, fast):
        session = systems[label].create_session(
            profile=profile, policy=policy, topic_id=topic.topic_id, fast_path=fast
        )
        start = time.perf_counter()
        _drive_session(session, topic, relevant, rounds, queries_per_round, capture=False)
        return time.perf_counter() - start

    for label, fast in modes:  # warm engine caches and shared state
        drive(label, fast)
    samples = {label: [] for label, _ in modes}
    for _ in range(THROUGHPUT_REPEATS):
        for label, fast in modes:
            samples[label].append(drive(label, fast))
    queries = rounds * queries_per_round
    rows = []
    for label, _ in modes:
        seconds = statistics.median(samples[label])
        rows.append(
            {
                "workload": "feedback_heavy_session",
                "mode": label,
                "queries": queries,
                "seconds": seconds,
                "qps": queries / seconds if seconds else 0.0,
                "speedup": 1.0,
            }
        )
    reference, fast = rows
    fast["speedup"] = fast["qps"] / reference["qps"] if reference["qps"] else 0.0
    return rows


def _session_open_rows(corpus, fast_opens, reference_opens):
    """Session bring-up latency, shared state vs per-session O(corpus) build."""
    system = AdaptiveVideoRetrievalSystem(VideoRetrievalEngine(corpus.collection))
    policy = combined_policy()
    system.create_session(policy=policy)  # build the shared state once
    rows = []
    per_open = {}
    for label, fast, opens in (
        ("reference", False, reference_opens),
        ("fast", True, fast_opens),
    ):
        start = time.perf_counter()
        for _ in range(opens):
            system.create_session(policy=policy, fast_path=fast)
        elapsed = time.perf_counter() - start
        per_open[label] = elapsed / opens
        rows.append(
            {
                "workload": "session_open",
                "mode": label,
                "opens": opens,
                "shots": corpus.collection.shot_count,
                "per_open_us": per_open[label] * 1e6,
                "speedup": 1.0,
            }
        )
    rows[-1]["speedup"] = (
        per_open["reference"] / per_open["fast"] if per_open["fast"] else 0.0
    )
    return rows


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
    open_floor = SMOKE_OPEN_SPEEDUP_FLOOR if smoke else FULL_OPEN_SPEEDUP_FLOOR
    return {
        "adapted-query speedup": Floor(
            tables["throughput"][-1]["speedup"], QUERY_SPEEDUP_FLOOR
        ),
        "session-open speedup": Floor(
            tables["session_open"][-1]["speedup"], open_floor
        ),
    }


def _guarded(tables):
    return {
        f"adapted_query_{row['mode']}_qps": row["qps"] for row in tables["throughput"]
    }


def run_experiment(
    bench_corpus,
    rounds,
    queries_per_round,
    fast_opens,
    reference_opens,
    open_at_scale,
    retention_searches,
):
    combos = assert_bit_identical(bench_corpus)
    # The session-open criterion is pinned at 10k-shot corpus scale.
    open_corpus = scale_corpus() if open_at_scale else bench_corpus
    return {
        "equivalence": {"combos_verified": combos},
        "throughput": _throughput_rows(bench_corpus, rounds, queries_per_round),
        "session_open": _session_open_rows(
            open_corpus, fast_opens=fast_opens, reference_opens=reference_opens
        ),
        "loadtest": _loadtest_row(bench_corpus, users=8, queries_per_user=2),
        "retention": retention_rows(bench_corpus, *retention_searches),
    }


BENCH = Bench(
    name="e14",
    run_experiment=run_experiment,
    smoke={
        "rounds": 4,
        "queries_per_round": 3,
        # Long enough windows (tens of ms) that the ~3.7x smoke ratio holds
        # its 3x floor on a noisy host; at 500/50 one run in twenty dipped
        # under it.
        "fast_opens": 4000,
        "reference_opens": 400,
        "open_at_scale": False,
        # 400 searches apart: one retained iteration per search would be
        # >= 300 KB of growth against the 16 KB allowed.
        "retention_searches": (200, 600),
    },
    full={
        "rounds": 10,
        "queries_per_round": 4,
        "fast_opens": 2000,
        "reference_opens": 100,
        "open_at_scale": True,
        "retention_searches": (200, 2000),
    },
    tables={
        "equivalence": "E14: policy/profile/scheme combos, fast vs reference",
        "throughput": "E14a: adapted-query throughput (feedback-heavy session)",
        "session_open": "E14b: session bring-up",
        "loadtest": "E14c: adaptation-heavy service mix",
        "retention": "E14d: traced bytes held by one long session",
    },
    sanity_check=_sanity_check,
    guarded=_guarded,
    note=(
        "Rankings verified bit-identical fast vs reference across all "
        "policies x discount profiles x weighting schemes before timing. "
        "The feedback_heavy_session rows run one observe batch then several "
        "adapted queries per round through submit_query, each mode's row the "
        "median of 15 interleaved sessions; the session_open "
        "rows compare shared-state bring-up against the retained "
        "per-session O(corpus) build at 10k-shot scale.  The retention rows "
        "are tracemalloc bytes held after the early and the late search "
        "count; growth beyond 16 KB fails every run."
    ),
)

# The session-open rows of the pytest run stay on the mid-sized fixture
# corpus (smoke floors); the 100x criterion is pinned at scale by ``main``.
test_e14_adaptation_path = BENCH.as_test(open_at_scale=False)

if __name__ == "__main__":
    raise SystemExit(BENCH.main())

"""E17 — Multi-process scatter: breaking the GIL floor on pure-CPU scoring.

E13/E15 record the honest thread-pool ceiling: pure-Python scoring under
threads tops out at ~1x no matter how many shards overlap, because the GIL
serialises the per-shard scorer loops.  This bench pins the claim the
``repro.multiproc`` executor makes: with shard postings exported into
``multiprocessing.shared_memory`` and scored by long-lived worker
*processes*, the same pure-CPU scatter workload scales with cores — **>= 2x
the single-engine throughput at 4 workers on >= 4 usable cores** — while
rankings stay **bit-identical** to both the thread executor and the
monolithic engine (verified before anything is timed).

The speedup floor is core-count aware: process parallelism cannot
manufacture cores, so on the 2-3 core hosts CI sometimes schedules the
floor degrades, and on one or two usable cores the assertion only requires
that the IPC + shared-memory overhead keeps throughput within a parity
band of the single engine.  The measured core count is recorded in
``BENCH_e17.json`` (its ``host`` block) so a baseline number is never read
without its context.

Rows:

* ``single``   — monolithic engine, the baseline.
* ``thread``   — 4-shard ``executor="thread"`` engine: in-memory kernels,
  so the shards are scored inline on the calling thread (on the pool they
  read 0.48-0.56x of ``single`` under the GIL).
* ``process``  — 4-shard process scatter at 2 and 4 workers.

``BENCH_e17.json`` carries the ``smoke_baseline`` section guarded by
``check_bench_regression.py``.  Run with ``--write-baseline`` to refresh on
representative hardware, or ``--smoke`` for the quick CI sanity check.
"""

from __future__ import annotations

import time

from _common import Bench, Floor, usable_cores

from repro.retrieval import Query, VideoRetrievalEngine
from repro.retrieval.engine import EngineConfig
from repro.service import RetrievalService, ServiceConfig
from repro.sharding import ShardedEngine

#: Shard count of the acceptance configuration.
BENCH_SHARDS = 4

#: Worker-process counts timed for the process rows.
WORKER_COUNTS = (2, 4)

#: Terms per query — wide queries keep the per-shard scoring loops hot so
#: the scatter phase dominates IPC and merge overhead.
QUERY_TERMS = 24


def speedup_floor(cores: int, smoke: bool) -> float:
    """The asserted 4-worker speedup floor for a given core budget.

    >= 4 cores carries the acceptance criterion (2x, relaxed to 1.5x in
    smoke mode where rounds are short and CI vCPUs noisy); three cores
    degrade to what process parallelism can physically deliver (a grade
    nobody has measured yet).  On one or two cores the four workers
    time-share and every pipe round trip serialises behind them, so the
    floor only requires the process path to stay within a parity band of
    the single engine — wide on the full corpus and very wide in smoke
    mode, where sub-100us queries make the scatter almost pure IPC.

    The two-core band is measured (a shared 2-core host): single shots
    read 0.02-0.49x in smoke mode (medians of fifteen 0.11-0.25x) and
    0.11-0.49x on the full corpus, so it only catches a collapse; a 2x
    regression is for the guard to see (``cpu_speedup_4workers`` against
    the host's own ``smoke_baseline``).
    """
    if cores >= 4:
        return 1.5 if smoke else 2.0
    if cores == 3:
        return 1.2 if smoke else 1.3
    if cores == 2:
        return 0.1
    return 0.1 if smoke else 0.25


def _queries(corpus, count=12):
    """Wide weighted queries drawn from the corpus's own topic vocabulary."""
    topics = corpus.topics.topics()
    queries = []
    for index in range(count):
        terms = []
        offset = 0
        while len(terms) < QUERY_TERMS:
            topic = topics[(index + offset) % len(topics)]
            terms.extend(topic.query_terms)
            offset += 1
        weights = {
            term: 1.0 + 0.25 * (position % 4)
            for position, term in enumerate(terms[:QUERY_TERMS])
        }
        queries.append(Query(term_weights=weights))
    return queries


def _service_engine(corpus, num_shards, executor="thread", process_workers=None):
    config = ServiceConfig(
        scorer="bm25",
        num_shards=num_shards,
        result_cache_size=0,
        executor=executor,
        process_workers=process_workers,
    )
    return RetrievalService.from_corpus(corpus, config=config).engine


def _assert_engine_equivalence(corpus):
    """Process rankings bit-identical to thread and monolithic, pre-timing."""
    queries = _queries(corpus, count=8)
    for scorer in ("bm25", "tfidf", "lm"):
        config = EngineConfig(scorer=scorer, result_cache_size=0)
        mono = VideoRetrievalEngine(corpus.collection, config=config)
        for shards in (1, 2, BENCH_SHARDS):
            thread = ShardedEngine(
                corpus.collection, config=config, num_shards=shards
            )
            process = ShardedEngine(
                corpus.collection,
                config=config,
                num_shards=shards,
                executor="process",
            )
            try:
                for query in queries:
                    expected = mono.search(query)
                    threaded = thread.search(query)
                    actual = process.search(query)
                    for other, label in ((threaded, "thread"), (actual, "process")):
                        assert expected.shot_ids() == other.shot_ids(), (
                            f"{scorer}/{shards}/{label}: ranking ids diverged"
                        )
                        assert [item.score for item in expected.items] == [
                            item.score for item in other.items
                        ], f"{scorer}/{shards}/{label}: ranking scores diverged"
            finally:
                process.close()
                thread.close()


def _measure_engine(engine, queries, rounds):
    for query in queries:  # warm derived caches / publish shard exports
        engine.search(query)
    start = time.perf_counter()
    for _ in range(rounds):
        for query in queries:
            engine.search(query)
    elapsed = time.perf_counter() - start
    total = rounds * len(queries)
    return {
        "requests": total,
        "seconds": elapsed,
        "qps": total / elapsed if elapsed else 0.0,
    }


def _cpu_rows(corpus, rounds, query_count=12):
    """Pure-CPU scatter: single engine vs thread floor vs process workers."""
    queries = _queries(corpus, count=query_count)
    rows = []

    single = _service_engine(corpus, 1)
    baseline = _measure_engine(single, queries, rounds)
    rows.append(
        {"row": "single", "workers": 1, **baseline, "speedup": 1.0}
    )
    baseline_qps = baseline["qps"]

    thread = _service_engine(corpus, BENCH_SHARDS)
    try:
        measured = _measure_engine(thread, queries, rounds)
    finally:
        thread.close()
    rows.append(
        {
            "row": "thread",
            "workers": BENCH_SHARDS,
            **measured,
            "speedup": measured["qps"] / baseline_qps if baseline_qps else 0.0,
        }
    )

    for workers in WORKER_COUNTS:
        engine = _service_engine(
            corpus, BENCH_SHARDS, executor="process", process_workers=workers
        )
        try:
            measured = _measure_engine(engine, queries, rounds)
        finally:
            engine.close()
        rows.append(
            {
                "row": "process",
                "workers": workers,
                **measured,
                "speedup": measured["qps"] / baseline_qps if baseline_qps else 0.0,
            }
        )
    return rows


def cpu_speedup_4workers(rows) -> float:
    for row in rows:
        if row["row"] == "process" and row["workers"] == max(WORKER_COUNTS):
            return row["speedup"]
    raise AssertionError("no 4-worker process row measured")


def _sanity_check(tables, smoke):
    rows = tables["cpu"]
    for row in rows:
        assert row["qps"] > 0
    cores = usable_cores()
    return {
        f"pure-CPU process scatter speedup at {max(WORKER_COUNTS)} workers "
        f"on {cores} usable core(s)": Floor(
            cpu_speedup_4workers(rows), speedup_floor(cores, smoke)
        )
    }


def run_experiment(bench_corpus, rounds, query_count):
    _assert_engine_equivalence(bench_corpus)
    return {"cpu": _cpu_rows(bench_corpus, rounds=rounds, query_count=query_count)}


def _guarded(tables):
    """The 4-worker speedup is relative, so it transfers across hosts better
    than raw qps, but it is still core-count dependent: refresh the baseline
    (--update) when the reference hardware's core budget changes."""
    rows = tables["cpu"]
    by_key = {(row["row"], row["workers"]): row for row in rows}
    return {
        "cpu_speedup_4workers": cpu_speedup_4workers(rows),
        "process_4worker_qps": by_key[("process", max(WORKER_COUNTS))]["qps"],
    }


BENCH = Bench(
    name="e17",
    run_experiment=run_experiment,
    smoke={"rounds": 3, "query_count": 12},
    full={"rounds": 6, "query_count": 12},
    tables={"cpu": "E17: pure-CPU scatter, thread GIL floor vs process workers"},
    sanity_check=_sanity_check,
    guarded=_guarded,
    note=(
        "Pure-CPU bm25 scatter with wide weighted queries. single = "
        "monolithic engine; thread = 4-shard thread scatter (the GIL floor "
        "E13/E15 record); process = 4-shard shared-memory process scatter. "
        "The speedup floor is core-count aware (2x at >= 4 usable cores, "
        "graded on three, a parity band on one or two) because process "
        "parallelism cannot manufacture cores; host.usable_cores records "
        "the budget these numbers were measured under. Rankings verified "
        "bit-identical monolithic vs thread vs process (all scorers, shard "
        "counts 1/2/4) before timing."
    ),
)

test_e17_multiproc = BENCH.as_test()

if __name__ == "__main__":
    raise SystemExit(BENCH.main())

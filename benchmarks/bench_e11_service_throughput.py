"""E11 — RetrievalService batch-search throughput baseline.

The ROADMAP's north star is serving heavy multi-user traffic, so this
benchmark records the first scaling numbers of the service facade: how many
queries per second flow through ``RetrievalService.search_batch`` compared
to issuing the same requests sequentially through ``search``, for a fleet
of concurrent sessions issuing (a) one shared hot query and (b) distinct
per-user queries.  Both paths share evaluations of coinciding adapted
queries through the engine's result cache, and the batch path is verified
here to return rankings identical to the sequential path — future scaling PRs (sharding,
async, remote transports) should move these numbers without breaking that
equality.
"""

from __future__ import annotations

import time

from _common import print_table

from repro.service import RetrievalService, SearchRequest

USERS = 24


def _requests(service, shared_query: bool):
    topics = service.topics.topics()
    requests = []
    for index in range(USERS):
        topic = topics[0] if shared_query else topics[index % len(topics)]
        requests.append(
            SearchRequest(
                user_id=f"user{index:02d}",
                query=" ".join(topic.query_terms[:2]),
                topic_id=topic.topic_id,
            )
        )
    return requests


def _fresh_service(bench_corpus) -> RetrievalService:
    return RetrievalService.from_corpus(bench_corpus)


def _timed(callable_, requests):
    start = time.perf_counter()
    responses = callable_(requests)
    elapsed = time.perf_counter() - start
    return responses, elapsed


def run_experiment(bench_corpus):
    rows = []
    for label, shared in (("shared hot query", True), ("distinct queries", False)):
        # Fresh services per arm so session state never leaks between runs.
        sequential_service = _fresh_service(bench_corpus)
        batch_service = _fresh_service(bench_corpus)
        requests = _requests(sequential_service, shared_query=shared)

        sequential, seq_seconds = _timed(
            lambda reqs: [sequential_service.search(r) for r in reqs], requests
        )
        batched, batch_seconds = _timed(batch_service.search_batch, requests)

        identical = [r.shot_ids() for r in sequential] == [r.shot_ids() for r in batched]
        assert identical, "batch search must match sequential search exactly"

        rows.append(
            {
                "workload": label,
                "sessions": USERS,
                "sequential_qps": USERS / seq_seconds if seq_seconds else 0.0,
                "batch_qps": USERS / batch_seconds if batch_seconds else 0.0,
                "speedup_x": (seq_seconds / batch_seconds) if batch_seconds else 0.0,
                "identical": identical,
            }
        )
    return rows


def test_e11_service_throughput(benchmark, bench_corpus):
    rows = benchmark.pedantic(run_experiment, args=(bench_corpus,), rounds=1, iterations=1)
    print_table(
        "E11: RetrievalService batch vs sequential search throughput",
        rows,
        columns=["workload", "sessions", "sequential_qps", "batch_qps",
                 "speedup_x", "identical"],
    )
    shared = rows[0]
    assert shared["identical"]
    # The shared-query fleet must benefit from amortisation at least somewhat;
    # distinct queries get no sharing and only need to stay comparable.
    assert shared["batch_qps"] > 0 and shared["sequential_qps"] > 0

"""E12 — Array-backed scoring-kernel latency and throughput.

This is the performance bench for the compact, array-backed index layout:
single-query latency (p50/p95) and repeated-query throughput for the three
text scorers (BM25 / TF-IDF / Dirichlet LM), visual similarity search and
concept scoring, measured over the standard bench corpus.  The engine's
persistent result cache is DISABLED for the kernel rows — every number here
is a genuine evaluation — with one extra row recording what the cache adds
on a repeated-query workload.

Every timed configuration is also checked against the retained reference
implementations (:mod:`repro.index.reference`), so a kernel change that
drifts from the original per-posting semantics fails this bench before it
ships a wrong number.

``BENCH_e12.json`` next to this file records the baseline numbers from the
PR that introduced the kernel, so the perf trajectory is tracked from then
on.  Run ``python benchmarks/bench_e12_scoring_kernel.py --write-baseline``
to refresh it on representative hardware, or ``--smoke`` for the quick CI
sanity check (small corpus, equivalence + sanity thresholds, no wall-clock
assertions).  Guarded by ``check_bench_regression.py``: the three text
scorers', BM25's under writes, the batch path's and the visual scan's smoke
throughput, and the visual scan's throughput over the reference scan's,
timed in the same run.

The ``bm25_under_writes`` row scores beside a writer: one text write every
``WRITE_EVERY`` queries, the reader-to-text-write ratio of E21's
``read_under_ingest``.  Each write moves the index generation, so it times
what a write costs the queries after it: every term's statistics rebuilt,
each term scored straight from its postings on its first use and from a
cached column after that.
"""

from __future__ import annotations

import statistics
import time

from _common import Bench, Floor

from repro.analysis import analyse_collection
from repro.index import Bm25Scorer, InvertedIndex
from repro.index.reference import (
    ReferenceBm25Scorer,
    ReferenceDirichletScorer,
    ReferenceTfIdfScorer,
    reference_score_by_concepts,
    reference_similar_to_vector,
)
from repro.retrieval import EngineConfig, VideoRetrievalEngine

_REFERENCE_FACTORIES = {
    "bm25": ReferenceBm25Scorer,
    "tfidf": ReferenceTfIdfScorer,
    "lm": ReferenceDirichletScorer,
}

#: Queries per text write in the ``bm25_under_writes`` row.
WRITE_EVERY = 12


def _percentile(samples, fraction):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _ranking(scores):
    return sorted(scores.items(), key=lambda item: (-item[1], item[0]))


def _term_weights(tokenizer, query):
    term_weights = {}
    for token in tokenizer.tokenize(query):
        term_weights[token] = term_weights.get(token, 0.0) + 1.0
    return term_weights


def _assert_same_ranking(kernel_scores, reference_scores):
    kernel_ranked = _ranking(kernel_scores)
    reference_ranked = _ranking(reference_scores)
    assert [doc for doc, _ in kernel_ranked] == [doc for doc, _ in reference_ranked]
    assert all(
        abs(kernel_score - reference_score) <= 1e-9
        for (_, kernel_score), (_, reference_score) in zip(
            kernel_ranked, reference_ranked
        )
    )


def _assert_scorer_equivalence(engine, scorer_name, queries):
    """The kernel must rank exactly like the retained reference scorer."""
    reference = _REFERENCE_FACTORIES[scorer_name](engine.inverted_index)
    for query in queries:
        term_weights = _term_weights(engine.tokenizer, query)
        _assert_same_ranking(
            engine._text_scorer.score(term_weights), reference.score(term_weights)
        )


def _text_scorer_rows(corpus, rounds):
    queries = [" ".join(topic.query_terms) for topic in corpus.topics]
    rows = []
    for scorer_name in ("bm25", "tfidf", "lm"):
        engine = VideoRetrievalEngine(
            corpus.collection,
            config=EngineConfig(
                scorer=scorer_name,
                visual_weight=0.0,
                concept_weight=0.0,
                result_cache_size=0,  # measure the kernel, not the cache
            ),
        )
        _assert_scorer_equivalence(engine, scorer_name, queries)
        for query in queries:  # warm the per-term statistic caches
            engine.search_text(query, limit=100)
        latencies = []
        for _ in range(rounds):
            for query in queries:
                start = time.perf_counter()
                engine.search_text(query, limit=100)
                latencies.append(time.perf_counter() - start)
        total = sum(latencies)
        rows.append(
            {
                "scorer": scorer_name,
                "queries": len(latencies),
                "p50_ms": _percentile(latencies, 0.50) * 1e3,
                "p95_ms": _percentile(latencies, 0.95) * 1e3,
                "mean_ms": statistics.mean(latencies) * 1e3,
                "qps": len(latencies) / total if total else 0.0,
            }
        )
    return rows


def _under_writes_row(corpus, rounds):
    """BM25 scoring with one text write before every ``WRITE_EVERY`` queries.

    A write adds a document or deletes the one the write before it added,
    so the corpus keeps its size.  Only ``score`` is timed; the first query
    after each write is checked against the reference scorer.
    """
    index = InvertedIndex.from_collection(corpus.collection)
    scorer, reference = Bm25Scorer(index), ReferenceBm25Scorer(index)
    queries = [
        _term_weights(index.tokenizer, " ".join(topic.query_terms))
        for topic in corpus.topics
    ]
    texts = [shot.transcript for shot in corpus.collection.iter_shots()]
    latencies = []
    for number in range(rounds * 8 * len(queries)):
        write, due = divmod(number, WRITE_EVERY)
        if not due:
            if write % 2:
                index.delete_document(f"e12-write-{write - 1}")
            else:
                index.add_document(f"e12-write-{write}", texts[write % len(texts)])
        term_weights = queries[number % len(queries)]
        start = time.perf_counter()
        scores = scorer.score(term_weights)
        latencies.append(time.perf_counter() - start)
        if not due:
            _assert_same_ranking(scores, reference.score(term_weights))
    total = sum(latencies)
    return {
        "scorer": "bm25_under_writes",
        "queries": len(latencies),
        "p50_ms": _percentile(latencies, 0.50) * 1e3,
        "p95_ms": _percentile(latencies, 0.95) * 1e3,
        "mean_ms": statistics.mean(latencies) * 1e3,
        "qps": len(latencies) / total if total else 0.0,
    }


def _cache_row(corpus, rounds):
    """What the persistent result cache adds on a repeated-query workload."""
    engine = VideoRetrievalEngine(
        corpus.collection,
        config=EngineConfig(scorer="bm25", visual_weight=0.0, concept_weight=0.0),
    )
    queries = [" ".join(topic.query_terms) for topic in corpus.topics]
    for query in queries:
        engine.search_text(query, limit=100)
    latencies = []
    for _ in range(rounds):
        for query in queries:
            start = time.perf_counter()
            engine.search_text(query, limit=100)
            latencies.append(time.perf_counter() - start)
    total = sum(latencies)
    return {
        "scorer": "bm25+result_cache",
        "queries": len(latencies),
        "p50_ms": _percentile(latencies, 0.50) * 1e3,
        "p95_ms": _percentile(latencies, 0.95) * 1e3,
        "mean_ms": statistics.mean(latencies) * 1e3,
        "qps": len(latencies) / total if total else 0.0,
    }


def _latencies(call, inputs, rounds):
    """Seconds per ``call(*arguments)``, ``rounds`` times over ``inputs``."""
    latencies = []
    for _ in range(rounds):
        for arguments in inputs:
            start = time.perf_counter()
            call(*arguments)
            latencies.append(time.perf_counter() - start)
    return latencies


def _visual_rows(corpus, rounds):
    engine = VideoRetrievalEngine(corpus.collection)
    visual = engine.visual_index
    probes = visual.shot_ids()[:8]
    concept_vocabulary = sorted(
        {
            concept
            for shot_id in visual.shot_ids()[:200]
            for concept in visual.concept_scores_of(shot_id)
        }
    )
    concept_queries = [
        {concept: 1.0 for concept in concept_vocabulary[start : start + 3]}
        for start in range(0, min(12, len(concept_vocabulary)), 3)
    ]
    # The two-stage scan against the reference: three probes, then on a copy
    # (the timed index stays whole) one after deleting the nearest shot and
    # one from a zero vector.
    edited = visual.compacted_copy()
    probe = visual.features_of(probes[0])
    edited.delete_shot(visual.similar_to_vector(probe, limit=1)[0][0])
    checks = [(visual, visual.features_of(shot_id)) for shot_id in probes[:3]]
    checks += [(edited, probe), (edited, (0.0,) * len(probe))]
    for index, vector in checks:
        assert index.similar_to_vector(vector, limit=20) == (
            reference_similar_to_vector(index, vector, limit=20)
        )
    for weights in concept_queries[:2]:
        assert visual.score_by_concepts(weights) == (
            reference_score_by_concepts(visual, weights)
        )

    # The scan itself: similar_to_shot would answer these repeated probes
    # from the index's neighbour table.  The reference scan runs the same
    # probes, so the ratio of the two rows does not depend on the host.
    probe_vectors = [(shot_id, visual.features_of(shot_id)) for shot_id in probes]
    similarity_latencies = _latencies(
        lambda shot_id, features: visual.similar_to_vector(
            features, limit=20, exclude=(shot_id,)
        ),
        probe_vectors,
        rounds,
    )
    reference_latencies = _latencies(
        lambda shot_id, features: reference_similar_to_vector(
            visual, features, limit=20, exclude=(shot_id,)
        ),
        probe_vectors,
        rounds,
    )
    concept_latencies = _latencies(
        visual.score_by_concepts, [(weights,) for weights in concept_queries], rounds
    )

    rows = []
    for name, latencies in (
        ("visual_similarity", similarity_latencies),
        ("visual_similarity_reference", reference_latencies),
        ("concept_scoring", concept_latencies),
    ):
        if not latencies:
            continue
        total = sum(latencies)
        rows.append(
            {
                "workload": name,
                "queries": len(latencies),
                "p50_ms": _percentile(latencies, 0.50) * 1e3,
                "p95_ms": _percentile(latencies, 0.95) * 1e3,
                "qps": len(latencies) / total if total else 0.0,
            }
        )
    return rows


def _batch_row(corpus, rounds=4):
    """Throughput of the service batch path over the kernel (cold cache)."""
    from repro.service import RetrievalService, SearchRequest

    service = RetrievalService.from_corpus(corpus)
    topics = corpus.topics.topics() if hasattr(corpus.topics, "topics") else list(corpus.topics)
    requests = [
        SearchRequest(
            user_id=f"user{index:02d}",
            query=" ".join(topic.query_terms[:3]),
            topic_id=topic.topic_id,
        )
        for index, topic in enumerate(topics)
    ]
    start = time.perf_counter()
    for _ in range(rounds):
        service.search_batch(requests)
    elapsed = time.perf_counter() - start
    total_queries = rounds * len(requests)
    return {
        "workload": "service_batch_search",
        "queries": total_queries,
        "qps": total_queries / elapsed if elapsed else 0.0,
    }


def run_experiment(bench_corpus, rounds):
    analyse_collection(bench_corpus.collection)
    scorer_rows = _text_scorer_rows(bench_corpus, rounds)
    scorer_rows.append(_under_writes_row(bench_corpus, rounds))
    scorer_rows.append(_cache_row(bench_corpus, rounds))
    return {
        "text_scorers": scorer_rows,
        "visual": _visual_rows(bench_corpus, max(2, rounds // 3)),
        "batch": _batch_row(bench_corpus),
    }


def _sanity_check(tables, smoke):
    by_scorer = {row["scorer"]: row for row in tables["text_scorers"]}
    for name in ("bm25", "tfidf", "lm", "bm25_under_writes"):
        assert by_scorer[name]["qps"] > 0
        assert by_scorer[name]["p95_ms"] >= by_scorer[name]["p50_ms"]
    assert all(row["qps"] > 0 for row in tables["visual"])
    visual = {row["workload"]: row for row in tables["visual"]}
    # The result cache must never be slower than the raw kernel.  The
    # two-stage scan reads 4.1-4.9x the reference scan's qps at smoke size
    # (7-8x at full size), the one-pass scan it replaced 2.3-2.4x (2.5-2.8x).
    return {
        "result-cache qps over raw bm25 qps": Floor(
            by_scorer["bm25+result_cache"]["qps"] / by_scorer["bm25"]["qps"], 1.0
        ),
        "visual scan qps over reference scan qps": Floor(
            visual["visual_similarity"]["qps"]
            / visual["visual_similarity_reference"]["qps"],
            3.0,
        ),
    }


def _guarded(tables):
    metrics = {
        f"{row['scorer']}_qps": row["qps"]
        for row in tables["text_scorers"]
        if row["scorer"] in ("bm25", "tfidf", "lm", "bm25_under_writes")
    }
    metrics["service_batch_qps"] = tables["batch"]["qps"]
    metrics["visual_similarity_qps"] = next(
        row["qps"] for row in tables["visual"] if row["workload"] == "visual_similarity"
    )
    return metrics


BENCH = Bench(
    name="e12",
    run_experiment=run_experiment,
    smoke={"rounds": 6},
    full={"rounds": 30},
    tables={
        "text_scorers": "E12a: text scoring kernel latency/throughput",
        "visual": "E12b: visual kernel latency/throughput",
        "batch": "E12c: batch path",
    },
    sanity_check=_sanity_check,
    guarded=_guarded,
    note=(
        "Result cache disabled for the kernel rows (one extra row records "
        "what it adds on repeated queries). Every timed configuration is "
        "checked against the retained reference scorers before timing; "
        "bm25_under_writes writes one text every 12 queries and checks the "
        "first query after each write."
    ),
)

test_e12_scoring_kernel = BENCH.as_test()

if __name__ == "__main__":
    raise SystemExit(BENCH.main())

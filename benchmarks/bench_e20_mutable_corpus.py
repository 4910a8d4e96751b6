"""E20 — Mutable corpus: delete/update throughput, compaction, continuous mix.

Three questions, with the delete-vs-rebuild differential as the
correctness oracle before anything is timed:

* **Mutation path cost** — ops/s of tombstoning deletes and slot-moving
  updates over a pre-ingested corpus, against plain ingest on the same
  service.  Deletes scrub postings eagerly (bisect + column delete per
  term), so they are expected to cost the same order as an ingest, not a
  rebuild.

* **Compaction** — slots/s at which ``compact_engine`` re-interns the
  survivors of a heavily-tombstoned corpus, after asserting the state
  digest (hole-insensitive) is unchanged and rankings match a
  from-scratch rebuild over the survivors bit for bit.

* **Continuous mix** — records/s of the interleaved
  ingest/delete/update/search/feedback/compaction workload
  (:func:`repro.workload.run_continuous_mix`), after asserting the
  canonical op log is byte-identical across 1 and 4 search workers.

``BENCH_e20.json`` next to this file records baselines plus the
``smoke_baseline`` section guarded by ``check_bench_regression.py``
(guarded metrics: ``delete_ops_per_s``, ``compact_slots_per_s``,
``mix_records_per_s`` — host-stable higher-is-better rates; the
update/ingest rows are recorded for trajectory, never guarded).  Run with
``--write-baseline`` to refresh, ``--smoke`` for the CI sanity check.
"""

from __future__ import annotations

import time

from _common import Bench

from repro.durability import engine_state_digest
from repro.retrieval import Query
from repro.service import RetrievalService, ServiceConfig
from repro.workload import ContinuousMixSpec, run_continuous_mix
from repro.workload.ingest import (
    apply_ingest,
    service_feature_dim,
    synthetic_ingest_ops,
)

INGEST_SEED = 2008


def _queries(corpus, count=3):
    """Queries drawn from the corpus's own transcripts (non-empty hits) plus
    the synthetic ingest vocabulary (hits while ingested content is live)."""
    queries = ["election protest flood summit"]
    for shot in corpus.collection.iter_shots():
        words = [w for w in shot.transcript.lower().split() if len(w) > 3]
        if len(words) >= 2:
            queries.append(" ".join(words[:3]))
        if len(queries) == count + 1:
            break
    return queries


def _service(corpus):
    return RetrievalService(
        corpus.collection, config=ServiceConfig(result_cache_size=0)
    )


def _ops(service, count):
    return synthetic_ingest_ops(
        count, seed=INGEST_SEED, feature_dim=service_feature_dim(service)
    )


def _assert_same_rankings(reference, candidate, queries):
    compared = 0
    for text in queries:
        expected = reference.engine.search(Query(text=text), limit=None)
        actual = candidate.engine.search(Query(text=text), limit=None)
        assert expected.shot_ids() == actual.shot_ids(), text
        assert [item.score for item in expected.items] == [
            item.score for item in actual.items
        ], text
        compared += len(expected.items)
    assert compared > 0, "differential compared no hits"


def _mutation_rows(corpus, count):
    """Ingest / delete / update throughput on the same op stream."""
    queries = _queries(corpus)
    service = _service(corpus)
    ops = _ops(service, count)
    start = time.perf_counter()
    apply_ingest(service, ops)
    ingest_elapsed = time.perf_counter() - start

    doc_ids = [op[1] for op in ops if op[0] == "doc"]
    start = time.perf_counter()
    for document_id in doc_ids:
        service.update_document(document_id, f"rewrite summit verdict {document_id}")
    update_elapsed = time.perf_counter() - start

    shot_ids = [op[1] for op in ops if op[0] == "shot"]
    start = time.perf_counter()
    for document_id in doc_ids:
        service.delete_document(document_id)
    for shot_id in shot_ids:
        service.delete_shot(shot_id)
    delete_elapsed = time.perf_counter() - start
    deletes = len(doc_ids) + len(shot_ids)

    # Correctness oracle: with every ingested item deleted again, the
    # service must rank exactly like one that never saw the stream.
    pristine = _service(corpus)
    _assert_same_rankings(pristine, service, queries)
    assert service.compact().reclaimed == deletes + len(doc_ids)
    _assert_same_rankings(pristine, service, queries)
    assert engine_state_digest(service.engine) == engine_state_digest(
        pristine.engine
    )
    pristine.close()
    service.close()
    return [
        {
            "row": "ingest",
            "ops": count,
            "seconds": ingest_elapsed,
            "ops_per_s": count / ingest_elapsed if ingest_elapsed else 0.0,
        },
        {
            "row": "update",
            "ops": len(doc_ids),
            "seconds": update_elapsed,
            "ops_per_s": len(doc_ids) / update_elapsed if update_elapsed else 0.0,
        },
        {
            "row": "delete",
            "ops": deletes,
            "seconds": delete_elapsed,
            "ops_per_s": deletes / delete_elapsed if delete_elapsed else 0.0,
        },
    ]


def _compaction_row(corpus, count):
    """Compaction throughput with half the ingested stream tombstoned."""
    queries = _queries(corpus)
    service = _service(corpus)
    ops = _ops(service, count)
    apply_ingest(service, ops)
    victims = [op[1] for op in ops[::2]]
    for op in ops[::2]:
        if op[0] == "doc":
            service.delete_document(op[1])
        else:
            service.delete_shot(op[1])
    before = engine_state_digest(service.engine)

    survivors = _service(corpus)
    for op in ops:
        if op[1] in victims:
            continue
        if op[0] == "doc":
            survivors.index_documents({op[1]: op[2]})
        else:
            survivors.index_shot(op[1], op[2], op[3])

    start = time.perf_counter()
    stats = service.compact()
    elapsed = time.perf_counter() - start
    assert stats.reclaimed == len(victims)
    assert engine_state_digest(service.engine) == before
    _assert_same_rankings(survivors, service, queries)
    assert engine_state_digest(service.engine) == engine_state_digest(
        survivors.engine
    )
    live = (
        service.engine.inverted_index.document_count
        + service.engine.visual_index.shot_count
    )
    survivors.close()
    service.close()
    return {
        "row": "compact",
        "tombstones": len(victims),
        "live_slots": live,
        "seconds": elapsed,
        "slots_per_s": (len(victims) + live) / elapsed if elapsed else 0.0,
    }


def _mix_row(corpus, epochs, mutations):
    """Continuous-mix throughput; log pinned across worker counts first."""
    logs = []
    results = []
    for workers in (1, 4):
        service = _service(corpus)
        spec = ContinuousMixSpec(
            epochs=epochs,
            mutations_per_epoch=mutations,
            searches_per_epoch=6,
            compact_every=2,
            search_workers=workers,
            seed=INGEST_SEED,
        )
        result = run_continuous_mix(service, spec)
        service.close()
        logs.append(result.canonical_log())
        results.append(result)
    assert logs[0] == logs[1], "mix log depends on search worker count"
    result = results[-1]
    records = len(result.records)
    return {
        "row": "mix",
        "records": records,
        "seconds": result.wall_seconds,
        "records_per_s": (
            records / result.wall_seconds if result.wall_seconds else 0.0
        ),
        "reclaimed": result.counts["reclaimed"],
    }


def _sanity_check(tables, smoke):
    for row in tables["mutation"]:
        assert row["ops_per_s"] > 0, f"{row['row']}: no throughput measured"
    assert tables["compaction"]["slots_per_s"] > 0
    assert tables["mix"]["records_per_s"] > 0
    assert tables["mix"]["reclaimed"] > 0, "mix never reclaimed a tombstone"


def run_experiment(bench_corpus, count, epochs, mutations):
    return {
        "mutation": _mutation_rows(bench_corpus, count),
        "compaction": _compaction_row(bench_corpus, count),
        "mix": _mix_row(bench_corpus, epochs, mutations),
    }


def _guarded(tables):
    """The three host-stable rates; the ingest/update rows are recorded
    for trajectory but never guarded."""
    by_row = {row["row"]: row for row in tables["mutation"]}
    return {
        "delete_ops_per_s": by_row["delete"]["ops_per_s"],
        "compact_slots_per_s": tables["compaction"]["slots_per_s"],
        "mix_records_per_s": tables["mix"]["records_per_s"],
    }


BENCH = Bench(
    name="e20",
    run_experiment=run_experiment,
    smoke={"count": 128, "epochs": 3, "mutations": 8},
    full={"count": 512, "epochs": 6, "mutations": 16},
    tables={
        "mutation": "E20a: mutation write path (differential-verified)",
        "compaction": "E20b: compaction reclaim",
        "mix": "E20c: continuous-ingest mix",
    },
    sanity_check=_sanity_check,
    guarded=_guarded,
    note=(
        "Every row asserts the mutable-corpus differential before reporting "
        "numbers: rankings after delete/update/compact are bit-identical to "
        "a from-scratch rebuild over the survivors, and the canonical mix "
        "log is byte-identical across search worker counts."
    ),
)

test_e20_mutable_corpus = BENCH.as_test()

if __name__ == "__main__":
    raise SystemExit(BENCH.main())

"""E16 — Durability tier: WAL write-path cost, write amplification, recovery.

Three questions, answered with the state digest as the correctness oracle
before anything is timed:

* **Write-path cost** — ingest throughput (ops/s) of a durable service
  under each fsync policy (``never`` / ``interval`` / ``always``) against
  the in-memory service on the same deterministic op stream.  The
  ``never`` and ``interval`` rows should stay within a small factor of
  memory speed (the WAL append is one buffered write); ``always`` pays a
  real fsync per op and is reported honestly, not asserted.  What is
  asserted is a count: the timed ingest reads no non-empty WAL segment
  back (``wal_segment_reads``), because the writer's checkpoints work from
  its in-memory copy of the log, not from the files.

* **Write amplification** — durable bytes (WAL appends + live snapshot
  chain) per user byte (ids, text, 8 bytes a float: what a client sends,
  independent of how the WAL encodes it), and WAL bytes per op.  Recorded
  for trajectory, never guarded: amplification is a property of the
  format and the snapshot cadence, not of host speed.

* **Recovery speed** — ops/s at which ``RecoveryManager`` restores the
  directory (snapshot load + WAL replay + digest), after asserting the
  recovered digest equals the live service's digest at close.

* **Rebase cost** — live items/s of the full checkpoint a compaction asks
  for, after deleting a quarter of the stream; the recovered digest must
  equal the live one.

``BENCH_e16.json`` next to this file records baselines plus the
``smoke_baseline`` section guarded by ``check_bench_regression.py``
(guarded metrics: ``ingest_never_ops_per_s``, ``recovery_ops_per_s``,
``rebase_items_per_s`` — the CI-stable higher-is-better rows; fsync rows
depend on device sync latency and stay unguarded).  Run with
``--write-baseline`` to refresh, ``--smoke`` for the CI sanity check.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

from _common import Bench

from repro.durability import RecoveryManager, engine_state_digest
from repro.durability.wal import WalSegment
from repro.service import RetrievalService, ServiceConfig
from repro.workload.ingest import (
    apply_ingest,
    service_feature_dim,
    synthetic_ingest_ops,
)

#: Snapshot cadence of the bench runs: low enough that compaction and
#: incremental deltas happen mid-run, so their cost is in the numbers.
SNAPSHOT_INTERVAL = 32

INGEST_SEED = 2008


def _ops(service, count):
    return synthetic_ingest_ops(
        count, seed=INGEST_SEED, feature_dim=service_feature_dim(service)
    )


def _user_bytes(ops):
    """Bytes a client sends for the op stream, counted as E21 counts them:
    ids and text, 8 bytes a float, a concept's name and 8 bytes for its
    score.  Not the WAL's encoding of the stream, which is what the
    amplification measures."""
    total = 0
    for op in ops:
        total += len(op[1])
        if op[0] == "doc":
            total += len(op[2])
        else:
            total += 8 * len(op[2]) + sum(len(concept) + 8 for concept in op[3])
    return total


def _directory_snapshot_bytes(directory):
    """Bytes of the incremental snapshot chain (bootstrap excluded).

    Checkpoint 0 snapshots the corpus-built state and its size tracks the
    collection, not the ingest stream, so it would swamp a per-op metric.
    """
    bootstrap = ("checkpoint-000000.json", "delta-cp000000-")
    return sum(
        path.stat().st_size
        for pattern in ("checkpoint-*.json", "delta-*.json")
        for path in Path(directory).glob(pattern)
        if path.name != bootstrap[0] and not path.name.startswith(bootstrap[1])
    )


@contextmanager
def _segment_reads():
    """Count reads of non-empty WAL segment files while the block runs."""
    reads = [0]
    scan_entries = WalSegment.scan_entries

    def counting(segment):
        if segment.path.exists() and segment.path.stat().st_size:
            reads[0] += 1
        return scan_entries(segment)

    WalSegment.scan_entries = counting
    try:
        yield reads
    finally:
        WalSegment.scan_entries = scan_entries


def _ingest_row(corpus, count, fsync_policy, workdir):
    """One durable ingest run: throughput + WAL/snapshot accounting."""
    directory = Path(workdir) / f"fsync-{fsync_policy}"
    service = RetrievalService(
        corpus.collection,
        config=ServiceConfig(
            durability_dir=str(directory),
            fsync_policy=fsync_policy,
            snapshot_interval_ops=SNAPSHOT_INTERVAL,
            result_cache_size=0,
        ),
    )
    ops = _ops(service, count)
    with _segment_reads() as reads:
        start = time.perf_counter()
        apply_ingest(service, ops)
        elapsed = time.perf_counter() - start
    digest = engine_state_digest(service.engine)
    stats = service.engine.durability.statistics()
    service.close()

    state = RecoveryManager(directory).recover()
    assert state.state_digest() == digest, (
        f"fsync={fsync_policy}: recovered digest diverged from live state"
    )
    assert state.ingested_ops == count

    user_bytes = _user_bytes(ops)
    durable_bytes = stats["wal_bytes"] + _directory_snapshot_bytes(directory)
    return {
        "mode": f"durable-{fsync_policy}",
        "ops": count,
        "seconds": elapsed,
        "ops_per_s": count / elapsed if elapsed else 0.0,
        "wal_bytes_per_op": stats["wal_bytes"] / count if count else 0.0,
        "write_amplification": durable_bytes / user_bytes if user_bytes else 0.0,
        "checkpoints": int(stats["checkpoints"]),
        "wal_segment_reads": reads[0],
    }


def _memory_row(corpus, count):
    service = RetrievalService(
        corpus.collection, config=ServiceConfig(result_cache_size=0)
    )
    ops = _ops(service, count)
    start = time.perf_counter()
    apply_ingest(service, ops)
    elapsed = time.perf_counter() - start
    service.close()
    return {
        "mode": "memory",
        "ops": count,
        "seconds": elapsed,
        "ops_per_s": count / elapsed if elapsed else 0.0,
        "wal_bytes_per_op": 0.0,
        "write_amplification": 0.0,
        "checkpoints": 0,
        "wal_segment_reads": 0,
    }


def _recovery_row(corpus, count, workdir, repeats):
    """Recovery throughput over a directory with snapshots + a WAL tail."""
    directory = Path(workdir) / "recovery"
    service = RetrievalService(
        corpus.collection,
        config=ServiceConfig(
            durability_dir=str(directory),
            fsync_policy="never",
            snapshot_interval_ops=SNAPSHOT_INTERVAL,
            result_cache_size=0,
        ),
    )
    apply_ingest(service, _ops(service, count))
    digest = engine_state_digest(service.engine)
    service.close()

    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        state = RecoveryManager(directory).recover()
        recovered_digest = state.state_digest()
        elapsed = time.perf_counter() - start
        assert recovered_digest == digest, "recovered digest diverged"
        best = elapsed if best is None else min(best, elapsed)
    total_items = state.text_count + state.shot_count
    return {
        "mode": "recover",
        "ops": count,
        "seconds": best,
        "recovery_ops_per_s": count / best if best else 0.0,
        "items_restored": total_items,
        "wal_tail_ops": state.wal_index_ops,
    }


def _rebase_row(corpus, count, workdir, repeats):
    """The checkpoint after a compaction: the full live state, re-encoded.

    Ingests the stream, deletes every fourth item of it, compacts, then
    times the checkpoint the compaction asked for (best of ``repeats``;
    each later one re-arms it through the same ``note_compaction`` hook).
    Its cost is the JSON encode of every live document and shot plus the
    writes, all under the engine's exclusive writer.
    """
    directory = Path(workdir) / "rebase"
    service = RetrievalService(
        corpus.collection,
        config=ServiceConfig(
            durability_dir=str(directory),
            fsync_policy="never",
            snapshot_interval_ops=SNAPSHOT_INTERVAL,
            result_cache_size=0,
        ),
    )
    ops = _ops(service, count)
    apply_ingest(service, ops)
    for op in ops[::4]:
        if op[0] == "doc":
            service.delete_document(op[1])
        else:
            service.delete_shot(op[1])
    assert service.compact().reclaimed > 0
    engine, durability = service.engine, service.engine.durability
    best = None
    for repeat in range(repeats):
        with engine.exclusive_writer():
            if repeat:
                durability.note_compaction()
            start = time.perf_counter()
            manifest = durability.checkpoint(engine)
            elapsed = time.perf_counter() - start
        assert manifest["rebase"], "the checkpoint after a compaction is a rebase"
        best = elapsed if best is None else min(best, elapsed)
    items = int(manifest["text_count"]) + int(manifest["shot_count"])
    delta_bytes = sum((directory / name).stat().st_size for name in manifest["deltas"])
    digest = engine_state_digest(engine)
    service.close()
    assert RecoveryManager(directory).recover().state_digest() == digest
    return {
        "mode": "rebase",
        "items": items,
        "shots": int(manifest["shot_count"]),
        "seconds": best,
        "rebase_items_per_s": items / best if best else 0.0,
        "delta_bytes": delta_bytes,
    }


def _sanity_check(tables, smoke):
    by_mode = {row["mode"]: row for row in tables["ingest"]}
    for row in tables["ingest"]:
        assert row["ops_per_s"] > 0, f"{row['mode']}: no throughput measured"
    # Compaction must actually have run, or the amplification number is
    # measuring an empty snapshot chain.
    assert by_mode["durable-never"]["checkpoints"] >= 1
    # A count, not a timing: checkpoints take their records from the
    # writer's in-memory copy, so ingest never reads its own log back.
    assert by_mode["durable-never"]["wal_segment_reads"] == 0, (
        f"the timed ingest read {by_mode['durable-never']['wal_segment_reads']} "
        f"non-empty WAL segment(s) after the service was open"
    )
    assert tables["recovery"]["recovery_ops_per_s"] > 0
    assert tables["rebase"]["rebase_items_per_s"] > 0


def run_experiment(bench_corpus, count, repeats):
    workdir = tempfile.mkdtemp(prefix="bench-e16-")
    try:
        ingest_rows = [_memory_row(bench_corpus, count)]
        for policy in ("never", "interval", "always"):
            ingest_rows.append(_ingest_row(bench_corpus, count, policy, workdir))
        memory_qps = ingest_rows[0]["ops_per_s"]
        for row in ingest_rows:
            row["slowdown_vs_memory"] = (
                memory_qps / row["ops_per_s"] if row["ops_per_s"] else 0.0
            )
        recovery_row = _recovery_row(bench_corpus, count, workdir, repeats=repeats)
        rebase_row = _rebase_row(bench_corpus, count, workdir, repeats=repeats)
        return {"ingest": ingest_rows, "recovery": recovery_row, "rebase": rebase_row}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _guarded(tables):
    """Only the host-stable higher-is-better rows: ingest under
    ``fsync=never`` (no device sync latency in the number), recovery, and
    the rebase, the row the shot-vector encoding weighs on most."""
    by_mode = {row["mode"]: row for row in tables["ingest"]}
    return {
        "ingest_never_ops_per_s": by_mode["durable-never"]["ops_per_s"],
        "recovery_ops_per_s": tables["recovery"]["recovery_ops_per_s"],
        "rebase_items_per_s": tables["rebase"]["rebase_items_per_s"],
    }


BENCH = Bench(
    name="e16",
    run_experiment=run_experiment,
    smoke={"count": 128, "repeats": 2},
    full={"count": 512, "repeats": 3},
    tables={
        "ingest": "E16a: durable ingest write path (digest-verified)",
        "recovery": "E16b: crash recovery (snapshot + WAL replay)",
        "rebase": "E16c: the full checkpoint after a compaction (digest-verified)",
    },
    sanity_check=_sanity_check,
    guarded=_guarded,
    note=(
        "Every durable row recovers its directory and asserts the recovered "
        "digest equals the live engine's before reporting numbers. "
        "write_amplification = (WAL appends + live snapshot chain) / user "
        "bytes (ids, text, 8 bytes a float, as E21 counts them) at the "
        f"bench's snapshot cadence ({SNAPSHOT_INTERVAL} ops); fsync=always "
        "depends on device sync latency and is recorded, never guarded. "
        "The rebase row times the checkpoint after deleting every fourth "
        "item and compacting (best of repeats)."
    ),
)

test_e16_durability = BENCH.as_test()

if __name__ == "__main__":
    raise SystemExit(BENCH.main())

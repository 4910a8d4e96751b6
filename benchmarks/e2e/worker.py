"""Runs one workload in this process and prints one JSON document (rule R1).

``run.py`` starts this module in a fresh subprocess with ``PYTHONHASHSEED=0``
for every (workload, pass).  The process pins itself to one CPU: the program
is pure Python under one interpreter lock, and on this 2-vCPU guest letting
its threads hop between the vCPUs made every workload 1.4 to 2 times slower
and its numbers less repeatable (README, "Noise").  The untraced pass measures the
end-to-end metrics of the workload's row; the traced pass replays the first
quarter of the same op stream twice — wrappers off, then on — and derives the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.serving import ServingConfig, ServingFrontend  # noqa: E402
from repro.workload.ingest import service_feature_dim  # noqa: E402

from benchmarks.e2e import workloads as W  # noqa: E402
from benchmarks.e2e.hostspeed import HostSpeedProbe  # noqa: E402
from benchmarks.e2e.metrics import (  # noqa: E402
    END_TO_END, PER_LAYER, emitted_by, median, percentile,
)
from benchmarks.e2e.trace import LayerTable, Tracer, install  # noqa: E402

#: One-shot durations are repeated this often and the best is kept (R3).
RECOVER_REPEATS = 9

#: Share of the op stream the traced pass replays (the time cap does not
#: leave room for two full passes beside the set-ups).
TRACED_SHARE = 0.25

#: A search slower than this many phase medians is a reader stall.
STALL_FACTOR = 20

#: The replication probe: ops applied after the replica attaches, and how
#: many ops pass between polls.
REPLICA_TAIL_OPS = 512
REPLICA_POLL_EVERY = 16


class Phase:
    """One workload's inputs bound to one freshly built service."""

    def __init__(self, built: W.Built, seed: int, scale: float, probe: HostSpeedProbe) -> None:
        self.built = built
        self.service = built.service
        self.seed = seed
        self.scale = scale
        self.probe = probe
        #: Set by run_phase: is this the traced pass, and is this the
        #: untraced run whose end-to-end metrics are reported.
        self.traced = False
        self.reported = False
        self.frontend = None
        self.sessions: List[str] = []
        self.sizes: Dict[str, int] = {}
        self.facts: Dict[str, float] = {}

    def rng(self, label: str) -> random.Random:
        return random.Random(f"{self.seed}:{label}")

    def warm_up(self) -> None:
        raise NotImplementedError

    def timed(self) -> W.PhaseResult:
        raise NotImplementedError

    def verify(self, result: W.PhaseResult) -> None:
        """Correctness gates that need the live service; then release it."""
        self.service.close()


class AdaptiveSessions(Phase):
    def __init__(self, *args) -> None:
        super().__init__(*args)
        counts = W.OP_COUNTS["adaptive_sessions"]
        self.rounds = W.scaled(counts["rounds"], self.scale, floor=2)
        self.sizes = {**counts, "rounds": self.rounds}
        population = W.adaptive_population(
            self.rng("users"), self.built.corpus, counts["slots"],
            counts["session_length"], self.rounds,
        )
        W.open_adaptive_sessions(self.service, population)
        self.sessions = [user.session_id for users in population.slots for user in users]
        self.driver = W.AdaptiveDriver(self.service, population)

    def warm_up(self) -> None:
        self.sizes["warmup_ops"] = self.driver.warm_up()

    def timed(self) -> W.PhaseResult:
        return self.driver.run(self.rounds)

    def verify(self, result: W.PhaseResult) -> None:
        self.facts["sessions_evicted"] = len(self.sessions) - self.service.session_count
        super().verify(result)
        result.digest = self.driver.digest()
        W.check_adaptive_client_independence(self.built.corpus, self.seed)


class KeywordScatter(Phase):
    def __init__(self, *args) -> None:
        super().__init__(*args)
        counts = W.OP_COUNTS["keyword_scatter"]
        searches = W.scaled(counts["searches"], self.scale)
        self.sizes = {**counts, "searches": searches, "warmup_ops": W.WARMUP_OPS}
        self.queries = W.keyword_queries(
            self.rng("queries"), self.built.corpus, counts["query_pool"],
            W.WARMUP_OPS + searches,
        )
        self.pairs = W.open_baseline_sessions(self.service, counts["sessions"], "k")
        self.sessions = [session_id for _, session_id in self.pairs]
        self.frontend = ServingFrontend(self.service, ServingConfig(max_concurrency=W.CLIENTS))

    def warm_up(self) -> None:
        W.drive_keyword(self.frontend, self.pairs, self.queries[: W.WARMUP_OPS])

    def timed(self) -> W.PhaseResult:
        return W.drive_keyword(self.frontend, self.pairs, self.queries[W.WARMUP_OPS :])

    def verify(self, result: W.PhaseResult) -> None:
        snapshot = self.frontend.metrics_snapshot()
        counters = snapshot["counters"]
        self.facts["queue_wait_ms_p95"] = 1000.0 * snapshot["queue_wait"].get("p95", 0.0)
        self.facts["rejected"] = sum(
            counters.get(name, 0)
            for name in ("rejected_draining", "rejected_quota", "rejected_queue_full")
        )
        self.facts["deadline_exceeded"] = counters.get("deadline_queued", 0) + counters.get(
            "deadline_running", 0
        )
        self.facts["sessions_evicted"] = len(self.sessions) - self.service.session_count
        self.frontend.close()
        W.check_sharded_equals_monolithic(
            self.rng("gate"), self.built.corpus, self.service, self.queries
        )
        super().verify(result)


class DurableIngest(Phase):
    workload = "durable_ingest"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        counts = W.OP_COUNTS[self.workload]
        mutations = W.scaled(counts["mutations"], self.scale)
        self.counts = counts
        self.sizes = {**counts, "mutations": mutations, "warmup_ops": W.WARMUP_OPS}
        ops, op_bytes = W.mutation_stream(
            self.rng("mutations"), self.built.corpus, W.WARMUP_OPS + mutations,
            service_feature_dim(self.service), "m",
        )
        self.warmup_ops, self.timed_ops = ops[: W.WARMUP_OPS], ops[W.WARMUP_OPS :]
        self.timed_user_bytes = sum(op_bytes[W.WARMUP_OPS :])
        self.disk_user_bytes = sum(op_bytes)
        self.durability = self.service.engine.durability
        self.directory = Path(self.durability.directory)

    def warm_up(self) -> None:
        for op in self.warmup_ops:
            W.apply_mutation(self.service, op)
        self._wal_before = self.durability.statistics()

    def timed(self) -> W.PhaseResult:
        return W.drive_ingest(self.service, self.timed_ops, self.counts["compact_every"])

    def verify(self, result: W.PhaseResult) -> None:
        wal = self.durability.statistics()
        records = wal["wal_records"] - self._wal_before["wal_records"]
        self.facts["wal_bytes"] = wal["wal_bytes"] - self._wal_before["wal_bytes"]
        self.facts["wal_bytes_per_op"] = self.facts["wal_bytes"] / records if records else 0.0
        # The replica probe rides on the traced write-path run; recovery is
        # timed on the write-path workload only (R4).
        write_path = self.workload == "durable_ingest"
        if write_path and self.traced:
            self._probe_replication()
        result.digest = W.engine_state_digest(self.service.engine)
        super().verify(result)
        self.facts["disk_bytes_per_user_byte"] = (
            W.directory_bytes(self.directory) / self.disk_user_bytes
        )
        timed = write_path and self.reported
        reopens = W.check_recovers(
            self.built.corpus, self.directory, result.digest, RECOVER_REPEATS if timed else 1
        )
        if timed:
            self.facts["recover_s"] = min(reopens)
        if write_path and self.traced:
            self._probe_recovery_halves()

    def _probe_replication(self) -> None:
        """Attach a fresh replica to the live primary, tail a short stream,
        then close the primary and promote the replica."""
        from repro.replication import ReplicaServer

        service, corpus = self.service, self.built.corpus
        tail, tail_bytes = W.mutation_stream(
            self.rng("replica-tail"), corpus, REPLICA_TAIL_OPS, service_feature_dim(service), "t"
        )
        self.disk_user_bytes += sum(tail_bytes)
        wal = self.durability.wal
        replica = ReplicaServer(self.directory, corpus=corpus)
        W.check(
            replica.state_digest() == W.engine_state_digest(service.engine),
            "fresh replica digest != primary digest",
        )
        polls: List[float] = []
        lags: List[int] = []
        applied = 0
        for index, op in enumerate(tail, start=1):
            W.apply_mutation(service, op)
            if index % REPLICA_POLL_EVERY == 0:
                lags.append(wal.last_lsn - replica.applied_lsn)
                started = perf_counter()
                applied += replica.poll()
                polls.append(perf_counter() - started)
        W.check(
            replica.state_digest() == W.engine_state_digest(service.engine),
            "tailing replica digest != primary digest",
        )
        service.close()
        started = perf_counter()
        promotion = replica.promote()
        promote_s = perf_counter() - started
        promotion.service.close()
        W.check(promotion.digests_match, "promoted service digest != replica digest")
        self.facts.update(
            {
                "replication.catch_up_per_s": (applied / sum(polls), len(polls)),
                "replication.poll_ms_p50": (1000.0 * median(polls), len(polls)),
                "replication.promote_s": (promote_s, 1),
                "replication.lag_lsn_max": (max(lags), len(lags)),
            }
        )

    def _probe_recovery_halves(self) -> None:
        """The two halves of a reopen, timed through their public calls."""
        from repro.durability.recovery import RecoveryManager, build_monolithic_indexes

        reads, builds = [], []
        for _ in range(RECOVER_REPEATS):
            started = perf_counter()
            state = RecoveryManager(self.directory).recover()
            recovered = perf_counter()
            build_monolithic_indexes(state)
            builds.append(perf_counter() - recovered)
            reads.append(recovered - started)
        self.facts.update(
            {
                "durability.recover_read_s": (min(reads), RECOVER_REPEATS),
                "durability.recover_build_s": (min(builds), RECOVER_REPEATS),
            }
        )


class ReadUnderIngest(DurableIngest):
    workload = "read_under_ingest"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.queries = W.keyword_queries(
            self.rng("queries"), self.built.corpus, self.counts["query_pool"], 4096
        )

    def timed(self) -> W.PhaseResult:
        return W.drive_read_under_ingest(
            self.service, self.timed_ops, self.counts["writer_per_s"], self.probe.recent,
            self.counts["compact_every"], self.counts["session_searches"], self.queries,
        )


PHASES = {
    "adaptive_sessions": AdaptiveSessions,
    "keyword_scatter": KeywordScatter,
    "durable_ingest": DurableIngest,
    "read_under_ingest": ReadUnderIngest,
}


def run_phase(
    name: str, built: W.Built, seed: int, scale: float, probe: HostSpeedProbe,
    tracer: Optional[Tracer] = None, reported: bool = False,
) -> Tuple[Phase, W.PhaseResult]:
    """Inputs, freeze, warm-up, the timed phase, then the correctness gates."""
    phase = PHASES[name](built, seed, scale, probe)
    phase.traced = tracer is not None
    phase.reported = reported
    gc.collect()
    gc.freeze()
    phase.warm_up()
    cache_before = phase.service.engine.result_cache_stats()
    if tracer is not None:
        install(tracer, phase.service, phase.frontend, phase.sessions)
    result = phase.timed()
    if tracer is not None:
        tracer.uninstall()
    # Read before the gates build their own reference services.
    phase.facts["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cache_after = phase.service.engine.result_cache_stats()
    hits = cache_after["hits"] - cache_before["hits"]
    lookups = hits + cache_after["misses"] - cache_before["misses"]
    phase.facts["result_cache_hit_share"] = hits / lookups if lookups else 0.0
    phase.verify(result)
    W.check(result.failed == 0, f"{result.failed} of {result.attempted} ops failed")
    return phase, result


def _durable_dir(name: str, workdir: Path, label: str) -> Optional[Path]:
    return workdir / label if name in ("durable_ingest", "read_under_ingest") else None


def _primary(name: str, result: W.PhaseResult) -> List[float]:
    """Latencies of the workload's primary op: what its throughput counts."""
    return result.of("mutation" if name == "durable_ingest" else "search")


# -- the untraced pass: end-to-end metrics ------------------------------------


def untraced_run(
    name: str, seed: int, scale: float, smoke: bool, workdir: Path, probe: HostSpeedProbe
) -> Dict[str, object]:
    """Set up once, run the phase once, report the workload's row (R4)."""
    started = perf_counter()
    built = W.build(
        name, _durable_dir(name, workdir, "durable"),
        W.SMOKE_CORPUS_CONFIG if smoke else W.CORPUS_CONFIG,
    )
    setup_factor = probe.factor(started, perf_counter())
    phase, result = run_phase(name, built, seed, scale, probe, reported=True)
    factor = probe.factor(result.started, result.started + result.wall_s)
    searches, mutations = result.of("search"), result.of("mutation")
    #: name -> (as measured, samples, host-speed factor of its interval).
    #: Sizes are left as measured, and so is recover_s: the best of nine
    #: already sheds the host's additive noise, and dividing it by a probe
    #: reading widened its spread.
    measured = {
        "setup_s": (built.setup_s, 1, setup_factor),
        "search_p50_ms": (1000.0 * percentile(searches, 0.50), len(searches), factor),
        "search_p95_ms": (1000.0 * percentile(searches, 0.95), len(searches), factor),
        "search_per_s": (len(searches) / result.wall_s, len(searches), factor),
        "mutation_p50_ms": (1000.0 * percentile(mutations, 0.50), len(mutations), factor),
        "mutation_per_s": (len(mutations) / result.wall_s, len(mutations), factor),
        "disk_bytes_per_user_byte": (phase.facts.get("disk_bytes_per_user_byte", 0.0), 1, 1.0),
        "recover_s": (phase.facts.get("recover_s", 0.0), RECOVER_REPEATS, 1.0),
        "peak_rss_mb": (phase.facts["peak_rss_mb"], 1, 1.0),
        "failed_share": (result.failed / result.attempted, result.attempted, 1.0),
    }
    units = {metric: unit for metric, unit, _, _, _ in END_TO_END}
    metrics = {}
    for metric in emitted_by(name):
        raw, samples, interval_factor = measured[metric]
        # At reference host speed: rates are multiplied, times divided.
        value = raw * interval_factor if units[metric] == "1/s" else raw / interval_factor
        metrics[metric] = {
            "value": float(value), "unit": units[metric], "samples": samples, "raw": float(raw),
        }
    return {
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
        "phase_wall_s": result.wall_s,
        "host_speed_factor": factor,
        "sizes": phase.sizes,
        "digest": result.digest,
        "facts": phase.facts,
    }


# -- the traced pass: per-layer metrics ---------------------------------------


def traced_run(
    name: str, seed: int, scale: float, smoke: bool, workdir: Path,
    trace_out: Optional[str], probe: HostSpeedProbe,
) -> Dict[str, object]:
    scale *= TRACED_SHARE
    corpus_config = W.SMOKE_CORPUS_CONFIG if smoke else W.CORPUS_CONFIG
    # Same inputs twice: wrappers off, then on.  The first pass only yields
    # the phase wall that the tracing overhead is measured against.
    plain_built = W.build(
        name, _durable_dir(name, workdir, "durable-plain"), corpus_config, breakdown=True
    )
    _, plain = run_phase(name, plain_built, seed, scale, probe)
    built = W.build(
        name, _durable_dir(name, workdir, "durable-traced"), corpus_config, breakdown=True
    )
    tracer = Tracer()
    phase, result = run_phase(name, built, seed, scale, probe, tracer)
    if trace_out:
        tracer.write(trace_out)
    table = LayerTable(tracer.spans)
    facts = phase.facts
    searches = table.calls("service.search")

    layer: Dict[str, Tuple[float, int]] = {}

    def put(metric: str, value: float, samples: int) -> None:
        layer[metric] = (value, samples)

    builds = (plain_built, built)
    put("collection.generate_s", median([b.generate_s for b in builds]), 2)
    put("index.build_s", median([b.build_s - b.bootstrap_s for b in builds]), 2)
    put("durability.bootstrap_s", median([b.bootstrap_s for b in builds]), 2)

    edge = table.calls("serving.search")
    put("serving.edge_self_ms_p50", table.self_ms_p50("serving.search"), edge)
    put("serving.queue_wait_ms_p95", facts.get("queue_wait_ms_p95", 0.0), edge)
    put("serving.rejected", facts.get("rejected", 0), edge)
    put("serving.deadline_exceeded", facts.get("deadline_exceeded", 0), edge)

    put("service.search_self_ms_p50", table.self_ms_p50("service.search"), searches)
    put("service.feedback_ms_p50", table.duration_ms("service.feedback"),
        table.calls("service.feedback"))
    put("service.sessions_evicted", facts.get("sessions_evicted", 0), len(phase.sessions))
    under_ingest = name == "read_under_ingest"
    put("service.search_under_ingest_p95_ms",
        table.duration_ms("service.search", 0.95) if under_ingest else 0.0,
        searches if under_ingest else 0)

    reranks = table.calls("core.rerank_scores")
    put("core.submit_query_self_ms_p50", table.self_ms_p50("core.submit_query"),
        table.calls("core.submit_query"))
    put("core.rerank_scores_ms_p50", table.duration_ms("core.rerank_scores"), reranks)
    put("core.rerank_memo_hit_share",
        1.0 - table.calls("core.rerank_scores_uncached") / reranks if reranks else 0.0, reranks)
    put("core.expansion_terms_ms_p50", table.duration_ms("core.expansion_terms"),
        table.calls("core.expansion_terms"))
    put("core.observe_ms_p50", table.duration_ms("core.observe"), table.calls("core.observe"))
    engine_searches = table.calls("retrieval.search")
    put("core.adapted_query_terms_mean",
        table.count_sum("retrieval.search") / engine_searches if engine_searches else 0.0,
        engine_searches)

    similar = table.calls("index.visual_similar")
    put("index.visual_similar_ms_p50", table.duration_ms("index.visual_similar"), similar)
    put("index.visual_similar_calls_per_search", similar / searches if searches else 0.0, searches)

    scored = table.calls("index.text_score")
    put("index.text_score_ms_p50", table.duration_ms("index.text_score"), scored)
    put("index.postings_per_query_mean",
        table.count_sum("index.text_score", 0) / scored if scored else 0.0, scored)

    hits = table.count_sum("service.search")
    put("retrieval.search_self_ms_p50", table.self_ms_p50("retrieval.search"), engine_searches)
    put("retrieval.result_cache_hit_share", facts.get("result_cache_hit_share", 0.0),
        engine_searches)
    put("retrieval.docs_scored_per_hit_mean",
        table.count_sum("index.text_score", 1) / hits if hits else 0.0, scored)

    scatters = table.calls("sharding.scatter")
    skews = [
        max(shards) / (sum(shards) / len(shards))
        for shards in table.child_durations("sharding.scatter", "sharding.shard_score")
        if shards and sum(shards) > 0
    ]
    put("sharding.scatter_ms_p50", table.duration_ms("sharding.scatter"), scatters)
    put("sharding.fanout_skew_p50", median(skews), len(skews))
    put("sharding.merge_self_ms_p50", table.self_ms_p50("sharding.scatter"), scatters)

    compactions = table.calls("index.compact")
    put("index.mutation_apply_ms_p50", table.duration_ms("index.mutation_apply"),
        table.calls("index.mutation_apply"))
    put("index.compact_ms_p50", table.duration_ms("index.compact"), compactions)
    put("index.compactions", compactions, compactions)
    put("index.reclaimed_slots", table.count_sum("index.compact"), compactions)

    checkpoints = table.durations("durability.checkpoint")
    appends = table.calls("durability.wal_append")
    durable = isinstance(phase, DurableIngest)
    phase_bytes = phase.timed_user_bytes if durable else 0
    put("durability.wal_append_ms_p50", table.duration_ms("durability.wal_append"), appends)
    put("durability.wal_bytes_per_op", facts.get("wal_bytes_per_op", 0.0), appends)
    put("durability.checkpoint_ms_p50", 1000.0 * median(checkpoints), len(checkpoints))
    put("durability.checkpoint_ms_max", 1000.0 * max(checkpoints, default=0.0), len(checkpoints))
    put("durability.checkpoints", len(checkpoints), len(checkpoints))
    put("durability.checkpoint_share", sum(checkpoints) / result.wall_s, len(checkpoints))
    put("durability.bytes_written_per_user_byte",
        (facts.get("wal_bytes", 0.0) + table.count_sum("durability.checkpoint")) / phase_bytes
        if durable else 0.0, appends)
    for metric in ("durability.recover_read_s",
                   "durability.recover_build_s", "replication.catch_up_per_s",
                   "replication.poll_ms_p50", "replication.promote_s",
                   "replication.lag_lsn_max"):
        put(metric, *facts.get(metric, (0.0, 0)))

    reads = result.of("search") if under_ingest else []
    stalls = [latency for latency in reads if latency > STALL_FACTOR * median(reads)]
    late = result.writer_late_s
    put("durability.reader_stall_s_total", sum(stalls), len(reads))
    put("durability.reader_stalls", len(stalls), len(reads))
    put("bench.writer_late_ms_p95", 1000.0 * percentile(late, 0.95), len(late))

    # The two passes ran at different moments: compare their primary-op rates
    # at reference speed.
    factor = probe.factor(result.started, result.started + result.wall_s)
    plain_rate = len(_primary(name, plain)) / plain.wall_s * probe.factor(
        plain.started, plain.started + plain.wall_s
    )
    ops = len(_primary(name, result))
    traced_rate = ops / result.wall_s * factor
    client_seconds = result.client_seconds()
    put("bench.trace_overhead_share", plain_rate / traced_rate - 1.0, ops)
    put("bench.untraced_share", 1.0 - table.total_self_s() / client_seconds, len(tracer.spans))

    units = {metric: unit for metric, unit, _ in PER_LAYER}
    return {
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            metric: {"value": float(value), "unit": units[metric], "samples": int(samples)}
            for metric, (value, samples) in layer.items()
        },
        "phase_wall_s": result.wall_s,
        "host_speed_factor": factor,
        "plain_wall_s": plain.wall_s,
        "sizes": phase.sizes,
        "digest": result.digest,
        "facts": {k: v for k, v in facts.items() if not isinstance(v, tuple)},
        "layer_table": table.rows(),
        "client_op_s": client_seconds,
        "traced_share_of_stream": TRACED_SHARE,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(PHASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-out")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    scale = args.seconds / W.CALIBRATED_SECONDS / (50.0 if args.smoke else 1.0)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    # One CPU for the program, its pools and the probe (see the module docstring).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    probe = HostSpeedProbe()
    probe.start()
    try:
        if args.trace:
            document = traced_run(
                args.workload, args.seed, scale, args.smoke, workdir, args.trace_out, probe
            )
        else:
            document = untraced_run(args.workload, args.seed, scale, args.smoke, workdir, probe)
    except W.CorrectnessError as error:
        print(f"INCORRECT: {error}", file=sys.stderr)
        return 1
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

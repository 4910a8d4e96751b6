"""Command-line interface.

The CLI covers the workflow a downstream user runs most often without
writing Python:

``repro generate``
    Generate a synthetic news collection (with topics and qrels) and save it
    to a directory.
``repro search``
    Run an ad-hoc query against a stored collection and print the ranked
    shots (with average precision when a topic id is supplied).
``repro simulate``
    Run a simulated user study against a stored collection and write the
    interaction log files.
``repro experiment``
    Run the paired policy comparison (baseline / profile / implicit /
    combined) over a stored collection and print the results table.
``repro analyse-logs``
    Analyse a directory of interaction logs against the stored qrels and
    print per-indicator precision.
``repro loadtest``
    Drive N concurrent simulated users through a live service and print the
    canonical event-log digest; the same seed always yields the same digest
    (``--verify`` re-runs the workload and checks).  With ``--durable DIR``
    the service write-ahead-logs every mutation into ``DIR`` (plus optional
    ``--ingest-ops`` deterministic index writes before the workload) and
    prints the canonical index state digest.
``repro recover``
    Recover a durability directory (snapshot chain + WAL tail) and print
    the recovered counts and canonical state digest — the oracle the
    crash-recovery smoke compares against a clean run.

Every command takes ``--seed`` so runs are reproducible.  Invoke as
``repro <command> ...`` (installed entry point) or ``python -m repro ...``.

All retrieval goes through the :class:`~repro.service.RetrievalService`
facade, so the CLI exercises exactly the code path library users and the
experiment runner share.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.collection import CollectionConfig, generate_corpus, load_corpus, save_corpus
from repro.durability.wal import FSYNC_POLICIES
from repro.errors import ReproError
from repro.evaluation import (
    LogAnalyser,
    average_precision,
    compare_per_topic,
)
from repro.interfaces import InteractionLogger
from repro.service import (
    RetrievalService,
    SearchRequest,
    ServiceConfig,
    available_policies,
    create_policy,
)
from repro.serving import ServingConfig
from repro.simulation import shot_durations_from_collection
from repro.utils.validation import DEADLINE, POSITIVE, PROBABILITY
from repro.workload import ContinuousMixSpec, WorkloadSpec

#: The four classic experimental systems, shown as examples in help text;
#: every registered policy name is accepted.
_CLASSIC_POLICIES = ("baseline", "profile", "implicit", "combined")

T = TypeVar("T")


def _checked(
    convert: Callable[[str], T], accept: Callable[[T], bool], problem: str
) -> Callable[[str], T]:
    """An argparse ``type=``: ``convert`` the text, refuse it unless ``accept``.

    A refused value is a usage error at parse time (exit 2), before the
    command does any work.
    """

    def parse(text: str) -> T:
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{problem}, got {text!r}")
        return value

    # argparse words a conversion error as "invalid <name> value".
    parse.__name__ = convert.__name__
    return parse


def _names(text: str) -> List[str]:
    """The distinct names of a comma-separated list, in order."""
    return list(dict.fromkeys(name.strip() for name in text.split(",") if name.strip()))


_POSITIVE = _checked(int, *POSITIVE)
_NON_NEGATIVE = _checked(int, lambda value: value >= 0, "must be non-negative")
_SECONDS = _checked(
    float, lambda value: value >= 0 and math.isfinite(value),
    "must be non-negative and finite",
)
_DEADLINE = _checked(float, *DEADLINE)
_PROBABILITY = _checked(float, *PROBABILITY)
_POLICY_NAMES = _checked(_names, bool, "must name at least one policy")


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adaptive video retrieval with implicit feedback (VLDB'08 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    registered = available_policies()
    listing = ", ".join(registered)
    policy = _checked(
        str, registered.__contains__, f"must be a registered policy ({listing})"
    )
    policies = _checked(
        _POLICY_NAMES, lambda names: set(names) <= set(registered),
        f"must name registered policies only ({listing})",
    )

    generate = subparsers.add_parser("generate", help="generate a synthetic collection")
    generate.add_argument("--output", required=True, help="directory to write the corpus to")
    generate.add_argument("--seed", type=int, default=13)
    generate.add_argument("--days", type=_POSITIVE, default=CollectionConfig().days)
    generate.add_argument("--stories-per-day", type=_POSITIVE,
                          default=CollectionConfig().stories_per_day)
    generate.add_argument("--topics", type=_POSITIVE,
                          default=CollectionConfig().topic_count)

    search = subparsers.add_parser("search", help="search a stored collection")
    search.add_argument("--corpus", required=True, help="directory written by 'generate'")
    search.add_argument("--query", required=True)
    search.add_argument("--topic", default=None, help="topic id to score the ranking against")
    search.add_argument("--limit", type=_POSITIVE, default=10)
    search.add_argument("--user", default="cli",
                        help="user id the service session is opened for")
    search.add_argument("--policy", type=policy, default="baseline",
                        help="registered adaptation policy name (default: %(default)s)")

    simulate = subparsers.add_parser("simulate", help="run a simulated user study")
    simulate.add_argument("--corpus", required=True)
    simulate.add_argument("--logs", required=True, help="directory to write session logs to")
    simulate.add_argument("--users", type=_POSITIVE, default=6)
    simulate.add_argument("--topics-per-user", type=_POSITIVE, default=2)
    simulate.add_argument("--policy", type=policy, default="combined",
                          help="registered adaptation policy name (default: %(default)s)")
    simulate.add_argument("--interface", choices=("desktop", "itv"), default="desktop")
    simulate.add_argument("--seed", type=int, default=2024)

    experiment = subparsers.add_parser("experiment", help="run the policy comparison")
    experiment.add_argument("--corpus", required=True)
    experiment.add_argument("--users", type=_POSITIVE, default=8)
    experiment.add_argument("--topics-per-user", type=_POSITIVE, default=2)
    experiment.add_argument("--interface", choices=("desktop", "itv"), default="desktop")
    experiment.add_argument("--policies", type=policies,
                            default=",".join(_CLASSIC_POLICIES),
                            help="comma-separated registered policy names, e.g. "
                                 + ",".join(_CLASSIC_POLICIES))
    experiment.add_argument("--seed", type=int, default=2024)

    analyse = subparsers.add_parser("analyse-logs", help="analyse interaction log files")
    analyse.add_argument("--corpus", required=True)
    analyse.add_argument("--logs", required=True)

    loadtest = subparsers.add_parser(
        "loadtest", help="drive a deterministic concurrent workload"
    )
    # Each default is read from the config it sets, so it has one copy.
    service, workload, mix = ServiceConfig(), WorkloadSpec(), ContinuousMixSpec()
    loadtest.add_argument("--corpus", required=True, help="directory written by 'generate'")
    loadtest.add_argument("--users", type=_POSITIVE, default=workload.users)
    loadtest.add_argument("--queries", type=_POSITIVE, default=workload.queries_per_user,
                          help="query iterations per user")
    loadtest.add_argument("--workers", type=_POSITIVE, default=4,
                          help="client-side thread count")
    loadtest.add_argument("--policy", type=policy, default=workload.policy,
                          help="registered adaptation policy name (default: %(default)s)")
    loadtest.add_argument("--mix", choices=("balanced", "adaptive-heavy"),
                          default="balanced",
                          help="workload mix: 'balanced' pairs each search with one "
                               "feedback step; 'adaptive-heavy' sends three feedback "
                               "steps per search (exercises session adaptation)")
    loadtest.add_argument("--feedback-per-query", type=_POSITIVE, default=None,
                          help="feedback steps per search step (overrides --mix)")
    loadtest.add_argument("--seed", type=int, default=workload.seed)
    loadtest.add_argument("--log", default=None,
                          help="file to write the canonical event log to")
    loadtest.add_argument("--verify", action="store_true",
                          help="run the workload twice and require identical digests")
    loadtest.add_argument("--serve", action="store_true",
                          help="drive the workload through the async serving edge "
                               "(admission control, per-tenant quotas, deadlines); "
                               "digests stay byte-identical to direct runs when no "
                               "request is rejected or timed out")
    loadtest.add_argument("--serve-deadline", type=_DEADLINE, default=None,
                          metavar="SECONDS",
                          help="per-request deadline for --serve; timed-out requests "
                               "are cancelled cooperatively and kept out of the "
                               "canonical log (implies --serve)")
    loadtest.add_argument("--serve-concurrency", type=_POSITIVE,
                          default=ServingConfig().max_concurrency,
                          help="concurrent evaluation slots of the serving edge "
                               "(default: %(default)s)")
    loadtest.add_argument("--serve-stats", action="store_true",
                          help="print the serving metrics snapshot — per-endpoint "
                               "p50/p95/p99, queue wait, cache hit "
                               "rates, admission counters (implies --serve)")
    loadtest.add_argument("--durable", default=None, metavar="DIR",
                          help="durability directory: WAL every index mutation "
                               "into DIR and print the canonical state digest")
    loadtest.add_argument("--fsync", choices=FSYNC_POLICIES, default=service.fsync_policy,
                          help="WAL fsync policy for --durable (default: %(default)s)")
    loadtest.add_argument("--snapshot-interval", type=_POSITIVE,
                          default=service.snapshot_interval_ops,
                          help="index ops between incremental snapshots "
                               "(default: %(default)s)")
    loadtest.add_argument("--ingest-ops", type=_NON_NEGATIVE, default=0,
                          help="deterministic synthetic index writes (docs and "
                               "shots) applied before the workload phase")
    loadtest.add_argument("--ingest-pause", type=_SECONDS, default=0.0,
                          help="seconds to sleep between ingest ops (stretches "
                               "the crash window for the recovery smoke)")
    loadtest.add_argument("--replicas", type=_NON_NEGATIVE, default=0, metavar="N",
                          help="attach N WAL-shipping read replicas to the "
                               "--durable directory and run the replicated "
                               "ingest loadtest (reads fan out across the "
                               "replica set; requires --durable and "
                               "--ingest-ops)")
    loadtest.add_argument("--chaos", action="store_true",
                          help="inject the seeded chaos schedule into the "
                               "replicated loadtest: replica kills/restarts, "
                               "a primary kill and a failover promotion, with "
                               "the kill-anywhere ingest oracle proving digest "
                               "equality (requires --replicas)")
    loadtest.add_argument("--mix-epochs", type=_NON_NEGATIVE, default=0, metavar="N",
                          help="run the continuous-ingest mix instead of the "
                               "user workload: N epochs of interleaved "
                               "ingest/delete/update/feedback mutations with "
                               "concurrent searches and periodic compaction "
                               "(digest-deterministic across --workers)")
    loadtest.add_argument("--mix-mutations", type=_POSITIVE,
                          default=mix.mutations_per_epoch, metavar="N",
                          help="mutation slots per mix epoch (default: %(default)s)")
    loadtest.add_argument("--mix-searches", type=_NON_NEGATIVE,
                          default=mix.searches_per_epoch, metavar="N",
                          help="concurrent searches per mix epoch (default: %(default)s)")
    loadtest.add_argument("--mix-delete-ratio", type=_PROBABILITY, default=mix.delete_ratio,
                          help="fraction of mutation slots that delete "
                               "(default: %(default)s)")
    loadtest.add_argument("--mix-update-ratio", type=_PROBABILITY, default=mix.update_ratio,
                          help="fraction of mutation slots that re-index an "
                               "existing document (default: %(default)s)")
    loadtest.add_argument("--mix-feedback", type=_NON_NEGATIVE,
                          default=mix.feedback_per_epoch, metavar="N",
                          help="feedback batches per mix epoch (default: %(default)s)")
    loadtest.add_argument("--mix-compact-every", type=_NON_NEGATIVE,
                          default=mix.compact_every, metavar="N",
                          help="compact tombstones after every Nth mix epoch "
                               "(0 disables; default: %(default)s)")
    loadtest.add_argument("--mix-stop-lsn", type=_NON_NEGATIVE, default=None, metavar="N",
                          help="stop applying durable mix ops once the WAL "
                               "reaches lsn N (the clean-prefix arm of the "
                               "SIGKILL oracle; requires --durable)")
    loadtest.add_argument("--mix-log", default=None, metavar="PATH",
                          help="write the mix's canonical op log to PATH")

    recover = subparsers.add_parser(
        "recover", help="recover a durability directory and print its digest"
    )
    recover.add_argument("directory",
                         help="durability directory written by a --durable service")
    recover.add_argument("--to-lsn", type=_NON_NEGATIVE, default=None, metavar="N",
                         help="point-in-time recovery: stop replaying the WAL "
                              "after lsn N (must be at or above the snapshot "
                              "chain's tip watermark; earlier records were "
                              "compacted away)")

    verify = subparsers.add_parser(
        "verify", help="offline integrity check of a durability directory"
    )
    verify.add_argument("directory",
                        help="durability directory to check: WAL checksums, "
                             "snapshot manifest chain, gap report, max "
                             "gap-free LSN; exits nonzero on damage")

    return parser


# -- command implementations -----------------------------------------------------


def _command_generate(args: argparse.Namespace, out) -> int:
    _refuse_unwritable("--output", args.output, directory=True)
    config = CollectionConfig(
        days=args.days,
        stories_per_day=args.stories_per_day,
        topic_count=args.topics,
    )
    corpus = generate_corpus(seed=args.seed, config=config)
    save_corpus(corpus, args.output)
    stats = corpus.summary()
    print(
        f"wrote corpus to {args.output}: "
        f"{stats['videos']:.0f} bulletins, {stats['stories']:.0f} stories, "
        f"{stats['shots']:.0f} shots, {stats['topics']:.0f} topics, "
        f"{stats['judged_pairs']:.0f} judged pairs",
        file=out,
    )
    return 0


def _command_search(args: argparse.Namespace, out) -> int:
    service = RetrievalService.from_directory(args.corpus)
    session = service.open_session(args.user, policy=args.policy, topic_id=args.topic)
    response = service.search(
        SearchRequest(
            user_id=args.user,
            query=args.query,
            session_id=session.session_id,
            topic_id=args.topic,
            limit=args.limit,
        )
    )
    if len(response) == 0:
        print("no results", file=out)
        return 0
    qrels = service.qrels
    for hit in response:
        marker = ""
        if args.topic and qrels is not None and qrels.is_relevant(args.topic, hit.shot_id):
            marker = " [relevant]"
        print(
            f"{hit.rank:>3}. {hit.shot_id}  score={hit.score:.4f} "
            f"[{hit.category}] {hit.headline}{marker}",
            file=out,
        )
    if args.topic and qrels is not None:
        ap = average_precision(response.shot_ids(), qrels.judgements_for(args.topic))
        print(f"average precision vs topic {args.topic}: {ap:.4f}", file=out)
    return 0


def _condition_for(name: str, args: argparse.Namespace):
    from repro.evaluation import ExperimentCondition

    return ExperimentCondition(
        name=name,
        policy=create_policy(name),
        interface=args.interface,
        user_count=args.users,
        topics_per_user=args.topics_per_user,
        seed=args.seed,
    )


def _runner_for(corpus_directory: str):
    from repro.collection.generator import SyntheticCorpus
    from repro.collection.vocabulary import build_vocabulary
    from repro.evaluation import ExperimentRunner
    from repro.utils.rng import RandomSource

    stored = load_corpus(corpus_directory)
    # Rebuild a vocabulary for query-vagueness sampling; the exact background
    # terms only need to be plausible content words, so regenerating from the
    # manifest seed is sufficient.
    vocabulary = build_vocabulary(RandomSource(stored.seed).spawn("cli-vocabulary"))
    corpus = SyntheticCorpus(
        collection=stored.collection,
        topics=stored.topics,
        qrels=stored.qrels,
        vocabulary=vocabulary,
        config=CollectionConfig(),
        seed=stored.seed,
    )
    return ExperimentRunner(corpus)


def _command_simulate(args: argparse.Namespace, out) -> int:
    _refuse_unwritable("--logs", args.logs, directory=True)
    result = _runner_for(args.corpus).run_condition(_condition_for(args.policy, args))
    logs = result.session_logs()
    InteractionLogger().write_sessions(logs, args.logs)
    summary = result.summary()
    print(
        f"ran {len(logs)} simulated sessions on {args.interface} "
        f"({args.policy} policy): MAP={summary['map']:.4f}, "
        f"P@10={summary['precision@10']:.4f}; logs written to {args.logs}",
        file=out,
    )
    return 0


def _command_experiment(args: argparse.Namespace, out) -> int:
    names = args.policies
    conditions = [_condition_for(name, args) for name in names]
    results = _runner_for(args.corpus).run_conditions(conditions)
    print(f"{'system':<12} {'MAP':>8} {'P@10':>8} {'nDCG@10':>9} {'found':>7}", file=out)
    for name in names:
        summary = results[name].summary()
        print(
            f"{name:<12} {summary['map']:>8.4f} {summary['precision@10']:>8.4f} "
            f"{summary['ndcg@10']:>9.4f} {summary['relevant_found']:>7.1f}",
            file=out,
        )
    if "baseline" in results and len(names) > 1:
        best = max((name for name in names if name != "baseline"),
                   key=lambda name: results[name].mean_average_precision)
        baseline = results["baseline"].per_session_metric("average_precision")
        treatment = results[best].per_session_metric("average_precision")
        if len(baseline.keys() & treatment.keys()) < 2:
            print(f"{best} vs baseline: fewer than two shared topics, no paired test",
                  file=out)
        else:
            test = compare_per_topic(baseline, treatment)
            print(
                f"{best} vs baseline: mean AP difference {test.mean_difference:+.4f}, "
                f"p = {test.p_value:.4f}",
                file=out,
            )
    return 0


def _command_analyse_logs(args: argparse.Namespace, out) -> int:
    stored = load_corpus(args.corpus)
    logs = InteractionLogger().read_sessions(args.logs)
    if not logs:
        print(f"no session logs found in {args.logs}", file=sys.stderr)
        return 1
    analyser = LogAnalyser(
        shot_durations=shot_durations_from_collection(stored.collection)
    )
    report = analyser.analyse(logs, qrels=stored.qrels)
    print(
        f"{report.session_count} sessions, "
        f"{report.events_per_session:.1f} events/session, "
        f"{report.queries_per_session:.1f} queries/session",
        file=out,
    )
    print(f"{'indicator':<20} {'precision':>10} {'firings':>9}", file=out)
    for indicator, precision, firings in report.indicator_precision_table():
        print(f"{indicator:<20} {precision:>10.3f} {firings:>9}", file=out)
    return 0


def _service_config(args: argparse.Namespace):
    """The one :class:`ServiceConfig` every loadtest arm serves from; the
    fsync and snapshot flags matter only with ``--durable``."""
    return ServiceConfig(
        durability_dir=args.durable or None,
        fsync_policy=args.fsync,
        snapshot_interval_ops=args.snapshot_interval,
    )


def _command_loadtest(args: argparse.Namespace, out) -> int:
    from repro.workload import ServiceLoadDriver

    if args.durable and args.verify:
        raise ReproError(
            "--verify re-runs the workload against a fresh service, which a "
            "durability directory already holding state would refuse; use "
            "--verify without --durable"
        )
    serve = args.serve or args.serve_stats or args.serve_deadline is not None
    if args.chaos and not args.replicas:
        raise ReproError("--chaos requires --replicas (it faults the replica set)")
    if args.mix_epochs:
        if args.replicas or serve or args.verify or args.ingest_ops:
            raise ReproError(
                "--mix-epochs runs the continuous-ingest mix and is "
                "mutually exclusive with --replicas, --serve*, --verify "
                "and --ingest-ops"
            )
        if args.mix_stop_lsn is not None and not args.durable:
            raise ReproError(
                "--mix-stop-lsn requires --durable: the stop point is "
                "measured against the service's WAL"
            )
    elif args.mix_log is not None or args.mix_stop_lsn is not None:
        raise ReproError(
            "--mix-log and --mix-stop-lsn require --mix-epochs: they belong "
            "to the continuous-ingest mix"
        )
    if args.replicas:
        if not args.durable:
            raise ReproError(
                "--replicas requires --durable: replicas tail the primary's "
                "WAL out of the durability directory"
            )
        if not args.ingest_ops:
            raise ReproError(
                "--replicas requires --ingest-ops: the replicated loadtest "
                "is ingest-driven (writes ship to replicas through the WAL)"
            )
        if args.serve or args.serve_deadline is not None:
            raise ReproError(
                "--replicas and --serve are mutually exclusive: the "
                "replicated loadtest routes reads itself (--serve-stats "
                "still prints its metrics snapshot)"
            )
        if args.log is not None:
            raise ReproError(
                "--replicas and --log are mutually exclusive: the replicated "
                "loadtest runs no user workload to log"
            )
    _refuse_unwritable("--durable", args.durable, directory=True)
    _refuse_unwritable("--log", args.log, directory=False)
    _refuse_unwritable("--mix-log", args.mix_log, directory=False)
    stored = load_corpus(args.corpus)
    service_config = _service_config(args)

    if args.replicas:
        return _run_replicated_loadtest(args, stored, service_config, out)

    if args.mix_epochs:
        return _run_continuous_mix_command(args, stored, service_config, out)

    def factory() -> RetrievalService:
        return RetrievalService.from_corpus(stored, config=service_config)

    feedback_per_query = args.feedback_per_query
    if feedback_per_query is None:
        feedback_per_query = 3 if args.mix == "adaptive-heavy" else 1
    spec = WorkloadSpec(
        users=args.users,
        queries_per_user=args.queries,
        feedback_per_query=feedback_per_query,
        policy=args.policy,
        seed=args.seed,
    )
    serving = None
    if serve:
        serving = ServingConfig(
            max_concurrency=args.serve_concurrency,
            default_deadline_seconds=args.serve_deadline,
        )
    driver = ServiceLoadDriver(factory, max_workers=args.workers, serving=serving)

    prelude = epilogue = None
    if args.durable or args.ingest_ops:
        from repro.durability import engine_state_digest
        from repro.workload.ingest import (
            apply_ingest,
            service_feature_dim,
            synthetic_ingest_ops,
        )

        def prelude(service: RetrievalService) -> None:
            ops = synthetic_ingest_ops(
                args.ingest_ops,
                seed=args.seed,
                feature_dim=service_feature_dim(service),
            )
            apply_ingest(service, ops, pause=args.ingest_pause)

        def epilogue(service: RetrievalService):
            return {"state_digest": engine_state_digest(service.engine)}

    result = driver.run(spec, prelude=prelude, epilogue=epilogue)
    digest = result.digest()
    print(
        f"loadtest: {spec.users} users x {spec.queries_per_user} queries "
        f"x {spec.feedback_per_query} feedback "
        f"({args.workers} workers, policy "
        f"{spec.policy}, seed {spec.seed}): "
        f"{result.request_count} requests in {result.wall_seconds:.3f}s "
        f"({result.throughput_rps:.1f} req/s)",
        file=out,
    )
    print(f"canonical log digest: {digest}", file=out)
    if "state_digest" in result.extras:
        print(f"state-digest: {result.extras['state_digest']}", file=out)
    if serve:
        failures = result.extras.get("serving_failures", {})
        failure_note = (
            ", ".join(f"{name}={count}" for name, count in sorted(failures.items()))
            or "none"
        )
        drained = result.extras.get("serving_drained")
        print(
            f"serving edge: deadline "
            f"{args.serve_deadline if args.serve_deadline is not None else 'none'}, "
            f"{args.serve_concurrency} slot(s); failures: {failure_note}; "
            f"drained cleanly: {'yes' if drained else 'no'}",
            file=out,
        )
    if args.serve_stats:
        _print_serving_stats(result.extras.get("serving_metrics", {}), out)
    if args.log:
        path = result.write_log(args.log)
        print(f"canonical log written to {path}", file=out)
    if args.verify:
        replay_digest = driver.run(spec).digest()
        if replay_digest != digest:
            print(
                f"DETERMINISM FAILURE: replay digest {replay_digest} "
                f"!= {digest}",
                file=sys.stderr,
            )
            return 1
        print("replay digest matches: workload is deterministic", file=out)
    return 0


def _run_continuous_mix_command(args: argparse.Namespace, stored, service_config, out) -> int:
    from repro.workload import run_continuous_mix

    spec = ContinuousMixSpec(
        epochs=args.mix_epochs,
        mutations_per_epoch=args.mix_mutations,
        searches_per_epoch=args.mix_searches,
        delete_ratio=args.mix_delete_ratio,
        update_ratio=args.mix_update_ratio,
        feedback_per_epoch=args.mix_feedback,
        compact_every=args.mix_compact_every,
        search_workers=args.workers,
        seed=args.seed,
    )
    service = RetrievalService.from_corpus(stored, config=service_config)
    try:
        result = run_continuous_mix(
            service, spec, stop_lsn=args.mix_stop_lsn, pause=args.ingest_pause
        )
        counts = result.counts
        mutations = (
            counts["ingest-doc"] + counts["ingest-shot"] + counts["del-doc"]
            + counts["del-shot"] + counts["upd"]
        )
        print(
            f"continuous mix: {spec.epochs} epochs x "
            f"{spec.mutations_per_epoch} mutations "
            f"(delete {spec.delete_ratio:.0%}, update {spec.update_ratio:.0%}, "
            f"{args.workers} search workers, seed {spec.seed}): "
            f"{mutations} mutations, {counts['search']} searches, "
            f"{counts['feedback']} feedback batches in "
            f"{result.wall_seconds:.3f}s",
            file=out,
        )
        print(
            f"mix ops: +{counts['ingest-doc']} docs +{counts['ingest-shot']} "
            f"shots, -{counts['del-doc']} docs -{counts['del-shot']} shots, "
            f"~{counts['upd']} updates; {counts['compact']} compactions "
            f"reclaimed {counts['reclaimed']} tombstones",
            file=out,
        )
        if result.stopped_early:
            print(
                f"stopped early at the durable-prefix budget "
                f"(--mix-stop-lsn {args.mix_stop_lsn})",
                file=out,
            )
        durability = service.engine.durability
        if durability is not None:
            print(f"wal-lsn: {durability.wal.last_lsn}", file=out)
        print(f"mix-digest: {result.digest()}", file=out)
        print(f"state-digest: {result.state_digest}", file=out)
        if args.mix_log:
            path = result.write_log(args.mix_log)
            print(f"mix log written to {path}", file=out)
    finally:
        service.close()
    return 0


def _run_replicated_loadtest(
    args: argparse.Namespace, stored, service_config, out
) -> int:
    """The --replicas arm of loadtest: replicated ingest + read fan-out."""
    from repro.replication import ChaosSchedule, run_replicated_loadtest

    schedule = None
    if args.chaos:
        schedule = ChaosSchedule.generate(
            seed=args.seed,
            total_ops=args.ingest_ops,
            replica_ids=[f"replica-{i + 1}" for i in range(args.replicas)],
        )
        print(
            "chaos schedule: "
            + ", ".join(
                f"op {event.at_op}: {event.action}"
                + (f" {event.target}" if event.target else "")
                for event in schedule.events
            ),
            file=out,
        )
    report = run_replicated_loadtest(
        stored,
        args.durable,
        config=service_config,
        num_replicas=args.replicas,
        ingest_ops=args.ingest_ops,
        seed=args.seed,
        chaos=schedule,
    )
    print(
        f"replicated loadtest: {args.replicas} replica(s), "
        f"{report['ingest_ops']} ingest ops (acked {report['acked_ops']}, "
        f"failed {report['failed_ops']}), reads {report['reads_ok']} ok / "
        f"{report['reads_failed']} failed",
        file=out,
    )
    for event in report["chaos_events"]:
        target = f" {event['target']}" if event["target"] else ""
        print(
            f"chaos: op {event['at_op']}: {event['action']}{target} "
            f"-> {event['outcome']}",
            file=out,
        )
    for promotion in report["promotions"]:
        print(
            f"promotion: {promotion['replica_id']} at lsn "
            f"{promotion['replica_lsn']} -> promoted lsn "
            f"{promotion['promoted_lsn']} (digests "
            f"{'match' if promotion['digests_match'] else 'DIVERGED'}, "
            f"{promotion['records_dropped']} records dropped beyond the "
            f"gap-free prefix)",
            file=out,
        )
    for replica_id, lag in report["lag"].items():
        if lag.get("count"):
            print(
                f"lag {replica_id}: mean={lag['mean']:.1f} "
                f"p95={lag['p95']:.1f} max={lag['max']:.0f} lsn "
                f"({lag['count']:.0f} samples)",
                file=out,
            )
    print(f"final lsn: {report['final_lsn']}", file=out)
    print(f"state-digest: {report['primary_digest']}", file=out)
    print(
        f"replicas-match: {'yes' if report['replicas_match'] else 'NO'}",
        file=out,
    )
    print(
        f"oracle-match: {'yes' if report['oracle_match'] else 'NO'}",
        file=out,
    )
    if args.serve_stats:
        _print_serving_stats(report["metrics"], out)
    return 0 if report["replicas_match"] and report["oracle_match"] else 1


def _print_serving_stats(metrics, out) -> None:
    """Render a serving metrics snapshot as a compact fixed-width report."""
    if not metrics:
        print("serving stats: no metrics collected", file=out)
        return

    def track_line(label: str, track) -> str:
        if not track or not track.get("count"):
            return f"  {label:<12} (no observations)"
        return (
            f"  {label:<12} n={track['count']:>6.0f}  "
            f"mean={track.get('mean', 0.0) * 1000:>8.2f}ms  "
            f"p50={track.get('p50', 0.0) * 1000:>8.2f}ms  "
            f"p95={track.get('p95', 0.0) * 1000:>8.2f}ms  "
            f"p99={track.get('p99', 0.0) * 1000:>8.2f}ms  "
            f"max={track.get('max', 0.0) * 1000:>8.2f}ms"
        )

    print("serving stats:", file=out)
    print("  endpoint latency:", file=out)
    endpoints = metrics.get("endpoints", {})
    if endpoints:
        for endpoint, track in endpoints.items():
            print(track_line(endpoint, track), file=out)
    else:
        print("    (no completed requests)", file=out)
    tenants = metrics.get("tenants", {})
    if tenants:
        print("  per-tenant latency:", file=out)
        for tenant, by_endpoint in tenants.items():
            for endpoint, track in by_endpoint.items():
                print(track_line(f"{tenant}:{endpoint}", track), file=out)
    print(track_line("queue-wait", metrics.get("queue_wait")), file=out)
    counters = metrics.get("counters", {})
    counter_note = (
        ", ".join(f"{name}={value}" for name, value in counters.items()) or "none"
    )
    print(f"  counters: {counter_note}", file=out)
    cache = metrics.get("result_cache", {})
    if cache:
        print(
            f"  result cache: {cache.get('hits', 0):.0f} hits / "
            f"{cache.get('misses', 0):.0f} misses "
            f"(hit rate {cache.get('hit_rate', 0.0):.1%}, "
            f"{cache.get('entries', 0):.0f}/{cache.get('capacity', 0):.0f} entries, "
            f"{cache.get('admitted', 0):.0f} admitted / "
            f"{cache.get('rejected', 0):.0f} rejected)",
            file=out,
        )


def _command_recover(args: argparse.Namespace, out) -> int:
    from repro.durability import RecoveryManager

    state = RecoveryManager(args.directory, stop_lsn=args.to_lsn).recover()
    print(
        f"recovered {args.directory}: checkpoint {state.checkpoint_id} "
        f"(snapshot lsn {state.snapshot_lsn}), applied lsn {state.applied_lsn}",
        file=out,
    )
    if args.to_lsn is not None:
        print(
            f"point-in-time cut: stopped at lsn {state.applied_lsn} "
            f"(requested {args.to_lsn}); "
            f"{state.wal_records_beyond_stop} durable records beyond the "
            f"cut were not replayed",
            file=out,
        )
    print(
        f"WAL replay: {state.wal_index_ops} index ops, "
        f"{state.wal_skipped_duplicates} duplicates skipped, "
        f"{state.wal_dropped_records} records beyond the durable prefix",
        file=out,
    )
    for segment, error in sorted(state.tail_errors.items()):
        print(f"torn tail on {segment}: {error}", file=out)
    print(
        f"state: {state.text_count} documents, {state.shot_count} shots",
        file=out,
    )
    print(f"ingested-ops: {state.ingested_ops}", file=out)
    print(f"mutation-ops: {state.wal_mutation_ops}", file=out)
    print(f"applied-lsn: {state.applied_lsn}", file=out)
    print(f"state-digest: {state.state_digest()}", file=out)
    return 0


def _command_verify(args: argparse.Namespace, out) -> int:
    from repro.durability import verify_directory

    report = verify_directory(Path(args.directory))
    for line in report.lines():
        print(line, file=out)
    return 0 if report.ok else 1


def _check_corpus(path: str) -> None:
    """Refuse a ``--corpus`` that is not a directory written by ``repro generate``."""
    directory = Path(path)
    if not directory.exists():
        problem = "does not exist"
    elif not directory.is_dir():
        problem = "is not a directory"
    elif not (directory / "manifest.json").is_file():
        problem = "holds no corpus manifest"
    else:
        return
    raise ReproError(
        f"--corpus {path!r} {problem}; write one with 'repro generate --output DIR'"
    )


def _refuse_unwritable(flag: str, path: Optional[str], *, directory: bool) -> None:
    """Refuse an output ``path`` whose nearest existing ancestor is not a
    directory, before any work starts.  A ``directory`` output is its own
    first ancestor; a file output may already exist, but not as a directory."""
    if path is None:
        return
    target = Path(path)
    if not directory and target.is_dir():
        raise ReproError(f"{flag} {path!r} cannot be written: it is a directory")
    ancestors = [target, *target.parents] if directory else list(target.parents)
    nearest = next(ancestor for ancestor in ancestors if ancestor.exists())
    if not nearest.is_dir():
        raise ReproError(
            f"{flag} {path!r} cannot be written: {str(nearest)!r} is not a directory"
        )


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code.

    0 is success.  1 is a finding of a verb that ran: ``verify`` found
    damage, a replay or digest mismatch, or no session logs to analyse.
    2 is refused input (an argparse usage error or a refusal) or any
    other :class:`~repro.errors.ReproError` the run stopped on, such as
    a damaged durability directory; it is printed as one
    ``"<verb> failed: <error>"`` line.  Any other exception is a bug and
    keeps its traceback.
    """
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(list(argv) if argv is not None else None)
    handlers = {
        "generate": _command_generate,
        "search": _command_search,
        "simulate": _command_simulate,
        "experiment": _command_experiment,
        "analyse-logs": _command_analyse_logs,
        "loadtest": _command_loadtest,
        "recover": _command_recover,
        "verify": _command_verify,
    }
    try:
        if getattr(args, "corpus", None) is not None:
            _check_corpus(args.corpus)
        return handlers[args.command](args, out)
    except ReproError as error:
        print(f"{args.command} failed: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader (e.g. `repro recover | grep -q ...`) closed the pipe
        # early; the conventional quiet exit, not a traceback.  Detach
        # stdout so interpreter shutdown does not raise again on flush.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

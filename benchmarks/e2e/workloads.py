"""The four E21 workloads: frozen sizes, seeded inputs, set-up and drivers.

``--seed`` reaches only the generators in this file (``random.Random``
seeded with strings, so the streams do not depend on ``PYTHONHASHSEED``);
the program under test sees nothing but the generated requests.  The corpus
is the fixed data set every workload runs over, so it has its own constant
seed: varying it per run would measure the corpus generator, not the system.

Work is fixed by the op counts below (rule R5).  They were calibrated once,
on the host the README records, so that each timed phase lasts about
``CALIBRATED_SECONDS`` at reference host speed; ``--seconds`` scales them
linearly and ``--smoke`` divides them by 50.  Nothing here looks at elapsed
time to decide how much work to do, with the one exception R5 names: the
``read_under_ingest`` reader searches until the writer has finished.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.collection import CollectionConfig, generate_corpus
from repro.durability import engine_state_digest
from repro.durability.manager import DurabilityManager
from repro.feedback.events import EventKind, InteractionEvent
from repro.index.tokenizer import Tokenizer
from repro.profiles.profile import UserProfile
from repro.service import FeedbackBatch, RetrievalService, SearchRequest, ServiceConfig
from repro.serving import ServingFrontend

#: The fixed data set (about 4 k shots), and the fixed user population of
#: ``adaptive_sessions`` (see ``adaptive_population``).
CORPUS_SEED = 2008
POPULATION_SEED = 2008
CORPUS_CONFIG = CollectionConfig(days=60, stories_per_day=12, topic_count=24)

#: ``--smoke`` only has to show every metric is produced, so it runs on a
#: corpus a tenth the size.
SMOKE_CORPUS_CONFIG = CollectionConfig(days=8, stories_per_day=6, topic_count=8)

#: The phase length the op counts were calibrated to; BENCHMARK.json's
#: ``run_seconds``.
CALIBRATED_SECONDS = 20

#: Frozen op counts at ``CALIBRATED_SECONDS`` (R5).  ``adaptive_sessions`` is
#: the exception to the calibration: 1 152 searches is the least that gives
#: every slot whole sessions and every percentile 1 000 samples (R2), and
#: takes about 22 s.
OP_COUNTS: Dict[str, Dict[str, int]] = {
    "adaptive_sessions": {"slots": 24, "session_length": 12, "rounds": 48},
    "keyword_scatter": {"searches": 24000, "sessions": 64, "query_pool": 2048},
    "durable_ingest": {"mutations": 11264, "compact_every": 4096},
    "read_under_ingest": {
        "mutations": 2500,
        "writer_per_s": 125,
        "compact_every": 4096,
        "session_searches": 16,
        "query_pool": 2048,
    },
}

#: Untimed ops run before every timed phase (R1).
WARMUP_OPS = 200

#: Client threads / tasks of the closed loops (R6: nproc is 2).
CLIENTS = 2

#: ``keyword_scatter`` deadline; sized never to fire.
DEADLINE_SECONDS = 1.0

#: Zipf exponent of query popularity, chosen so the 256-entry result cache
#: serves 0.25-0.35 of ``keyword_scatter`` lookups (working set > cache).
ZIPF_EXPONENT = 0.65

#: How deep a simulated user's feedback pass looks into a result list.
FEEDBACK_TOP_K = 3

#: Hits per search pinned in the canonical log.
RECORDED_HITS = 10


def service_config(workload: str, durability_dir: Optional[Path] = None) -> ServiceConfig:
    """The configuration each workload's row in the README names."""
    if workload == "adaptive_sessions":
        return ServiceConfig()
    if workload == "keyword_scatter":
        return ServiceConfig(num_shards=4, executor="thread")
    # Durable primary on the defaults: fsync_policy="interval",
    # snapshot_interval_ops=256.
    return ServiceConfig(durability_dir=str(durability_dir))


def scaled(count: int, scale: float, floor: int = 1) -> int:
    return max(floor, round(count * scale))


# -- set-up ---------------------------------------------------------------------


@dataclass
class Built:
    """One finished set-up: the corpus, the live service, and what it cost."""

    corpus: object
    service: RetrievalService
    generate_s: float
    build_s: float
    bootstrap_s: float = 0.0

    @property
    def setup_s(self) -> float:
        return self.generate_s + self.build_s


@contextmanager
def _timed_bootstrap(sink: List[float]) -> Iterator[None]:
    """Time ``DurabilityManager.create`` (the bootstrap checkpoint) in place.

    The one wrapper that has to sit on a class: the manager does not exist
    until the service constructor calls this classmethod.
    """
    original = DurabilityManager.__dict__["create"]

    def timed(cls, *args, **kwargs):
        started = perf_counter()
        try:
            return original.__func__(cls, *args, **kwargs)
        finally:
            sink.append(perf_counter() - started)

    DurabilityManager.create = classmethod(timed)
    try:
        yield
    finally:
        DurabilityManager.create = original


def build(
    workload: str,
    durability_dir: Optional[Path],
    corpus_config: CollectionConfig = CORPUS_CONFIG,
    breakdown: bool = False,
) -> Built:
    """Corpus generation + service build (+ durable bootstrap): ``setup_s``."""
    started = perf_counter()
    corpus = generate_corpus(seed=CORPUS_SEED, config=corpus_config)
    generated = perf_counter()
    config = service_config(workload, durability_dir)
    bootstrap: List[float] = []
    if breakdown and config.durability_dir is not None:
        with _timed_bootstrap(bootstrap):
            service = RetrievalService.from_corpus(corpus, config=config)
    else:
        service = RetrievalService.from_corpus(corpus, config=config)
    built = perf_counter()
    return Built(
        corpus=corpus,
        service=service,
        generate_s=generated - started,
        build_s=built - generated,
        bootstrap_s=sum(bootstrap),
    )


# -- shared input pieces --------------------------------------------------------


def _indexable_words(corpus) -> List[List[str]]:
    """Per shot, the distinct transcript words the tokenizer keeps."""
    tokenizer = Tokenizer()
    keeps: Dict[str, bool] = {}
    shots = []
    for shot in corpus.collection.iter_shots():
        words = []
        for word in dict.fromkeys(shot.transcript.lower().split()):
            if word not in keeps:
                keeps[word] = word.isalpha() and bool(tokenizer.tokenize(word))
            if keeps[word]:
                words.append(word)
        shots.append(words)
    return shots


def keyword_queries(
    rng: random.Random, corpus, pool_size: int, count: int
) -> List[str]:
    """A Zipf-popular draw of ``count`` queries from ``pool_size`` distinct ones.

    Every query is 2-4 terms of one shot's transcript, so it matches
    something and never fails.
    """
    transcripts = [words for words in _indexable_words(corpus) if len(words) >= 4]
    pool: Dict[str, None] = {}
    while len(pool) < pool_size:
        words = rng.choice(transcripts)
        pool.setdefault(" ".join(rng.sample(words, rng.randint(2, 4))), None)
    queries = list(pool)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(queries))]
    return rng.choices(queries, weights=weights, k=count)


#: One mutation: ``("doc", id, text)``, ``("shot", id, features, concepts)``,
#: ``("del", id)``, ``("delshot", id)`` or ``("upd", id, text)``.
Mutation = Tuple

_CONCEPTS = ("crowd", "flag", "water", "fire", "vehicle", "podium", "field", "night")


def mutation_stream(
    rng: random.Random, corpus, count: int, feature_dim: int, prefix: str
) -> Tuple[List[Mutation], List[int]]:
    """``(ops, user_bytes)``: 60 % ingest, 20 % update, 20 % delete.

    Ingests alternate documents and shots; updates and deletes only ever
    target ids this stream created, so no op can fail.  ``user_bytes[i]``
    is the payload a client has to send for op *i*: ids, text, 8 bytes a
    float.
    """
    words = sorted({word for shot in _indexable_words(corpus) for word in shot})
    live_docs: List[str] = []
    live_shots: List[str] = []
    ops: List[Mutation] = []
    user_bytes: List[int] = []
    ingested = 0

    def text() -> str:
        return " ".join(rng.choice(words) for _ in range(rng.randint(8, 16)))

    for index in range(count):
        roll = rng.random()
        if roll < 0.2 and (live_docs or live_shots):
            from_docs = bool(live_docs) and (not live_shots or rng.random() < 0.5)
            victims = live_docs if from_docs else live_shots
            victim = victims.pop(rng.randrange(len(victims)))
            ops.append(("del" if from_docs else "delshot", victim))
            user_bytes.append(len(victim))
        elif roll < 0.4 and live_docs:
            victim = rng.choice(live_docs)
            body = text()
            ops.append(("upd", victim, body))
            user_bytes.append(len(victim) + len(body))
        elif ingested % 2 == 0:
            ingested += 1
            new_id = f"{prefix}-doc-{index:06d}"
            body = text()
            live_docs.append(new_id)
            ops.append(("doc", new_id, body))
            user_bytes.append(len(new_id) + len(body))
        else:
            ingested += 1
            new_id = f"{prefix}-shot-{index:06d}"
            features = [rng.random() for _ in range(feature_dim)]
            concepts = {
                concept: round(rng.uniform(0.1, 1.0), 3)
                for concept in rng.sample(_CONCEPTS, 2)
            }
            live_shots.append(new_id)
            ops.append(("shot", new_id, features, concepts))
            user_bytes.append(
                len(new_id) + 8 * feature_dim + sum(len(concept) + 8 for concept in concepts)
            )
    return ops, user_bytes


def apply_mutation(service: RetrievalService, op: Mutation) -> None:
    kind = op[0]
    if kind == "doc":
        service.index_documents({op[1]: op[2]})
    elif kind == "shot":
        service.index_shot(op[1], op[2], op[3])
    elif kind == "del":
        service.delete_document(op[1])
    elif kind == "delshot":
        service.delete_shot(op[1])
    else:
        service.update_document(op[1], op[2])


# -- adaptive_sessions inputs ---------------------------------------------------


@dataclass
class SimulatedUser:
    """One user's script: a topic, a profile, a query per iteration."""

    user_id: str
    topic_id: str
    profile: UserProfile
    queries: List[str]
    play_propensity: float
    skip_propensity: float
    error_rate: float
    session_id: str = ""


def adaptive_users(
    rng: random.Random, corpus, slots: int, sessions_per_slot: int, iterations: int,
    prefix: str = "u",
) -> List[List[SimulatedUser]]:
    """Per slot, its users in the style of ``repro.workload.generator``.

    All of a slot's users search one topic, dealt round-robin; with as many
    slots as topics every topic gets the same number of sessions.
    """
    topics = corpus.topics.topics()
    categories = corpus.topics.categories()
    first = rng.randrange(len(topics))
    scripts: List[List[SimulatedUser]] = []
    for slot in range(slots):
        topic = topics[(first + slot) % len(topics)]
        terms = topic.query_terms
        users = []
        for session in range(sessions_per_slot):
            user_id = f"{prefix}{session * slots + slot:03d}"
            # 80 % of profiles are aligned with the topic they search.
            primary = topic.category if rng.random() < 0.8 else rng.choice(categories)
            profile = UserProfile(user_id=user_id)
            profile.set_category_interest(primary, rng.uniform(0.7, 1.0))
            secondary = rng.choice(categories)
            if secondary != primary:
                profile.set_category_interest(secondary, rng.uniform(0.2, 0.5))
            queries = [" ".join(terms[:3])]
            while len(queries) < iterations:
                queries.append(" ".join(rng.sample(terms, min(len(terms), rng.randint(2, 3)))))
            users.append(
                SimulatedUser(
                    user_id=user_id,
                    topic_id=topic.topic_id,
                    profile=profile,
                    queries=queries,
                    play_propensity=rng.uniform(0.3, 0.6),
                    skip_propensity=rng.uniform(0.2, 0.6),
                    error_rate=rng.uniform(0.05, 0.2),
                )
            )
        scripts.append(users)
    return scripts


def synthesise_feedback(user: SimulatedUser, step: int, response, qrels) -> List[InteractionEvent]:
    """The events one user produces over the top of one response.

    Drawn from an RNG labelled ``(user, step)``, so they depend on the
    response alone, never on which client thread ran the step, and belong to
    the user whatever the seed dealt.
    """
    rng = random.Random(f"{POPULATION_SEED}:feedback:{user.user_id}:{step}")
    events: List[InteractionEvent] = []
    clock = 0.0
    for hit in response.top(FEEDBACK_TOP_K):
        relevant = qrels.is_relevant(user.topic_id, hit.shot_id)
        perceived = relevant != (rng.random() < user.error_rate)
        common = dict(
            user_id=user.user_id,
            session_id=response.session_id,
            shot_id=hit.shot_id,
            rank=hit.rank,
        )
        if perceived and rng.random() < user.play_propensity:
            clock += 1.0
            events.append(InteractionEvent(EventKind.PLAY_CLICK, clock, **common))
            dwell = rng.uniform(2.0, max(4.0, hit.duration_seconds or 8.0))
            clock += dwell
            events.append(
                InteractionEvent(EventKind.PLAY_PROGRESS, clock, duration=dwell, **common)
            )
        elif not perceived and rng.random() < user.skip_propensity:
            clock += 0.5
            events.append(InteractionEvent(EventKind.SKIP_RESULT, clock, **common))
    return events


# -- results --------------------------------------------------------------------


@dataclass
class PhaseResult:
    """What one timed phase observed, before any statistic is taken."""

    wall_s: float = 0.0
    #: ``perf_counter()`` when the phase began.
    started: float = 0.0
    #: Client-observed seconds inside every completed call, by op class:
    #: ``search``, ``feedback``, ``mutation``, ``compact``.  A failed op is
    #: counted in ``failed`` and never given a latency.
    calls: Dict[str, List[float]] = field(default_factory=dict)
    #: ``read_under_ingest``: seconds from a mutation falling due to its start.
    writer_late_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: str = ""

    def of(self, op_class: str) -> List[float]:
        return self.calls.setdefault(op_class, [])

    def client_seconds(self) -> float:
        """Total client-observed time inside operations, all classes."""
        return sum(sum(values) for values in self.calls.values())


class CorrectnessError(AssertionError):
    """An output of the program under test was wrong; the run exits non-zero."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CorrectnessError(message)


def _check_ranked(response, where: str) -> None:
    scores = [hit.score for hit in response.hits]
    check(bool(scores), f"{where}: empty result list")
    check(
        all(a >= b for a, b in zip(scores, scores[1:])),
        f"{where}: hits are not in descending score order",
    )


# -- adaptive_sessions ----------------------------------------------------------


@dataclass
class Population:
    """A steady-state population of sessions: ``slots`` users at staggered depths.

    Every slot runs sessions of ``session_length`` search/feedback iterations
    back to back.  Slot *j* enters the timed phase ``offsets[j]`` iterations
    into its first session (the warm-up runs those), so each *round* — one
    iteration of every slot — holds the same mix of session depths.  Adapted
    search cost grows with depth; without the stagger the phase would be a
    ramp and no two stretches of it could be compared.
    """

    slots: List[List[SimulatedUser]]
    offsets: List[int]
    session_length: int

    def step(self, slot: int, position: int) -> Tuple[SimulatedUser, int]:
        """The user and iteration slot ``slot`` is at after ``position`` steps."""
        return (
            self.slots[slot][position // self.session_length],
            position % self.session_length,
        )


def adaptive_population(
    rng: random.Random, corpus, slots: int, session_length: int, rounds: int, prefix: str = "u"
) -> Population:
    """Deal the fixed user population onto staggered slots; ``rng`` is the seed's.

    The users are part of the fixed data set, like the corpus: their topics,
    queries, temperaments and feedback draws never change, and neither does
    the depth at which a slot enters the phase.  The seed decides the order
    the clients walk the slots in and the order in which the users who fall
    wholly inside the phase arrive, so every seed runs a different
    interleaving of exactly the same search/feedback iterations.  Drawing a
    fresh population per seed moved the adaptation work of a phase
    (``similar_to_shot`` calls) by 4.5-7 % between seeds (quartile distance
    over median, ten seeds), more than the host noise left after
    normalisation.
    """
    offsets = [(slot * session_length) // slots for slot in range(slots)]
    sessions_per_slot = (max(offsets) + rounds - 1) // session_length + 1
    users = adaptive_users(
        random.Random(f"{POPULATION_SEED}:{prefix}"), corpus, slots, sessions_per_slot,
        session_length, prefix,
    )
    for slot_users in users:
        # The first and the last user of a slot may be cut by the phase's edges.
        inside = slot_users[1:-1]
        rng.shuffle(inside)
        slot_users[1:-1] = inside
    order = list(range(slots))
    rng.shuffle(order)
    return Population(
        slots=[users[slot] for slot in order],
        offsets=[offsets[slot] for slot in order],
        session_length=session_length,
    )


def open_adaptive_sessions(service: RetrievalService, population: Population) -> None:
    """Open every session up front, in order, so ids are deterministic."""
    for users in population.slots:
        for user in users:
            info = service.open_session(
                user.user_id, topic_id=user.topic_id, profile=user.profile
            )
            user.session_id = info.session_id


class AdaptiveDriver:
    """Closed-loop clients over a :class:`Population`; keeps the canonical log.

    Client *c* owns slots ``c, c + clients, ...`` and walks them round-robin,
    so a user's steps always run in order on one thread.  The log is per
    user, so its digest cannot depend on the number of clients.
    """

    def __init__(self, service: RetrievalService, population: Population) -> None:
        self._service = service
        self._population = population
        self._positions = list(population.offsets)
        self._logs: Dict[str, List[object]] = {}

    def warm_up(self) -> int:
        """Advance every slot to its offset, untimed; returns the op count."""
        ops = 0
        for slot, offset in enumerate(self._population.offsets):
            for position in range(offset):
                self._step(slot, position, None, None)
                ops += 2
        return ops

    def _step(self, slot, position, searches, feedbacks) -> None:
        service = self._service
        user, iteration = self._population.step(slot, position)
        query = user.queries[iteration]
        request = SearchRequest(
            user_id=user.user_id,
            query=query,
            session_id=user.session_id,
            topic_id=user.topic_id,
        )
        started = perf_counter()
        response = service.search(request)
        ended = perf_counter()
        if searches is not None:
            searches.append(ended - started)
        _check_ranked(response, f"{user.user_id} iteration {iteration}")
        check(
            response.iteration == iteration + 1,
            f"{user.user_id}: response says iteration {response.iteration}, "
            f"script is at {iteration + 1}",
        )
        events = synthesise_feedback(user, iteration, response, service.qrels)
        batch = FeedbackBatch(
            user_id=user.user_id, events=tuple(events), session_id=user.session_id
        )
        started = perf_counter()
        info = service.submit_feedback(batch)
        if feedbacks is not None:
            feedbacks.append(perf_counter() - started)
        self._logs.setdefault(user.user_id, []).append(
            [
                query,
                [[hit.shot_id, hit.score] for hit in response.top(RECORDED_HITS)],
                len(events),
                info.seen_shot_count,
            ]
        )

    def run(self, rounds: int, clients: int = CLIENTS) -> PhaseResult:
        """``rounds`` iterations of every slot.

        Feedback synthesis and submission run between a user's searches and
        so count against ``search_per_s``.
        """
        result = PhaseResult()
        searches, feedbacks = result.of("search"), result.of("feedback")
        errors: List[BaseException] = []
        slots = len(self._population.slots)

        def client(first: int) -> None:
            try:
                for _ in range(rounds):
                    for slot in range(first, slots, clients):
                        self._step(slot, self._positions[slot], searches, feedbacks)
                        self._positions[slot] += 1
            except BaseException as error:  # re-raised by the caller after join
                errors.append(error)

        threads = [
            threading.Thread(target=client, args=(first,), name=f"client-{first}")
            for first in range(clients)
        ]
        started = result.started = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result.wall_s = perf_counter() - started
        if errors:
            raise errors[0]
        result.attempted = len(searches) + len(feedbacks)
        return result

    def digest(self) -> str:
        canonical = json.dumps(sorted(self._logs.items()), separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def check_adaptive_client_independence(corpus, seed: int) -> str:
    """Gate: the canonical log digest is the same with 1 and 2 clients."""
    digests = []
    for clients in (1, 2):
        service = RetrievalService.from_corpus(
            corpus, config=service_config("adaptive_sessions")
        )
        population = adaptive_population(
            random.Random(f"{seed}:gate"), corpus, slots=4, session_length=4, rounds=6, prefix="g"
        )
        open_adaptive_sessions(service, population)
        driver = AdaptiveDriver(service, population)
        driver.warm_up()
        driver.run(6, clients=clients)
        digests.append(driver.digest())
        service.close()
    check(
        digests[0] == digests[1],
        f"adaptive_sessions log differs between 1 and 2 clients: {digests}",
    )
    return digests[0]


# -- keyword_scatter ------------------------------------------------------------


def open_baseline_sessions(service: RetrievalService, count: int, prefix: str) -> List[Tuple[str, str]]:
    sessions = []
    for index in range(count):
        user_id = f"{prefix}{index:03d}"
        sessions.append((user_id, service.open_session(user_id, policy="baseline").session_id))
    return sessions


def drive_keyword(
    frontend: ServingFrontend,
    sessions: Sequence[Tuple[str, str]],
    queries: Sequence[str],
) -> PhaseResult:
    """Two closed-loop asyncio clients through ``ServingFrontend.search``."""
    result = PhaseResult()
    result.attempted = len(queries)
    searches = result.of("search")

    async def client(offset: int) -> None:
        for index in range(offset, len(queries), CLIENTS):
            user_id, session_id = sessions[index % len(sessions)]
            request = SearchRequest(user_id=user_id, query=queries[index], session_id=session_id)
            started = perf_counter()
            try:
                response = await frontend.search(request, deadline_seconds=DEADLINE_SECONDS)
            except Exception:
                # Rejected, timed out or raised: a failed op, never a latency.
                result.failed += 1
                continue
            searches.append(perf_counter() - started)
            _check_ranked(response, f"query {queries[index]!r}")

    async def main() -> None:
        await asyncio.gather(*(client(offset) for offset in range(CLIENTS)))

    started = result.started = perf_counter()
    asyncio.run(main())
    result.wall_s = perf_counter() - started
    return result


def check_sharded_equals_monolithic(
    rng: random.Random, corpus, sharded: RetrievalService, queries: Sequence[str]
) -> None:
    """Gate: 4-shard rankings equal monolithic rankings on 64 sampled queries."""
    monolithic = RetrievalService.from_corpus(corpus, config=ServiceConfig())
    try:
        for query in rng.sample(list(queries), min(64, len(queries))):
            expected = monolithic.engine.search_text(query)
            actual = sharded.engine.search_text(query)
            check(
                [(i.shot_id, i.score) for i in actual.items]
                == [(i.shot_id, i.score) for i in expected.items],
                f"4-shard ranking differs from monolithic for {query!r}",
            )
    finally:
        monolithic.close()


# -- durable_ingest / read_under_ingest -------------------------------------------


def drive_ingest(
    service: RetrievalService,
    ops: Sequence[Mutation],
    compact_every: int,
) -> PhaseResult:
    """One closed-loop writer; ``compact()`` every ``compact_every`` ops."""
    result = PhaseResult()
    mutations, compactions = result.of("mutation"), result.of("compact")
    started = result.started = perf_counter()
    for index, op in enumerate(ops, start=1):
        op_started = perf_counter()
        apply_mutation(service, op)
        ended = perf_counter()
        mutations.append(ended - op_started)
        if index % compact_every == 0:
            service.compact()
            compactions.append(perf_counter() - ended)
    result.wall_s = perf_counter() - started
    result.attempted = len(ops) + len(compactions)
    return result


def drive_read_under_ingest(
    service: RetrievalService,
    ops: Sequence[Mutation],
    writer_ops_per_s: float,
    reference_second: Callable[[], float],
    compact_every: int,
    searches_per_session: int,
    queries: Sequence[str],
) -> PhaseResult:
    """An open-loop writer paced by a clock, beside one closed-loop reader.

    Mutation *i* falls due ``i / writer_ops_per_s`` reference seconds into
    the phase, whatever the reader or the writer's own backlog is doing; a
    writer that is late (a checkpoint held it up) catches up at full speed.
    Both threads run at once, so every writer-lock hold — above all the
    checkpoint under ``exclusive_writer()`` — is time the reader spends
    stalled.  The reader searches until the writer has applied its last op
    (the one R5 exception).  It works in baseline sessions of
    ``searches_per_session`` that it opens and closes itself, so memory does
    not grow with the op count.

    ``reference_second()`` is the length of a reference second in wall
    seconds right now: the host-speed factor.  The schedule is laid out in
    reference seconds like every other time this benchmark states, so the
    writer asks for the same share of the machine on a slow stretch of the
    host as on a fast one.  On a wall clock the share is not fixed: the
    checkpoints of 125 ops/s take a fifth of this machine at reference speed
    and three tenths at 1.5 times slower, which the reader's throughput then
    shows as a change of its own.
    """
    result = PhaseResult()
    searches, mutations, compactions = (
        result.of("search"), result.of("mutation"), result.of("compact")
    )
    done = threading.Event()
    reader_gone = threading.Event()
    errors: List[BaseException] = []
    started = result.started = perf_counter()

    def writer() -> None:
        due = started
        try:
            for index, op in enumerate(ops, start=1):
                if reader_gone.is_set():
                    return
                wait = due - perf_counter()
                if wait > 0:
                    time.sleep(wait)
                called = perf_counter()
                result.writer_late_s.append(called - due)
                apply_mutation(service, op)
                ended = perf_counter()
                mutations.append(ended - called)
                if index % compact_every == 0:
                    service.compact()
                    compactions.append(perf_counter() - ended)
                due += reference_second() / writer_ops_per_s
        except BaseException as error:  # re-raised by the caller after join
            errors.append(error)
        finally:
            done.set()

    thread = threading.Thread(target=writer, name="writer")
    thread.start()
    try:
        count = 0
        while not done.is_set():
            if count % searches_per_session == 0:
                if count:
                    service.close_session(session_id)
                user_id = f"reader{count // searches_per_session:05d}"
                session_id = service.open_session(user_id, policy="baseline").session_id
            request = SearchRequest(
                user_id=user_id, query=queries[count % len(queries)], session_id=session_id
            )
            op_started = perf_counter()
            response = service.search(request)
            searches.append(perf_counter() - op_started)
            _check_ranked(response, f"reader query {count}")
            count += 1
    finally:
        # Only matters if the reader raised: the writer stops at its next op.
        reader_gone.set()
        thread.join()
    result.wall_s = perf_counter() - started
    if errors:
        raise errors[0]
    result.attempted = len(searches) + len(ops) + len(compactions)
    return result


def directory_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in Path(directory).rglob("*") if path.is_file())


def check_recovers(
    corpus, directory: Path, expected_digest: str, repeats: int = 1
) -> List[float]:
    """Gate: the reopened directory holds the pre-close digest, ``repeats`` times.

    Returns the seconds every reopen took.
    """
    reopens = []
    for _ in range(repeats):
        started = perf_counter()
        service = RetrievalService.from_corpus(
            corpus, config=service_config("durable_ingest", directory)
        )
        reopens.append(perf_counter() - started)
        try:
            digest = engine_state_digest(service.engine)
        finally:
            service.close()
        check(
            digest == expected_digest,
            f"recovered digest {digest} != pre-close digest {expected_digest}",
        )
    return reopens

"""The engine's W-TinyLFU result cache: what it keeps, and what it serves.

The policy (:mod:`repro.retrieval.result_cache`) only decides which
evaluations to skip, so every served ranking must equal a fresh
evaluation, bit for bit.  What it buys is pinned on a seeded Zipf stream
over the small corpus: an exact hit count, at least that of an LRU of the
same capacity replayed here.

Run as a script, this prints ``result_cache_stats()`` after the pinned
stream, one ``name value`` a line.  CI runs it under two
``PYTHONHASHSEED`` values and compares the output byte for byte, so an
admission decision that depends on the process hash seed fails there.
"""

from __future__ import annotations

import random
import sys
import threading
from collections import OrderedDict

import pytest

from repro.collection import CollectionConfig, generate_corpus
from repro.index import Bm25Scorer, InvertedIndex
from repro.retrieval import EngineConfig, Query, VideoRetrievalEngine

#: The pinned stream: Zipf(0.65) draws, as E21's ``keyword_scatter``, of
#: ``LOOKUPS`` searches over ``POOL`` distinct keyword queries.
CAPACITY = 16
POOL = 160
LOOKUPS = 1600
SEED = 7
#: Hits of the engine on the pinned stream.
PINNED_HITS = 539


def keyword_pool(collection, rng: random.Random, size: int):
    """``size`` distinct queries of 2-4 words of one shot's transcript."""
    transcripts = [
        shot.transcript.split()
        for shot in collection.iter_shots()
        if len(shot.transcript.split()) >= 4
    ]
    pool = {}
    while len(pool) < size:
        words = rng.choice(transcripts)
        pool.setdefault(" ".join(rng.sample(words, rng.randint(2, 4))), None)
    return [Query.from_text(text) for text in pool]


def zipf_stream(collection, seed: int, pool_size: int, count: int):
    rng = random.Random(seed)
    pool = keyword_pool(collection, rng, pool_size)
    weights = [1.0 / (rank + 1) ** 0.65 for rank in range(len(pool))]
    return rng.choices(pool, weights=weights, k=count)


def cached_engine(corpus, capacity, **kwargs):
    return VideoRetrievalEngine(
        corpus.collection, config=EngineConfig(result_cache_size=capacity), **kwargs
    )


def cache_key(engine, query):
    return query.cache_key() + (engine.config.result_limit,)


def ranking(results):
    """What a served ranking is judged by: shot order and exact scores."""
    return [(item.shot_id, float(item.score).hex()) for item in results]


def assert_served_fresh(engine, query, served):
    assert ranking(served) == ranking(engine._search_uncached(query))


def run_pinned_stream(corpus):
    engine = cached_engine(corpus, CAPACITY)
    for query in zipf_stream(corpus.collection, SEED, POOL, LOOKUPS):
        engine.search(query)
    return engine


def lru_hits(keys, capacity):
    """Hits of a plain LRU of ``capacity`` entries on ``keys``."""
    held, hits = OrderedDict(), 0
    for key in keys:
        if key in held:
            held.move_to_end(key)
            hits += 1
            continue
        held[key] = None
        if len(held) > capacity:
            held.popitem(last=False)
    return hits


def test_pinned_stream_hit_count_beats_an_lru_replay(small_corpus):
    engine = run_pinned_stream(small_corpus)
    stats = engine.result_cache_stats()
    stream = zipf_stream(small_corpus.collection, SEED, POOL, LOOKUPS)
    keys = [cache_key(engine, query) for query in stream]
    assert stats["hits"] + stats["misses"] == LOOKUPS
    assert stats["hits"] == PINNED_HITS
    assert PINNED_HITS >= lru_hits(keys, CAPACITY)


class _WritingScorer(Bm25Scorer):
    """BM25 that, when armed, adds a document to its index mid-score.

    The legacy direct index call: nothing orders it against the search,
    so the ranking it returns predates the write it made.
    """

    def __init__(self, index):
        super().__init__(index)
        self.armed = False
        self.writes = 0

    def score(self, query_terms):
        scores = dict(super().score(query_terms))
        if self.armed:
            self.armed = False
            self.writes += 1
            text = " ".join(sorted(query_terms))
            self._index.add_document(f"written-{self.writes}", text)
        return scores


def _writes(engine, step):
    """A text or a visual write through the writer path, by ``step``."""
    if step % 2:
        engine.index_document(f"doc-{step}", f"goal rain {step}")
    else:
        dim = len(engine.visual_index.features_of(engine.visual_index.shot_ids()[0]))
        engine.index_shot(f"shot-{step}", [0.5] * dim)


def test_every_served_ranking_equals_a_fresh_evaluation(small_corpus):
    index = InvertedIndex.from_collection(small_corpus.collection)
    scorer = _WritingScorer(index)
    engine = cached_engine(small_corpus, CAPACITY, inverted_index=index, text_scorer=scorer)
    stream = zipf_stream(small_corpus.collection, SEED, POOL, 600)
    for step, query in enumerate(stream):
        if step % 97 == 96:
            _writes(engine, step)
        if step % 31 == 30:
            # Evaluated across a write if it misses: its caller gets it, the
            # cache must never serve it, so the same query again is
            # evaluated afresh.
            scorer.armed = True
            engine.search(query)
            scorer.armed = False
        assert_served_fresh(engine, query, engine.search(query))
    assert engine.result_cache_stats()["hits"] > 100
    assert scorer.writes > 5


def test_entries_stay_within_capacity_across_generations(small_corpus):
    engine = cached_engine(small_corpus, CAPACITY)
    for step, query in enumerate(zipf_stream(small_corpus.collection, SEED, POOL, 800)):
        if step % 53 == 52:
            _writes(engine, step)
        engine.search(query)
        assert engine.result_cache_stats()["entries"] <= CAPACITY


@pytest.mark.parametrize("capacity", [0, 1, 2, 3, 10**9])
def test_tiny_and_huge_capacities(small_corpus, capacity):
    """A billion entries allocates a sketch of bounded width, nothing more."""
    engine = cached_engine(small_corpus, capacity)
    stream = zipf_stream(small_corpus.collection, SEED, 12, 300)
    for query in stream:
        assert_served_fresh(engine, query, engine.search(query))
        assert engine.result_cache_stats()["entries"] <= capacity
    stats = engine.result_cache_stats()
    if capacity == 0:
        assert stats["hits"] == stats["misses"] == stats["entries"] == 0
    else:
        assert stats["hits"] + stats["misses"] == len(stream)
        assert stats["hits"] > 0
    # The second of two back-to-back searches is a hit at every capacity but 0.
    engine.search(stream[0])
    before = engine.result_cache_stats()["hits"]
    engine.search(stream[0])
    assert engine.result_cache_stats()["hits"] - before == (1 if capacity else 0)


def test_the_sketch_halves_after_exactly_ten_times_capacity_lookups(small_corpus):
    capacity = 8
    engine = cached_engine(small_corpus, capacity)
    popular, *others = keyword_pool(small_corpus.collection, random.Random(SEED), 80)
    sketch = engine._result_cache._sketch
    cells = sketch.cells(cache_key(engine, popular))
    stream = [popular] * 12 + others[: 10 * capacity - 13]
    for query in stream:
        engine.search(query)
    assert len(stream) == 10 * capacity - 1
    assert sketch.estimate(cells) == 12
    engine.search(popular)  # lookup number 10 × capacity: 13, halved
    assert sketch.estimate(cells) == 6
    for _ in range(10 * capacity - 1):
        engine.search(popular)
    assert sketch.estimate(cells) == 15  # saturated, the next period not yet over
    engine.search(popular)
    assert sketch.estimate(cells) == 7


def test_a_tie_keeps_the_incumbent(small_corpus):
    """Main full: a candidate seen as often as probation's LRU entry is
    rejected; seen once more, it replaces it."""
    engine = cached_engine(small_corpus, 3)  # window 1, protected 1, probation 1
    a, b, c, d, e = keyword_pool(small_corpus.collection, random.Random(SEED), 5)

    def counts():
        stats = engine.result_cache_stats()
        return stats["admitted"], stats["rejected"], stats["hits"]

    for query in (a, b, b, a, c, c):  # main fills: protected a, probation b
        engine.search(query)
    assert counts() == (2, 0, 3)
    engine.search(d)  # c (seen twice) against b (seen twice): rejected
    assert counts() == (2, 1, 3)
    engine.search(b)  # b was kept: a hit, back into protected
    assert counts() == (2, 1, 4)
    engine.search(d)
    engine.search(d)
    engine.search(e)  # d (seen three times) against a (seen twice): admitted
    assert counts() == (3, 1, 6)
    engine.search(a)  # a made way
    assert counts()[2] == 6


@pytest.mark.concurrency
def test_concurrent_lookups_count_every_lookup_once(small_corpus):
    threads_count, per_thread = 8, 150
    engine = cached_engine(small_corpus, CAPACITY)
    streams = [
        zipf_stream(small_corpus.collection, SEED + worker, POOL, per_thread)
        for worker in range(threads_count)
    ]
    expected = {
        cache_key(engine, query): ranking(engine._search_uncached(query))
        for stream in streams
        for query in stream
    }
    failures = []
    start = threading.Barrier(threads_count)

    def worker(stream):
        try:
            start.wait(timeout=30)
            for query in stream:
                served = engine.search(query)
                if ranking(served) != expected[cache_key(engine, query)]:
                    failures.append(("ranking", query.text))
                if engine.result_cache_stats()["entries"] > CAPACITY:
                    failures.append(("entries", query.text))
        except Exception as error:  # surfaced below, with its thread's query
            failures.append(("raised", repr(error)))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in streams]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(previous)
    assert failures == []
    stats = engine.result_cache_stats()
    assert stats["hits"] + stats["misses"] == threads_count * per_thread
    assert stats["entries"] <= CAPACITY


if __name__ == "__main__":
    stats = run_pinned_stream(
        generate_corpus(seed=41, config=CollectionConfig.small())
    ).result_cache_stats()
    for name in sorted(stats):
        print(name, stats[name])

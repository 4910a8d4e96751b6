"""What the scorers keep per index generation, measured in bytes.

A cached column holds each posting once: one pointer into the
generation's shared slot ints and one double.  An unknown query term
leaves nothing behind, so on a stable index the tables are bounded by
the index's vocabulary however many distinct terms are scored.  Both
bounds are read with ``tracemalloc``, so they hold on any host.
"""

from __future__ import annotations

import gc
import threading
import time
import tracemalloc

import pytest

from repro.collection import CollectionConfig, generate_corpus
from repro.index import Bm25Scorer, InvertedIndex, TfIdfScorer
from repro.index import scoring as scoring_module

SCORERS = {"bm25": Bm25Scorer, "tfidf": TfIdfScorer}

#: ``benchmarks/e2e/workloads.py``'s ``CORPUS_CONFIG`` at ``CORPUS_SEED``.
E21_SEED = 2008
E21_CONFIG = CollectionConfig(days=60, stories_per_day=12, topic_count=24)

#: Traced bytes a cached column may keep per posting.  A pointer and a
#: double are 16; the shared slot ints, the arrays' over-allocation and
#: the tables' entries bring the E21 vocabulary to ~24 on CPython 3.9 to
#: 3.12.  A column holding an int object per posting reads ~105.
BYTES_PER_POSTING = 32

UNKNOWN_TERMS = 10_000
#: Traced bytes scoring 10 000 distinct unknown terms may leave behind.
#: An IDF entry per term keeps ~200 KiB of table here (the term strings
#: themselves are the test's own).
UNKNOWN_KEPT_BYTES = 16 * 1024

DOCUMENTS = {
    "d1": "football match stadium goal goal",
    "d2": "football politics debate parliament",
    "d3": "weather rain cloud forecast",
    "d4": "stadium crowd goal celebration football",
}


def _small_index():
    index = InvertedIndex()
    for document_id, text in DOCUMENTS.items():
        index.add_document(document_id, text)
    return index


def _kept_bytes(action):
    """Traced bytes still allocated after ``action()`` returns."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        action()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("scorer_name", sorted(SCORERS))
def test_unknown_terms_leave_no_trace_on_a_stable_index(scorer_name):
    index = _small_index()
    scorer = SCORERS[scorer_name](index)
    scorer.score(["goal", "rain"])
    idf, columns = scorer._tables.get()[:2]
    known = (dict(idf), dict(columns))
    unknown = [f"unknown{number:05d}" for number in range(UNKNOWN_TERMS)]

    def score_each():
        for term in unknown:
            assert not scorer.score([term])

    kept = _kept_bytes(score_each)
    assert scorer._tables.get()[0] is idf
    assert (idf, columns) == known
    assert kept < UNKNOWN_KEPT_BYTES, kept


def test_columns_keep_each_posting_once():
    corpus = generate_corpus(seed=E21_SEED, config=E21_CONFIG)
    index = InvertedIndex.from_collection(corpus.collection)
    scorer = Bm25Scorer(index)
    scorer.score([])
    terms = list(index.terms())
    postings = sum(map(index.document_frequency, terms))

    def build_every_column():
        for term in terms:
            scorer.score([term])  # first use: scored from the postings
            scorer.score([term])  # second use: the column is built

    kept = _kept_bytes(build_every_column)
    columns = scorer._tables.get()[1]
    assert all(columns[term] for term in terms)
    assert kept / postings < BYTES_PER_POSTING, (kept, postings)


def test_racing_column_builds_share_one_slot_table(monkeypatch):
    """Two readers build columns of one generation at once: the slot ints
    are built once, and every column holds that table's objects."""
    index = InvertedIndex()
    for number in range(300):  # slots above CPython's small-int cache
        index.add_document(f"filler{number:03d}", "filler")
    for document_id, text in DOCUMENTS.items():
        index.add_document(document_id, text)
    scorer = Bm25Scorer(index)
    terms = ["football", "goal", "stadium", "rain"]
    scorer.score(terms)  # first use of every term: no column yet
    builds = []

    def slow_range(size):
        builds.append(size)
        time.sleep(0.05)  # the other reader reaches the table meanwhile
        return range(size)

    monkeypatch.setattr(scoring_module, "range", slow_range, raising=False)
    start = threading.Barrier(2)
    answers = []

    def reader(query):
        start.wait()
        answers.append(dict(scorer.score(query)))

    threads = [threading.Thread(target=reader, args=(terms,)) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert answers[0] == answers[1]
    _, columns, _, slot_ints = scorer._tables.get()
    table = slot_ints.of(len(index.document_lengths_array))
    assert len(builds) == 1
    for term in terms:
        slots, _ = columns[term]
        assert min(slots) > 256
        assert all(slot is table[slot] for slot in slots), term

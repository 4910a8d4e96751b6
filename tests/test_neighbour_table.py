"""The neighbour table must answer exactly what the scan would.

``VisualIndex`` serves ``similar_to_shot`` from a write-maintained
:class:`~repro.index.visual.NeighbourTable`.  The differential test drives generated interleavings of add / delete / re-add /
``compact()`` / pickle round-trip / query against the retained brute-force
scan (``index/reference.py``) and compares every answer by ``float.hex()``,
with vectors from a coarse grid so exact ties and zero vectors are common
and with the table's capacity drawn small enough to evict.  The remaining
tests pin the parts of the ``similar_to_shot`` contract the table makes
load-bearing, over every slot layout the table can sit on, and hammer one table from eight threads.
"""

from __future__ import annotations

import pickle
import sys
import threading
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import visual as visual_module
from repro.index.reference import reference_similar_to_vector
from repro.index.visual import NEIGHBOUR_TABLE_PAIRS, VisualIndex
from repro.service import RetrievalService, ServiceConfig

SHOTS = tuple(f"shot-{number}" for number in range(8))
LIMITS = (1, 2, 5, 50)
GRID = tuple(product((0.0, 0.5, 1.0), repeat=3))

#: Slot layouts under the table.  The table is keyed by shot ids and the
#: scan by dense slots: behind a tombstone, or after compaction moved every
#: shot down one slot, an id is no longer at its insertion slot, and an
#: unpickled index starts over with an empty table and a new lock.
LAYOUTS = ("fresh", "tombstoned", "compacted", "unpickled")


def build_index(layout, pairs):
    """An index over ``(shot_id, vector)`` pairs, in the given slot layout."""
    index = VisualIndex()
    if layout in ("tombstoned", "compacted"):
        index.add_shot("gone", (1.0, 1.0, 1.0))
    for shot_id, vector in pairs:
        index.add_shot(shot_id, vector)
    if layout in ("tombstoned", "compacted"):
        index.delete_shot("gone")
    if layout == "compacted":
        assert index.compact() == 1
    if layout == "unpickled":
        index = pickle.loads(pickle.dumps(index))
    return index


def expected(index, shot_id, limit):
    return reference_similar_to_vector(
        index, index.features_of(shot_id), limit=limit, exclude=(shot_id,)
    )


def hexed(neighbours):
    return [(shot_id, similarity.hex()) for shot_id, similarity in neighbours]


def assert_matches_reference(index, shot_id, limit):
    assert hexed(index.similar_to_shot(shot_id, limit=limit)) == hexed(
        expected(index, shot_id, limit)
    ), (shot_id, limit, index.neighbour_table_info())


#: A small id pool, so deletes and re-adds keep landing on warm entries.
slots = st.integers(min_value=0, max_value=4)
#: The zero vector takes the scan's ``norm == 0`` branch: draw it often.
vectors = st.one_of(st.just(GRID[0]), st.sampled_from(GRID))
operations = st.lists(
    st.one_of(
        # On a live id "put" is a delete and a re-add with another vector.
        st.tuples(st.just("put"), slots, vectors),
        st.tuples(st.just("delete"), slots),
        st.tuples(st.just("query"), slots, st.sampled_from(LIMITS)),
        st.tuples(st.just("query"), slots, st.sampled_from(LIMITS)),
        st.tuples(st.just("compact")),
        st.tuples(st.just("pickle")),
    ),
    # Hypothesis draws lists of about twice min_size: long enough to warm
    # entries, write under them and read them back.
    min_size=12,
    max_size=40,
)


@given(
    capacity=st.sampled_from((3, 12, NEIGHBOUR_TABLE_PAIRS)),
    ops=operations,
)
@settings(max_examples=300, deadline=None)
def test_interleaved_writes_and_queries_match_the_reference_scan(capacity, ops):
    with mock.patch.object(visual_module, "NEIGHBOUR_TABLE_PAIRS", capacity):
        index = VisualIndex()
        for op in ops:
            kind = op[0]
            if kind == "compact":
                index.compact()
                continue
            if kind == "pickle":
                index = pickle.loads(pickle.dumps(index))
                continue
            shot_id = SHOTS[op[1]]
            live = index.has_shot(shot_id)
            if kind == "put":
                if live:
                    index.delete_shot(shot_id)
                index.add_shot(shot_id, op[2])
            elif kind == "delete":
                if live:
                    index.delete_shot(shot_id)
                else:
                    with pytest.raises(KeyError):
                        index.delete_shot(shot_id)
            elif live:
                assert_matches_reference(index, shot_id, op[2])
            else:
                with pytest.raises(KeyError):
                    index.similar_to_shot(shot_id, limit=op[2])
            info = index.neighbour_table_info()
            assert info["pairs"] <= info["capacity_pairs"] == capacity
        # Whatever is still in the table must be exact, not just what the
        # generated queries happened to re-read.
        for shot_id in index.shot_ids():
            for limit in LIMITS:
                assert_matches_reference(index, shot_id, limit)


@pytest.mark.parametrize("layout", LAYOUTS)
class TestSimilarToShotContract:
    def _warm(self, layout):
        index = build_index(layout, zip(SHOTS[:6], GRID[1::4]))
        for shot_id in SHOTS[:6]:
            index.similar_to_shot(shot_id, limit=2)
        return index

    def test_a_write_corrects_or_drops_only_what_it_changes(self, layout):
        index = self._warm(layout)
        before = index.neighbour_table_info()
        assert (before["entries"], before["pairs"], before["misses"]) == (6, 12, 6)
        # Equal to shot-0's vector: it enters every list it beats, no re-scan.
        index.add_shot("shot-6", index.features_of("shot-0"))
        after_add = index.neighbour_table_info()
        assert after_add["entries"] == 6 and after_add["corrected"] > 0
        for shot_id in SHOTS[:6]:
            assert_matches_reference(index, shot_id, 2)
        assert index.neighbour_table_info()["misses"] == 6
        index.delete_shot("shot-6")
        after_delete = index.neighbour_table_info()
        assert after_delete["dropped"] == after_add["corrected"]
        assert after_delete["entries"] == 6 - after_delete["dropped"]
        index.compact()
        assert index.neighbour_table_info() == after_delete
        for shot_id in SHOTS[:6]:
            assert_matches_reference(index, shot_id, 2)

    def test_mixed_dimensions_still_raise_behind_a_warm_table(self, layout):
        index = self._warm(layout)
        index.add_shot("flat", (1.0, 0.5))
        for shot_id in SHOTS[:6]:
            with pytest.raises(ValueError, match="equal length"):
                expected(index, shot_id, 2)
            with pytest.raises(ValueError, match="equal length"):
                index.similar_to_shot(shot_id, limit=2)
        index.delete_shot("flat")
        for shot_id in SHOTS[:6]:
            assert_matches_reference(index, shot_id, 2)

    def test_bad_arguments_are_rejected_before_the_table_is_touched(self, layout):
        index = self._warm(layout)
        before = index.neighbour_table_info()
        for limit in (0, -1):
            with pytest.raises(ValueError, match="limit"):
                index.similar_to_shot("shot-0", limit=limit)
        with pytest.raises(KeyError, match="not in visual index"):
            index.similar_to_shot("no-such-shot", limit=2)
        assert index.neighbour_table_info() == before

    def test_every_answer_is_the_callers_own_list(self, layout):
        index = self._warm(layout)
        index.add_shot("shot-6", (0.0, 0.0, 1.0))
        miss = index.similar_to_shot("shot-6", limit=2)
        miss.clear()  # the list the scan returned is not the stored one
        first = index.similar_to_shot("shot-6", limit=2)
        first.reverse()
        first.append(("poison", 2.0))
        second = index.similar_to_shot("shot-6", limit=2)
        assert second is not first
        assert hexed(second) == hexed(expected(index, "shot-6", 2))

    def test_zero_vectors_keep_their_positive_zero(self, layout):
        index = build_index(layout, [("zero", (0.0, 0.0, 0.0)), ("unit", (1.0, 0.0, 0.0))])
        for _ in range(2):  # a miss, then a hit
            for shot_id, other in (("zero", "unit"), ("unit", "zero")):
                assert hexed(index.similar_to_shot(shot_id, limit=5)) == [
                    (other, (0.0).hex())
                ]
        index.add_shot("other", (0.0, 1.0, 0.0))  # orthogonal: corrected in at 0.0
        assert index.neighbour_table_info()["corrected"] == 2
        assert_matches_reference(index, "unit", 5)
        assert_matches_reference(index, "zero", 5)


@pytest.mark.parametrize("num_shards", (1, 4))
def test_engine_writes_keep_its_one_table_exact(small_corpus, num_shards):
    """Writes through a service's writer path, sharded or not, correct the
    engine's one table in place and stay exact through compaction."""
    service = RetrievalService(
        small_corpus.collection, config=ServiceConfig(num_shards=num_shards)
    )
    try:
        visual = service.engine.visual_index
        probes = visual.shot_ids()[:6]
        for shot_id in probes:
            visual.similar_to_shot(shot_id, limit=5)
        service.index_shot("copy", visual.features_of(probes[0]))
        assert visual.neighbour_table_info()["corrected"] > 0
        service.delete_shot(probes[1])
        assert service.compact().shots_reclaimed == 1
        for shot_id in probes[:1] + probes[2:] + ["copy"]:
            assert_matches_reference(visual, shot_id, 5)
    finally:
        service.close()


@pytest.mark.concurrency
def test_eight_threads_on_overlapping_keys_with_eviction(monkeypatch):
    """Readers racing get / put / evict on one table never see a wrong list."""
    monkeypatch.setattr(visual_module, "NEIGHBOUR_TABLE_PAIRS", 40)
    index = VisualIndex()
    for number in range(30):
        index.add_shot(f"shot-{number:02d}", GRID[(number * 7) % len(GRID)])
    keys = [(shot_id, limit) for shot_id in index.shot_ids() for limit in (1, 5)]
    answers = {key: hexed(expected(index, *key)) for key in keys}
    wrong = []

    def reader(offset: int) -> None:
        for step in range(600):
            key = keys[(offset * 3 + step * (offset + 1)) % len(keys)]
            got = hexed(index.similar_to_shot(key[0], limit=key[1]))
            if got != answers[key]:
                wrong.append((key, got))

    threads = [threading.Thread(target=reader, args=(offset,)) for offset in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong, wrong[:3]
    info = index.neighbour_table_info()
    assert info["hits"] + info["misses"] == 8 * 600
    assert info["hits"] > 0
    assert info["misses"] > len(keys)  # 180 pairs of answers do not fit in 40
    assert 0 < info["pairs"] <= info["capacity_pairs"] == 40
    for key in keys:
        assert hexed(index.similar_to_shot(key[0], limit=key[1])) == answers[key]

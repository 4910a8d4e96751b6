"""The two-stage visual scan is exact, and the index only holds finite vectors.

``VisualIndex.similar_to_vector`` pre-filters with ``math.dist`` and a
law-of-cosines approximation, cuts at the ``(limit + len(exclude))``-th
largest approximation minus a proven margin, and scores the survivors with
the scan's own cosine.  The differential test compares it, ids and
similarity bits, against the retained brute-force scan
(``index/reference.py``) over generated indexes built to sit on the cut:
vectors one ulp apart, copies scaled by powers of two (exact cosine ties
whose approximations differ), signed components, norms from 1e-3 to 1e3,
zero vectors, tombstones, exclusions wider than the limit and limits wider
than the index.  Four mutants of the real source show the comparison has
teeth.

The second half pins the refusal of non-finite features at every entry
point — the index, and a durable service at one and at four shards —
before anything is changed or logged.
"""

from __future__ import annotations

import inspect
import math
import operator
import textwrap

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.durability import engine_state_digest
from repro.index import visual as visual_module
from repro.index.reference import reference_similar_to_vector
from repro.index.visual import VisualIndex
from repro.service import RetrievalService, ServiceConfig
from repro.workload.ingest import service_feature_dim

#: Norms from 1e-3 to 1e3; the powers of two keep cosines exactly equal.
SCALES = (1e-3, 2.0 ** -10, 0.1, 0.5, 1.0, 2.0, 3.0, 2.0 ** 10, 1e3)


def build(vectors, deleted=()):
    """An index over ``(shot_id, vector)`` pairs, then ``deleted`` removed."""
    index = VisualIndex()
    for shot_id, vector in vectors:
        index.add_shot(shot_id, vector)
    for shot_id in deleted:
        index.delete_shot(shot_id)
    return index


def hexed(neighbours):
    return [(shot_id, similarity.hex()) for shot_id, similarity in neighbours]


def assert_exact(vectors, deleted, query, limit, exclude):
    index = build(vectors, deleted)
    assert hexed(index.similar_to_vector(query, limit=limit, exclude=exclude)) == hexed(
        reference_similar_to_vector(index, query, limit=limit, exclude=exclude)
    )


def _ulp_neighbours(vector):
    """``vector`` and, per component, the vectors one ulp either side."""
    variants = [vector]
    for position, component in enumerate(vector):
        for direction in (-math.inf, math.inf):
            moved = list(vector)
            moved[position] = math.nextafter(component, direction)
            variants.append(tuple(moved))
    return variants


@st.composite
def scans(draw):
    dimensions = draw(st.integers(min_value=1, max_value=4))
    component = st.one_of(
        st.sampled_from((0.0, 1.0, -1.0, 0.5, -0.25)),
        st.floats(min_value=-4.0, max_value=4.0, allow_subnormal=False),
    )
    anchors = draw(
        st.lists(st.tuples(*[component] * dimensions), min_size=1, max_size=3)
    )
    pool = [(0.0,) * dimensions] + [
        tuple(scale * value for value in variant)
        for anchor in anchors
        for variant in _ulp_neighbours(anchor)
        for scale in SCALES
    ]
    drawn = draw(st.lists(st.sampled_from(pool), min_size=8, max_size=40))
    # Ids in another order than the slots, so ties are broken by id and
    # not by insertion.
    order = draw(st.permutations(range(len(drawn))))
    vectors = [(f"s{number:02d}", vector) for number, vector in zip(order, drawn)]
    ids = [shot_id for shot_id, _ in vectors]
    deleted = draw(st.lists(st.sampled_from(ids), unique=True, max_size=len(ids) // 3))
    exclude = draw(st.lists(st.sampled_from(ids + ["absent"]), max_size=8))
    query = draw(st.sampled_from(pool))
    limit = draw(st.integers(min_value=1, max_value=6))
    return vectors, deleted, query, limit, exclude


def _keyed(*vectors):
    return [(f"s{number:02d}", vector) for number, vector in enumerate(vectors)]


#: An exact cosine tie (a vector and its double) whose approximations
#: differ in the last bit: the lower id has the lower approximation, so a
#: zero margin cuts it.
SCALED_TIE = (_keyed((-2.0, -1.0), (-4.0, -2.0), (0.0, -1.5)), [], (-3.0, 0.0), 1, [])
#: Every norm is zero, so the margin is too: the survivors sit exactly on
#: the cut.
ALL_ZERO = (_keyed((0.0, 0.0), (0.0, 0.0), (0.0, 0.0)), ["s01"], (1.0, 2.0), 1, [])
#: The query is its own nearest shot and is excluded, as in ``similar_to_shot``.
SELF_EXCLUDED = (
    _keyed((1.0, 0.0), (0.9, 0.1), (0.0, 1.0), (-1.0, 0.0)),
    [],
    (1.0, 0.0),
    1,
    ["s00"],
)
#: Norms six decades apart: the nearest direction has the largest norm.
SPREAD_NORMS = (
    _keyed((1000.0, 0.0), (0.0006, 0.0008), (0.001, 0.0)),
    [],
    (1.0, 0.1),
    1,
    [],
)


class TestTwoStageScan:
    @given(case=scans())
    @example(case=SCALED_TIE)
    @example(case=ALL_ZERO)
    @example(case=SELF_EXCLUDED)
    @example(case=SPREAD_NORMS)
    @example(case=(_keyed((1.0, 0.0), (0.5, 0.5)), ["s00"], (0.0, 0.0), 5, ["s00"] * 9))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_reference_scan(self, case):
        assert_exact(*case)

    def test_margin_is_small_and_proven_only_in_range(self):
        margin = visual_module._scan_margin
        assert 0 < margin(32, 0.6, 0.57, 0.71) < 2e-13
        assert margin(3, 1.0, math.inf, 0.0) == 0.0  # only zero norms: exact
        assert margin(3, 0.0, 0.5, 2.0) > 0  # a zero query is in range
        for query_norm, low, high in ((1e-80, 1.0, 1.0), (1.0, 1e-80, 1.0), (1e80, 1.0, 1.0)):
            assert margin(3, query_norm, low, high) == math.inf

    def test_out_of_range_norms_are_scored_exactly(self):
        for vectors in (
            _keyed((1e-200, 0.0), (0.0, 1e-200), (1e-200, 1e-200)),
            _keyed((1e150, 1.0), (1.0, 1e150), (1e150, 1e150)),
        ):
            for query in ((1.0, 0.5), vectors[2][1]):
                assert_exact(vectors, [], query, 1, [])

    def test_a_live_shot_of_another_length_raises(self):
        index = build(_keyed((1.0, 0.0), (0.0, 1.0), (1.0, 1.0, 1.0)))
        with pytest.raises(ValueError, match="equal length, got 2 and 3"):
            index.similar_to_vector((1.0, 0.0), limit=1)
        index.delete_shot("s02")
        assert hexed(index.similar_to_vector((1.0, 0.0), limit=1)) == [
            ("s00", (1.0).hex())
        ]

    def test_writes_rebuild_the_scan_view(self):
        index = build(_keyed((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)))
        assert index.similar_to_vector((1.0, 0.1), limit=1)[0][0] == "s00"
        index.delete_shot("s00")
        assert index.similar_to_vector((1.0, 0.1), limit=1)[0][0] == "s02"
        index.add_shot("s03", (2.0, 0.2))
        assert index.similar_to_vector((1.0, 0.1), limit=1)[0][0] == "s03"
        index.compact()
        assert hexed(index.similar_to_vector((1.0, 0.1), limit=3)) == hexed(
            reference_similar_to_vector(index, (1.0, 0.1), limit=3)
        )

    @pytest.mark.parametrize(
        "function, original, mutated, caught_by",
        [
            ("_scan_margin", "return 2.0 * rounding", "return 0.0 * rounding", SCALED_TIE),
            ("similar_to_vector", "map(le, repeat(cut)", "map(lt, repeat(cut)", ALL_ZERO),
            ("similar_to_vector", "nlargest(depth,", "nlargest(limit,", SELF_EXCLUDED),
            (
                "similar_to_vector",
                "map(add, repeat(query_norm * query_norm), view.squared_norms)",
                "repeat(query_norm * query_norm)",
                SPREAD_NORMS,
            ),
        ],
    )
    def test_differential_fails_on_mutants(
        self, monkeypatch, function, original, mutated, caught_by
    ):
        owner = visual_module if function == "_scan_margin" else VisualIndex
        source = textwrap.dedent(inspect.getsource(getattr(owner, function)))
        assert source.count(original) == 1
        namespace = {**vars(visual_module), "lt": operator.lt}
        exec(source.replace(original, mutated), namespace)
        monkeypatch.setattr(owner, function, namespace[function])
        with pytest.raises(AssertionError):
            assert_exact(*caught_by)


NON_FINITE = (
    ("nan", (math.nan, 1.0)),
    ("inf", (math.inf, 0.0)),
    ("-inf", (0.0, -math.inf)),
    ("overflow", (1e200, 1e200)),
)


class TestNonFiniteFeatures:
    @pytest.mark.parametrize("label, features", NON_FINITE)
    def test_index_refuses_and_stays_unchanged(self, label, features):
        index = build(_keyed((1.0, 0.0), (0.5, 0.5)))
        index.similar_to_shot("s00", limit=2)
        generation, table = index.generation, index.neighbour_table_info()
        with pytest.raises(ValueError, match=f"shot 'bad-{label}' has non-finite features"):
            index.add_shot(f"bad-{label}", features)
        assert not index.has_shot(f"bad-{label}")
        assert index.shot_ids() == ["s00", "s01"]
        assert (index.generation, index.neighbour_table_info()) == (generation, table)
        assert index.similar_to_shot("s00", limit=5) == [("s01", 0.7071067811865475)]

    def test_nan_no_longer_outranks_a_real_neighbour(self):
        index = build([("a", (1.0, 0.0)), ("b", (0.5, 0.5))])
        for shot_id, features in (("n", (math.nan, 1.0)), ("i", (math.inf, 0.0))):
            with pytest.raises(ValueError):
                index.add_shot(shot_id, features)
        assert index.similar_to_shot("a", limit=3) == [("b", 0.7071067811865475)]

    @pytest.mark.parametrize("shards", (1, 4))
    @pytest.mark.parametrize("label, features", NON_FINITE[:2])
    def test_durable_service_logs_nothing(self, small_corpus, tmp_path, shards, label, features):
        directory = tmp_path / "durable"
        service = RetrievalService(
            small_corpus.collection,
            config=ServiceConfig(num_shards=shards, durability_dir=str(directory)),
        )
        try:
            dimensions = service_feature_dim(service)
            wal = service.engine.durability.wal
            lsn, digest = wal.last_lsn, engine_state_digest(service.engine)
            files = {path: path.read_bytes() for path in directory.iterdir()}
            bad = features + (0.0,) * (dimensions - len(features))
            with pytest.raises(ValueError, match=f"shot 'bad-{label}' has non-finite"):
                service.index_shot(f"bad-{label}", bad)
            assert wal.last_lsn == lsn
            assert engine_state_digest(service.engine) == digest
            assert {path: path.read_bytes() for path in directory.iterdir()} == files
            service.index_shot("good", (0.5,) * dimensions)
            assert wal.last_lsn == lsn + 1
        finally:
            service.close()

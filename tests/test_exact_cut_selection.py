"""Select-before-decorate is exact: a differential against the full path.

``VideoRetrievalEngine._single_source_results`` sorts the candidates by raw
value once and decorates only those from the start position
:func:`~repro.retrieval.engine._cut_start` finds: the ``limit``-th raw value
and every candidate tied with it, or everything when rounding collapses the
cut onto the value below it.  These tests compare it, ids and score bits,
against the full path — every candidate fused by ``weighted_fusion``'s
single-source arithmetic, sorted, cut to ``limit`` — over generated score
maps built to sit on that edge, show the comparison has teeth by running it
against mutants of the real source, and count the shot ids a search reads.
"""

from __future__ import annotations

import inspect
import math
import textwrap

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.index.fusion import normalisation_bounds
from repro.index.scoring import DenseScores
from repro.retrieval import Query
from repro.retrieval import engine as engine_module
from repro.retrieval.engine import VideoRetrievalEngine, _cut_start

QUERY = Query.from_text("cut")


def _full_path(scores, weight, limit):
    """Fuse every candidate, sort, keep ``limit``: ``[(id, score bits)]``."""
    if weight == 0:
        return []
    low, span = normalisation_bounds(scores)
    decorated = sorted(
        (-(weight * 1.0 if span == 0.0 else weight * ((value - low) / span)), shot_id)
        for shot_id, value in scores.items()
    )[:limit]
    return [(shot_id, (-negated).hex()) for negated, shot_id in decorated]


def _order(scores):
    """Candidate indexes by ascending raw value, as the engine sorts them."""
    column = list(scores.values())
    return sorted(range(len(column)), key=column.__getitem__), column


def _assert_exact(engine, scores, weight, limit):
    results = engine._single_source_results(QUERY, scores, weight, limit)
    assert [(item.shot_id, item.score.hex()) for item in results] == _full_path(
        scores, weight, limit
    )
    assert [item.rank for item in results] == list(range(1, len(results) + 1))


def _keyed(values):
    return {f"s{index:03d}": value for index, value in enumerate(values)}


def _ulp_neighbours(value):
    return [math.nextafter(value, -math.inf), value, math.nextafter(value, math.inf)]


@st.composite
def score_maps(draw):
    """Few distinct values, many candidates: ties at the cut, values one ulp
    either side of it, constant maps, and spans wide enough to absorb an ulp."""
    anchors = draw(
        st.lists(
            st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=4,
        )
    )
    pool = [neighbour for anchor in anchors for neighbour in _ulp_neighbours(anchor)]
    values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    return _keyed(values)


weights = st.one_of(
    st.sampled_from([0.0, 1.0, 0.4, -1.0, -0.25, 5e-324, 1e-300]),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
)

#: Two values one ulp apart under a span that absorbs the ulp: the pair
#: fuses to one float, so the lower value ("s000") wins a place on its id.
ABSORBED_ULP = (_keyed([1.0, math.nextafter(1.0, 2.0), 2.0, -1e6, 0.0, 0.0, 0.0]), 1.0, 2)
#: A subnormal weight fuses 0.8, 0.9 and 1.0 to the same float.
SUBNORMAL_WEIGHT = (_keyed([0.8, 1.0, 0.9, 0.9, 0.0, 0.0, 0.0, 0.0]), 5e-324, 3)
#: Three candidates tie exactly at the cut; all must survive it.
TIE_AT_CUT = (_keyed([3.0, 2.0, 2.0, 2.0, 1.0, 0.0, 0.0]), 1.0, 3)
#: Distinct values, nothing collapses: the cut keeps exactly ``limit``.
DISTINCT = (_keyed([5.0, 4.0, 3.0, 2.0, 1.0, 0.0]), 1.0, 2)


def _mutate(monkeypatch, function, original, mutated):
    """Replace ``_cut_start`` or the engine method with a one-edit mutant."""
    owner = engine_module if function == "_cut_start" else VideoRetrievalEngine
    source = textwrap.dedent(inspect.getsource(getattr(owner, function)))
    assert source.count(original) == 1, (function, original)
    namespace = dict(vars(engine_module))
    exec(source.replace(original, mutated), namespace)
    monkeypatch.setattr(owner, function, namespace[function])


class TestExactCut:
    @given(scores=score_maps(), weight=weights, limit=st.integers(1, 12))
    @example(*ABSORBED_ULP)
    @example(*SUBNORMAL_WEIGHT)
    @example(*TIE_AT_CUT)
    @example(*DISTINCT)
    @example(_keyed([0.5] * 9), 1.0, 2)  # constant map: span == 0
    @example(_keyed([1.0, 2.0]), 1.0, 5)  # fewer candidates than the limit
    @settings(max_examples=300, deadline=None)
    def test_matches_full_path(self, engine, scores, weight, limit):
        _assert_exact(engine, scores, weight, limit)

    def test_collapse_cuts_nothing(self):
        for scores, weight, limit in (ABSORBED_ULP, SUBNORMAL_WEIGHT):
            low, span = normalisation_bounds(scores)
            assert len(scores) > 2 * limit and span > 0 and weight > 0
            order, column = _order(scores)
            assert _cut_start(order, column, weight, low, span, limit) == 0

    def test_cut_prunes_when_nothing_collapses(self):
        scores, weight, limit = TIE_AT_CUT
        low, span = normalisation_bounds(scores)
        order, column = _order(scores)
        start = _cut_start(order, column, weight, low, span, limit)
        ids = list(scores)
        assert column[order[start]] == 2.0
        assert sorted(ids[d] for d in order[start:]) == ["s000", "s001", "s002", "s003"]

    @pytest.mark.parametrize(
        "function, original, mutated, caught_by",
        [
            (
                "_cut_start", "start = len(order) - limit",
                "start = len(order) - limit + 1", DISTINCT,
            ),
            ("_cut_start", "if start and ", "if False and ", ABSORBED_ULP),
            ("_cut_start", "if start and ", "if False and ", SUBNORMAL_WEIGHT),
            (
                "_single_source_results", "limit):]", "limit) + 1:]", TIE_AT_CUT,
            ),
        ],
        ids=[
            "walk-back-starts-one-high",
            "collapse-check-dropped-absorbed-ulp",
            "collapse-check-dropped-subnormal-weight",
            "start-candidate-dropped",
        ],
    )
    def test_differential_fails_on_mutants(
        self, engine, monkeypatch, function, original, mutated, caught_by
    ):
        _mutate(monkeypatch, function, original, mutated)
        with pytest.raises(AssertionError):
            _assert_exact(engine, *caught_by)


class _CountingIds:
    """A shot-id table that counts its reads."""

    def __init__(self, ids):
        self.ids = ids
        self.reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return self.ids[index]

    def __len__(self):
        return len(self.ids)


class TestIdReads:
    """A search reads the id of a candidate only if it can rank: ``limit``
    plus the ties at the cut, not every candidate's."""

    LIMIT = 5
    #: 60 candidates, each of 0..19 three times: the top five are the three
    #: 19s and two of the three 18s, so six candidates reach the cut.
    VALUES = [float(index % 20) for index in range(60)]

    def _search(self, engine):
        ids = _CountingIds([f"s{index:03d}" for index in range(len(self.VALUES))])
        dense = DenseScores(ids, list(self.VALUES), range(len(self.VALUES)))
        results = engine._single_source_results(QUERY, dense, 1.0, self.LIMIT)
        assert [item.shot_id for item in results] == [
            "s019", "s039", "s059", "s018", "s038",
        ]
        return ids.reads

    def test_reads_limit_plus_ties(self, engine):
        assert len(self.VALUES) > 2 * self.LIMIT
        assert self._search(engine) == self.LIMIT + 1

    def test_count_fails_without_the_tie_walk(self, engine, monkeypatch):
        # Without the walk the cut's own ties fall to the collapse check,
        # which keeps the ranking exact by decorating everything: only the
        # count sees it.
        _mutate(monkeypatch, "_cut_start", "while start and ", "while False and ")
        assert self._search(engine) == len(self.VALUES)

"""Select-before-decorate is exact: a differential against the full path.

``VideoRetrievalEngine._single_source_results`` decorates only the
candidates at or above the ``limit``-th raw value and decorates everything
when rounding collapses the cut onto the value below it.  These tests
compare it, ids and score bits, against the retained full path over
generated score maps built to sit on that edge, and show the comparison has
teeth by running it against two mutants of the real source.  The helpers
take the dense parts of a :class:`~repro.index.scoring.DenseScores` and the
sorted list of raw values, as the engine hands them over.
"""

from __future__ import annotations

import inspect
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.index.fusion import normalisation_bounds
from repro.index.scoring import DenseScores
from repro.retrieval import Query
from repro.retrieval import engine as engine_module
from repro.retrieval.engine import _decorate, _exact_cut

QUERY = Query.from_text("cut")


def _full_path(scores, weight, limit):
    """Decorate every candidate, sort, keep ``limit``: ``[(id, score bits)]``."""
    if weight == 0:
        return []
    low, span = normalisation_bounds(scores)
    decorated = sorted(_decorate(DenseScores.of(scores), weight, low, span))[:limit]
    return [(shot_id, (-negated).hex()) for negated, shot_id in decorated]


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


class TestExactCut:
    @given(scores=score_maps(), weight=weights, limit=st.integers(1, 12))
    @example(*ABSORBED_ULP)
    @example(*SUBNORMAL_WEIGHT)
    @example(*TIE_AT_CUT)
    @example(_keyed([0.5] * 9), 1.0, 2)  # constant map: span == 0
    @example(_keyed([1.0, 2.0]), 1.0, 5)  # fewer candidates than the limit
    @settings(max_examples=300, deadline=None)
    def test_matches_full_path(self, engine, scores, weight, limit):
        _assert_exact(engine, scores, weight, limit)

    def test_collapse_cuts_nothing(self):
        for scores, weight, limit in (ABSORBED_ULP, SUBNORMAL_WEIGHT):
            low, span = normalisation_bounds(scores)
            assert len(scores) > 2 * limit and span > 0 and weight > 0
            ranked = sorted(scores.values())
            assert _exact_cut(ranked, weight, low, span, limit) == -math.inf

    def test_cut_prunes_when_nothing_collapses(self):
        scores, weight, limit = TIE_AT_CUT
        low, span = normalisation_bounds(scores)
        cut = _exact_cut(sorted(scores.values()), weight, low, span, limit)
        survivors = _decorate(DenseScores.of(scores), weight, low, span, cut)
        assert cut == 2.0
        assert sorted(shot_id for _, shot_id in survivors) == [
            "s000", "s001", "s002", "s003",
        ]

    @pytest.mark.parametrize(
        "function, original, mutated, caught_by",
        [
            ("_decorate", "if scores[d] >= cut", "if scores[d] > cut", TIE_AT_CUT),
            ("_exact_cut", "if below and ", "if False and ", ABSORBED_ULP),
            ("_exact_cut", "if below and ", "if False and ", SUBNORMAL_WEIGHT),
        ],
    )
    def test_differential_fails_on_mutants(
        self, engine, monkeypatch, function, original, mutated, caught_by
    ):
        source = inspect.getsource(getattr(engine_module, function))
        assert source.count(original) == 1
        namespace = dict(vars(engine_module))
        exec(source.replace(original, mutated), namespace)
        monkeypatch.setattr(engine_module, function, namespace[function])
        with pytest.raises(AssertionError):
            _assert_exact(engine, *caught_by)

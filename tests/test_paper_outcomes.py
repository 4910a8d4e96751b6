"""Pinned outcomes of the paper's experiments, exactly.

The benches under ``benchmarks/`` check the *direction* of each result
(implicit feedback beats the baseline, ostensive discounting recovers from
an interest shift).  These literals pin the *values*: every MAP, P@10,
relative improvement and significance verdict of

- E1, implicit feedback vs the no-feedback baseline;
- E2, the precision of each implicit indicator in a simulated log study;
- E3, the retrieval quality of each indicator weighting scheme, the one
  learned from logged sessions included;
- E7, the ostensive discount profiles under a mid-session interest shift;
- A1, the ASR-noise, user-error and ostensive-decay ablations;

as ``float.hex()``, on the bench corpus the benches run on.  A change to
adaptation, feedback, fusion, scoring statistics or the experiment path
that moves a paper outcome by one ulp fails here.

Builtin ``sum`` adds floats with compensation from CPython 3.12 on, so the
outcomes differ in the last bits there: one literal per interpreter line,
keyed as in ``test_traffic_digests.py``.  Recorded on CPython 3.9.18 and
3.11.7 (equal) and 3.12.1 and 3.13.0 (equal).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

import bench_a1_ablations as a1  # noqa: E402
import bench_e1_implicit_vs_baseline as e1  # noqa: E402
import bench_e2_indicator_precision as e2  # noqa: E402
import bench_e3_weighting_schemes as e3  # noqa: E402
import bench_e7_ostensive_drift as e7  # noqa: E402
from _common import standard_corpus  # noqa: E402

from repro.evaluation import ExperimentRunner  # noqa: E402

LINE = ">=3.12" if sys.version_info >= (3, 12) else "<3.12"


def _hexed(rows, label, fields):
    """``{"<row label>.<field>": float.hex()}`` over the rows of one table."""
    return {
        f"{row[label]}.{field}": float(row[field]).hex()
        for row in rows
        for field in fields
    }


def implicit_vs_baseline(corpus, runner):
    rows, significance = e1.run_experiment(runner)
    outcomes = _hexed(rows, "system", ("map", "precision@10"))
    implicit = next(row for row in rows if row["system"] == "implicit_feedback")
    outcomes["implicit_feedback.rel_map_gain_%"] = implicit["rel_map_gain_%"].hex()
    outcomes["significance.mean_difference"] = significance.mean_difference.hex()
    outcomes["significance.p_value"] = significance.p_value.hex()
    outcomes["significance.significant"] = significance.significant()
    return outcomes


def indicator_precision(corpus, runner):
    rows, _report = e2.run_experiment(runner, corpus)
    return _hexed(rows, "indicator", ("precision",))


def weighting_schemes(corpus, runner):
    rows, _learned = e3.run_experiment(runner, corpus)
    return _hexed(rows, "scheme", ("map",))


def ostensive_drift(corpus, runner):
    rows = e7.run_experiment(corpus, runner)
    return _hexed(
        rows, "evidence_weighting", ("pre_shift_map_topicA", "post_shift_map_topicB")
    )


def ablations(corpus, runner):
    asr_rows, error_rows, decay_rows = a1.run_experiment(runner)
    return {
        **_hexed(asr_rows, "asr_condition", ("adhoc_map", "precision@10")),
        **_hexed(
            error_rows, "user_population", ("baseline_map", "implicit_map", "rel_gain_%")
        ),
        **_hexed(decay_rows, "ostensive_base", ("map",)),
    }


#: name -> (the experiment, its outcomes on each interpreter line).
PINNED = {
    "e1_implicit_vs_baseline": (implicit_vs_baseline, {
        "<3.12": {
            "baseline.map": "0x1.f423db3a22ff2p-2",
            "baseline.precision@10": "0x1.4f5c28f5c28f6p-1",
            "implicit_feedback.map": "0x1.2ccbaefa42935p-1",
            "implicit_feedback.precision@10": "0x1.851eb851eb852p-1",
            "implicit_feedback.rel_map_gain_%": "0x1.448d8f3d3030cp+4",
            "significance.mean_difference": "0x1.95ce0ae9889dap-4",
            "significance.p_value": "0x1.a358b63c4d31bp-12",
            "significance.significant": True,
        },
        ">=3.12": {
            "baseline.map": "0x1.f423db3a22ff2p-2",
            "baseline.precision@10": "0x1.4f5c28f5c28f6p-1",
            "implicit_feedback.map": "0x1.2ccbaefa42934p-1",
            "implicit_feedback.precision@10": "0x1.851eb851eb852p-1",
            "implicit_feedback.rel_map_gain_%": "0x1.448d8f3d30306p+4",
            "significance.mean_difference": "0x1.95ce0ae9889dap-4",
            "significance.p_value": "0x1.a358b63c4d31bp-12",
            "significance.significant": True,
        },
    }),
    "e2_indicator_precision": (indicator_precision, {
        "<3.12": {
            "browse.precision": "0x1.9a3efd93c915dp-2",
            "explicit_negative.precision": "0x1.acccccccccccdp-1",
            "explicit_positive.precision": "0x1.f82ee6986d6f6p-1",
            "hover.precision": "0x1.e26af37c048d1p-2",
            "metadata.precision": "0x1.e3e7063e7063ep-1",
            "play_click.precision": "0x1.31dec0d4c77b0p-1",
            "play_complete.precision": "0x1.e17f748fcbb5fp-1",
            "play_duration.precision": "0x1.31dec0d4c77b0p-1",
            "playlist.precision": "0x1.f73f73f73f73fp-1",
            "seek.precision": "0x1.f69b02593f69bp-1",
            "skip.precision": "0x1.95d32ba6574cbp-1",
        },
        ">=3.12": {
            "browse.precision": "0x1.9a3efd93c915dp-2",
            "explicit_negative.precision": "0x1.acccccccccccdp-1",
            "explicit_positive.precision": "0x1.f82ee6986d6f6p-1",
            "hover.precision": "0x1.e26af37c048d1p-2",
            "metadata.precision": "0x1.e3e7063e7063ep-1",
            "play_click.precision": "0x1.31dec0d4c77b0p-1",
            "play_complete.precision": "0x1.e17f748fcbb5fp-1",
            "play_duration.precision": "0x1.31dec0d4c77b0p-1",
            "playlist.precision": "0x1.f73f73f73f73fp-1",
            "seek.precision": "0x1.f69b02593f69bp-1",
            "skip.precision": "0x1.95d32ba6574cbp-1",
        },
    }),
    "e3_weighting_schemes": (weighting_schemes, {
        "<3.12": {
            "binary_click.map": "0x1.f67afb0b0232ap-2",
            "dwell_only.map": "0x1.0775bf53d3b52p-1",
            "explicit_only.map": "0x1.9b5990ac18b7ep-2",
            "heuristic.map": "0x1.0665acd30d17bp-1",
            "learned.map": "0x1.05dbed7b01118p-1",
            "uniform.map": "0x1.0068449aa8e53p-1",
        },
        ">=3.12": {
            "binary_click.map": "0x1.f67afb0b0232bp-2",
            "dwell_only.map": "0x1.0775bf53d3b52p-1",
            "explicit_only.map": "0x1.9b5990ac18b7ep-2",
            "heuristic.map": "0x1.0665acd30d17ap-1",
            "learned.map": "0x1.05dbed7b01118p-1",
            "uniform.map": "0x1.0068449aa8e53p-1",
        },
    }),
    "e7_ostensive_drift": (ostensive_drift, {
        "<3.12": {
            "exponential 0.4.post_shift_map_topicB": "0x1.93768745d0e4ap-3",
            "exponential 0.4.pre_shift_map_topicA": "0x1.9162ebd3391c7p-2",
            "exponential 0.7.post_shift_map_topicB": "0x1.7e2f86a6378dcp-3",
            "exponential 0.7.pre_shift_map_topicA": "0x1.9162ebd3391c7p-2",
            "uniform (static).post_shift_map_topicB": "0x1.2cf7e72b843bcp-3",
            "uniform (static).pre_shift_map_topicA": "0x1.9162ebd3391c7p-2",
        },
        ">=3.12": {
            "exponential 0.4.post_shift_map_topicB": "0x1.93768745d0e4ap-3",
            "exponential 0.4.pre_shift_map_topicA": "0x1.9162ebd3391c6p-2",
            "exponential 0.7.post_shift_map_topicB": "0x1.7e2f86a6378dcp-3",
            "exponential 0.7.pre_shift_map_topicA": "0x1.9162ebd3391c6p-2",
            "uniform (static).post_shift_map_topicB": "0x1.2cf7e72b843bcp-3",
            "uniform (static).pre_shift_map_topicA": "0x1.9162ebd3391c6p-2",
        },
    }),
    "a1_ablations": (ablations, {
        "<3.12": {
            "0.3.map": "0x1.0551899bea3c2p-1",
            "0.5.map": "0x1.05bb9771d951fp-1",
            "0.7.map": "0x1.0614a86de29d1p-1",
            "0.85.map": "0x1.06bbd150eaf5fp-1",
            "1.0.map": "0x1.06a9a8a252621p-1",
            "careful users.baseline_map": "0x1.74e44d136ede1p-2",
            "careful users.implicit_map": "0x1.08472f6e5a969p-1",
            "careful users.rel_gain_%": "0x1.4df61e2a7c7e7p+5",
            "careless users.baseline_map": "0x1.74e44d136ede1p-2",
            "careless users.implicit_map": "0x1.ec205d5847d8dp-2",
            "careless users.rel_gain_%": "0x1.ff9c501fb6c8ep+4",
            "clean ASR.adhoc_map": "0x1.3c5623de8499ap-1",
            "clean ASR.precision@10": "0x1.4cccccccccccdp-1",
            "default ASR (WER 0.23).adhoc_map": "0x1.4250d0f396cd3p-1",
            "default ASR (WER 0.23).precision@10": "0x1.3851eb851eb84p-1",
            "poor ASR (WER 0.45).adhoc_map": "0x1.3725163470872p-1",
            "poor ASR (WER 0.45).precision@10": "0x1.4cccccccccccdp-1",
            "typical users.baseline_map": "0x1.74e44d136ede1p-2",
            "typical users.implicit_map": "0x1.02af917269539p-1",
            "typical users.rel_gain_%": "0x1.35f759d90ba1ap+5",
            "very poor ASR (WER 0.85).adhoc_map": "0x1.00ab7af03def8p-1",
            "very poor ASR (WER 0.85).precision@10": "0x1.2e147ae147ae1p-1",
        },
        ">=3.12": {
            "0.3.map": "0x1.0551899bea3c1p-1",
            "0.5.map": "0x1.05bb9771d951ep-1",
            "0.7.map": "0x1.0614a86de29cfp-1",
            "0.85.map": "0x1.06bbd150eaf5fp-1",
            "1.0.map": "0x1.06a9a8a25261fp-1",
            "careful users.baseline_map": "0x1.74e44d136ede3p-2",
            "careful users.implicit_map": "0x1.08472f6e5a969p-1",
            "careful users.rel_gain_%": "0x1.4df61e2a7c7e1p+5",
            "careless users.baseline_map": "0x1.74e44d136ede3p-2",
            "careless users.implicit_map": "0x1.ec205d5847d8bp-2",
            "careless users.rel_gain_%": "0x1.ff9c501fb6c7bp+4",
            "clean ASR.adhoc_map": "0x1.3c5623de8499ap-1",
            "clean ASR.precision@10": "0x1.4cccccccccccdp-1",
            "default ASR (WER 0.23).adhoc_map": "0x1.4250d0f396cd3p-1",
            "default ASR (WER 0.23).precision@10": "0x1.3851eb851eb85p-1",
            "poor ASR (WER 0.45).adhoc_map": "0x1.3725163470872p-1",
            "poor ASR (WER 0.45).precision@10": "0x1.4cccccccccccdp-1",
            "typical users.baseline_map": "0x1.74e44d136ede3p-2",
            "typical users.implicit_map": "0x1.02af917269539p-1",
            "typical users.rel_gain_%": "0x1.35f759d90ba14p+5",
            "very poor ASR (WER 0.85).adhoc_map": "0x1.00ab7af03def8p-1",
            "very poor ASR (WER 0.85).precision@10": "0x1.2e147ae147ae2p-1",
        },
    }),
}


@pytest.fixture(scope="module")
def bench_runner():
    """The benches' shared corpus and experiment runner."""
    corpus = standard_corpus()
    return corpus, ExperimentRunner(corpus)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_paper_outcomes_pinned(name, bench_runner):
    run, expected = PINNED[name]
    assert run(*bench_runner) == expected[LINE]

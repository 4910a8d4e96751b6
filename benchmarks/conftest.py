"""Shared fixtures for the benchmark harness.

Every benchmark runs against the same "standard" synthetic corpus (the stand-
in for the TRECVID news collection) so that numbers are comparable across
experiments within one run.  The corpus is deliberately larger than the unit-
test fixtures but still generates in a few seconds.
"""

from __future__ import annotations

import pytest
from _common import standard_corpus

from repro.evaluation import ExperimentRunner


@pytest.fixture(scope="session")
def bench_corpus():
    """The shared benchmark corpus."""
    return standard_corpus()


@pytest.fixture(scope="session")
def bench_runner(bench_corpus):
    """The shared experiment runner over the benchmark corpus."""
    return ExperimentRunner(bench_corpus)

"""A serving session holds O(1) state per search.

Deterministic through ``tracemalloc`` rather than RSS: a baseline session,
an implicit session fed feedback before every search and an explicit
session re-judging a fixed shot set may hold, after 2 000 searches, no more
than about one iteration's bytes beyond what they held after 200.  The
measurement is E14's (``benchmarks/bench_e14_adaptation_path.py``), where
the same assertion runs in every guarded bench round; here it runs on the
small unit-test corpus as part of tier 1.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

import bench_e14_adaptation_path as e14  # noqa: E402


def test_session_memory_plateaus(small_corpus):
    rows = e14.retention_rows(small_corpus, early=200, late=2000)
    assert [row["session"] for row in rows] == ["baseline", "implicit", "explicit"]
    e14.assert_flat_retention(rows)


"""Smoke test of the E21 benchmark: every named metric is produced.

No timing assertions: ``--smoke`` runs 1/50 of the op counts on a small
corpus, which says nothing about speed.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e.metrics import (  # noqa: E402
    DRIVER_END_TO_END, END_TO_END, PER_LAYER, WORKLOADS, benchmark_json, emitted_by,
)
from benchmarks.e2e.run import result_line, run_pass  # noqa: E402

END_TO_END_UNITS = {name: unit for name, unit, _, _, _ in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def test_benchmark_json_matches_the_tables():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == benchmark_json()
    assert all(len(workload["why"]) <= 200 for workload in committed["workloads"])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_present(workload, trace):
    document = run_pass(workload, seed=5, seconds=20, trace=trace, smoke=True)
    assert document["correct"] is True
    assert document["attempted"] >= 1 and document["failed"] == 0
    metrics = document["metrics"]
    # Untraced: exactly the workload's row of the issue's table (R4).
    # Traced: every per-layer name, 0 with 0 samples where the layer is idle.
    units = PER_LAYER_UNITS if trace else {n: END_TO_END_UNITS[n] for n in emitted_by(workload)}
    assert set(metrics) == set(units)
    for name, reading in metrics.items():
        assert math.isfinite(reading["value"]), name
        assert reading["unit"] == units[name], name
        assert isinstance(reading["samples"], int) and reading["samples"] >= 0, name
    line = json.loads(result_line(workload, trace, document))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert all(set(reading) == {"value", "unit"} for reading in line["metrics"].values())
    if trace == 0:
        # The driver's line: every gated name on every workload, none 0.
        assert set(line["metrics"]) == {name for name, _, _, _, _ in DRIVER_END_TO_END}
        assert all(reading["value"] > 0 for reading in line["metrics"].values())
        assert metrics["failed_share"]["value"] == 0


def test_exits_non_zero_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is nothing to measure."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    finished = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "keyword_scatter",
         "--seed", "1", "--seconds", "20", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert finished.returncode != 0
    assert not finished.stdout.strip().startswith("{")

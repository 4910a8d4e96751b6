"""Benchmark regression guard: smoke throughput vs committed baselines.

Runs every bench registered in :data:`BENCHES` in its smoke configuration
— the one ``python benchmarks/bench_eNN.py --smoke`` runs —
``_common.GUARD_REPEATS`` times over.  Every one of those runs has to pass
the bench's equivalence assertions and the assertions of its
``_sanity_check`` (a ranking, count or deadline regression fails before a
throughput one, in whichever run it shows); the timing-ratio floors have
to hold for the median of the runs; and the guard fails if any guarded
metric's median drops more than ``BENCH_REGRESSION_TOLERANCE`` (default
30%) below the ``smoke_baseline`` section committed in that bench's
``BENCH_eNN.json``.

A committed BENCH json of a bench that guards metrics **must** carry a
``smoke_baseline`` section: a missing or malformed section is itself a
guard failure (with a clear message naming the file and the ``--update``
remedy), never a silent pass or a ``KeyError``.

Absolute throughput depends on the host, so the committed baselines
record the host they were measured on; on sufficiently different
hardware, loosen the tolerance via the environment variable rather than
silencing the guard::

    BENCH_REGRESSION_TOLERANCE=0.5 python benchmarks/check_bench_regression.py

``--update`` re-measures and rewrites the ``smoke_baseline`` sections
(run it on the reference hardware when a PR legitimately shifts the
floor).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_e12_scoring_kernel as e12  # noqa: E402
import bench_e13_concurrent_service as e13  # noqa: E402
import bench_e14_adaptation_path as e14  # noqa: E402
import bench_e15_sharded_retrieval as e15  # noqa: E402
import bench_e16_durability as e16  # noqa: E402
import bench_e18_serving as e18  # noqa: E402
import bench_e19_replication as e19  # noqa: E402
import bench_e20_mutable_corpus as e20  # noqa: E402
from _common import host_metadata, measure_guarded, smoke_corpus  # noqa: E402

DEFAULT_TOLERANCE = 0.30

#: Every bench the guard runs.
BENCHES = tuple(
    module.BENCH for module in (e12, e13, e14, e15, e16, e18, e19, e20)
)


def check_baseline(name, baseline_path, payload, measured, tolerance):
    """Compare measured metrics against a committed payload.

    Returns a list of human-readable failure strings (empty when the
    payload passes), each naming the committed BENCH file the failing
    baseline lives in.  A payload without a well-formed ``smoke_baseline``
    mapping is a failure in itself — committed benchmark files must carry
    their baseline so a regression can never slip through as "nothing to
    compare against".
    """
    baseline = payload.get("smoke_baseline") if isinstance(payload, dict) else None
    if not isinstance(baseline, dict) or not baseline:
        return [
            f"{name} [{baseline_path}]: committed benchmark json has no "
            f"usable 'smoke_baseline' section; re-measure on the reference "
            f"hardware with "
            f"'python benchmarks/check_bench_regression.py --update'"
        ]
    failures = []
    for metric, measured_value in measured.items():
        baseline_value = baseline.get(metric)
        if not isinstance(baseline_value, (int, float)):
            failures.append(
                f"{name}.{metric} [{baseline_path}]: no numeric baseline "
                f"committed (found {baseline_value!r}); run --update"
            )
            continue
        floor = (1.0 - tolerance) * baseline_value
        status = "ok" if measured_value >= floor else "REGRESSION"
        print(
            f"{name}.{metric}: measured {measured_value:.1f} vs baseline "
            f"{baseline_value:.1f} (floor {floor:.1f}) -> {status}"
        )
        if measured_value < floor:
            failures.append(
                f"{name}.{metric} [{baseline_path}] dropped to "
                f"{measured_value:.1f} (< {floor:.1f}, baseline "
                f"{baseline_value:.1f})"
            )
    return failures


def load_payload(name, baseline_path):
    """Parse a committed BENCH json; failures are messages, not exceptions."""
    if not baseline_path.exists():
        return None, [
            f"{name}: committed baseline file {baseline_path} is missing; "
            f"record it with the bench's --write-baseline, then run --update"
        ]
    try:
        return json.loads(baseline_path.read_text()), []
    except ValueError as error:
        return None, [
            f"{name}: committed baseline file {baseline_path} is not "
            f"valid JSON ({error})"
        ]


def _update(bench, payload, measured):
    """Re-record ``smoke_baseline`` in a file ``--write-baseline`` recorded.

    Never into a new or foreign file: one holding a ``smoke_baseline`` and
    nothing else would not have the schema.  Returns failure messages.
    """
    if not isinstance(payload, dict) or "host" not in payload:
        return [
            f"{bench.name} [{bench.baseline_path}]: not a file the bench's "
            f"--write-baseline recorded (no 'host' section); not updated"
        ]
    payload["host"]["smoke_baseline"] = host_metadata()
    payload["smoke_baseline"] = measured
    bench.baseline_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"smoke_baseline updated in {bench.baseline_path.name}")
    return []


def main(argv):
    update = "--update" in argv
    tolerance = float(os.environ.get("BENCH_REGRESSION_TOLERANCE", DEFAULT_TOLERANCE))
    measurements = measure_guarded(BENCHES, smoke_corpus())
    failures = []
    for bench in BENCHES:
        measured = measurements[bench.name]
        if not measured:
            print(f"{bench.name}: smoke runs and sanity floors ok (no guarded metric)")
            continue
        path = bench.baseline_path
        payload, problems = load_payload(bench.name, path)
        if problems:
            pass
        elif update:
            problems = _update(bench, payload, measured)
        else:
            problems = check_baseline(bench.name, path, payload, measured, tolerance)
        failures.extend(problems)
    if failures:
        print("\nbenchmark regression guard FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        "\nbenchmark regression guard ok"
        + ("" if update else f" (tolerance {tolerance:.0%})")
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Does the benchmark agree with itself?  Two (or more) interleaved sets of runs.

    python -m benchmarks.e2e.repeat --sets 2 --runs 5

Runs every workload ``runs`` times per set, alternating the sets so that a
slow stretch of the host lands on all of them, each run with another seed.
For every workload/metric pair of the issue's table it prints each set's
median and quartiles, the spread (Q3 - Q1) / median the driver holds against
the bound, the spread of the same values as measured (before the host-speed
factor is applied), and the gap: how much worse the worst set's median is
than the best's.  Exits non-zero if a gap exceeds its metric's bound or if
any op failed.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e.metrics import END_TO_END, WORKLOADS, quartile_spread  # noqa: E402
from benchmarks.e2e.run import WorkerFailed, run_pass  # noqa: E402
from benchmarks.e2e.workloads import CALIBRATED_SECONDS  # noqa: E402


def gap(medians: List[float], better: str) -> float:
    """How much worse the worst median is than the best, as a share of the best."""
    best, worst = (
        (min(medians), max(medians)) if better == "lower" else (max(medians), min(medians))
    )
    return abs(worst - best) / best if best else 0.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    parser.add_argument("--seed", type=int, default=1, help="first seed; every run gets its own")
    parser.add_argument("--seconds", type=float, default=CALIBRATED_SECONDS)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.sets < 2 or args.runs < 2:
        parser.error("need at least 2 sets of at least 2 runs")

    #: readings[(workload, metric)][set] -> one (value, as measured) per run
    readings: Dict[Tuple[str, str], List[List[Tuple[float, float]]]] = {
        (workload, metric): [[] for _ in range(args.sets)]
        for metric, _, _, _, rows in END_TO_END
        for workload in rows
    }
    seed = args.seed
    for run in range(args.runs):
        for which in range(args.sets):
            for workload in WORKLOADS:
                try:
                    document = run_pass(workload, seed, args.seconds, 0, args.smoke)
                except WorkerFailed as error:
                    print(f"FAILED: {error}", file=sys.stderr)
                    return 1
                for metric, reading in document["metrics"].items():
                    readings[workload, metric][which].append((reading["value"], reading["raw"]))
            print(f"# run {run + 1}/{args.runs} of set {which + 1} done (seed {seed})", flush=True)
            seed += 1

    over: List[str] = []
    print(
        f"{'workload':<18} {'metric':<25} {'set':>3} {'median':>10} {'q1':>10} "
        f"{'q3':>10} {'spread':>7} {'as meas.':>8} {'gap':>6} {'bound':>6}"
    )
    for metric, _, better, bound, rows in END_TO_END:
        for workload in rows:
            sets = readings[workload, metric]
            if metric == "failed_share":
                worst = max(value for readings_ in sets for value, _ in readings_)
                print(f"{workload:<18} {metric:<25} {'all':>3} {worst:>10.5g} "
                      f"{'':>10} {'':>10} {'':>7} {'':>8} {'':>6} {'0 abs':>6}")
                if worst > 0:
                    over.append(f"{workload}/{metric} is {worst:.3g}, not 0")
                continue
            medians = [statistics.median(value for value, _ in readings_) for readings_ in sets]
            distance = gap(medians, better)
            for which, readings_ in enumerate(sets):
                values = [value for value, _ in readings_]
                q1, _, q3 = statistics.quantiles(values, n=4)
                last = which == len(sets) - 1
                print(
                    f"{workload:<18} {metric:<25} {which + 1:>3} {medians[which]:>10.5g} "
                    f"{q1:>10.5g} {q3:>10.5g} {quartile_spread(values):>7.1%} "
                    f"{quartile_spread([raw for _, raw in readings_]):>8.1%} "
                    f"{(f'{distance:.1%}' if last else ''):>6} {(f'{bound:.0%}' if last else ''):>6}"
                )
            if distance > bound:
                over.append(f"{workload}/{metric} gap {distance:.1%} > {bound:.0%}")
    for line in over:
        print(f"OVER BOUND: {line}")
    return 1 if over else 0


if __name__ == "__main__":
    raise SystemExit(main())

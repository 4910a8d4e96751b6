"""E21: the end-to-end benchmark.  One command, four workloads, two passes.

    python -m benchmarks.e2e.run --seed 1                 # everything, both passes
    python benchmarks/e2e/run.py --workload keyword_scatter --seed 1 --seconds 20 --trace 0

Every (workload, pass) runs in a fresh ``worker.py`` subprocess with
``PYTHONHASHSEED=0``.  With ``--workload`` the last line of standard output
is the one JSON object ``BENCHMARK.json``'s driver reads; everything above
it is the same result for people: host and run metadata, every metric with
unit, sample count and bound, and (traced pass) the layer table.  A wrong
output of the program under test makes the run exit non-zero with no
result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e.metrics import DRIVER_END_TO_END, END_TO_END, WORKLOADS  # noqa: E402
from benchmarks.e2e.workloads import (  # noqa: E402
    CALIBRATED_SECONDS,
    OP_COUNTS,
    service_config,
)

#: The driver allows a run 180 s; the worker is stopped a little before.
WORKER_TIMEOUT_S = 170


class WorkerFailed(RuntimeError):
    """The worker exited non-zero (wrong output, crash) or overran its time."""


def run_pass(
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    smoke: bool = False,
    trace_out: Optional[str] = None,
) -> Dict[str, object]:
    """Run one (workload, pass) in a fresh subprocess; its result document."""
    workdir = HERE / ".work" / f"{os.getpid()}-{workload}-{trace}"
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--workdir", str(workdir),
    ]
    if smoke:
        command.append("--smoke")
    if trace_out:
        command += ["--trace-out", trace_out]
    try:
        # run() kills the child and waits for it if the timeout expires.
        finished = subprocess.run(
            command, env={**os.environ, "PYTHONHASHSEED": "0"}, cwd=str(ROOT),
            stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{workload}: worker overran {WORKER_TIMEOUT_S} s") from None
    if finished.returncode != 0:
        raise WorkerFailed(f"{workload}: worker exited {finished.returncode}")
    return json.loads(finished.stdout.splitlines()[-1])


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=str(ROOT), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def print_header(seed: int, seconds: float, smoke: bool) -> None:
    durable = service_config("durable_ingest", HERE)
    print("# E21 end-to-end benchmark")
    print(
        f"# host: nproc={os.cpu_count()} python={platform.python_version()} "
        f"commit={_commit()} switchinterval={sys.getswitchinterval()}"
    )
    print(
        f"# run: seed={seed} seconds={seconds:g} smoke={smoke} "
        f"fsync_policy={durable.fsync_policy} "
        f"snapshot_interval_ops={durable.snapshot_interval_ops}"
    )
    for workload, counts in OP_COUNTS.items():
        print(f"# frozen op counts, {workload}: {json.dumps(counts)}")


def print_pass(workload: str, trace: int, document: Dict[str, object]) -> None:
    bounds = {name: bound for name, _, _, bound, _ in END_TO_END}
    title = (
        f"traced pass, first {document['traced_share_of_stream']:.0%} of the op stream"
        if trace else "untraced pass"
    )
    print(f"\n## {workload} ({title})")
    print(
        f"# phase wall {document['phase_wall_s']:.2f} s; attempted "
        f"{document['attempted']}, failed {document['failed']}; sizes "
        f"{json.dumps(document['sizes'])}"
    )
    print(
        f"# host-speed factor during the phase {document['host_speed_factor']:.3f} "
        "(above 1: slower than the reference host); times are divided by it, rates multiplied"
    )
    if document["digest"]:
        print(f"# digest {document['digest']}")
    if "result_cache_hit_share" in document["facts"]:
        print(
            "# measured result-cache hit share "
            f"{document['facts']['result_cache_hit_share']:.3f}"
        )
    if trace:
        print(
            f"# untraced phase wall for the same ops {document['plain_wall_s']:.2f} s; "
            f"client-observed op time {document['client_op_s']:.2f} s"
        )
        print(f"{'span':<30} {'calls':>7} {'self s':>9} {'share':>6} "
              f"{'self p50 ms':>12} {'total p50 ms':>13} {'total p95 ms':>13}")
        for row in document["layer_table"]:
            print(
                f"{row['span']:<30} {row['calls']:>7} {row['self_s']:>9.3f} "
                f"{row['self_share']:>6.1%} {row['self_ms_p50']:>12.4f} "
                f"{row['total_ms_p50']:>13.4f} {row['total_ms_p95']:>13.4f}"
            )
    print(f"{'metric':<42} {'value':>14} {'unit':<6} {'samples':>8} {'bound':>6} "
          f"{'as measured':>14}")
    for name, metric in document["metrics"].items():
        if name == "failed_share":
            bound = "0 abs"
        else:
            bound = f"{bounds[name]:.0%}" if name in bounds else "-"
        raw = f"{metric['raw']:>14.6g}" if "raw" in metric else ""
        print(
            f"{name:<42} {metric['value']:>14.6g} {metric['unit']:<6} "
            f"{metric['samples']:>8} {bound:>6} {raw}"
        )


def result_line(workload: str, trace: int, document: Dict[str, object]) -> str:
    """The driver's contract: exactly these keys, value and unit per metric.

    With tracing off every workload has to emit the same gated names, so the
    workload's own row is renamed through ``DRIVER_END_TO_END``.
    """
    metrics = document["metrics"]
    if not trace:
        metrics = {name: metrics[rows[workload]] for name, _, _, _, rows in DRIVER_END_TO_END}
    return json.dumps(
        {
            "correct": document["correct"],
            "attempted": document["attempted"],
            "failed": document["failed"],
            "metrics": {
                name: {"value": metric["value"], "unit": metric["unit"]}
                for name, metric in metrics.items()
            },
        }
    )


def main(argv: Optional[List[str]] = None) -> int:
    names = list(WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=CALIBRATED_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: both passes")
    parser.add_argument("--smoke", action="store_true", help="1/50 of the op counts")
    parser.add_argument("--trace-out", help="write the traced pass's spans here (JSON lines)")
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")

    print_header(args.seed, args.seconds, args.smoke)
    document = None
    try:
        for workload in [args.workload] if args.workload else names:
            for trace in (0, 1) if args.trace is None else (args.trace,):
                document = run_pass(
                    workload, args.seed, args.seconds, trace, args.smoke,
                    args.trace_out if trace else None,
                )
                print_pass(workload, trace, document)
    except WorkerFailed as error:
        print(f"FAILED: {error}", file=sys.stderr)
        return 1
    if args.workload and args.trace is not None:
        print(result_line(args.workload, args.trace, document))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

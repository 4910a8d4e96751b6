"""The benchmark harness shared by E12–E20 and the regression guard.

A bench module holds its measurement helpers, a ``run_experiment(corpus,
**sizes)`` returning ``{table name: rows}``, a ``_sanity_check(tables,
smoke)`` and one :class:`Bench` declaration.  Everything else lives here,
once: the corpora, the host metadata stamped into every baseline file, the
``--smoke`` / ``--write-baseline`` command line, the pytest-benchmark
wrapper, the ``BENCH_eNN.json`` layout and the repeat-and-median
measurement ``check_bench_regression.py`` compares against
``smoke_baseline``.

``_sanity_check`` does two things.  It **asserts** what must hold in every
single run — counts, digests, deadlines: a compaction that reclaimed
nothing or a straggler that was not cancelled is a bug in whichever run it
shows — and every path that runs an experiment (``main``, the pytest
wrapper, each of the guard's runs) calls it and lets it raise.  It
**returns** the bench's timing-ratio floors as ``{label: Floor}``: a ratio
of two millisecond windows is as noisy as the throughputs it divides, so
the harness holds a single run to them directly and the guard holds the
median of its runs to them (:func:`check_floors`).

Every ``BENCH_eNN.json`` has one shape:

``bench``           the bench's name (``"e12"``)
``host``            ``{"tables": ..., "smoke_baseline": ...}`` — the
                    :func:`host_metadata` of the machine each of the two
                    recorded sections was measured on
``corpus``          the corpus the ``tables`` were measured on
``params``          the size kwargs of that run
``note``            what the rows mean and what was verified before timing
``tables``          ``{table name: rows}`` exactly as ``run_experiment``
                    returned them
``smoke_baseline``  ``{guarded metric: median over GUARD_REPEATS smoke
                    runs}``, present where the bench guards a metric
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.collection import CollectionConfig, generate_corpus

BENCH_DIR = Path(__file__).resolve().parent

Tables = Dict[str, object]


class Floor(NamedTuple):
    """A measured timing ratio and the band ``[low, high]`` it must stay in."""

    measured: float
    low: float
    high: float = math.inf


Floors = Dict[str, Floor]

#: Smoke runs behind each guarded median (and each ``--update``).  The
#: smoke windows are milliseconds long and the shared hosts this runs on
#: flip between two speeds about 1.6x apart for stretches of tens of
#: seconds, so a single shot measures the moment: over 45 interleaved
#: rounds each metric's single shots spanned 1.1-8.3x (max/min).  The worst
#: ratio between any two medians of k consecutive rounds was 0.62 at k=9,
#: 0.72 at k=13, 0.78 at k=15 and 0.80-0.82 from k=17 to k=21: fifteen is
#: where the curve flattens, inside the guard's default 30% tolerance.  A
#: slow state that outlasts the whole measurement (seen: 0.67x for most of
#: an hour) is beyond any statistic taken inside it; the guard fails only
#: on drops, so a baseline recorded in the slow state holds in both.  A
#: constant, not an option: a baseline and a measurement are comparable
#: only when taken the same way.
GUARD_REPEATS = 15


def smoke_corpus():
    """The small corpus behind ``--smoke`` and the regression guard."""
    return generate_corpus(
        seed=7, config=CollectionConfig(days=4, stories_per_day=5, topic_count=6)
    )


def standard_corpus():
    """The standard bench corpus (the stand-in for the TRECVID news
    collection): ~24 bulletins, ~200 stories, ~1200 shots, 16 topics."""
    return generate_corpus(
        seed=2008,
        config=CollectionConfig(
            days=24, stories_per_day=9, topic_count=16, min_stories_per_topic=3
        ),
    )


def scale_corpus():
    """~10k shots: the scale E14 pins its session-open criterion at."""
    return generate_corpus(
        seed=2014,
        config=CollectionConfig(days=185, stories_per_day=10, topic_count=16),
    )


def usable_cores() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def host_metadata() -> Dict[str, object]:
    """Where a number was measured: a baseline is never read without it."""
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=BENCH_DIR, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "usable_cores": usable_cores(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def print_table(title: str, rows: List[Dict[str, object]],
                columns: Optional[Sequence[str]] = None) -> None:
    """Print experiment rows in a compact fixed-width table."""
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    if columns is None:
        columns = list(rows[0].keys())
    header = " | ".join(f"{name:>18}" for name in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        cells = []
        for name in columns:
            value = row.get(name, "")
            if isinstance(value, float):
                cells.append(f"{value:>18.4f}")
            else:
                cells.append(f"{str(value):>18}")
        print(" | ".join(cells))


@dataclass(frozen=True)
class Bench:
    """One benchmark, as the harness sees it.

    ``smoke`` / ``full`` are the size kwargs ``run_experiment`` takes in
    the two modes — the only place they are written down, so the guard
    measures exactly what ``--smoke`` runs.  ``tables`` maps each table
    ``run_experiment`` returns to its printed title.  ``sanity_check``
    asserts what every run must satisfy and returns the run's timing
    floors (module docstring).  ``guarded`` extracts the higher-is-better
    metrics the regression guard compares; a bench without one still has
    its smoke runs, assertions and floors checked there.
    """

    name: str
    run_experiment: Callable[..., Tables]
    smoke: Dict[str, object]
    full: Dict[str, object]
    tables: Dict[str, str]
    sanity_check: Callable[[Tables, bool], Optional[Floors]]
    note: str
    guarded: Optional[Callable[[Tables], Dict[str, float]]] = None

    @property
    def baseline_path(self) -> Path:
        """The committed ``BENCH_eNN.json`` next to the bench modules."""
        return BENCH_DIR / f"BENCH_{self.name}.json"

    def sizes(self, smoke: bool) -> Dict[str, object]:
        """The size kwargs of one mode."""
        return self.smoke if smoke else self.full

    def floors(self, tables: Tables, smoke: bool) -> Floors:
        """Assert what this run must satisfy (raises); its timing floors."""
        return self.sanity_check(tables, smoke) or {}

    def report(self, tables: Tables, heading: str = "") -> None:
        """Print the named tables (a single-row table may be a bare dict)."""
        for key, title in self.tables.items():
            rows = tables[key]
            print_table(heading + title, rows if isinstance(rows, list) else [rows])

    def as_test(self, **overrides):
        """The pytest-benchmark wrapper: the full sizes (``overrides`` aside)
        on the shared fixture corpus, held to the *smoke* floors — a test
        session shares its interpreter and machine with the rest of the
        suite; the full floors are ``main``'s."""

        def test(benchmark, bench_corpus):
            tables = benchmark.pedantic(
                self.run_experiment,
                args=(bench_corpus,),
                kwargs={**self.full, **overrides},
                rounds=1,
                iterations=1,
            )
            self.report(tables)
            if self.baseline_path.exists():
                committed = json.loads(self.baseline_path.read_text())
                self.report(
                    committed["tables"],
                    heading=f"committed {self.baseline_path.name}, not asserted — ",
                )
            check_floors(self.name, [self.floors(tables, True)])

        return test

    def write_baseline(self, tables: Tables, smoke: bool) -> None:
        """Record ``tables`` (and where they were measured) in the BENCH json.

        The guarded ``smoke_baseline`` section is carried over untouched:
        the guard treats its absence as a failure, and it is refreshed
        through ``check_bench_regression.py --update``, not here.
        """
        path = self.baseline_path
        previous = json.loads(path.read_text()) if path.exists() else {}
        payload = {
            "bench": self.name,
            "host": {**previous.get("host", {}), "tables": host_metadata()},
            "corpus": "smoke (seed 7)" if smoke else "bench standard (seed 2008)",
            "params": self.sizes(smoke),
            "note": self.note,
            "tables": tables,
        }
        if "smoke_baseline" in previous:
            payload["smoke_baseline"] = previous["smoke_baseline"]
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"baseline written to {path}")

    def main(self) -> int:
        """``python benchmarks/bench_eNN.py [--smoke] [--write-baseline]``."""
        smoke = "--smoke" in sys.argv
        corpus = smoke_corpus() if smoke else standard_corpus()
        tables = self.run_experiment(corpus, **self.sizes(smoke))
        self.report(tables)  # before the checks: a failed one shows its numbers
        check_floors(self.name, [self.floors(tables, smoke)])
        if "--write-baseline" in sys.argv:
            self.write_baseline(tables, smoke)
        print(f"{self.name} ok: equivalence assertions and sanity floors hold")
        return 0


def check_floors(name: str, runs: Sequence[Floors]) -> None:
    """Hold each timing floor to the median of ``runs`` (one run: to itself).

    Every single run outside its band is printed, whether or not it is in
    the minority; the assertion is on the median.
    """
    failures = []
    for label, (_, low, high) in runs[0].items():
        band = f">= {low:g}x" if high == math.inf else f"in [{low:g}x, {high:g}x]"
        values = [run[label].measured for run in runs]
        outside = [
            f"run {number}: {value:.2f}x"
            for number, value in enumerate(values, 1)
            if not low <= value <= high
        ]
        median = statistics.median(values)
        if len(runs) > 1:
            print(
                f"{name} floor, {label}: median {median:.2f}x of {len(runs)} "
                f"runs (must be {band}); outside in {len(outside)}"
                + (f" ({', '.join(outside)})" if outside else "")
            )
        if not low <= median <= high:
            failures.append(f"{label} {median:.2f}x, must be {band}")
    assert not failures, f"{name}: " + "; ".join(failures)


def measure_guarded(benches: Sequence[Bench], corpus) -> Dict[str, Dict[str, float]]:
    """Every bench's guarded metrics: medians over ``GUARD_REPEATS`` smoke runs.

    The rounds are interleaved — every bench once, then every bench again —
    so one bench's samples are spread over the whole measurement instead of
    sitting back to back inside one fast or one slow stretch of the host.

    An equivalence, digest, count or deadline assertion fails the
    measurement in whichever run it trips; only the timing floors are held
    to the median, like the metrics.  A bench that guards no metric reports
    ``{}``; its assertions and floors are checked all the same.
    """
    runs: Dict[str, List[Tuple[Tables, Floors]]] = {bench.name: [] for bench in benches}
    for _ in range(GUARD_REPEATS):
        for bench in benches:
            tables = bench.run_experiment(corpus, **bench.smoke)
            runs[bench.name].append((tables, bench.floors(tables, True)))
    measured = {}
    for bench in benches:
        check_floors(bench.name, [floors for _, floors in runs[bench.name]])
        metrics = [
            bench.guarded(tables) if bench.guarded else {}
            for tables, _ in runs[bench.name]
        ]
        measured[bench.name] = {
            metric: statistics.median(run[metric] for run in metrics)
            for metric in metrics[0]
        }
    return measured

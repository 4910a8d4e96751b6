"""A probe of how fast this host is running Python right now.

The sandbox hosts this benchmark runs on are shared: the same pure-Python
work takes up to 1.6 times longer from one minute to the next, in CPU time
as much as in wall time, for stretches that can outlast a run.  No statistic
taken inside a run can remove a slowdown that lasts the whole run, so the
run measures it instead: a background thread executes a small fixed kernel
every ``PERIOD_S`` and records the *thread CPU time* each unit took (CPU
time, so that waiting for the interpreter lock does not count).  The mean
unit time over an interval, over ``REFERENCE_UNIT_S``, is the host-speed
factor of that interval; end-to-end times are divided by it and rates
multiplied, which states them at the reference host speed.  The values as
measured are reported beside the normalised ones, and ``repeat.py`` prints
the spread of both, so what the probe buys is on record (README, "repeat
output").

The kernel belongs to the benchmark and shares no code with the program
under test, so a change to the program moves the reported numbers exactly
as it moves the raw ones.  It mixes what the program's hot loops are made
of — float dot products over tuples, term-frequency dicts, JSON encoding —
over a few megabytes of objects, so that it slows down by about as much as
the program does when the host does.
"""

from __future__ import annotations

import json
import random
import threading
from operator import mul
from time import perf_counter, thread_time
from typing import List, Tuple

#: Mean unit CPU time on the calibration host beside a running workload.
REFERENCE_UNIT_S = 0.001

#: Pause between units: about 3 % of one core.
PERIOD_S = 0.025

#: Samples ``recent()`` looks back over: about one second.
RECENT_SAMPLES = 40

_SLICES = 8


class HostSpeedProbe(threading.Thread):
    """Samples the cost of one kernel unit until :meth:`stop`."""

    def __init__(self) -> None:
        super().__init__(name="host-speed-probe", daemon=True)
        rng = random.Random(12345)
        self._vectors = [tuple(rng.random() for _ in range(16)) for _ in range(500 * _SLICES)]
        words = [f"w{rng.randrange(3000)}" for _ in range(3000)]
        self._documents = [[rng.choice(words) for _ in range(14)] for _ in range(75 * _SLICES)]
        self._cursor = 0
        self._stopping = threading.Event()
        #: ``(perf_counter() at the end of the unit, thread CPU seconds it took)``
        self.samples: List[Tuple[float, float]] = []

    def _unit(self) -> float:
        started = thread_time()
        part = self._cursor
        self._cursor = (part + 1) % _SLICES
        query = self._vectors[part]
        best = 0.0
        for vector in self._vectors[part * 500 : (part + 1) * 500]:
            best = max(best, sum(map(mul, query, vector)))
        frequencies = []
        for document in self._documents[part * 75 : (part + 1) * 75]:
            counts: dict = {}
            for word in document:
                counts[word] = counts.get(word, 0) + 1
            frequencies.append(counts)
        json.dumps(frequencies)
        return thread_time() - started

    def run(self) -> None:
        while not self._stopping.is_set():
            cost = self._unit()
            self.samples.append((perf_counter(), cost))
            self._stopping.wait(PERIOD_S)

    def stop(self) -> None:
        self._stopping.set()
        self.join()

    @staticmethod
    def _factor(costs: List[float]) -> float:
        return sum(costs) / len(costs) / REFERENCE_UNIT_S if costs else 1.0

    def factor(self, started: float, ended: float) -> float:
        """Host-speed factor of ``[started, ended]``: above 1 is a slow host.

        An interval too short to hold a sample (a smoke phase) takes every
        sample so far.
        """
        costs = [cost for at, cost in self.samples if started <= at <= ended]
        return self._factor(costs or [cost for _, cost in self.samples])

    def recent(self) -> float:
        """Host-speed factor of the last second or so."""
        return self._factor([cost for _, cost in self.samples[-RECENT_SAMPLES:]])

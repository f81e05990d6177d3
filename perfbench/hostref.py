"""Host speed reference: fixed work timed alongside the workload.

The benchmark's host is shared.  The speed one process sees drifts by up
to about 1.7x over minutes as neighbours come and go, which no run length
averages out.  So each run interleaves small reference units, fixed code
that calls nothing of the program, with its jobs, and reports every time
at reference speed: ``raw * nominal / measured``, where ``measured`` is
the median duration of the reference units run within a few seconds of
the timed work and ``nominal`` their duration at reference speed.  A
program change moves the jobs and not the units; a host slowdown moves
both.

A slowdown does not hit all code alike: code that waits on memory slows
less than code that runs from cache.  Four kinds of unit cover the kinds
of work the workloads do, and a workload names the kinds its work
resembles:

* ``interp``: interpreter-bound work on small dicts and lists;
* ``gather``: random reads from a 16 MiB array, which miss the caches;
* ``npcall``: many numpy calls on small arrays;
* ``array``: numpy streaming over a 2^18-amplitude vector.

On the benchmark's 2-core host, the units cut the run-to-run spread of the
timings by about half; they do not remove it.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

#: Reference units run for this share of the timed work.
SHARE = 0.1
#: Reference units within this many seconds of a job set its speed.
WINDOW_S = 2.5
#: A speed is the median of at least this many units.
MIN_SAMPLES = 9
#: Reference units run in batches of this many seconds.
BATCH_S = 0.03

Unit = Tuple[Callable[[], object], int]


def interp_unit() -> Unit:
    """Breadth-first distances on a 10-wide grid of 120 nodes from every
    fourth source, about 1 ms."""
    n = 120
    adj = {i: [j for j in (i - 1, i + 1, i - 10, i + 10) if 0 <= j < n] for i in range(n)}

    def unit() -> int:
        total = 0
        for source in range(0, n, 4):
            dist = {source: 0}
            frontier = [source]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in adj[u]:
                        if v not in dist:
                            dist[v] = dist[u] + 1
                            nxt.append(v)
                frontier = nxt
            total += sum(sorted(dist.values())[: n // 4])
        return total

    return unit, 0


def gather_unit() -> Unit:
    """Two passes of 2^15 random reads from a 2^21-element array, about
    0.4 ms."""
    table = np.random.default_rng(3).random(1 << 21)
    index = np.random.default_rng(4).integers(0, table.size, 1 << 15)

    def unit() -> float:
        return float(table[index].sum() + table[index[::-1]].sum())

    return unit, table.nbytes + index.nbytes


def npcall_unit() -> Unit:
    """150 rounds of scale, range and dot product on a 64-element array,
    about 2 ms."""
    small = np.arange(64, dtype=float)

    def unit() -> float:
        total = 0.0
        for i in range(150):
            scaled = small * (i + 1.0)
            total += float(np.max(scaled) - np.min(scaled)) + float(scaled @ small)
        return total

    return unit, small.nbytes


def array_unit() -> Unit:
    """A phase, the probabilities and one inverse-CDF draw on a 2^18
    complex vector, about 3 ms.  The outputs are preallocated: the state
    the program leaves the allocator in must not set the unit's time."""
    rng = np.random.default_rng(0)
    amps = rng.random(1 << 18) + 1j * rng.random(1 << 18)
    phases = np.exp(1j * rng.random(1 << 18))
    phased = np.empty_like(amps)
    probs = np.empty(1 << 18)
    cdf = np.empty(1 << 18)

    def unit() -> int:
        np.multiply(amps, phases, out=phased)
        np.abs(phased, out=probs)
        np.square(probs, out=probs)
        np.cumsum(probs, out=cdf)
        return int(np.searchsorted(cdf, 0.5 * cdf[-1]))

    return unit, sum(b.nbytes for b in (amps, phases, phased, probs, cdf))


#: Each kind's factory, which returns the unit and the bytes it keeps
#: resident, with the unit's duration at reference speed in seconds (its
#: median on a shared 2-core Xeon at 2.0 GHz, numpy 2.4.6).
UNITS = {
    "interp": (interp_unit, 1.2e-3),
    "gather": (gather_unit, 0.4e-3),
    "npcall": (npcall_unit, 1.6e-3),
    "array": (array_unit, 2.8e-3),
}


class HostSpeed:
    """Reference units run alongside the workload, and the speed factors
    (measured over nominal duration) they give."""

    def __init__(self, kinds: Sequence[str]) -> None:
        self.kinds = tuple(kinds)
        made = [UNITS[k][0]() for k in self.kinds]
        self._units = [unit for unit, _ in made]
        #: Memory the units keep resident, to take out of the peak RSS.
        self.resident_bytes = sum(size for _, size in made)
        self.nominal_s = sum(UNITS[k][1] for k in self.kinds)
        self.times: List[float] = []
        self.factors: List[float] = []
        self._owed = 0.0

    def sample(self, count: int = 1) -> None:
        """Run ``count`` reference units and record their speed."""
        for _ in range(count):
            tick = time.perf_counter()
            for unit in self._units:
                unit()
            tock = time.perf_counter()
            self.times.append(tock)
            self.factors.append((tock - tick) / self.nominal_s)

    def pace(self, busy_s: float) -> None:
        """Run reference units for ``SHARE`` of ``busy_s`` seconds of work,
        in batches of at least ``BATCH_S``."""
        self._owed += SHARE * busy_s
        if self._owed < BATCH_S:
            return
        while self._owed > 0.0:
            tick = time.perf_counter()
            self.sample()
            self._owed -= time.perf_counter() - tick

    def factor(self, start: float, end: float) -> float:
        """Median speed factor of the units run within ``WINDOW_S`` of the
        interval, or of the ``MIN_SAMPLES`` nearest to it."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        while hi - lo < min(MIN_SAMPLES, len(self.times)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        return statistics.median(self.factors[lo:hi])

    def normalize(self, start: float, end: float) -> float:
        """``end - start`` at reference speed."""
        return (end - start) / self.factor(start, end)

    def summary(self) -> Dict[str, object]:
        return {
            "kinds": list(self.kinds),
            "nominal_s": self.nominal_s,
            "resident_bytes": self.resident_bytes,
            "units": len(self.factors),
            "factor_quartiles": statistics.quantiles(self.factors, n=4)
            if len(self.factors) > 1 else self.factors,
        }

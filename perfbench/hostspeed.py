"""Gauges of how fast the host runs code right now, for scaling timings.

On a shared virtual machine the same code runs up to ~1.8x slower at some
times than at others, for tens of seconds at a stretch, with CPU time equal
to wall time (so it is not waiting or steal time: the vCPU itself is
slower).  A 15 s run can fall wholly inside such a stretch, and then no
amount of repetition inside the run brings its figures back.

So the timed loop reads a gauge between requests: ``gauge(kind)`` times a
fixed snippet that touches nothing in relbgg, and each request's time is
scaled by the gauge's reference reading over the mean of the readings taken
just before and just after it.  A scaled time is the time the request would
have taken on a host whose gauge reads the reference, which is about what
the snippet takes on a 2-vCPU Xeon VM in a quiet stretch; a reading above it
means the host is slow at that moment.  The unscaled times are kept in the
report.  Work done by the program is not in a gauge, so a change to relbgg
moves the scaled times exactly as it moves the raw ones.

A slow stretch does not slow all code alike.  On that VM it slowed the
``interpreter`` snippet by ~1.75x (and sweep and bgg-chain times scaled by
it held steady), compiled loops such as sorting floats by ~1.35x, and
audits by 1.25-1.5x: they run numpy's compiled kernels and interpreter code
in shares that vary with rank.  So audit reads the ``mixed`` gauge, which
runs both kinds of snippet, and every other workload the ``interpreter``
gauge.
"""

from __future__ import annotations

import random
import time

REPEATS = 3  # a reading is the fastest of this many runs of the snippet
_FLOATS = random.Random(0).sample([i / 2000 for i in range(2000)], 2000)


def _interpreter() -> int:
    # Tuples, zip, generator sums, dict membership and function calls: the
    # mix that relbgg's pure-Python root and weight code spends its time on.
    seen = {}
    v = (1, 0, -1, 2, 0, 1)
    for i in range(60):
        w = tuple(x - (i % 3) * y for x, y in zip(v, (0, 1, 1, 0, -1, 2)))
        if w not in seen:
            seen[w] = sum(a * b for a, b in zip(w, v))
        v = w[1:] + w[:1]
    return len(seen)


def _compiled() -> float:
    # Loops that run in C over a list of floats, as numpy's kernels do over arrays.
    return sorted(_FLOATS)[0] + sum(_FLOATS)


def _mixed() -> None:
    _interpreter()
    _compiled()


# kind -> (snippet, reference reading in ns)
GAUGES = {"interpreter": (_interpreter, 130_000), "mixed": (_mixed, 370_000)}


def gauge(kind: str = "interpreter") -> int:
    """Nanoseconds the snippet takes now: the fastest of REPEATS runs."""
    snippet = GAUGES[kind][0]
    best = None
    for _ in range(REPEATS):
        start = time.perf_counter_ns()
        snippet()
        ns = time.perf_counter_ns() - start
        best = ns if best is None else min(best, ns)
    return best


def scale(ns: float, before: int, after: int, kind: str = "interpreter") -> float:
    """``ns`` measured between two gauge readings, at the reference host speed."""
    return ns * 2 * GAUGES[kind][1] / (before + after)

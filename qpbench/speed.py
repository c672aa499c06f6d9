"""Machine-speed probe: a fixed slice of exact arithmetic, timed.

On a shared machine the speed of a core changes from second to second and
from minute to minute: on a shared 2-core Intel Xeon virtual machine,
the same fixed work took 4 ms or 6 ms depending on the moment,
and 24 s windows of back-to-back bundled `analyze` ops had medians from
0.99 s to 1.41 s (a 20% spread).  So every timed sample is bracketed by
probes, and each sample is scaled by REFERENCE_PROBE_S / (mean of the
probe just before and the probe just after it): the figures are seconds
on a machine where the probe takes 4 ms.  Scaled that way, the spread of
the window medians fell to 3%.  The probe is the benchmark's own code and
does not change with the program, so a faster program still shows.
"""

from __future__ import annotations

import bisect
import random
import time
from itertools import product

from exact import int_det, mat_vec, polar_matrix, q_eval, rank_mod

REFERENCE_PROBE_S = 0.004
# Longest stretch of ops between two probes inside a timed phase.
PROBE_EVERY_S = 0.2

_rng = random.Random(20230418)
_MATRICES = [[[_rng.randint(-9, 9) for _ in range(8)] for _ in range(8)]
             for _ in range(16)]
_FORM = {(0, 1): 1, (0, 2): 1, (1, 2): -4, (1, 5): 2, (2, 5): 2, (3, 3): 1,
         (3, 5): -2, (4, 4): 1, (5, 5): -1}
_POLAR = polar_matrix(_FORM)


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return out


def probe(clock=time.perf_counter) -> tuple[float, float]:
    """(end time, duration by `clock`) of about 4-6 ms of the kinds of work
    the program does: big-integer elimination and rank mod p, a quadratic
    form evaluated over a grid of F_7 points, and sparse polynomial
    products.  The end time is always time.perf_counter()."""
    start = clock()
    for m in _MATRICES:
        int_det(m)
        rank_mod(m, 1000003)
    for tail in product(range(7), repeat=3):
        v = (1, 0) + tail + (3,)
        if q_eval(_FORM, v) % 7 == 0:
            rank_mod([mat_vec(_POLAR, v), list(v)], 7)
    poly = {(1, 0, 0, 0): 1, (0, 1, 0, 0): 2, (0, 0, 1, 0): -1, (0, 0, 0, 1): 3}
    acc = {(0, 0, 0, 0): 1}
    for _ in range(5):
        acc = _poly_mul(acc, poly)
    return time.perf_counter(), clock() - start


def scale(start: float, end: float, probes: list[tuple[float, float]]) -> float:
    """Factor for a sample timed from `start` to `end`: the reference over
    the mean of the last probe that ended by `start` and the first probe
    that ended after `end`.  `probes` is sorted by end time."""
    ends = [t for t, _ in probes]
    before = probes[max(bisect.bisect_right(ends, start) - 1, 0)][1]
    after = probes[min(bisect.bisect_left(ends, end), len(probes) - 1)][1]
    return REFERENCE_PROBE_S / ((before + after) / 2)

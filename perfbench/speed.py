"""Machine-speed probe that the timed metrics are scaled by.

The benchmark runs on a few cores of a shared host whose speed drifts: a
fixed pure-Python loop runs up to 1.7x slower for tens of seconds at a time,
and CPU time drifts with wall time, so it is not time stolen from the
process but slower execution.  A run's wall-clock figures then measure the
host's state as much as the engine.  So the worker times `probe()`, a fixed
piece of work in the engine's own style (dict polynomials with Fraction
coefficients, products and sorting of monomials), right after every op, and
run.py scales each op's latency by REFERENCE_S over the mean probe time of
the nearby ops.  The result is the op's latency at the speed at which the
probe takes REFERENCE_S.

The probe uses no engine code, so a change to the engine moves the scaled
figures in the same proportion as the wall-clock ones.  run.py prints the
unscaled figures as well.
"""

import gc
import statistics
import time
from fractions import Fraction

# Probe time on the fast state of the 2-core x86-64 host (Python 3.11) that
# the baseline in NOTES.md was taken on.  A constant, so scaled figures from
# any run compare directly.
REFERENCE_S = 0.0025

# Latencies are scaled by the mean probe of the op and its NEIGHBOURS ops on
# either side.  The host can switch speed every few ops, so the window is
# short, and a mean follows a mix of speeds where a median would pick one.
NEIGHBOURS = 2
# Timings of the fixed work per probe, of which the shortest counts.
REPEATS = 2

_BASE = {(1, 0, 0): Fraction(3, 7), (0, 1, 0): Fraction(-2, 5),
         (0, 0, 1): Fraction(5, 11), (2, 1, 0): Fraction(1, 3),
         (0, 0, 0): Fraction(-4, 9)}


def _mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def probe():
    """Wall time in seconds of the fixed work, the best of REPEATS, with the
    garbage collector off so that the engine's heap does not enter it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            p = _BASE
            for _ in range(4):
                p = _mul(p, _BASE)
            sorted(p, key=lambda e: (sum(e), tuple(-x for x in reversed(e))))
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
    finally:
        if was_enabled:
            gc.enable()
    return best


def scaled(latencies, probes):
    """Each latency times REFERENCE_S over the mean of the probes within
    NEIGHBOURS ops of it."""
    out = []
    for i, lat in enumerate(latencies):
        near = probes[max(0, i - NEIGHBOURS):i + NEIGHBOURS + 1]
        out.append(lat * REFERENCE_S / statistics.fmean(near))
    return out

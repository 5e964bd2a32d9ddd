"""The speed probe: how fast a shared host runs code like the program's at
the moment.

Other tenants of a shared host slow it by up to 2x for seconds at a time.
A probe of about 70 us slips between those bursts often enough that the
fastest of many probes shows the host's undisturbed speed, and the mean of
the probes run during a stretch of work shows how much slower the host ran
it.  Timings divided by that ratio are steady from run to run where raw wall
times spread by a quarter.
"""

import statistics
import time

import numpy as np

_X = np.linspace(-1.0, 1.0, 8 * 16).reshape(8, 16)
_W = np.linspace(-0.5, 0.5, 16 * 16).reshape(16, 16)


def probe():
    """Seconds taken by a fixed piece of work like the program's own: small
    matrix products, tanh and log-sum-exp, and element loops in Python."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(3):
        h = np.tanh(_X @ _W)
        z = h - h.max(axis=1, keepdims=True)
        total += float(np.log(np.exp(z).sum()))
        total += sum(float(v) for v in h[i, :4])
    for i in range(15):
        total += float((_X[i % 8] * _X[(i * 3) % 8]).sum())
    return time.perf_counter() - t0


def slowdown(probes, best):
    """How much slower than ``best`` (the fastest probe) the host ran while
    ``probes`` were taken."""
    return statistics.fmean(probes) / best

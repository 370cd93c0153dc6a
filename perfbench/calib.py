"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of the whole machine drifts by tens of percent
over minutes, and a run of the benchmark takes well under a minute, so
runs made minutes apart differ by that drift whatever the program does.
The benchmark therefore interleaves a fixed unit of reference work with
its ops, independent of the package, and states each pass's timings at a
reference speed: a pass in which a calibration sample took twice
``REFERENCE_S`` counts at half its wall time.  The raw wall times are
reported next to the corrected ones.

The reference work mixes what the package spends its time on: a scalar
series loop (hypergeometric and moment sums), small-array numpy calls
(the scalar MGF) and vectorised transcendental functions over a few
thousand points (the quadrature panels of the PDF and CDF).
"""
from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# a calibration sample at least this often during a pass
INTERVAL_S = 0.1
# calibration sample time that defines the reference speed: about the
# median sample between the ops of a run on a 2-core Xeon VM (2.1 GHz)
REFERENCE_S = 1.7e-3

_X = np.linspace(0.05, 40.0, 2048)
_RATES = np.array([0.9, 0.5, 0.25, 0.1])


def _work() -> float:
    total = 0.0
    for j in range(5):
        term = 1.0
        for k in range(1, 300):
            term *= (0.5 + j + k) * 0.3 / (k * (1.5 + k))
            total += term + 1e-12 * math.lgamma(k + 0.5)
    for _ in range(100):
        total += math.exp(-2.0 * float(np.sum(np.log1p(0.3 * _RATES))))
    for _ in range(14):
        total += float(np.sum(np.cos(_X) * np.exp(-0.05 * _X)))
    return total


def sample() -> float:
    """Wall time of one unit of reference work, in seconds."""
    t0 = perf_counter()
    _work()
    return perf_counter() - t0

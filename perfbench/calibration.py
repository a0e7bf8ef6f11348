"""Machine-speed calibration for a shared, noisy host.

On a host shared with other tenants the speed available to one process
switches between a fast and a slow state (about 1.8 times slower) many times
a second, and the share of slow time drifts from minute to minute, so raw
timings of the same code move by a third between runs.  The harness
therefore times a fixed kernel, which uses none of the package, next to the
program and scales measured times by the kernel's speed at the same time:

    normalized = measured / trimmed mean of (kernel time / its fast-state time)

so a normalized second is a wall second of this host in its fast state.  The
mean, not the median, is used because the kernel times are bimodal and the
measured times average over both states.

The kernel mixes small complex solves with Python bookkeeping, as the
package's per-frequency path does, and depends only on numpy, so a change to
the package cannot change it.  In-process workloads run it between program
calls (``sample``).  Workloads that start processes run it in the harness
while each child runs (``short_sample``), using the second core; the child
and the kernel then see the same host state.
"""

from __future__ import annotations

import time

import numpy as np

#: kernel time defining the reference speed (about this host's fast state)
REFERENCE_S = 0.002
#: kernel samples per calibration point
SAMPLES = 4
_ITERATIONS = 200
_SHORT_ITERATIONS = 50
_TRIM = 0.1
_RNG = np.random.default_rng(20160226)
_A = _RNG.normal(size=(4, 4)) + 1j * _RNG.normal(size=(4, 4))
_B = np.eye(4, dtype=complex)
_EYE = np.eye(4)


def _kernel(iterations: int) -> float:
    start = time.perf_counter()
    acc = 0.0
    seen: dict[int, float] = {}
    for i in range(iterations):
        x = np.linalg.solve(_A + (1j * i) * _EYE, _B)
        seen[i % 7] = float(abs(x[0, 0])) + acc * 1e-9
        acc += seen[i % 7]
    return time.perf_counter() - start


def sample() -> list[float]:
    """Slowdowns (kernel time over REFERENCE_S) of SAMPLES kernel runs now."""
    return [_kernel(_ITERATIONS) / REFERENCE_S for _ in range(SAMPLES)]


def short_sample() -> float:
    """Slowdown of one short kernel run, for sampling while a child runs."""
    return _kernel(_SHORT_ITERATIONS) / (REFERENCE_S * _SHORT_ITERATIONS / _ITERATIONS)


def speed_factor(slowdowns: list[float]) -> float:
    """Inverse trimmed mean of a run's slowdowns: multiplies measured times."""
    ordered = sorted(slowdowns)
    cut = int(len(ordered) * _TRIM)
    kept = ordered[cut:len(ordered) - cut] or ordered
    return len(kept) / sum(kept)

"""Fixed reference work, timed beside each operation and set-up.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent for minutes at a time, longer than one run. Timing this
fixed piece of work between operations, and after each cold set-up,
gives the speed of the machine at that moment; the bounded times are
divided by it. The work belongs to the benchmark, not to the package, so
a change to the package cannot move it.

It mixes the two kinds of work the package does: a pure-Python dynamic
programme (the scoring and ROVER side) and batched complex linear algebra
through numpy and BLAS (the WPE and GSS side), each about half of it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_rng = np.random.default_rng(20230311)
_A = "".join(_rng.choice(list("abcdefgh"), 300))
_B = "".join(_rng.choice(list("abcdefgh"), 300))
# 257 frequency bins x 4 channels x 120 frames, as in a short GSS window
_X = _rng.standard_normal((257, 4, 120)) + 1j * _rng.standard_normal((257, 4, 120))
_LOAD = 1e-3 * np.eye(4)


def _edit_distance(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _linear_algebra(x: np.ndarray) -> float:
    total = 0.0
    for _ in range(8):
        cov = np.einsum("fct,fdt->fcd", x, x.conj()) / x.shape[-1] + _LOAD
        w = np.linalg.solve(cov, x)
        total += float(np.abs(w).sum())
    return total


def reference_s() -> float:
    """Wall seconds of one pass of the reference work."""
    start = perf_counter()
    _edit_distance(_A, _B)
    _linear_algebra(_X)
    return perf_counter() - start

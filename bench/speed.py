"""Machine-speed probe used to put wall times on a common scale.

Shared machines change speed by tens of percent from one second to the
next. The probe times a fixed piece of work with the same mix as scpoly's
(Python complex arithmetic, small NumPy log/exp/matmul calls) and never
calls scpoly, so a change to the program cannot move it. A wall time t
measured while the probe takes p seconds is reported as
t * NOMINAL_PROBE_S / p: the time the work would take on a machine where
the probe takes NOMINAL_PROBE_S.
"""

from __future__ import annotations

import time

import numpy as np

# Median probe time on the reference machine the baseline was measured
# on: a 2-core Intel Xeon VM, Python 3.11, NumPy 2.4, one BLAS thread.
NOMINAL_PROBE_S = 0.0024

_X = np.linspace(0.05, 1.0, 64)
_SING = np.linspace(-1.0, 2.0, 8)
_EXP = np.linspace(-0.5, 0.5, 8)


def probe() -> float:
    """Seconds taken by the fixed probe work."""
    t0 = time.perf_counter()
    z = 0j
    acc = 0.0
    for i in range(2500):
        z = z * 0.999 + complex(i % 7, 1.0)
        acc += abs(z)
    for i in range(60):
        logs = np.log(_X[:, None] + 1j - _SING[None, :]) @ _EXP
        acc += float(np.exp(logs).real.sum())
    if acc != acc:  # keeps the work observable
        raise ArithmeticError("probe produced NaN")
    return time.perf_counter() - t0

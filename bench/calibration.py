"""Calibration kernel that turns wall seconds into calibrated seconds.

On a shared host the CPU's speed drifts by tens of percent over tens of
seconds.  The kernel is fixed interpreter-bound work, like the program's
inner loops: float arithmetic, ``math`` calls and 5-element numpy
arrays.  Running it next to a timed call and scaling the call's wall
time by (CAL_NOMINAL_S / kernel time) ** CAL_ELASTICITY cancels most of
that drift.  A calibrated second is a wall second on a machine where the
kernel takes CAL_NOMINAL_S.

The exponent is below 1 because the host's fast and slow phases change
the kernel's time more than the program's.  Over about 600 warm
invocations of the check and map workloads on a 2-vCPU Xeon, the spread
of 15-to-30-invocation medians between runs was smallest for an
exponent of 0.7 to 1.0 (about 3%), against about 20% uncorrected; 0.8
was the best overall.

numpy is imported inside the kernel so that importing this module does
not add numpy to a fresh interpreter whose import time is being measured.
"""

from __future__ import annotations

import math
from time import perf_counter

CAL_NOMINAL_S = 0.02  # about the kernel's time on one core of a 2-vCPU Xeon
CAL_ELASTICITY = 0.8


def calibration_kernel() -> float:
    """Run the kernel once; return its wall seconds."""
    import numpy as np
    start = perf_counter()
    acc = 0.0
    y = np.array([1.0, 0.5, 0.2, 0.1, 0.0])
    for i in range(8000):
        x = i * 1e-3
        acc += math.sin(x) * 0.5 + x / (1.0 + x * x)
        y = y + 1e-6 * y
    return perf_counter() - start


def calibrated(wall_s: float, kernel_s: float) -> float:
    """Calibrated seconds of a call that took ``wall_s`` while the kernel,
    run beside it, took ``kernel_s``."""
    return wall_s * (CAL_NOMINAL_S / kernel_s) ** CAL_ELASTICITY

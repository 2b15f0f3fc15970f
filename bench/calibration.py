"""Machine-speed calibration for wall times taken on a shared machine.

On a small shared machine the speed available to one process swings by up
to 2x over a few seconds while other tenants come and go; the process's own
CPU time swings with it, so it cannot be subtracted out. A fixed mix of
work like the program's own, timed right before and after each measured
command, tracks that speed: interpreter work alone and with small NumPy
operations, BLAS matrix-vector products, and one pass over a 4 MB array.
Every reported time is scaled to a machine on which that mix takes
CAL_REF_S, about its median on a 2-core x86-64 machine.

The mix is too short to see the other way a busy machine slows a process:
the scheduler gives its CPU to another tenant for a few milliseconds at a
time, which a 2 ms mix mostly escapes but a 50 ms command does not. The
kernel counts that time per thread (child.run_delay), and it is taken off
each measured time before the scaling.

The mix must not depend on the state the measured program leaves behind, or
a change to the program's allocations or BLAS use would move the divisor of
every figure. So every array it touches is allocated once, at import, and
written in place; and its matrix is small enough (90 x 90) that OpenBLAS
runs the products on the calling thread, whatever its thread pool is doing.
"""

import statistics
from time import perf_counter

import numpy as np

CAL_REF_S = 2.1e-3
_SMALL = np.arange(16.0)
_SMALL_OUT = np.empty(16)
_MATRIX = np.linspace(0.0, 1.0, 90 * 90).reshape(90, 90)
_VECTOR = np.ones(90)
_PRODUCT = np.empty(90)
_BUFFER = np.ones(500_000)


def calibrate() -> float:
    """Seconds the reference mix takes now."""
    start = perf_counter()
    acc = 0.0
    for i in range(1000):
        acc += (i * 1.0001) % 7.0
        pair = {"i": i, "acc": acc}
        text = "%.6g" % pair["acc"]
    for i in range(150):
        np.multiply(_SMALL, 1.0001, out=_SMALL_OUT)
        acc += float(_SMALL_OUT.sum())
        pair = {"i": i, "acc": acc}
        text = "%.6g" % pair["acc"]
    for _ in range(40):
        np.dot(_MATRIX, _VECTOR, out=_PRODUCT)
    np.add(_BUFFER, 0.0, out=_BUFFER)
    acc += float(_BUFFER.sum())
    del text
    return perf_counter() - start


def scaled_times(raw: list[float], cals: list[float], window: int = 3) -> list[float]:
    """Scale wall times to the reference machine speed.

    raw[i] ran between cals[i] and cals[i + 1]. Each time is scaled by the
    median of the calibrations within `window` commands of it, which follows
    the machine's speed over a second or so without taking the noise of any
    single calibration.
    """
    return [
        t * CAL_REF_S / statistics.median(cals[max(0, i - window): i + window + 2])
        for i, t in enumerate(raw)
    ]

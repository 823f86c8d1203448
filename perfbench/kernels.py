"""Reference kernels that measure how fast the machine is right now.

Op times are divided by the time of a kernel run just before and just after
each window of ops, so a slow phase of a shared machine moves the kernel and
the ops together and cancels out.  Neither kernel imports hcvdyn: no change
to the package can move them.

- ``python_kernel`` is interpreted scalar code of the same kind as the
  package's scalar paths: closures over floats, tuple arithmetic in a
  Runge-Kutta loop, small frozen dataclasses and repr() formatting.
- ``numpy_kernel`` streams a polynomial field and a Lyapunov-type
  derivative over a fresh 3-D log grid, the way a grid certificate does,
  and over a fresh anonymous mapping whose pages fault in on first touch.

Which kernel a workload uses is chosen in worker.py by measurement.
"""

from __future__ import annotations

import math
import mmap
import time
from dataclasses import dataclass, replace

import numpy as np

# Work per call, fixed so that one call takes 3-4 ms here.
_PY_STEPS = 300
_NP_GRID = 36
_NP_FRESH_BYTES = 4 << 20


@dataclass(frozen=True)
class _Rates:
    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(name)


def _field(rates: _Rates):
    a, b, c = rates.a, rates.b, rates.c

    def f(t, y):
        x, u, v = y
        crowd = 1.0 - (x + u) * 1e-3
        return (a - b * x * crowd - 1e-4 * v * x, b * u * crowd + 1e-4 * v * x - c * u, u - c * v)

    return f


def python_kernel() -> str:
    """A fixed amount of interpreted scalar work; returns its text output."""
    rates = _Rates(1.0, 0.3, 0.7)
    y = (10.0, 1.0, 0.5)
    h = 0.01
    rows = []
    for k in range(_PY_STEPS):
        if k % 50 == 0:
            rates = replace(rates, a=rates.a * 1.001)
        f = _field(rates)
        k1 = f(0.0, y)
        k2 = f(0.0, tuple(yi + 0.5 * h * ki for yi, ki in zip(y, k1)))
        k3 = f(0.0, tuple(yi + 0.5 * h * ki for yi, ki in zip(y, k2)))
        k4 = f(0.0, tuple(yi + h * ki for yi, ki in zip(y, k3)))
        y = tuple(yi + (h / 6.0) * (p + 2.0 * q + 2.0 * r + s)
                  for yi, p, q, r, s in zip(y, k1, k2, k3, k4))
        rows.append(f"{k * h!r},{y[0]!r},{y[1]!r},{y[2]!r}\n")
    return "".join(rows)


def numpy_kernel() -> float:
    """A fixed amount of streaming array work over fresh temporaries.

    Large certificate arrays are backed by fresh pages, so the kernel also
    streams over a fresh anonymous mapping, whose pages fault in on first
    touch whatever state the allocator is in.
    """
    with mmap.mmap(-1, _NP_FRESH_BYTES) as buf:
        fresh = np.frombuffer(buf, dtype=np.float64)
        fresh[:] = 1.5
        np.multiply(fresh, fresh, out=fresh)
        total = float(fresh.sum())
        del fresh
    axis = np.logspace(-3.0, 3.0, _NP_GRID)
    x, u, v = (g.ravel() for g in np.meshgrid(axis, axis, axis, indexing="ij"))
    keep = x + u <= 1.5e3
    x, u, v = x[keep], u[keep], v[keep]
    crowd = 1.0 - (x + u) / 2e3
    inf = 1e-4 * v * x
    f0 = 1.0 + 0.3 * x * crowd - 0.01 * x - inf + 0.5 * u
    f1 = 0.2 * u * crowd - 0.3 * u + inf - 0.5 * u
    f2 = 2.0 * u - 0.7 * v
    g0 = 1.0 - 10.0 / x
    g2 = np.full_like(x, 1e-3)
    dl = g0 * f0 + f1 + g2 * f2
    scale = np.abs(g0 * f0) + np.abs(f1) + np.abs(g2 * f2)
    return float(np.max(dl)) + float(np.max(scale)) + total


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}

# Typical time of each kernel inside a benchmark process on the machine the
# benchmark was tuned on (2 vCPU Xeon, CPython 3.11): an op's time at
# reference speed is its wall time times NOMINAL / (the kernel's time
# around it).
NOMINAL = {"python": 3.5e-3, "numpy": 5.0e-3}


def time_kernel(kernel) -> float:
    """Faster of two back-to-back calls, in seconds.

    A slow phase of the machine lasts far longer than both calls and slows
    them both; a single interruption, such as a garbage-collection pass
    that the ops' garbage triggers, slows only one.
    """
    times = []
    for _ in range(2):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return min(times)

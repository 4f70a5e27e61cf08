"""Independent reference values for the benchmark's output checks.

Nothing here calls maxforms: zeros come from scipy.special.jv/jvp bracketed on
a fine grid and polished by brentq, merged spectra use the monotonicity of
Bessel zeros in the order (DLMF 10.21) instead of an order cap, and mesh
topology is counted with numpy.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq
from scipy.special import jv, jvp

_GRID_STEP = 0.05  # well below the smallest zero spacing (about 1.3)


@lru_cache(maxsize=None)
def bessel_zeros(n: int, count: int, kind: str) -> tuple:
    """First `count` positive zeros of J_(n-1/2) ("fn") or its derivative ("dfn")."""
    nu = n - 0.5
    f = (lambda x: jv(nu, x)) if kind == "fn" else (lambda x: jvp(nu, x))
    x_max = nu + 2.0 * nu ** (1.0 / 3.0) + (count + 3) * math.pi + 10.0
    xs = np.arange(1e-3, x_max, _GRID_STEP)
    vals = f(xs)
    change = np.nonzero(np.signbit(vals[:-1]) != np.signbit(vals[1:]))[0]
    if len(change) < count:
        raise RuntimeError(f"oracle found {len(change)} of {count} zeros (n={n}, {kind})")
    return tuple(
        brentq(f, xs[i], xs[i + 1], xtol=1e-15, rtol=4 * np.finfo(float).eps)
        for i in change[:count]
    )


@lru_cache(maxsize=None)
def merged_spectrum(q: int, count: int) -> tuple:
    """Lowest `count` rows (lambda, n, m, omega) of the half-disk spectrum.

    Orders are added until the first zero of the next order exceeds the
    count-th smallest value so far; zeros of J_nu increase with nu, so no
    later order can contribute.
    """
    kind = "fn" if q == 0 else "dfn"
    rows = []
    n = 1
    while True:
        zeros = bessel_zeros(n, count, kind)
        if len(rows) >= count and zeros[0] ** 2 > rows[count - 1][0]:
            return tuple(rows[:count])
        rows = sorted(rows + [(z * z, n, m, z) for m, z in enumerate(zeros, start=1)])
        n += 1


def euler_characteristic(points: np.ndarray, triangles: np.ndarray) -> int:
    """V - E + F of a triangle mesh, counting undirected edges once."""
    t = np.asarray(triangles)
    edges = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    edges.sort(axis=1)
    return len(points) - len(np.unique(edges, axis=0)) + len(t)


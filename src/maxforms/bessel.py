"""Half-integer Bessel functions J_(n-1/2) and their zero tables.

Evaluation has two routes that meet at x = nu = n - 1/2.  At or above the
order, the closed forms for orders 1/2 and 3/2 seed the upward three-term
recurrence, which is stable there.  Below the order, Miller's backward
recurrence in ratio form (Gautschi, SIAM Rev. 9, 1967; DLMF 3.6(iii)) runs
rho_k = J_(k+1/2) / J_(k-1/2) down from far above the order and multiplies up
from the larger of the two seeds; ratios cannot overflow, so no order limit is
needed.

Zeros come from one sign scan on a pi/8 grid evaluated as a single array,
followed by bisection of all brackets at once.  The scan starts at nu: by
DLMF 10.21.3, nu <= j'_(nu,1) < j_(nu,1), so no zero of either kind lies
below it, and zeros of either kind are more than pi/8 apart.  Nothing is
tabulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SCAN_STEP = math.pi / 8.0
_BISECT_STEPS = math.ceil(math.log2(_SCAN_STEP / 1e-13))  # brackets below 1e-13


def _check_order(n: int):
    if n < 1:
        raise ValueError("orders are labeled n >= 1 (order n - 1/2)")


def _seed_half(x):
    return np.sqrt(2.0 / (np.pi * x)) * np.sin(x)


def _seed_three_half(x):
    return np.sqrt(2.0 / (np.pi * x)) * (np.sin(x) / x - np.cos(x))


def _upward(n: int, x: np.ndarray) -> np.ndarray:
    """Upward recurrence from the closed-form seeds, stable for x >= nu."""
    jm, j = _seed_half(x), _seed_three_half(x)
    if n == 1:
        return jm
    for k in range(2, n):
        # climbing from order k - 1/2 to k + 1/2
        nu = k - 0.5
        jm, j = j, (2.0 * nu / x) * j - jm
    return j


def _miller(n: int, x: np.ndarray) -> np.ndarray:
    """Miller's backward recurrence in ratio form, stable for x < nu."""
    if n == 1:
        return _seed_half(x)
    rho = np.zeros_like(x)
    tail = np.ones_like(x)  # rho_2 * ... * rho_(n-1)
    for k in range(n + 20 + math.isqrt(40 * n), 0, -1):
        rho = x / ((2 * k + 1) - x * rho)  # J_(k+1/2) / J_(k-1/2)
        if 2 <= k < n:
            tail *= rho
    half, three_half = _seed_half(x), _seed_three_half(x)
    return np.where(np.abs(half) >= np.abs(three_half), half * rho, three_half) * tail


def eval_j(n: int, x):
    """J_(n-1/2)(x) for x > 0, vectorized over x."""
    _check_order(n)
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr <= 0.0):
        raise ValueError("arguments must be positive")
    out = np.empty_like(arr)
    below = arr < n - 0.5
    if np.any(below):
        out[below] = _miller(n, arr[below])
    if not np.all(below):
        out[~below] = _upward(n, arr[~below])
    return float(out[0]) if scalar else out


def eval_j_prime_scaled(n: int, omega: float, r):
    """d/dr J_(n-1/2)(omega r) by J'_nu = J_(nu-1) - (nu/x) J_nu, DLMF 10.6.2."""
    x = omega * np.asarray(r, dtype=float)
    j = eval_j(n, x)  # rejects bad n and x before the n = 1 closed form takes a root
    lower = eval_j(n - 1, x) if n > 1 else np.sqrt(2.0 / (np.pi * x)) * np.cos(x)
    return omega * (lower - ((n - 0.5) / x) * j)


@dataclass
class ZeroTable:
    """Ascending positive zeros of J_(n-1/2) or of its derivative."""

    n: int
    kind: str  # "fn" for the function, "dfn" for its derivative
    zeros: np.ndarray
    residuals: np.ndarray

    def __len__(self):
        return len(self.zeros)


def _scan_zeros(f, start: float, stop: float, count: int = None) -> np.ndarray:
    """Zeros of f on [start, stop] by pi/8 sign scan and bisection.

    With a count, the window doubles until it holds that many zeros and the
    first `count` are returned; without one, every zero on the window is.
    """
    while True:
        steps = max(0, math.floor((stop - start) / _SCAN_STEP))
        xs = start + _SCAN_STEP * np.arange(steps + 1)
        neg = f(xs) < 0
        (i,) = np.nonzero(neg[:-1] != neg[1:])
        if count is None or len(i) >= count:
            break
        stop = start + 2.0 * (stop - start)
    i = i[:count]
    lo, hi, neg_lo = xs[i], xs[i + 1], neg[i]
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        left = (f(mid) < 0) != neg_lo
        lo, hi = np.where(left, lo, mid), np.where(left, mid, hi)
    return 0.5 * (lo + hi)


def _function(kind: str, n: int):
    """x -> J_(n-1/2)(x) for kind "fn", its derivative for kind "dfn"."""
    if kind == "fn":
        return lambda x: eval_j(n, x)
    return lambda x: eval_j_prime_scaled(n, 1.0, x)


def _table(n: int, count: int, kind: str) -> ZeroTable:
    _check_order(n)
    if count < 1:
        raise ValueError("count must be positive")
    nu = n - 0.5
    f = _function(kind, n)
    zs = _scan_zeros(f, nu, nu + (count + 1) * math.pi, count)
    return ZeroTable(n=n, kind=kind, zeros=zs, residuals=np.abs(f(zs)))


def zeros_j(n: int, count: int) -> ZeroTable:
    """First `count` positive zeros of J_(n-1/2)."""
    return _table(n, count, "fn")


def zeros_jprime(n: int, count: int) -> ZeroTable:
    """First `count` positive zeros of the derivative of J_(n-1/2)."""
    return _table(n, count, "dfn")


def no_common_zero_check(orders, kind: str = "fn", x_max: float = 40.0) -> dict:
    """Smallest pairwise gap between zeros of different orders on (0, x_max].

    Certifies numerical separation on the window only.  A single order gives
    an infinite gap.
    """
    if kind not in ("fn", "dfn"):
        raise ValueError("kind must be 'fn' or 'dfn'")
    tables = {}
    for n in orders:
        _check_order(n)
        tables[n] = _scan_zeros(_function(kind, n), n - 0.5, x_max)
    best = {"gap": math.inf, "orders": None, "zeros": None}
    labels = sorted(tables)
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            for za in tables[a]:
                for zb in tables[b]:
                    gap = abs(za - zb)
                    if gap < best["gap"]:
                        best = {"gap": gap, "orders": (a, b), "zeros": (za, zb)}
    return best

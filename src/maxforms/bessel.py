"""Half-integer Bessel functions J_(n-1/2) and their zero tables.

Evaluation has two routes that meet at x = nu = n - 1/2.  At or above the
order, the closed forms for orders 1/2 and 3/2 seed the upward three-term
recurrence, which is stable there.  Below the order, Miller's backward
recurrence in ratio form (Gautschi, SIAM Rev. 9, 1967; DLMF 3.6(iii)) runs
rho_k = J_(k+1/2) / J_(k-1/2) down from far above the order and multiplies up
from the larger of the two seeds; ratios cannot overflow, so no order limit is
needed.

Each route gives a span of orders lo..hi from one pass, and eval_j(n, x) is
the span n..n.  The upward pass drops each point at the first order above it,
so no point climbs where the recurrence grows.  The Miller pass starts for the
top order and keeps one product of ratios per order, multiplied as that
order's own pass would; the ratio trajectories of different starts merge, in
floating point, long before the orders kept, so every row of a span is
bit-identical to eval_j of its order (checked for n <= 200 in the tests).

Zeros come from a sign scan on a pi/8 grid, evaluated as a single array over
a window that doubles until it holds as many zeros as the table asks for,
followed by a safeguarded Newton polish of all brackets at once.  The scan
starts at nu: by DLMF 10.21.3, nu <= j'_(nu,1) < j_(nu,1), so no zero of
either kind lies below it, and zeros of either kind are more than pi/8 apart.
Every bracket thus lies on the upward route, whose one pass gives J_(nu-1)
and J_nu, hence the function, its derivative and its second derivative; the
eigenform normalization at a zero takes J and J' from that same pass.
Tables are cached per (kind, order) and recomputed only when a longer one is
asked for; the grid is anchored at nu and each bracket is polished on its own,
so a shorter table is a bit-identical prefix of a longer one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SCAN_STEP = math.pi / 8.0
# a relative Newton step or bracket this small is at the roundoff of the evaluation
_POLISHED = 4.0 * float(np.finfo(float).eps)


def _check_order(n: int):
    if n < 1:
        raise ValueError("orders are labeled n >= 1 (order n - 1/2)")


def _seed_minus_half(x):
    return np.sqrt(2.0 / (np.pi * x)) * np.cos(x)


def _seed_half(x):
    return np.sqrt(2.0 / (np.pi * x)) * np.sin(x)


def _seed_three_half(x):
    return np.sqrt(2.0 / (np.pi * x)) * (np.sin(x) / x - np.cos(x))


def _upward(lo: int, hi: int, x: np.ndarray, first=None) -> list:
    """Rows J_(k-1/2)(x) for k = lo..hi (lo >= 0) from one upward pass: the
    closed forms of orders -1/2, 1/2 and 3/2 seed the three-term recurrence,
    which is stable at x >= nu.

    Without `first`, every row covers every point, and every point must lie at
    or above order hi's nu.  With it, x ascends and first[k - lo] is the index
    of its first point at or above order k's nu: a point leaves the pass at the
    first order above it, so no point climbs where the recurrence grows, and
    row k covers a suffix of x that holds x[first[k - lo]:].
    """
    if first is None:
        first = [0] * (hi - lo + 1)
    start = first[0]
    xa = x[start:]
    jm, j = _seed_half(xa), _seed_three_half(xa)  # orders 1/2 and 3/2
    rows = [_seed_minus_half(xa)] if lo == 0 else []
    rows += [jm, j][max(lo, 1) - 1:hi]
    for k in range(2, hi):
        # climbing from order k - 1/2 to k + 1/2, over the points at or above it
        if k + 1 > lo and first[k + 1 - lo] > start:
            cut, start = first[k + 1 - lo] - start, first[k + 1 - lo]
            xa, jm, j = xa[cut:], jm[cut:], j[cut:]
        nu = k - 0.5
        jm, j = j, (2.0 * nu / xa) * j - jm
        if k + 1 >= lo:
            rows.append(j)
    return rows


def _miller(lo: int, hi: int, x: np.ndarray) -> np.ndarray:
    """Rows J_(k-1/2)(x) for k = lo..hi (lo >= 1) from one pass of Miller's
    backward recurrence in ratio form, started for the top order; stable for
    x < nu.  Each order keeps its own product of ratios, multiplied in the
    order a pass of its own would take, so a row equals that pass's value
    wherever the two passes' ratios have merged, which happens long before the
    orders kept."""
    half = _seed_half(x)
    rows = np.ones((hi - lo + 1, len(x)))  # row k: rho_2 * ... * rho_(k-1)
    if hi > 1:
        rho = np.zeros_like(x)
        for k in range(hi + 20 + math.isqrt(40 * hi), 0, -1):
            rho = x / ((2 * k + 1) - x * rho)  # J_(k+1/2) / J_(k-1/2)
            if 2 <= k < hi:
                rows[max(k + 1 - lo, 0):] *= rho
        three_half = _seed_three_half(x)
        rows *= np.where(np.abs(half) >= np.abs(three_half), half * rho, three_half)
    if lo == 1:
        rows[0] = half
    return rows


def _j_span(lo: int, hi: int, x) -> np.ndarray:
    """J_(k-1/2)(x) for k = lo..hi, shape (hi - lo + 1, *x.shape), for x > 0.

    Each value takes the route of its own order: upward at or above that
    order's nu, Miller below it.  One pass of each serves the whole span,
    and every row is bit-identical to eval_j(k, x).
    """
    _check_order(lo)
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("arguments must be positive")
    flat = arr.ravel()
    out = np.empty((hi - lo + 1, flat.size))
    order = np.argsort(flat)
    xs = flat[order]
    # per order, the count of points below its nu: the Miller share of its row
    first = np.searchsorted(xs, np.arange(lo, hi + 1) - 0.5).tolist()
    if first[-1]:
        for row, values, f in zip(out, _miller(lo, hi, xs[:first[-1]]), first):
            row[order[:f]] = values[:f]
    if first[0] < flat.size:
        for row, values, f in zip(out, _upward(lo, hi, xs, first), first):
            row[order[f:]] = values[len(values) - (flat.size - f):]
    return out.reshape(hi - lo + 1, *arr.shape)


def eval_j(n: int, x):
    """J_(n-1/2)(x) for x > 0, vectorized over x."""
    j = _j_span(n, n, x)[0]
    return float(j) if j.ndim == 0 else j


@dataclass
class ZeroTable:
    """Ascending positive zeros of J_(n-1/2) or of its derivative."""

    n: int
    kind: str  # "fn" for the function, "dfn" for its derivative
    zeros: np.ndarray
    residuals: np.ndarray

    def __len__(self):
        return len(self.zeros)


def _with_slope(kind: str, n: int):
    """x -> (f, f') at x >= nu for f = J_(n-1/2) (kind "fn") or its derivative
    (kind "dfn"), both from one upward pass: J' = J_(nu-1) - (nu/x) J_nu, and
    J'' = -J'/x - (1 - nu^2/x^2) J from Bessel's equation (DLMF 10.2.1)."""
    nu = n - 0.5

    def f(x):
        jm, j = _upward(n - 1, n, x)
        jp = jm - (nu / x) * j
        if kind == "fn":
            return j, jp
        return jp, -jp / x - (1.0 - (nu / x) ** 2) * j

    return f


def _polish(f, lo: np.ndarray, hi: np.ndarray, neg_lo: np.ndarray) -> np.ndarray:
    """Safeguarded Newton on every bracket at once (Segura, SIAM J. Numer.
    Anal. 48, 2010).  Each iterate shrinks its bracket by the sign of f there;
    a step that leaves the bracket falls back to its midpoint, one that lands
    on an end is kept.  A bracket stops once its step or its width is down to
    roundoff, so each zero is polished on its own, whatever its neighbours do.
    """
    x = 0.5 * (lo + hi)
    live = np.arange(len(x))
    while live.size:
        xl, a, b = x[live], lo[live], hi[live]
        fx, slope = f(xl)
        left = (fx < 0) != neg_lo[live]  # the zero lies in [a, xl]
        a, b = np.where(left, a, xl), np.where(left, xl, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = xl - fx / slope
        step = np.where((a <= step) & (step <= b), step, 0.5 * (a + b))
        done = (np.abs(step - xl) <= _POLISHED * step) | (b - a <= _POLISHED * step)
        x[live], lo[live], hi[live] = step, a, b
        live = live[~done]
    return x


def _scan_zeros(f, start: float, stop: float, count: int) -> np.ndarray:
    """First `count` zeros of f past start, by pi/8 sign scan and Newton polish.

    The window [start, stop] doubles until it holds `count` sign changes.
    """
    while True:
        steps = max(0, math.floor((stop - start) / _SCAN_STEP))
        xs = start + _SCAN_STEP * np.arange(steps + 1)
        neg = f(xs)[0] < 0
        (i,) = np.nonzero(neg[:-1] != neg[1:])
        if len(i) >= count:
            break
        stop = start + 2.0 * (stop - start)
    i = i[:count]
    return _polish(f, xs[i], xs[i + 1], neg[i])


_TABLES = {}  # (kind, n) -> the longest table stored so far (maxforms._kept)


def _table(n: int, count: int, kind: str) -> ZeroTable:
    _check_order(n)
    if count < 1:
        raise ValueError("count must be positive")
    table = _TABLES.get((kind, n))
    if table is None or len(table) < count:
        nu = n - 0.5
        f = _with_slope(kind, n)
        zs = _scan_zeros(f, nu, nu + (count + 1) * math.pi, count)
        table = ZeroTable(n, kind, zs, np.abs(f(zs)[0]))
        if len(_TABLES.get((kind, n), ())) < count:  # a racing thread may store a longer one
            _TABLES[kind, n] = table
    # copies, so that no caller can change the cached table
    return ZeroTable(n, kind, table.zeros[:count].copy(), table.residuals[:count].copy())


def zeros_j(n: int, count: int) -> ZeroTable:
    """First `count` positive zeros of J_(n-1/2)."""
    return _table(n, count, "fn")


def zeros_jprime(n: int, count: int) -> ZeroTable:
    """First `count` positive zeros of the derivative of J_(n-1/2)."""
    return _table(n, count, "dfn")

"""Sobolev classification of the half-disk eigenfields near the center.

The verdict is exact: with alpha the least leading power of r over all
Cartesian partials (PolarScalar.leading_exponent), the gradient is square
integrable near the center iff alpha > -1, the simplest case of the corner
exponents of Costabel & Dauge (Arch. Ration. Mech. Anal. 151, 2000).  As
evidence, the gradient energy on a dyadic shell eps/4 < r < eps scales like
eps^(2 alpha + 2) (Kondrat'ev, Trudy Moskov. Mat. Obshch. 16, 1967).  Six
shells, eps = 0.2 / 4^k, are one rule scaled: 24 Gauss-Legendre nodes in log r
by 64 angular midpoints (exact for the half-integer harmonics).  A ring energy
is computed separably, sum_ij R_i(r) R_j(r) Re<A_i, A_j> over each partial's
pairs, from one Bessel pass for all 144 radii and the angular products, so no
(r, phi) grid is formed; the grid route is the oracle in the tests, and the
two agree to 1e-13 relative on all four families for n <= 40 and n = 60, 70.
The slope fits the deepest three shells whose energy is a normal double; the
CLI reports |slope - (2 alpha + 2)| as slope_deviation.  For (0, n, 1, E)
that is under 1e-4 up to n = 40 and 0.033 at n = 60, and from n = 70 only
pre-asymptotic shells are representable.  With fewer than two shells
(alpha = inf: all are 0; (0, n, 1, E) from n = 137) the slope is NaN, written
as null.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .spectrum2d import (
    HALF_ARC, _angular_nodes, _factors, _legendre, _radial_values, analytic_eigenform,
    cartesian_components,
)

LADDER_RATIO = 4.0
LEVELS = 6
EPS_START = 0.2
FIT_TAIL = 3
# the shell rule: angular midpoints, and Gauss nodes in log r per shell
_M_PHI, _SHELL_NODES = 64, 24


def _partials(components: dict) -> list:
    return [ps.cartesian_partial(axis) for ps in components.values() for axis in (1, 2)]


@functools.cache
def _shell_rule():
    """Gauss-Legendre nodes s and weights s^2 dt in t = log s over 1/4 < s < 1."""
    span = math.log(LADDER_RATIO)
    x, w = _legendre(_SHELL_NODES)
    s = np.exp(0.5 * span * (x - 1.0))
    return s, s**2 * 0.5 * span * w


def _ring_energies(partials: list, r: np.ndarray) -> np.ndarray:
    """Per radius, the angular integral of the summed squared partials.

    Separably, with no (r, phi) grid: a partial sum_i R_i(r) A_i(phi) has the
    ring energy sum_ij R_i(r) R_j(r) Re<A_i, A_j>, its radial factors real and
    the angular products taken by the midpoint rule.  A partial without pairs
    adds nothing; one whose pairs cancel identically reads roundoff of the
    pairs' own energy, where the grid would read that roundoff squared.
    """
    phi = _angular_nodes(_M_PHI)
    radial = _radial_values(_factors(partials), r)
    rows = np.zeros(len(r))
    for ps in partials:
        if ps.pairs:
            angular = np.array([A(phi) for _, A in ps.pairs])
            products = (HALF_ARC / _M_PHI) * (angular @ angular.conj().T).real
            values = np.array([radial[R] for R, _ in ps.pairs])
            rows += np.sum(values * (products @ values), axis=0)
    return rows


@dataclass
class RegularityReport:
    eps: np.ndarray
    seminorms: np.ndarray
    slope: float
    exponent: float
    verdict: str


def classify_components(components: dict) -> RegularityReport:
    """Exact verdict from the leading exponent, with the shell energies beside
    it; the slope fits the deepest shells, where the leading power dominates."""
    partials = _partials(components)
    exponent = min(p.leading_exponent() for p in partials)
    eps = EPS_START * LADDER_RATIO ** -np.arange(LEVELS)
    # shell k at r = eps_k s, where r dr = eps_k^2 s^2 dt: all shells in one batch
    s, w = _shell_rule()
    rings = _ring_energies(partials, np.outer(eps, s).ravel()).reshape(LEVELS, -1)
    values = eps**2 * (rings @ w)
    fit = np.flatnonzero(values >= np.finfo(float).tiny)[-FIT_TAIL:]
    slope = (np.polyfit(np.log(eps[fit]), np.log(values[fit]), 1)[0]
             if len(fit) >= 2 else math.nan)
    return RegularityReport(
        eps=eps, seminorms=values, slope=float(slope), exponent=float(exponent),
        verdict="H1" if exponent > -1.0 else "not-H1",
    )


def classify(q: int, n: int, m: int, role: str = "E") -> RegularityReport:
    mode = analytic_eigenform(q, n, m, role)
    return classify_components(cartesian_components(mode))


def expected_verdict(q: int, n: int, role: str) -> str:
    """The analytic answer: the derivative partner of the lowest angular
    order carries r^(-1/2) components, whose gradients just miss square
    integrability; every other combination stays H1."""
    singular = (q == 0 and role == "H") or (q == 1 and role == "E")
    return "not-H1" if singular and n == 1 else "H1"

"""Sobolev classification of the half-disk eigenfields near the center.

The verdict is exact: with alpha the least leading power of r over all
Cartesian partials (PolarScalar.leading_exponent), the gradient is square
integrable near the center iff alpha > -1, the simplest case of the corner
exponents of Costabel & Dauge (Arch. Ration. Mech. Anal. 151, 2000).  As
independent evidence, the gradient energy over eps < r < 1 grows like
eps^min(0, 2 alpha + 2), read off a log-log fit over shrinking inner radii:
Gauss-Legendre in t = log r, node count growing as the annulus deepens, and
midpoint in angle, exact for the half-integer harmonic products.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .spectrum2d import HALF_ARC, analytic_eigenform, cartesian_components

LADDER_RATIO = 4.0
FIT_TAIL = 3
# one rule per node count, shared by every call: callers only read the nodes
_legendre = functools.cache(np.polynomial.legendre.leggauss)


def annulus_gradient_energy(
    components: dict, eps: float, M_phi: int = 64,
    nodes_per_unit: int = 16, nodes_base: int = 16,
) -> float:
    """Sum over components and axes of the squared partials, eps < r < 1."""
    if not 0 < eps < 1:
        raise ValueError("the inner radius must lie in (0, 1)")
    span = -math.log(eps)
    M_t = nodes_base + int(math.ceil(nodes_per_unit * span))
    x, w = _legendre(M_t)
    r = np.exp(0.5 * span * (x - 1.0))  # t = log r runs over [log eps, 0]
    h_phi = HALF_ARC / M_phi
    phi = (np.arange(M_phi) + 0.5) * h_phi
    # the log substitution turns r dr into r^2 dt
    weight = (r**2 * 0.5 * span * w)[:, None] * h_phi

    total = 0.0
    for ps in components.values():
        for axis in (1, 2):
            vals = ps.cartesian_partial(axis)(r[:, None], phi[None, :])
            total += float(np.sum(weight * np.abs(vals) ** 2))
    return total


@dataclass
class RegularityReport:
    eps: np.ndarray
    seminorms: np.ndarray
    slope: float
    exponent: float
    verdict: str


def classify_components(
    components: dict, levels: int = 6, eps_start: float = 0.2
) -> RegularityReport:
    """Exact verdict from the leading exponent, with the energy ladder beside it;
    only the deepest annuli enter the slope, since on the coarse ones a saturating
    constant competes with the power law and the slope reads shallow."""
    if levels < FIT_TAIL:
        raise ValueError(f"need at least {FIT_TAIL} annuli for a slope")
    exponent = min(ps.cartesian_partial(axis).leading_exponent()
                   for ps in components.values() for axis in (1, 2))
    eps = eps_start * LADDER_RATIO ** -np.arange(levels)
    values = np.array([annulus_gradient_energy(components, e) for e in eps])
    if values.any():
        slope = np.polyfit(np.log(eps[-FIT_TAIL:]), np.log(values[-FIT_TAIL:]), 1)[0]
    else:  # no gradient at all (alpha = inf): nothing to fit, the exact slope is 0
        slope = min(0.0, 2.0 * exponent + 2.0)
    return RegularityReport(
        eps=eps, seminorms=values, slope=float(slope), exponent=float(exponent),
        verdict="H1" if exponent > -1.0 else "not-H1",
    )


def classify(q: int, n: int, m: int, role: str = "E", levels: int = 6) -> RegularityReport:
    mode = analytic_eigenform(q, n, m, role)
    return classify_components(cartesian_components(mode), levels=levels)


def expected_verdict(q: int, n: int, role: str) -> str:
    """The analytic answer: the derivative partner of the lowest angular
    order carries r^(-1/2) components, whose gradients just miss square
    integrability; every other combination stays H1."""
    singular = (q == 0 and role == "H") or (q == 1 and role == "E")
    return "not-H1" if singular and n == 1 else "H1"

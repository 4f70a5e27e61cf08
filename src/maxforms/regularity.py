"""Sobolev classification of the half-disk eigenfields near the center.

The verdict is exact: with alpha the least leading power of r over all
Cartesian partials (PolarScalar.leading_exponent), the gradient is square
integrable near the center iff alpha > -1, the simplest case of the corner
exponents of Costabel & Dauge (Arch. Ration. Mech. Anal. 151, 2000).  As
independent evidence, the gradient energy over eps < r < 1 grows like
eps^min(0, 2 alpha + 2), read off a log-log fit over six inner radii shrinking
by 4x from 0.2.  Each annulus has its own rule: Gauss-Legendre in t = log r,
16 nodes plus 16 per unit of log(1/eps), and 64 midpoints in angle, exact for
the half-integer harmonic products.  All annuli are evaluated in one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum2d import (
    HALF_ARC, _angular_nodes, _legendre, analytic_eigenform, cartesian_components,
)

LADDER_RATIO = 4.0
LEVELS = 6
EPS_START = 0.2
FIT_TAIL = 3
# the annulus rule: angular midpoints, and Gauss nodes in log r, base + per unit
_M_PHI, _NODES_PER_UNIT, _NODES_BASE = 64, 16, 16


def _partials(components: dict) -> list:
    return [ps.cartesian_partial(axis) for ps in components.values() for axis in (1, 2)]


def _annulus_rule(eps: float):
    """Gauss-Legendre nodes r and weights r^2 dt in t = log r over [log eps, 0]."""
    if not 0 < eps < 1:
        raise ValueError("the inner radius must lie in (0, 1)")
    span = -math.log(eps)
    x, w = _legendre(_NODES_BASE + int(math.ceil(_NODES_PER_UNIT * span)))
    r = np.exp(0.5 * span * (x - 1.0))
    # the log substitution turns r dr into r^2 dt
    return r, r**2 * 0.5 * span * w


def _ring_energies(partials: list, r: np.ndarray) -> np.ndarray:
    """Per radius, the angular integral of the summed squared partials."""
    h_phi = HALF_ARC / _M_PHI
    phi = _angular_nodes(_M_PHI)
    rows = np.zeros(len(r))
    for p in partials:
        rows += np.sum(np.abs(p(r[:, None], phi[None, :])) ** 2, axis=1)
    return h_phi * rows


@dataclass
class RegularityReport:
    eps: np.ndarray
    seminorms: np.ndarray
    slope: float
    exponent: float
    verdict: str


def classify_components(components: dict) -> RegularityReport:
    """Exact verdict from the leading exponent, with the energy ladder beside it;
    only the deepest annuli enter the slope, since on the coarse ones a saturating
    constant competes with the power law and the slope reads shallow."""
    partials = _partials(components)
    exponent = min(p.leading_exponent() for p in partials)
    eps = EPS_START * LADDER_RATIO ** -np.arange(LEVELS)
    # every annulus at once, each on its own rule
    rules = [_annulus_rule(e) for e in eps]
    r, w = (np.concatenate(parts) for parts in zip(*rules))
    level = np.repeat(np.arange(LEVELS), [len(rule[0]) for rule in rules])
    values = np.bincount(level, weights=w * _ring_energies(partials, r),
                         minlength=LEVELS)
    if values.any():
        slope = np.polyfit(np.log(eps[-FIT_TAIL:]), np.log(values[-FIT_TAIL:]), 1)[0]
    else:  # no gradient at all (alpha = inf): nothing to fit, the exact slope is 0
        slope = min(0.0, 2.0 * exponent + 2.0)
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

"""Radial/tangential parts of 2-D forms on centered half circles.

A callable 2-D form restricted to the circle of radius r splits, in the
orthonormal polar frame, into a radial part (a (q-1)-form on the circle) and a
tangential part (a q-form).  `split_circle` samples both parts on an (r, phi)
tensor grid, evaluating each Cartesian component once on the flattened nodes.
The residuals of the four relations that turn ambient derivatives into circle
derivatives plus a radial derivative are measured on an (r, phi) midpoint grid
by centered differences.
"""

from __future__ import annotations

import math

import numpy as np

from .exterior import FieldForm, codiff, ext_d


# -- half-circle realization (N = 2) --------------------------------------------


def split_circle(E: FieldForm, r, phi) -> tuple:
    """The radial and tangential parts (rho, tau) of a callable 2-D form.

    Both are sampled on the (r, phi) tensor grid, of shape (len(r), len(phi)).
    Circle forms are scalars (0-forms) or single dphi-coefficients (1-forms);
    a part the degree does not have is zero.
    """
    if E.N != 2:
        raise ValueError("circle splitting is two-dimensional")
    if E.kind == "grid":
        raise ValueError("needs the callable representation")
    rr, pp = np.meshgrid(r, phi, indexing="ij")
    rr, pp = rr.ravel(), pp.ravel()
    cos, sin = np.cos(pp), np.sin(pp)
    f = {k: c(np.array([rr * cos, rr * sin])) for k, c in E.components.items()}
    parts = np.zeros((2, len(r) * len(phi)), dtype=complex)
    if E.q == 0:
        parts[1] = f[()]
    elif E.q == 1:
        f1, f2 = f[(1,)], f[(2,)]
        parts[0] = f1 * cos + f2 * sin
        parts[1] = -f1 * sin + f2 * cos
    else:
        parts[0] = f[(1, 2)]
    rho, tau = parts.reshape(2, len(r), len(phi))
    return rho, tau


# -- sphere relation residuals ---------------------------------------------------


def _d_radial(A, hr):
    out = np.full_like(A, np.nan)
    out[1:-1, :] = (A[2:, :] - A[:-2, :]) / (2.0 * hr)
    return out


def _d_angular(A, hphi):
    out = np.full_like(A, np.nan)
    out[:, 1:-1] = (A[:, 2:] - A[:, :-2]) / (2.0 * hphi)
    return out


# (relation, degree) -> (ambient derivative, its part 0 = rho or 1 = tau, and the
# sphere side from E's parts on the column r and the steps); absent pairs are
# trivial
_RELATIONS = {
    ("rho_div", 2): (codiff, 0, lambda rho, tau, r, hr, hphi:
                     -(1.0 / r) * _d_angular(rho, hphi)),
    ("tau_div", 1): (codiff, 1, lambda rho, tau, r, hr, hphi:
                     (1.0 / r) * _d_radial(r * rho, hr) + (1.0 / r) * _d_angular(tau, hphi)),
    ("tau_div", 2): (codiff, 1, lambda rho, tau, r, hr, hphi: _d_radial(rho, hr)),
    ("rho_rot", 0): (ext_d, 0, lambda rho, tau, r, hr, hphi: _d_radial(tau, hr)),
    ("rho_rot", 1): (ext_d, 0, lambda rho, tau, r, hr, hphi:
                     -(1.0 / r) * _d_angular(rho, hphi) + (1.0 / r) * _d_radial(r * tau, hr)),
    ("tau_rot", 0): (ext_d, 1, lambda rho, tau, r, hr, hphi: (1.0 / r) * _d_angular(tau, hphi)),
}


def sphere_relation_residuals(E: FieldForm, mr: int = 32, mphi: int = 32) -> dict:
    """Sup-norm residuals of the four ambient-to-sphere derivative relations.

    The ambient derivative side is evaluated analytically through the exterior
    module; the sphere side uses centered differences on the midpoint (r, phi)
    tensor grid over 1/4 < r < 1 and the half circle, so each residual decays
    at second order under grid refinement.  Relations that are trivial for the
    given degree report 0.
    """
    if E.N != 2:
        raise ValueError("sphere relations are realized for N = 2")
    hr = 0.75 / mr
    r = 0.25 + (np.arange(1, mr + 1) - 0.5) * hr
    hphi = math.pi / mphi
    phi = (np.arange(1, mphi + 1) - 0.5) * hphi
    rho, tau = split_circle(E, r, phi)
    split = {}
    out = dict.fromkeys(("rho_div", "tau_div", "rho_rot", "tau_rot"), 0.0)
    for (name, q), (derivative, part, sphere) in _RELATIONS.items():
        if q == E.q:
            if derivative not in split:
                split[derivative] = split_circle(derivative(E), r, phi)
            core = (split[derivative][part] - sphere(rho, tau, r[:, None], hr, hphi))[1:-1, 1:-1]
            out[name] = float(np.max(np.abs(core))) if core.size else 0.0
    return out

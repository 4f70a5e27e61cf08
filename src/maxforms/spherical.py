"""Radial/tangential parts of 2-D forms on centered half circles.

A callable 2-D form restricted to the circle of radius r splits, in the
orthonormal polar frame, into a radial part (a (q-1)-form on the circle) and a
tangential part (a q-form).  The residuals of the four relations that turn
ambient derivatives into circle derivatives plus a radial derivative are
measured on an (r, phi) midpoint grid by centered differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exterior import FieldForm, codiff, ext_d


# -- half-circle realization (N = 2) --------------------------------------------


@dataclass
class SplitForm:
    """Sphere-level data of a 2-D form: functions of (r, phi).

    rho: the radial part as a (q-1)-form on the unit circle; tau: the
    tangential part as a q-form.  Circle forms are scalars (0-forms) or single
    dphi-coefficients (1-forms); absent degrees are None.
    """

    q: int
    rho: object = None
    tau: object = None


def _cartesian_point(r, phi):
    return np.array([r * np.cos(phi), r * np.sin(phi)])


def split_circle(E: FieldForm) -> SplitForm:
    """Extract circle-level radial/tangential parts of a callable 2-D form.

    The parts take r and phi as scalars or as arrays of one shape.
    """
    if E.N != 2:
        raise ValueError("circle splitting is two-dimensional")
    if E.kind == "grid":
        raise ValueError("needs the callable representation")
    q = E.q
    if q == 0:
        f = E.components[()]
        return SplitForm(q=0, tau=lambda r, phi: f(_cartesian_point(r, phi)))
    if q == 1:
        f1, f2 = E.components[(1,)], E.components[(2,)]

        def rho(r, phi):
            x = _cartesian_point(r, phi)
            return f1(x) * np.cos(phi) + f2(x) * np.sin(phi)

        def tau(r, phi):
            x = _cartesian_point(r, phi)
            return -f1(x) * np.sin(phi) + f2(x) * np.cos(phi)

        return SplitForm(q=1, rho=rho, tau=tau)
    if q == 2:
        f12 = E.components[(1, 2)]
        return SplitForm(q=2, rho=lambda r, phi: f12(_cartesian_point(r, phi)))
    raise ValueError(f"degree {q} out of range for N=2")


# -- sphere relation residuals ---------------------------------------------------


def _sample(fn, r, phi):
    """fn on the (r, phi) tensor grid, in one call on the flattened nodes."""
    out = np.zeros((len(r), len(phi)), dtype=complex)
    if fn is not None:
        rr, pp = np.meshgrid(r, phi, indexing="ij")
        out.reshape(-1)[:] = fn(rr.ravel(), pp.ravel())
    return out


def _d_radial(A, hr):
    out = np.full_like(A, np.nan)
    out[1:-1, :] = (A[2:, :] - A[:-2, :]) / (2.0 * hr)
    return out


def _d_angular(A, hphi):
    out = np.full_like(A, np.nan)
    out[:, 1:-1] = (A[:, 2:] - A[:, :-2]) / (2.0 * hphi)
    return out


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
    q = E.q
    hr = 0.75 / mr
    r = 0.25 + (np.arange(1, mr + 1) - 0.5) * hr
    hphi = math.pi / mphi
    phi = (np.arange(1, mphi + 1) - 0.5) * hphi

    sp = split_circle(E)
    rho = _sample(sp.rho, r, phi)
    tau = _sample(sp.tau, r, phi)

    div_sp = split_circle(codiff(E)) if q >= 1 else SplitForm(q=q - 1)
    rot_sp = split_circle(ext_d(E)) if q + 1 <= 2 else SplitForm(q=q + 1)

    rcol = r[:, None]

    def sup(res):
        core = res[1:-1, 1:-1]
        return float(np.max(np.abs(core))) if core.size else 0.0

    out = {}

    # radial part of the divergence vs. minus the scaled sphere divergence
    if q == 2:
        lhs = _sample(div_sp.rho, r, phi)
        rhs = -(1.0 / rcol) * _d_angular(rho, hphi)
        out["rho_div"] = sup(lhs - rhs)
    else:
        out["rho_div"] = 0.0

    # tangential part of the divergence
    if q == 1:
        lhs = _sample(div_sp.tau, r, phi)
        rhs = (1.0 / rcol) * _d_radial(rcol * rho, hr) + (1.0 / rcol) * _d_angular(
            tau, hphi
        )
        out["tau_div"] = sup(lhs - rhs)
    elif q == 2:
        lhs = _sample(div_sp.tau, r, phi)
        rhs = _d_radial(rho, hr)
        out["tau_div"] = sup(lhs - rhs)
    else:
        out["tau_div"] = 0.0

    # radial part of the derivative
    if q == 0:
        lhs = _sample(rot_sp.rho, r, phi)
        rhs = _d_radial(tau, hr)
        out["rho_rot"] = sup(lhs - rhs)
    elif q == 1:
        lhs = _sample(rot_sp.rho, r, phi)
        rhs = -(1.0 / rcol) * _d_angular(rho, hphi) + (1.0 / rcol) * _d_radial(
            rcol * tau, hr
        )
        out["rho_rot"] = sup(lhs - rhs)
    else:
        out["rho_rot"] = 0.0

    # tangential part of the derivative
    if q == 0:
        lhs = _sample(rot_sp.tau, r, phi)
        rhs = (1.0 / rcol) * _d_angular(tau, hphi)
        out["tau_rot"] = sup(lhs - rhs)
    else:
        out["tau_rot"] = 0.0

    return out

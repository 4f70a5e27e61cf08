"""Radial/tangential splitting of box forms around the origin.

Ambient machinery (any N): wedge with the position one-form, its adjoint
contraction, radius scaling, and the split E = dr ^ E_rho + E_tau.  Sphere
realization (N = 2 only): forms restricted to centered half circles, the
radial/tangential extraction maps and their right inverses, and the residuals
of the relations that turn ambient derivatives into sphere derivatives plus a
radial derivative.

Radial grids are offset, r_i = (i - 1/2) h, and inner products use the
midpoint rule against the r^(N-1) volume weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exterior import FieldForm, ScalarField, codiff, ext_d, evaluate, wedge, hodge
from .multiindex import sign_constants


# -- radial grids and inner products ------------------------------------------


def radial_grid(M: int, R: float = 1.0) -> np.ndarray:
    """Offset nodes (i - 1/2) h, i = 1..M, h = R/M; never touches 0 or R."""
    h = R / M
    return (np.arange(1, M + 1) - 0.5) * h


@dataclass
class RadialProfile:
    """Samples of a radial function on the offset grid over (0, R)."""

    values: np.ndarray
    R: float = 1.0

    def __post_init__(self):
        self.values = np.asarray(self.values)

    @property
    def grid(self) -> np.ndarray:
        return radial_grid(len(self.values), self.R)

    @property
    def spacing(self) -> float:
        return self.R / len(self.values)


def weighted_inner(u, v, N: int, R: float = 1.0) -> complex:
    """Midpoint quadrature of r^(N-1) u conj(v) over (0, R).

    Accepts RadialProfile or plain sample arrays on the offset grid.
    """
    uu = u.values if isinstance(u, RadialProfile) else np.asarray(u)
    vv = v.values if isinstance(v, RadialProfile) else np.asarray(v)
    if uu.shape != vv.shape:
        raise ValueError("profiles must share a grid")
    M = len(uu)
    r = radial_grid(M, R)
    h = R / M
    return complex(h * np.sum(r ** (N - 1) * uu * np.conj(vv)))


def polar_inner(U, V, N: int = 2, R: float = 1.0, arc: float = math.pi) -> complex:
    """Midpoint tensor quadrature of r^(N-1) U conj(V) on (0,R) x (0,arc).

    U, V are (radial, angular) sample matrices on offset grids in both axes.
    """
    U = np.asarray(U)
    V = np.asarray(V)
    if U.shape != V.shape:
        raise ValueError("sample shapes differ")
    mr, mphi = U.shape
    r = radial_grid(mr, R)
    hr = R / mr
    hphi = arc / mphi
    return complex(hr * hphi * np.sum(r[:, None] ** (N - 1) * U * np.conj(V)))


@dataclass
class SequenceSpaceElement:
    """A family of radial profiles measured in a common r^w-weighted norm."""

    profiles: dict
    weight_power: float
    R: float = 1.0

    def norm_sq(self) -> float:
        total = 0.0
        for p in self.profiles.values():
            vals = p.values if isinstance(p, RadialProfile) else np.asarray(p)
            M = len(vals)
            r = radial_grid(M, self.R)
            total += float(
                (self.R / M) * np.sum(r**self.weight_power * np.abs(vals) ** 2)
            )
        return total

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())


# -- ambient radial operators ---------------------------------------------------


def position_form(N: int) -> FieldForm:
    """The one-form with coefficient x_n on axis n."""
    comps = {(n,): ScalarField.coordinate(n) for n in range(1, N + 1)}
    return FieldForm.from_callable(N, 1, comps)


def radial_wedge(E: FieldForm) -> FieldForm:
    """Wedge with the position one-form (degree raiser of the split pair)."""
    return wedge(position_form(E.N), E)


def radial_contract(E: FieldForm) -> FieldForm:
    """Adjoint of `radial_wedge`: signed star-wedge-star contraction."""
    sign = sign_constants(E.q, E.N).codiff_sign
    return sign * hodge(wedge(position_form(E.N), hodge(E)))


def radial_scale(E: FieldForm, power: float = 1.0) -> FieldForm:
    """Multiply every coefficient by |x|^power."""
    rp = ScalarField.radial_power(power)
    return E.map_components(lambda c: rp * c)


def dr_form(N: int) -> FieldForm:
    """The unit radial one-form |x|^(-1) sum x_n dx^n."""
    rp = ScalarField.radial_power(-1.0)
    comps = {(n,): rp * ScalarField.coordinate(n) for n in range(1, N + 1)}
    return FieldForm.from_callable(N, 1, comps)


def split_ambient(E: FieldForm):
    """E = dr ^ E_rho + E_tau with E_rho of degree q-1 and E_tau of degree q."""
    E_rho = radial_scale(radial_contract(E), -1.0)
    E_tau = radial_scale(radial_contract(radial_wedge(E)), -2.0)
    return E_rho, E_tau


def reconstruct_ambient(E_rho: FieldForm, E_tau: FieldForm) -> FieldForm:
    return wedge(dr_form(E_tau.N), E_rho) + E_tau


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


def _polar(x):
    return np.hypot(x[0], x[1]), np.arctan2(x[1], x[0])


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


def tau_check(q: int, fn) -> FieldForm:
    """Right inverse of the tangential extraction (N = 2).

    q = 0: scalar fn(r, phi); q = 1: fn is the dphi-coefficient of a circle
    one-form.  Returns a callable Cartesian form (no analytic partials); fn
    receives r and phi in the layout of the points evaluated.
    """
    if q == 0:
        return FieldForm.from_callable(
            2, 0, {(): ScalarField(lambda x: fn(*_polar(x)))}
        )
    if q == 1:

        def c1(x):
            r, phi = _polar(x)
            return -fn(r, phi) * np.sin(phi)

        def c2(x):
            r, phi = _polar(x)
            return fn(r, phi) * np.cos(phi)

        return FieldForm.from_callable(2, 1, {(1,): ScalarField(c1), (2,): ScalarField(c2)})
    raise ValueError("tangential parts exist for q = 0, 1 when N = 2")


def rho_check(q: int, fn) -> FieldForm:
    """Right inverse of the radial extraction (N = 2), producing degree q.

    q = 1: fn is a circle scalar; q = 2: fn is the dphi-coefficient of a
    circle one-form.
    """
    if q == 1:

        def c1(x):
            r, phi = _polar(x)
            return fn(r, phi) * np.cos(phi)

        def c2(x):
            r, phi = _polar(x)
            return fn(r, phi) * np.sin(phi)

        return FieldForm.from_callable(2, 1, {(1,): ScalarField(c1), (2,): ScalarField(c2)})
    if q == 2:
        return FieldForm.from_callable(
            2, 2, {(1, 2): ScalarField(lambda x: fn(*_polar(x)))}
        )
    raise ValueError("radial parts exist for q = 1, 2 when N = 2")


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


def sphere_relation_residuals(
    E: FieldForm,
    mr: int = 32,
    mphi: int = 32,
    r_window=(0.25, 1.0),
    arc: float = math.pi,
) -> dict:
    """Sup-norm residuals of the four ambient-to-sphere derivative relations.

    The ambient derivative side is evaluated analytically through the exterior
    module; the sphere side uses centered differences on an (r, phi) tensor
    grid inside `r_window`, so each residual decays at second order under grid
    refinement.  Relations that are trivial for the given degree report 0.
    """
    if E.N != 2:
        raise ValueError("sphere relations are realized for N = 2")
    q = E.q
    r_lo, r_hi = r_window
    hr = (r_hi - r_lo) / mr
    r = r_lo + (np.arange(1, mr + 1) - 0.5) * hr
    hphi = arc / mphi
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

"""Separable eigenfields on the half disk and their discrete counterparts.

Every closed-form object here is a finite sum of products r^p * J_{n-1/2}(w r)
times cos(a phi + s).  That family is closed under radial and angular
derivatives (the Bessel factor shifts order up by one, the cosine picks up a
quarter-period phase), under multiplication by pure powers and pure harmonics,
and therefore under the Cartesian chain rule.  Exactness of every derivative
is what lets the first-order system residuals sit at evaluation accuracy
instead of at a finite-difference floor.

The discrete side has two routes: a finite-volume radial solver per angular
order, and a two-dimensional mixed-boundary tensor solve, which the fast
diagonalization of Lynch, Rice & Thomas (Numer. Math. 6, 1964) separates
exactly into radial solves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .bessel import eval_j, eval_j_prime_scaled, zeros_j, zeros_jprime
from .exterior import FieldForm, ScalarField
from .spectrum1d import analytic_pair, fd_eigenvalue_closed_form

HALF_ARC = math.pi
MIN_GRID = 16
_ROUNDOFF = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# closed separable algebra


@dataclass(frozen=True)
class RadialTerm:
    """coeff * r^power, times J_{order-1/2}(omega r) when order is set."""

    coeff: complex
    power: float
    order: int | None = None
    omega: float = 0.0

    def series(self):
        """Ascending series, DLMF 10.2.2: (power, coeff, rounded factors in coeff)."""
        if self.order is None:
            yield self.power, self.coeff, 1
            return
        nu, h = self.order - 0.5, self.omega / 2.0
        # h^nu / Gamma(nu + 1) as a product, from Gamma(3/2) = sqrt(pi) / 2
        c = self.coeff * 2.0 * math.sqrt(h / math.pi)
        c *= math.prod(h / (j + 0.5) for j in range(1, self.order))
        for k in itertools.count():
            yield self.power + nu + 2 * k, c, self.order + k + 2
            c *= -h * h / ((k + 1) * (nu + k + 1))


class RadialPart:
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = tuple(t for t in terms if t.coeff != 0)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros(np.broadcast(r).shape, dtype=complex)
        for t in self.terms:
            val = t.coeff * r**t.power
            if t.order is not None:
                val = val * eval_j(t.order, t.omega * r)
            out = out + val
        return out

    def derivative(self) -> "RadialPart":
        out = []
        for t in self.terms:
            if t.order is None:
                if t.power != 0:
                    out.append(RadialTerm(t.coeff * t.power, t.power - 1.0))
            else:
                # d/dr J_nu(w r) = (nu/r) J_nu(w r) - w J_{nu+1}(w r)
                nu = t.order - 0.5
                out.append(
                    RadialTerm(t.coeff * (t.power + nu), t.power - 1.0, t.order, t.omega)
                )
                out.append(
                    RadialTerm(-t.coeff * t.omega, t.power, t.order + 1, t.omega)
                )
        return RadialPart(out)

    def shifted(self, k: float) -> "RadialPart":
        return RadialPart(
            RadialTerm(t.coeff, t.power + k, t.order, t.omega) for t in self.terms
        )

    def scaled(self, c) -> "RadialPart":
        return RadialPart(
            RadialTerm(c * t.coeff, t.power, t.order, t.omega) for t in self.terms
        )


@dataclass(frozen=True)
class AngularTerm:
    coeff: complex
    freq: float
    shift: float


class AngularPart:
    __slots__ = ("terms",)

    def __init__(self, terms):
        norm = []
        for t in terms:
            if t.coeff == 0:
                continue
            f, s = t.freq, t.shift
            if f < 0:
                f, s = -f, -s
            norm.append(AngularTerm(t.coeff, f, s))
        self.terms = tuple(norm)

    def __call__(self, phi):
        phi = np.asarray(phi, dtype=float)
        out = np.zeros(np.broadcast(phi).shape, dtype=complex)
        for t in self.terms:
            out = out + t.coeff * np.cos(t.freq * phi + t.shift)
        return out

    def derivative(self) -> "AngularPart":
        return AngularPart(
            AngularTerm(t.coeff * t.freq, t.freq, t.shift + math.pi / 2.0)
            for t in self.terms
        )

    def product(self, other: "AngularPart") -> "AngularPart":
        out = []
        for a in self.terms:
            for b in other.terms:
                c = 0.5 * a.coeff * b.coeff
                out.append(AngularTerm(c, a.freq - b.freq, a.shift - b.shift))
                out.append(AngularTerm(c, a.freq + b.freq, a.shift + b.shift))
        return AngularPart(out)


def _cos_harm(freq: float, coeff=1.0) -> AngularPart:
    return AngularPart([AngularTerm(coeff, freq, 0.0)])


def _sin_harm(freq: float, coeff=1.0) -> AngularPart:
    return AngularPart([AngularTerm(coeff, freq, -math.pi / 2.0)])


_COS_PHI = _cos_harm(1.0)
_SIN_PHI = _sin_harm(1.0)


class PolarScalar:
    """Finite sum of separable products radial(r) * angular(phi)."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        self.pairs = tuple((R, A) for R, A in pairs if R.terms and A.terms)

    def __call__(self, r, phi):
        r = np.asarray(r, dtype=float)
        phi = np.asarray(phi, dtype=float)
        out = np.zeros(np.broadcast(r, phi).shape, dtype=complex)
        for R, A in self.pairs:
            out = out + R(r) * A(phi)
        return out

    def __add__(self, other: "PolarScalar") -> "PolarScalar":
        return PolarScalar(self.pairs + other.pairs)

    def scaled(self, c) -> "PolarScalar":
        return PolarScalar((R.scaled(c), A) for R, A in self.pairs)

    def partial_r(self) -> "PolarScalar":
        return PolarScalar((R.derivative(), A) for R, A in self.pairs)

    def partial_phi(self) -> "PolarScalar":
        return PolarScalar((R, A.derivative()) for R, A in self.pairs)

    def times_pure(self, power: float, angular: AngularPart) -> "PolarScalar":
        """Multiply by r^power * angular; keeps the algebra closed."""
        return PolarScalar((R.shifted(power), A.product(angular)) for R, A in self.pairs)

    def cartesian_partial(self, axis: int) -> "PolarScalar":
        dr = self.partial_r()
        dphi = self.partial_phi()
        if axis == 1:
            return dr.times_pure(0.0, _COS_PHI) + dphi.times_pure(-1.0, _SIN_PHI).scaled(-1.0)
        if axis == 2:
            return dr.times_pure(0.0, _SIN_PHI) + dphi.times_pure(-1.0, _COS_PHI)
        raise ValueError("axis must be 1 or 2")

    def leading_exponent(self) -> float:
        """Lowest power of r whose angular content survives; inf if none does.

        Series terms up to the last horizon (past it they stay below roundoff of
        their largest at r = 1) are collected by power and frequency, cos and sin
        parts apart.  A part cancels within its first-order roundoff bound.
        """
        terms = [(t, A) for R, A in self.pairs for t in R.terms]
        top = -math.inf
        for t, _ in terms:
            peak = 0.0  # the terms rise to a peak, then fall for good
            for horizon, c, _ in t.series():
                if abs(c) <= _ROUNDOFF * (peak := max(peak, abs(c))):
                    break
            top = max(top, horizon)
        most = sum(len(A.terms) for _, A in terms)  # terms one group can hold
        groups = {}
        for t, A in terms:
            for p, c, factors in itertools.takewhile(lambda s: s[0] <= top, t.series()):
                for a in A.terms:
                    w = c * a.coeff  # cos(f phi + s) = cos s cos(f phi) - sin s sin(f phi)
                    g = groups.setdefault((p, a.freq), [0.0, 0.0, 0.0])
                    g[0] += w * math.cos(a.shift)
                    g[1] += w * math.sin(a.shift) if a.freq else 0.0
                    # each factor of a term and each partial sum rounds at most twice
                    g[2] += 2.0 * (factors + 2 + most) * _ROUNDOFF * abs(w)
        return min((p for (p, _), (cos, sin, bound) in groups.items()
                    if max(abs(cos), abs(sin)) > bound), default=math.inf)

    def to_scalar_field(self) -> ScalarField:
        return ScalarField(
            lambda x: self(np.hypot(x[0], x[1]), np.arctan2(x[1], x[0]))[()],
            lambda axis: self.cartesian_partial(axis).to_scalar_field(),
        )


# ---------------------------------------------------------------------------
# the four eigenfield families


@dataclass
class HalfDiskMode:
    """One eigenfield: family degree q, partner role, angular and radial rank."""

    q: int
    role: str  # "E" or "H"
    n: int
    m: int
    omega: float
    normalization: float
    degree: int
    parts: dict = field(repr=False)  # frame components as PolarScalar

    @property
    def nu(self) -> float:
        return self.n - 0.5

    @property
    def eigenvalue(self) -> float:
        return self.omega**2


def base_frequency(q: int, n: int, m: int) -> float:
    """m-th resonance of angular order n: outer-arc zero for the value-pinned
    family (q=0), zero of the radial derivative for the flux-pinned one (q=1)."""
    if q == 0:
        return float(zeros_j(n, m).zeros[m - 1])
    if q == 1:
        return float(zeros_jprime(n, m).zeros[m - 1])
    raise ValueError("families are indexed by q in {0, 1}")


def _norm_constant(n: int, omega: float) -> float:
    # closed form for int_0^1 J_nu(w r)^2 r dr; both endpoint conditions are
    # covered because the formula carries the J and J' terms together
    nu = n - 0.5
    j = float(eval_j(n, omega))
    jp = float(eval_j_prime_scaled(n, omega, 1.0)) / omega
    radial = 0.5 * (jp**2 + (1.0 - nu**2 / omega**2) * j**2)
    return 1.0 / math.sqrt((HALF_ARC / 2.0) * radial)


def analytic_eigenform(q: int, n: int, m: int, role: str = "E") -> HalfDiskMode:
    """Closed-form unit-norm eigenfield of the half-disk system.

    The scalar family (q=0) and the one-form family (q=1) each come with a
    partner one degree up; role selects the member.  Frame components are in
    the orthonormal polar frame, stored as exact separable sums.
    """
    if q not in (0, 1):
        raise ValueError("families are indexed by q in {0, 1}")
    if role not in ("E", "H"):
        raise ValueError("role must be 'E' or 'H'")
    if n < 1 or m < 1:
        raise ValueError("angular and radial ranks start at 1")
    omega = base_frequency(q, n, m)
    nu = n - 0.5
    c0 = _norm_constant(n, omega)
    J = RadialPart([RadialTerm(1.0, 0.0, n, omega)])
    D = J.derivative()
    cosn = _cos_harm(nu)
    sinn = _sin_harm(nu)

    if q == 0 and role == "E":
        degree, parts = 0, {"scalar": PolarScalar([(J, cosn)]).scaled(c0)}
    elif q == 0 and role == "H":
        degree = 1
        parts = {
            "r": PolarScalar([(D, cosn)]).scaled(1j / omega * c0),
            "phi": PolarScalar([(J.shifted(-1.0), sinn)]).scaled(-1j * nu / omega * c0),
        }
    elif q == 1 and role == "E":
        degree = 1
        parts = {
            "r": PolarScalar([(J.shifted(-1.0), cosn)]).scaled(-nu / omega * c0),
            "phi": PolarScalar([(D, sinn)]).scaled(c0 / omega),
        }
    else:
        degree, parts = 2, {"vol": PolarScalar([(J, sinn)]).scaled(-1j * c0)}
    return HalfDiskMode(
        q=q, role=role, n=n, m=m, omega=omega,
        normalization=c0, degree=degree, parts=parts,
    )


def cartesian_components(mode: HalfDiskMode) -> dict:
    """Cartesian component PolarScalars keyed like form multi-indices."""
    if mode.degree == 0:
        return {(): mode.parts["scalar"]}
    if mode.degree == 1:
        fr, fphi = mode.parts["r"], mode.parts["phi"]
        f1 = fr.times_pure(0.0, _COS_PHI) + fphi.times_pure(0.0, _SIN_PHI).scaled(-1.0)
        f2 = fr.times_pure(0.0, _SIN_PHI) + fphi.times_pure(0.0, _COS_PHI)
        return {(1,): f1, (2,): f2}
    return {(1, 2): mode.parts["vol"]}


def to_field_form(mode: HalfDiskMode) -> FieldForm:
    comps = {
        key: ps.to_scalar_field() for key, ps in cartesian_components(mode).items()
    }
    return FieldForm(2, mode.degree, comps)


def _annulus_points(samples: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.05, 0.95, size=samples)
    phi = rng.uniform(0.02, HALF_ARC - 0.02, size=samples)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi)])


def _sup_combination(a: FieldForm, b: FieldForm, scale: complex, points) -> float:
    x = points.T  # one batch per component
    return max(float(np.max(np.abs(a.components[k](x) + scale * b.components[k](x))))
               for k in a.components)


def maxwell_residual_2d(q: int, n: int, m: int, samples: int = 120, seed: int = 11) -> dict:
    """Sup-norm residuals of the two first-order equations for one eigenpair.

    Both residuals go through the Cartesian exterior operators with exact
    chain-rule derivatives, so they measure formula consistency, not a
    discretization floor.
    """
    from .exterior import codiff, ext_d

    E_mode = analytic_eigenform(q, n, m, "E")
    E, H = to_field_form(E_mode), to_field_form(analytic_eigenform(q, n, m, "H"))
    omega = E_mode.omega
    pts = _annulus_points(samples, seed)
    return {
        "rot": _sup_combination(ext_d(E), H, 1j * omega, pts),
        "div": _sup_combination(codiff(H), E, 1j * omega, pts),
    }


# ---------------------------------------------------------------------------
# angular expansion: radial coefficient families


def radial_nodes(M: int) -> np.ndarray:
    return (np.arange(1, M + 1) - 0.5) / M


def _angular_nodes(M: int) -> np.ndarray:
    return (np.arange(1, M + 1) - 0.5) * (HALF_ARC / M)


@dataclass
class CoefficientSet:
    """Radial coefficient profiles against the half-circle eigenbasis.

    Families by stored letter: 'c' scalar trace, 'a' radial part of a
    one-form, 'd' tangential part (with the metric factor r absorbed),
    'b' tangential part of a top form.
    """

    n_list: tuple
    nodes: np.ndarray
    families: dict  # letter -> array of shape (len(n_list), len(nodes))


def project_angular(values: dict, n_list, nodes: np.ndarray) -> CoefficientSet:
    """Project circle traces sampled on the offset angular grid.

    Each entry of values holds samples of shape (len(nodes), M_phi) taken on
    the midpoint angular grid; the metric factor r for the 'd' and 'b'
    families must already be absorbed.  The midpoint rule is exact here: the
    half-integer harmonics only ever meet in products whose difference
    frequencies are integers, so the only quadrature error left is roundoff.
    """
    n_list = tuple(n_list)
    M_phi = next(iter(values.values())).shape[1]
    phi = _angular_nodes(M_phi)
    h = HALF_ARC / M_phi

    bases = {}
    for n in n_list:
        pair = analytic_pair(n)
        bases[n] = (
            pair.normalization * pair.e(phi),  # scalar basis, real
            pair.normalization * pair.h(phi),  # one-form basis, imaginary
        )

    families = {}
    for letter, vals in values.items():
        if vals.shape != (len(nodes), M_phi):
            raise ValueError("coefficient samples have inconsistent shape")
        rows = []
        for n in n_list:
            scalar_basis, oneform_basis = bases[n]
            weight = scalar_basis if letter in ("c", "a") else np.conj(oneform_basis)
            rows.append(h * np.sum(vals * weight[None, :], axis=1))
        families[letter] = np.array(rows)
    return CoefficientSet(n_list=n_list, nodes=np.asarray(nodes), families=families)


def extract_coefficients(
    mode: HalfDiskMode, n_list, M_r: int = 200, M_phi: int = 256
) -> CoefficientSet:
    """Project each circle trace of an eigenform onto the half-circle basis."""
    r = radial_nodes(M_r)
    rg, pg = r[:, None], _angular_nodes(M_phi)[None, :]

    if mode.degree == 0:
        values = {"c": mode.parts["scalar"](rg, pg)}
    elif mode.degree == 1:
        values = {
            "a": mode.parts["r"](rg, pg),
            "d": rg * mode.parts["phi"](rg, pg),
        }
    else:
        values = {"b": rg * mode.parts["vol"](rg, pg)}
    return project_angular(values, n_list, r)


def _centered(values: np.ndarray, h: float) -> np.ndarray:
    return (values[2:] - values[:-2]) / (2.0 * h)


def coeff_ode_residuals(
    q: int, n: int, m: int, M_r: int = 400, r_window=(0.1, 1.0)
) -> dict:
    """Residuals of the coupled radial relations for one eigenpair.

    Radial derivatives are taken by centered differences, so the derivative
    relations carry a second-order truncation error; the purely algebraic
    relations sit at quadrature roundoff.  The sup is restricted to r_window
    because the coefficients of the lowest angular order behave like sqrt(r)
    near the center, where difference quotients cannot converge.
    """
    omega = base_frequency(q, n, m)
    nu = n - 0.5
    E = analytic_eigenform(q, n, m, "E")
    H = analytic_eigenform(q, n, m, "H")
    ce = extract_coefficients(E, [n], M_r=M_r)
    ch = extract_coefficients(H, [n], M_r=M_r)
    r = ce.nodes
    h = r[1] - r[0]
    mid = slice(1, -1)
    window = (r[mid] >= r_window[0]) & (r[mid] <= r_window[1])

    def sup(values) -> float:
        return float(np.max(np.abs(np.asarray(values)[window])))

    if q == 0:
        c = ce.families["c"][0]
        a, d = ch.families["a"][0], ch.families["d"][0]
        return {
            "rot_radial": sup(_centered(c, h) + 1j * omega * a[mid]),
            "rot_angular": sup(-1j * nu * c[mid] + 1j * omega * d[mid]),
            "div": sup(
                _centered(r * a, h) / r[mid]
                - 1j * nu * d[mid] / r[mid] ** 2
                + 1j * omega * c[mid]
            ),
        }
    a, d = ce.families["a"][0], ce.families["d"][0]
    b = ch.families["b"][0]
    return {
        "rot": sup(_centered(d, h) + 1j * nu * a[mid] + 1j * omega * b[mid]),
        "div_radial": sup(nu * b[mid] / r[mid] ** 2 + omega * a[mid]),
        "div_angular": sup(_centered(b, h) - b[mid] / r[mid] + 1j * omega * d[mid]),
    }


# ---------------------------------------------------------------------------
# discrete routes


@dataclass
class RadialSolve:
    lambdas: np.ndarray
    vectors: np.ndarray | None
    nodes: np.ndarray
    spacing: float


def _radial_kernel(angular, M: int, count: int, bc: str, vectors=False) -> RadialSolve:
    """Finite-volume radial eigenvalues (eigenvectors on request) with angular
    term angular / r^2: nu^2 for order nu, or a discrete angular eigenvalue.

    Cell centers r_i = (i - 1/2) h on (0, 1); the r = 0 face carries zero
    flux weight so no condition is imposed there.  At r = 1 an odd-reflection
    ghost pins the value, a dropped flux pins the derivative.
    """
    if M < MIN_GRID:
        raise ValueError(f"grid must have at least {MIN_GRID} cells")
    if not 1 <= count <= M:
        raise ValueError("count must be between 1 and M")
    if bc not in ("dirichlet", "neumann"):
        raise ValueError("bc must be 'dirichlet' or 'neumann'")
    h = 1.0 / M
    idx = np.arange(1, M + 1, dtype=float)
    r = (idx - 0.5) * h
    diag = 2.0 * idx - 1.0
    diag[-1] = 3.0 * M - 1.0 if bc == "dirichlet" else M - 1.0
    diag = diag + angular * h / r
    # symmetric similarity with the cell mass diag(h r_i)
    mass = h * r
    lam = eigh_tridiagonal(diag / mass, -idx[:-1] / (h * np.sqrt(r[:-1] * r[1:])),
                           eigvals_only=not vectors, select="i", select_range=(0, count - 1))
    vec = None
    if vectors:
        lam, vec = lam
        vec = vec / np.sqrt(mass)[:, None]
        vec /= np.linalg.norm(vec, axis=0, keepdims=True)
    return RadialSolve(lambdas=lam, vectors=vec, nodes=r, spacing=h)


def radial_eigensolve(n: int, M: int, count: int, bc: str = "dirichlet") -> RadialSolve:
    """Finite-volume eigenpairs of the order nu = n - 1/2 radial operator."""
    return _radial_kernel((n - 0.5) ** 2, M, count, bc, vectors=True)


def _merge_orders(count: int, values_of) -> list:
    """The count smallest entries over angular orders k = 1, 2, ...

    values_of(k) gives order k's ascending entries (values, or tuples led by the
    value), empty past the last order.  Orders stop once order k's lowest entry
    is above the count-th smallest so far: exact, since zeros of J_nu grow with
    nu (DLMF 10.21) and discrete radial eigenvalues with the angular eigenvalue.
    """
    pool = []
    for k in itertools.count(1):
        entries = values_of(k)
        if len(entries) == 0 or (len(pool) == count and entries[0] > pool[-1]):
            return pool
        pool = sorted([*pool, *entries])[:count]


def radial_spectrum(M: int, count: int, bc: str = "dirichlet") -> np.ndarray:
    """Lowest radial-solver eigenvalues merged across angular orders n."""
    values_of = lambda n: _radial_kernel((n - 0.5) ** 2, M, count, bc).lambdas
    return np.array(_merge_orders(count, values_of))


@dataclass
class Zaremba2DSolve:
    lambdas: np.ndarray
    shape: tuple
    unknowns: int


def zaremba2d_eigensolve(M_r: int, M_phi: int, count: int = 4) -> Zaremba2DSolve:
    """Lowest eigenvalues of the half-disk scalar problem with mixed edges.

    Tensor finite volumes: value pinned on the outer arc and on the phi = pi
    edge (odd reflection), natural on the phi = 0 edge (mirror).  The angular
    factor of the Kronecker-sum operator is the spectrum1d operator, whose
    eigenvalues mu_k are closed-form; diagonalizing it (Lynch, Rice & Thomas,
    Numer. Math. 6, 1964) leaves exactly the radial problems with nu^2 -> mu_k.
    """
    if M_r < MIN_GRID or M_phi < MIN_GRID:
        raise ValueError(f"each direction needs at least {MIN_GRID} cells")
    if not 1 <= count <= M_r * M_phi:
        raise ValueError("count must be between 1 and M_r * M_phi")

    def values_of(k):
        if k > M_phi:
            return ()
        mu = fd_eigenvalue_closed_form(M_phi, k)
        return _radial_kernel(mu, M_r, min(count, M_r), "dirichlet").lambdas

    lambdas = np.array(_merge_orders(count, values_of))
    return Zaremba2DSolve(lambdas=lambdas, shape=(M_r, M_phi), unknowns=M_r * M_phi)


def reference_modes(q: int, count: int) -> list:
    """Ascending (lambda, n, m, omega) rows of the exact spectrum."""
    if q not in (0, 1):
        raise ValueError("families are indexed by q in {0, 1}")
    zeros = zeros_j if q == 0 else zeros_jprime
    rows_of = lambda n: [(float(z) ** 2, n, m, float(z))
                         for m, z in enumerate(zeros(n, count).zeros, 1)]
    return _merge_orders(count, rows_of)


def reference_eigenvalues(q: int, count: int) -> np.ndarray:
    """Ascending squared resonances across angular orders (the exact targets)."""
    return np.array([row[0] for row in reference_modes(q, count)])


# ---------------------------------------------------------------------------
# Gram matrix over the half disk


def gram_matrix_2d(modes, M_r: int = 400, M_phi: int = 400) -> np.ndarray:
    """Pairwise inner products on the half disk, tensor midpoint quadrature.

    All modes must share a form degree.  The angular rule is exact for the
    harmonics involved, so the deviation from identity is set by the radial
    resolution.
    """
    modes = list(modes)
    if not modes:
        return np.zeros((0, 0))
    degree = modes[0].degree
    if any(mode.degree != degree for mode in modes):
        raise ValueError("gram matrix needs modes of equal degree")
    r = radial_nodes(M_r)
    phi = _angular_nodes(M_phi)
    rg, pg = r[:, None], phi[None, :]
    weight = (r / M_r)[:, None] * (HALF_ARC / M_phi)

    comps = []
    for mode in modes:
        if degree == 0:
            comps.append([mode.parts["scalar"](rg, pg)])
        elif degree == 1:
            comps.append([mode.parts["r"](rg, pg), mode.parts["phi"](rg, pg)])
        else:
            comps.append([mode.parts["vol"](rg, pg)])

    G = np.zeros((len(modes), len(modes)), dtype=complex)
    for i in range(len(modes)):
        for j in range(len(modes)):
            acc = 0.0
            for ci, cj in zip(comps[i], comps[j]):
                acc = acc + np.sum(weight * ci * np.conj(cj))
            G[i, j] = acc
    return G

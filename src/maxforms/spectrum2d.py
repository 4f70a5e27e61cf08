"""Separable eigenfields on the half disk and their discrete counterparts.

Every closed-form object here is a finite sum of products r^p * J_{n-1/2}(w r)
times cos(a phi + s), kept in one normal form: one angular cosine sum per
distinct radial factor r^p J_{n-1/2}(w r), so each factor is evaluated once.
That family is closed under radial and angular derivatives (the Bessel factor
shifts order up by one, DLMF 10.6.2; the cosine picks up a quarter-period
phase), under multiplication by pure powers and pure harmonics, and therefore
under the Cartesian chain rule.  Exactness of every derivative is what lets
the first-order system residuals sit at evaluation accuracy instead of at a
finite-difference floor.

What depends only on an eigenform's label (q, n, m, role) and on fixed
quadrature rules is built once per process (maxforms._kept lists the stores):
one immutable mode per valid label, its Cartesian components and field form,
and each PolarScalar's Cartesian partials, leading exponent and the angular
reductions its consumers take.  Radial values are computed per request, so no
request's numeric result is cached.

The discrete side has two routes: a finite-volume radial solver per angular
order, and a two-dimensional mixed-boundary tensor solve, which the fast
diagonalization of Lynch, Rice & Thomas (Numer. Math. 6, 1964) separates
exactly into radial solves.
"""

from __future__ import annotations

import collections
import functools
import heapq
import itertools
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from ._kept import kept
from .bessel import _j_span, _with_slope, zeros_j, zeros_jprime
from .exterior import FieldForm, ScalarField
from .spectrum1d import _tridiagonal_eigenvalues, analytic_pair, fd_eigenvalue_closed_form

HALF_ARC = math.pi
_ROUNDOFF = float(np.finfo(float).eps)
# one Gauss-Legendre rule per node count, shared by every call: callers only read it
_legendre = functools.cache(np.polynomial.legendre.leggauss)


# ---------------------------------------------------------------------------
# closed separable algebra


@dataclass(frozen=True)
class RadialFactor:
    """r^power, times J_{order-1/2}(omega r) when order is set."""

    power: float
    order: int | None = None
    omega: float = 0.0

    def __call__(self, r):
        return _radial_values([self], r)[self]

    def series(self):
        """Ascending series, DLMF 10.2.2: (power, coeff, rounded factors in coeff)."""
        if self.order is None:
            yield self.power, 1.0, 1
            return
        nu, h = self.order - 0.5, self.omega / 2.0
        # h^nu / Gamma(nu + 1) as a product, from Gamma(3/2) = sqrt(pi) / 2
        c = 2.0 * math.sqrt(h / math.pi)
        c *= math.prod(h / (j + 0.5) for j in range(1, self.order))
        for k in itertools.count():
            yield self.power + nu + 2 * k, c, self.order + k + 2
            c *= -h * h / ((k + 1) * (nu + k + 1))

    def derivative(self) -> list:
        """d/dr as (coefficient, factor) pairs, DLMF 10.6.2:
        d/dr J_nu(w r) = (nu/r) J_nu(w r) - w J_{nu+1}(w r)."""
        if self.order is None:
            return [(self.power, RadialFactor(self.power - 1.0))]
        nu = self.order - 0.5
        return [(self.power + nu, RadialFactor(self.power - 1.0, self.order, self.omega)),
                (-self.omega, RadialFactor(self.power, self.order + 1, self.omega))]


@dataclass(frozen=True)
class AngularTerm:
    coeff: complex
    freq: float
    shift: float


class AngularPart:
    __slots__ = ("terms",)

    def __init__(self, terms):
        # frequencies kept non-negative; terms are immutable, so normal ones are shared
        self.terms = tuple(AngularTerm(t.coeff, -t.freq, -t.shift) if t.freq < 0 else t
                           for t in terms if t.coeff != 0)

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

    def scaled(self, c) -> "AngularPart":
        return AngularPart(AngularTerm(c * t.coeff, t.freq, t.shift) for t in self.terms)

    def product(self, other: "AngularPart") -> "AngularPart":
        out = []
        for a in self.terms:
            for b in other.terms:
                c = 0.5 * a.coeff * b.coeff
                out.append(AngularTerm(c, a.freq - b.freq, a.shift - b.shift))
                out.append(AngularTerm(c, a.freq + b.freq, a.shift + b.shift))
        return AngularPart(out)


def _cos_harm(freq: float) -> AngularPart:
    return AngularPart([AngularTerm(1.0, freq, 0.0)])


def _sin_harm(freq: float) -> AngularPart:
    return AngularPart([AngularTerm(1.0, freq, -math.pi / 2.0)])


_COS_PHI = _cos_harm(1.0)
_SIN_PHI = _sin_harm(1.0)


class PolarScalar:
    """Finite sum of separable products factor(r) * angular(phi), one angular
    sum per distinct radial factor.

    A scalar is never changed once built, so what depends only on it is kept
    on it (`_kept`, keys listed in maxforms._kept).  A scalar holds its
    partials, never the reverse, so the memo makes no reference cycle.
    """

    __slots__ = ("pairs", "_memo")

    def __init__(self, pairs):
        # equal factors merge by concatenating their angular terms, uncombined,
        # so that leading_exponent still counts every product it rounds
        merged = {}
        for R, A in pairs:
            if A.terms:
                merged[R] = AngularPart(merged[R].terms + A.terms) if R in merged else A
        self.pairs = tuple(merged.items())
        self._memo = {}

    def _kept(self, key, make, *args):
        return kept(self._memo, key, make, *args)

    def __call__(self, r, phi):
        r = np.asarray(r, dtype=float)
        phi = np.asarray(phi, dtype=float)
        k = len(self.pairs)
        values = _radial_values([R for R, _ in self.pairs], r)
        radial = np.array([values[R] for R, _ in self.pairs]).reshape(k, *r.shape)
        angular = np.array([A(phi) for _, A in self.pairs]).reshape(k, *phi.shape)
        # the sum over pairs in one pass: no grid-sized temporary per pair
        return np.einsum("k...,k...->...", radial, angular, dtype=complex)

    def __add__(self, other: "PolarScalar") -> "PolarScalar":
        return PolarScalar(self.pairs + other.pairs)

    def scaled(self, c) -> "PolarScalar":
        return PolarScalar((R, A.scaled(c)) for R, A in self.pairs)

    def partial_r(self) -> "PolarScalar":
        return PolarScalar((F, A.scaled(c)) for R, A in self.pairs for c, F in R.derivative())

    def partial_phi(self) -> "PolarScalar":
        return PolarScalar((R, A.derivative()) for R, A in self.pairs)

    def times_pure(self, power: float, angular: AngularPart) -> "PolarScalar":
        """Multiply by r^power * angular; keeps the algebra closed."""
        return PolarScalar(
            (RadialFactor(R.power + power, R.order, R.omega), A.product(angular))
            for R, A in self.pairs
        )

    def cartesian_partial(self, axis: int) -> "PolarScalar":
        """d/dx (axis 1) or d/dy (axis 2) by the chain rule, kept per axis."""
        if axis not in (1, 2):
            raise ValueError("axis must be 1 or 2")
        return self._kept(("partial", axis), self._cartesian_partial, axis)

    def _cartesian_partial(self, axis: int) -> "PolarScalar":
        dr = self.partial_r()
        dphi = self.partial_phi()
        if axis == 1:
            return dr.times_pure(0.0, _COS_PHI) + dphi.times_pure(-1.0, _SIN_PHI).scaled(-1.0)
        return dr.times_pure(0.0, _SIN_PHI) + dphi.times_pure(-1.0, _COS_PHI)

    def leading_exponent(self) -> float:
        """Lowest power of r whose angular content survives; inf if none does.

        Series terms up to the last horizon (past it they stay below roundoff of
        their largest at r = 1) are collected by power and frequency, cos and sin
        parts apart.  A part cancels within its first-order roundoff bound.  The
        pairs' series advance in step over ascending powers, so the sweep stops
        at the first power that survives; each group sums its terms in pair
        order, then angular-term order.  The result is kept on the scalar.
        """
        return self._kept("exponent", self._leading_exponent)

    def _leading_exponent(self) -> float:
        top = -math.inf
        most = sum(len(A.terms) for _, A in self.pairs)  # terms one group can hold
        # per pair: its next series term, the series, and per angular term
        # (coeff, freq, cos s, sin s): cos(f phi + s) = cos s cos(f phi) - sin s sin(f phi)
        live = []
        for R, A in self.pairs:
            series, head, peak = R.series(), [], 0.0
            for term in series:  # the terms rise to a peak, then fall for good
                head.append(term)
                if abs(term[1]) <= _ROUNDOFF * (peak := max(peak, abs(term[1]))):
                    break
            top = max(top, head[-1][0])
            series = itertools.chain(head, series)  # the sweep reuses the terms drawn
            live.append([next(series), series,
                         [(a.coeff, a.freq, math.cos(a.shift),
                           math.sin(a.shift) if a.freq else 0.0) for a in A.terms]])
        while live:
            p = min(term[0] for term, _, _ in live)
            if p > top:
                return math.inf
            groups = collections.defaultdict(lambda: [0.0, 0.0, 0.0])
            for pair in live:
                (power, c, factors), series, angular = pair
                if power != p:
                    continue
                for coeff, freq, cos_s, sin_s in angular:
                    w = c * coeff
                    g = groups[freq]
                    g[0] += w * cos_s
                    g[1] += w * sin_s
                    # each factor of a term and each partial sum rounds at most twice
                    g[2] += 2.0 * (factors + 2 + most) * _ROUNDOFF * abs(w)
                pair[0] = next(series, None)
            if any(max(abs(cos), abs(sin)) > bound for cos, sin, bound in groups.values()):
                return p
            live = [pair for pair in live if pair[0] is not None]
        return math.inf

    def to_scalar_field(self) -> ScalarField:
        return _CartesianField(self)


class _CartesianField(ScalarField):
    """A `PolarScalar` as a field of Cartesian points (x, y), one node of the
    exterior algebra; its partials are the Cartesian partials."""

    __slots__ = ("polar",)

    def __init__(self, polar: PolarScalar):
        self.polar = polar
        self._cache = None

    def fn(self, x):
        return self.polar(np.hypot(x[0], x[1]), np.arctan2(x[1], x[0]))[()]

    def partial_rule(self, axis):
        return _CartesianField(self.polar.cartesian_partial(axis))


def _factors(scalars) -> list:
    return [R for ps in scalars for R, _ in ps.pairs]


# ((points, omega), (lowest order, rows)) of the last Bessel batch, read as one pair
_LAST_BATCH = [(None, None)]


def _bessel_rows(omega: float, r: np.ndarray, lo: int, hi: int):
    """(first, rows): rows[k - first] = J_(k-1/2)(omega r) for at least k = lo..hi.

    The last batch is kept, as pullback keeps its rows: a request at the same
    points and frequency within its span is served from it, and one past it
    takes a single pass over the union.  Every row equals eval_j, whatever
    the span, so a hit changes no value; the batch is read and replaced as one
    pair, so a thread never reads rows under another batch's key.
    """
    key = (r.tobytes(), omega)
    seen, held = _LAST_BATCH[0]
    if seen == key:
        first, rows = held
        if first <= lo and hi < first + len(rows):
            return held
        lo, hi = min(lo, first), max(hi, first + len(rows) - 1)
    rows = _j_span(lo, hi, omega * r)
    rows.flags.writeable = False  # rows go out as views
    held = lo, rows
    _LAST_BATCH[0] = key, held
    return held


def _radial_values(factors, r) -> dict:
    """Every distinct radial factor, evaluated once on the nodes r (any shape).

    This is the only evaluation of radial factors.  The Bessel factors are
    grouped by frequency: one span pass per frequency gives the rows of all
    its orders, shared by every power, and each distinct power of r is taken
    once.  A factor's value is r^power * J_(order-1/2)(omega r), as those two
    products, so it does not depend on which factors share its pass.
    """
    r = np.asarray(r, dtype=float)
    flat = r.ravel()
    factors = dict.fromkeys(factors)
    spans = {}
    for R in factors:
        if R.order is not None:
            lo, hi = spans.get(R.omega, (R.order, R.order))
            spans[R.omega] = min(lo, R.order), max(hi, R.order)
    rows = {omega: _bessel_rows(omega, flat, lo, hi) for omega, (lo, hi) in spans.items()}
    powers, out = {}, {}
    for R in factors:
        if R.power not in powers:
            powers[R.power] = flat**R.power
        val = powers[R.power]
        if R.order is not None:
            first, J = rows[R.omega]
            val = val * J[R.order - first]
        out[R] = val.reshape(r.shape)
    return out


def _on_grid(scalars, r: np.ndarray, phi: np.ndarray):
    """Each scalar on the (r, phi) tensor grid in turn, summed over its pairs as
    PolarScalar.__call__ sums them, from one evaluation of every distinct
    radial factor across the scalars."""
    radial = _radial_values(_factors(scalars), r)
    for ps in scalars:
        k = len(ps.pairs)
        yield np.einsum("k...,k...->...",
                        np.array([radial[R] for R, _ in ps.pairs]).reshape(k, len(r), 1),
                        np.array([A(phi) for _, A in ps.pairs]).reshape(k, 1, len(phi)),
                        dtype=complex)


# ---------------------------------------------------------------------------
# the four eigenfield families


@dataclass(frozen=True)
class HalfDiskMode:
    """One eigenfield: family degree q, partner role, angular and radial rank.

    Immutable: analytic_eigenform returns one mode per label to every caller,
    and the mode keeps its Cartesian components and field form once made.
    """

    q: int
    role: str  # "E" or "H"
    n: int
    m: int
    omega: float
    normalization: float
    degree: int
    # polar-frame parts as PolarScalar, named as in spherical.split_circle:
    # 'tau' the tangential part, 'rho' the radial one; read-only
    parts: Mapping = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "parts", MappingProxyType(dict(self.parts)))

    @property
    def nu(self) -> float:
        return self.n - 0.5

    @functools.cached_property
    def _components(self) -> Mapping:
        if self.degree == 0:
            comps = {(): self.parts["tau"]}
        elif self.degree == 1:
            fr, fphi = self.parts["rho"], self.parts["tau"]
            comps = {
                (1,): fr.times_pure(0.0, _COS_PHI) + fphi.times_pure(0.0, _SIN_PHI).scaled(-1.0),
                (2,): fr.times_pure(0.0, _SIN_PHI) + fphi.times_pure(0.0, _COS_PHI),
            }
        else:
            comps = {(1, 2): self.parts["rho"]}
        return MappingProxyType(comps)

    @functools.cached_property
    def _form(self) -> FieldForm:
        form = FieldForm(2, self.degree, {key: ps.to_scalar_field()
                                          for key, ps in self._components.items()})
        form.components = MappingProxyType(form.components)
        return form


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
    # covered because the formula carries the J and J' terms together.  omega
    # is a zero of J_nu or J_nu', so omega >= nu (DLMF 10.21.3) and one upward
    # pass of the zero scan gives both values
    nu = n - 0.5
    j, jp = (float(v[0]) for v in _with_slope("fn", n)(np.array([omega])))
    radial = 0.5 * (jp**2 + (1.0 - nu**2 / omega**2) * j**2)
    return 1.0 / math.sqrt((HALF_ARC / 2.0) * radial)


_EIGENFORMS = {}  # (q, n, m, role) -> its mode (maxforms._kept)


def analytic_eigenform(q: int, n: int, m: int, role: str = "E") -> HalfDiskMode:
    """Closed-form unit-norm eigenfield of the half-disk system.

    The scalar family (q=0) and the one-form family (q=1) each come with a
    partner one degree up; role selects the member.  Frame components are in
    the orthonormal polar frame, stored as exact separable sums.

    A mode depends only on its label, so one is kept per valid label, and a
    label is validated before the lookup, so an invalid one stores nothing
    (maxforms._kept).  Radial values are computed per request.
    """
    if q not in (0, 1):
        raise ValueError("families are indexed by q in {0, 1}")
    if role not in ("E", "H"):
        raise ValueError("role must be 'E' or 'H'")
    if n < 1 or m < 1:
        raise ValueError("angular and radial ranks start at 1")
    key = (int(q), operator.index(n), operator.index(m), role)
    return kept(_EIGENFORMS, key, _build_eigenform, *key)


def _build_eigenform(q: int, n: int, m: int, role: str) -> HalfDiskMode:
    omega = base_frequency(q, n, m)
    nu = n - 0.5
    c0 = _norm_constant(n, omega)
    J, J_r = RadialFactor(0.0, n, omega), RadialFactor(-1.0, n, omega)  # J and J/r
    cosn = _cos_harm(nu)
    sinn = _sin_harm(nu)

    if q == 0 and role == "E":
        degree, parts = 0, {"tau": PolarScalar([(J, cosn)]).scaled(c0)}
    elif q == 0 and role == "H":
        degree = 1
        parts = {
            "rho": PolarScalar([(J, cosn)]).partial_r().scaled(1j / omega * c0),
            "tau": PolarScalar([(J_r, sinn)]).scaled(-1j * nu / omega * c0),
        }
    elif q == 1 and role == "E":
        degree = 1
        parts = {
            "rho": PolarScalar([(J_r, cosn)]).scaled(-nu / omega * c0),
            "tau": PolarScalar([(J, sinn)]).partial_r().scaled(c0 / omega),
        }
    else:
        degree, parts = 2, {"rho": PolarScalar([(J, sinn)]).scaled(-1j * c0)}
    return HalfDiskMode(
        q=q, role=role, n=n, m=m, omega=omega,
        normalization=c0, degree=degree, parts=parts,
    )


def cartesian_components(mode: HalfDiskMode) -> Mapping:
    """Cartesian component PolarScalars keyed like form multi-indices; read-only,
    kept on the mode."""
    return mode._components


def to_field_form(mode: HalfDiskMode) -> FieldForm:
    """The mode as a callable form on Cartesian points, kept on the mode: its
    coefficients keep their partials between calls.  Its components are
    read-only."""
    return mode._form


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
    if M < 1:
        raise ValueError(f"radial cells must be positive, got {M}")
    return (np.arange(1, M + 1) - 0.5) / M


def _angular_nodes(M: int) -> np.ndarray:
    if M < 1:
        raise ValueError(f"angular cells must be positive, got {M}")
    return (np.arange(1, M + 1) - 0.5) * (HALF_ARC / M)


# stored families per form degree: (letter, polar part, metric factor r absorbed)
_FAMILIES = {
    0: (("c", "tau", False),),
    1: (("a", "rho", False), ("d", "tau", True)),
    2: (("b", "rho", True),),
}


def trace_families(degree: int, r, rho=None, tau=None) -> dict:
    """Circle traces of a form of the given degree, by stored family letter.

    rho and tau are its radial and tangential parts (as spherical.split_circle
    samples them) on an (r, phi) grid, r the radius column: c <- tau for a
    scalar; a <- rho and d <- r tau for a one-form; b <- r rho for a top form.
    """
    parts = {"rho": rho, "tau": tau}
    return {letter: r * parts[part] if metric else parts[part]
            for letter, part, metric in _FAMILIES[degree]}


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
    M_phi: int  # angular midpoints the projection integrated on


def _basis_rows(letter: str, n_list, phi: np.ndarray) -> np.ndarray:
    """Projection weights, one row per order: the real scalar basis for the
    'c' and 'a' families, the conjugate one-form basis for 'd' and 'b'."""
    pairs = [analytic_pair(n) for n in n_list]
    if letter in ("c", "a"):
        rows = [pair.normalization * pair.e(phi) for pair in pairs]
    else:
        rows = [np.conj(pair.normalization * pair.h(phi)) for pair in pairs]
    return np.array(rows).reshape(len(pairs), len(phi))


def project_angular(values: dict, n_list, nodes: np.ndarray) -> CoefficientSet:
    """Project circle traces sampled on the offset angular grid.

    Each entry of values holds samples of shape (len(nodes), M_phi) taken on
    the midpoint angular grid; the metric factor r for the 'd' and 'b'
    families must already be absorbed.  Against basis order k, the midpoint
    rule integrates a trace of angular order n exactly when n + k - 1 < 2 M_phi:
    the half-integer harmonics meet in products of integer frequencies n - k
    and n + k - 1, and M_phi midpoints integrate cos(j phi) over (0, pi)
    exactly unless j is a nonzero multiple of 2 M_phi.  A trace that is not
    band-limited, such as a bilinear read of a grid form, keeps an aliasing
    error that M_phi alone controls.
    """
    n_list = tuple(n_list)
    M_phi = next(iter(values.values())).shape[1]
    phi = _angular_nodes(M_phi)
    h = HALF_ARC / M_phi

    families = {}
    for letter, vals in values.items():
        if vals.shape != (len(nodes), M_phi):
            raise ValueError("coefficient samples have inconsistent shape")
        families[letter] = np.array([h * np.sum(vals * weight[None, :], axis=1)
                                     for weight in _basis_rows(letter, n_list, phi)])
    return CoefficientSet(n_list=n_list, nodes=np.asarray(nodes), families=families,
                          M_phi=M_phi)


def extract_coefficients(
    mode: HalfDiskMode, n_list, M_r: int = 200, M_phi: int = 256
) -> CoefficientSet:
    """Project each circle trace of an eigenform onto the half-circle basis.

    Separably: a part sum_i R_i(r) A_i(phi) has the coefficients
    sum_i R_i(r) <A_i, basis_k>, so each distinct radial factor of the parts
    is evaluated once on the M_r nodes (times r for the 'd' and 'b'
    families), each angular sum is projected by the midpoint rule on M_phi
    nodes once per process (kept on the part per letter, orders and M_phi),
    and no M_r x M_phi grid is formed.  The angular sums have order
    n = mode.n, for which the rule is exact against basis order k when
    n + k - 1 < 2 M_phi
    (project_angular); M_phi is a floor, raised to the smallest count exact
    for every requested order.
    """
    n_list = tuple(n_list)
    if M_phi < 1:
        raise ValueError(f"angular cells must be positive, got {M_phi}")
    M_phi = max(M_phi, (mode.n + max(n_list, default=1) + 1) // 2)
    r = radial_nodes(M_r)
    stored = _FAMILIES[mode.degree]
    values = _radial_values(_factors(mode.parts[part] for _, part, _ in stored), r)
    families = {}
    for letter, part, metric in stored:
        ps = mode.parts[part]
        radial = np.array([values[R] for R, _ in ps.pairs])  # (pairs, M_r)
        proj = ps._kept(("projection", letter, n_list, M_phi),
                        _angular_projection, ps, letter, n_list, M_phi)
        families[letter] = proj.T @ (r * radial if metric else radial)
    return CoefficientSet(n_list=n_list, nodes=r, families=families, M_phi=M_phi)


def _angular_projection(ps: PolarScalar, letter: str, n_list, M_phi: int) -> np.ndarray:
    """<A_i, basis_k> for each pair i of ps and order k of n_list, by the
    M_phi-point midpoint rule."""
    phi = _angular_nodes(M_phi)
    h = HALF_ARC / M_phi
    return h * (np.array([A(phi) for _, A in ps.pairs]) @ _basis_rows(letter, n_list, phi).T)


def _centered(values: np.ndarray, h: float) -> np.ndarray:
    return (values[2:] - values[:-2]) / (2.0 * h)


def coeff_ode_residuals(q: int, n: int, m: int, M_r: int = 400) -> dict:
    """Residuals of the coupled radial relations for one eigenpair.

    Radial derivatives are taken by centered differences, so the derivative
    relations carry a second-order truncation error; the purely algebraic
    relations sit at quadrature roundoff.  The sup is restricted to r >= 0.1
    because the coefficients of the lowest angular order behave like sqrt(r)
    near the center, where difference quotients cannot converge.
    """
    E = analytic_eigenform(q, n, m, "E")
    H = analytic_eigenform(q, n, m, "H")
    omega, nu = E.omega, E.nu
    ce = extract_coefficients(E, [n], M_r=M_r)
    ch = extract_coefficients(H, [n], M_r=M_r)
    r = ce.nodes
    h = r[1] - r[0]
    mid = slice(1, -1)
    window = r[mid] >= 0.1

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
    """The lowest finite-volume eigenvalues of one radial problem, ascending."""

    lambdas: np.ndarray


def _check_radial(M: int, bc: str):
    if M < 1:
        raise ValueError(f"radial cells must be positive, got {M}")
    if bc not in ("dirichlet", "neumann"):
        raise ValueError("bc must be 'dirichlet' or 'neumann'")


def _radial_operator(angular, M: int, bc: str):
    """The symmetric tridiagonal (diag, off) of the finite-volume radial
    operator with angular term angular / r^2: nu^2 for order nu, or a discrete
    angular eigenvalue.

    Cell centers r_i = (i - 1/2) h on (0, 1); the r = 0 face carries zero
    flux weight so no condition is imposed there.  At r = 1 an odd-reflection
    ghost pins the value, a dropped flux pins the derivative.
    """
    _check_radial(M, bc)
    h = 1.0 / M
    idx = np.arange(1, M + 1, dtype=float)
    r = (idx - 0.5) * h
    diag = 2.0 * idx - 1.0
    diag[-1] = 3.0 * M - 1.0 if bc == "dirichlet" else M - 1.0
    diag = diag + angular * h / r
    # symmetric similarity with the cell mass diag(h r_i)
    return diag / (h * r), -idx[:-1] / (h * np.sqrt(r[:-1] * r[1:]))


def _merge_orders(count: int, entry) -> list:
    """The count smallest entries over angular orders k = 1, 2, ..., merged lazily.

    entry(k, j) gives order k's j-th entry in ascending order (a value, or a
    tuple led by the value), or None when order k has no such entry.  A heap
    holds the next candidate of each open order: order k's entry j is drawn
    only once its entry j - 1 is taken, and order k + 1 is opened only once
    order k's lowest is taken.  That is exact, since zeros of J_nu grow with
    nu (DLMF 10.21) and discrete radial eigenvalues with the angular
    eigenvalue, and it draws at most 2 count - 1 entries.
    """
    if count < 1:
        raise ValueError("count must be positive")
    merged, heap = [], []

    def draw(k, j):
        item = entry(k, j)
        if item is not None:
            heapq.heappush(heap, (item, k, j))

    draw(1, 0)
    while heap:
        item, k, j = heapq.heappop(heap)
        merged.append(item)
        if len(merged) == count:
            break
        draw(k, j + 1)
        if j == 0:
            draw(k + 1, 0)
    return merged


_RADIAL_VALUES = {}  # (angular term, M, bc, j) -> eigenvalue j (maxforms._kept)


def _radial_entries(angular_of, orders, M: int, bc: str):
    """entry(k, j) for the merge or radial_eigensolve: eigenvalue j of the
    radial operator with angular term angular_of(k), for orders k up to orders.

    Each value comes from its own index-selected bisection, so it is canonical:
    it depends only on its operator and index, not on how many are merged.
    That lets every value drawn be kept, one key per value (maxforms._kept), so
    the table changes no result, only which draws bisect.
    """
    _check_radial(M, bc)  # before any lookup, so a warm table validates as a cold one
    operator = functools.cache(lambda angular: _radial_operator(angular, M, bc))

    def entry(k, j):
        if k > orders or j >= M:
            return None
        angular = angular_of(k)
        return kept(_RADIAL_VALUES, (angular, M, bc, j),
                    lambda: _tridiagonal_eigenvalues(*operator(angular), j, j)[0])

    return entry


def radial_eigensolve(n: int, M: int, count: int, bc: str = "dirichlet") -> RadialSolve:
    """The lowest count finite-volume eigenvalues of the order nu = n - 1/2
    radial operator: order n's kept entries, the values radial_spectrum draws."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("angular orders start at 1")
    entry = _radial_entries(lambda _: (n - 0.5) ** 2, 1, M, bc)
    if not 1 <= count <= M:
        raise ValueError("count must be between 1 and M")
    return RadialSolve(lambdas=np.array([entry(1, j) for j in range(count)]))


def radial_spectrum(M: int, count: int, bc: str = "dirichlet") -> np.ndarray:
    """Lowest radial-solver eigenvalues merged across angular orders n, each
    order giving at most its M."""
    entry = _radial_entries(lambda n: (n - 0.5) ** 2, math.inf, M, bc)
    return np.array(_merge_orders(count, entry))


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
    if M_r < 1 or M_phi < 1:
        raise ValueError(f"grid cells must be positive, got {M_r},{M_phi}")
    if not 1 <= count <= M_r * M_phi:
        raise ValueError("count must be between 1 and M_r * M_phi")

    mu = functools.partial(fd_eigenvalue_closed_form, M_phi)
    lambdas = np.array(_merge_orders(count, _radial_entries(mu, M_phi, M_r, "dirichlet")))
    return Zaremba2DSolve(lambdas=lambdas, shape=(M_r, M_phi), unknowns=M_r * M_phi)


def reference_modes(q: int, count: int) -> list:
    """Ascending (lambda, n, m, omega) rows of the exact spectrum."""
    if q not in (0, 1):
        raise ValueError("families are indexed by q in {0, 1}")
    zeros = zeros_j if q == 0 else zeros_jprime
    # order n opens once n - 1 values are taken and draws entry j only while
    # (n - 1) + j < count, so count - n + 1 zeros serve it
    table = functools.cache(lambda n: zeros(n, count - n + 1).zeros)

    def entry(n, j):
        z = float(table(n)[j])
        return (z**2, n, j + 1, z)

    return _merge_orders(count, entry)


def reference_eigenvalues(q: int, count: int) -> np.ndarray:
    """Ascending squared resonances across angular orders (the exact targets)."""
    return np.array([row[0] for row in reference_modes(q, count)])


# ---------------------------------------------------------------------------
# Gram matrix over the half disk


def gram_matrix_2d(modes, M_r: int = 32, M_phi: int = 16) -> np.ndarray:
    """Pairwise inner products on the half disk, one stacked matrix product.

    All modes must share a form degree.  Radially, r = s^2 turns r dr into
    2 s^3 ds and every component into an entire function of s, which
    Gauss-Legendre in s integrates to roundoff (DLMF 3.5(v)); in angle, the
    midpoint rule integrates the integer frequencies of the half-integer
    products exactly once M_phi exceeds the largest, 2 n - 1.  M_r and M_phi
    are floors, raised to what the modes need: M_phi to 2 n_max, and M_r to
    16 + ceil(omega_max), since the products oscillate like (w_i + w_j) s^2
    (roundoff, 1e-13, takes about 16 + 0.85 omega_max nodes up to omega 47).
    Each distinct radial factor over all the modes' parts is evaluated once.
    """
    modes = list(modes)
    if not modes:
        return np.zeros((0, 0))
    degree = modes[0].degree
    if any(mode.degree != degree for mode in modes):
        raise ValueError("gram matrix needs modes of equal degree")
    M_r = max(M_r, 16 + math.ceil(max(mode.omega for mode in modes)))
    M_phi = max(M_phi, 2 * max(mode.n for mode in modes))
    x, w = _legendre(M_r)
    s = 0.5 * (x + 1.0)
    weight = (w * s**3)[:, None] * (HALF_ARC / M_phi)  # r dr = 2 s^3 ds, ds = dx / 2

    # (modes, components, M_r, M_phi), flattened past the mode axis; rho before tau
    parts = [ps for mode in modes for ps in mode.parts.values()]
    C = np.array(list(_on_grid(parts, s * s, _angular_nodes(M_phi))))
    C = C.reshape(len(modes), -1, M_r, M_phi)
    return (C * weight).reshape(len(modes), -1) @ C.reshape(len(modes), -1).conj().T

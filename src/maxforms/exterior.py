"""Differential forms on N-dimensional boxes with scalar coefficient fields.

A form of degree q carries one complex scalar coefficient per ordered
multi-index.  Coefficients come in two interchangeable representations:

* callable fields (`ScalarField`): evaluation on point batches, coordinates on
  the leading axis (x of shape (N,) or (N, P) gives () or (P,); a field constant
  over the batch may give a scalar, which consumers broadcast), plus partial
  derivatives, exact when a rule is attached, central differences otherwise;
* grid fields (`GridScalar`): samples on a uniform tensor grid, partial
  derivatives by forward differences with periodic wrap so that discrete
  partials commute as operators (the wrapped slices are excluded from any
  accuracy claim; see `interior`).

Operations: wedge, hodge, exterior derivative, codifferential (two routes),
pullback along a smooth map, and the pair of material transformations built
from pullback and hodge.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .multiindex import (
    MultiIndex,
    complement,
    concat_sign,
    enumerate_ordered,
    insert_sign,
    sign_constants,
)

_FD_STEP = 1e-6


class ScalarField:
    """Complex scalar field with batch evaluation and partial derivatives.

    `partial_rule(axis)` must return the derivative `ScalarField`; rules are
    composed exactly through sums and products, so analytic derivative chains
    of any depth are available when the leaves provide them.  Leaves without a
    rule fall back to central differences.
    """

    __slots__ = ("fn", "partial_rule", "_cache")

    def __init__(self, fn, partial_rule=None):
        self.fn = fn
        self.partial_rule = partial_rule
        self._cache = {}

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    def partial(self, axis: int) -> "ScalarField":
        if axis in self._cache:
            return self._cache[axis]
        if self.partial_rule is not None:
            out = self.partial_rule(axis)
        else:
            out = _central_difference(self, axis)
        self._cache[axis] = out
        return out

    def zero_like(self) -> "ScalarField":
        return ScalarField.constant(0.0)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ScalarField):
            return NotImplemented
        return ScalarField(
            lambda x: self.fn(x) + other.fn(x),
            lambda axis: self.partial(axis) + other.partial(axis),
        )

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            return ScalarField(
                lambda x: self.fn(x) * other.fn(x),
                lambda axis: self.partial(axis) * other + self * other.partial(axis),
            )
        c = complex(other)
        if c == 1.0:  # most signs in hodge, ext_d and the transforms are +1
            return self
        return ScalarField(lambda x: c * self.fn(x), lambda axis: c * self.partial(axis))

    __rmul__ = __mul__

    # -- constructors --------------------------------------------------------

    @staticmethod
    def constant(c):
        c = complex(c)
        return ScalarField(lambda x: c, lambda axis: ScalarField.constant(0.0))

    @staticmethod
    def coordinate(axis: int):
        """The field x_axis (1-based)."""
        return ScalarField(
            lambda x: x[axis - 1], lambda j: ScalarField.constant(1.0 if j == axis else 0.0)
        )

    @staticmethod
    def harmonic(freqs, phase=0.0, amp=1.0):
        """amp * cos(freqs . x + phase); derivatives close under phase shifts.

        The dot product is summed axis by axis, so a batch rounds as its points do.
        """
        k = np.asarray(freqs, dtype=float)
        a = complex(amp)
        terms = [(i, float(c)) for i, c in enumerate(k) if c]

        def fn(x):
            arg = phase
            for i, c in terms:
                arg = arg + c * x[i]
            return a * np.cos(arg)

        return ScalarField(
            fn, lambda axis: ScalarField.harmonic(k, phase + np.pi / 2.0, a * k[axis - 1])
        )

    @staticmethod
    def radial_power(exponent: float):
        """|x|^exponent away from the origin."""
        a = float(exponent)
        return ScalarField(
            lambda x: np.hypot.reduce(x) ** a,
            lambda axis: a * (ScalarField.coordinate(axis) * ScalarField.radial_power(a - 2.0)),
        )


def _central_difference(f: ScalarField, axis: int) -> ScalarField:
    def fd(x):
        h = _FD_STEP * (1.0 + np.abs(x[axis - 1]))
        xp, xm = x.copy(), x.copy()
        xp[axis - 1] += h
        xm[axis - 1] -= h
        return (f(xp) - f(xm)) / (2.0 * h)

    return ScalarField(fd)


@dataclass(frozen=True)
class GridSpec:
    shape: tuple
    spacing: tuple
    origin: tuple


class GridScalar:
    """Samples of a scalar field on a uniform tensor grid.

    Forward difference with periodic wrap: shapes are preserved and discrete
    partials commute exactly as operators.  Entries whose forward neighbor
    wrapped around are meaningless for accuracy statements; callers mask them
    with `interior`.
    """

    __slots__ = ("values", "grid")

    def __init__(self, values, spacing, origin=None):
        values = np.asarray(values)
        if not np.iscomplexobj(values):
            values = values.astype(np.complex128)
        self.values = values
        spacing = tuple(float(s) for s in spacing)
        if len(spacing) != values.ndim:
            raise ValueError("one spacing per grid axis required")
        if origin is None:
            origin = (0.0,) * values.ndim
        self.grid = GridSpec(tuple(values.shape), spacing, tuple(origin))

    def partial(self, axis: int) -> "GridScalar":
        a = axis - 1
        h = self.grid.spacing[a]
        diff = (np.roll(self.values, -1, axis=a) - self.values) / h
        return GridScalar(diff, self.grid.spacing, self.grid.origin)

    def zero_like(self) -> "GridScalar":
        return GridScalar(np.zeros_like(self.values), self.grid.spacing, self.grid.origin)

    def _check_compatible(self, other):
        if self.grid != other.grid:
            raise ValueError("grid mismatch")

    def __add__(self, other):
        if not isinstance(other, GridScalar):
            return NotImplemented
        self._check_compatible(other)
        return GridScalar(self.values + other.values, self.grid.spacing, self.grid.origin)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, GridScalar):
            self._check_compatible(other)
            return GridScalar(
                self.values * other.values, self.grid.spacing, self.grid.origin
            )
        return GridScalar(
            complex(other) * self.values, self.grid.spacing, self.grid.origin
        )

    __rmul__ = __mul__


def interior(values: np.ndarray, margin: int) -> np.ndarray:
    """Strip the last `margin` slices along every axis (wrap-affected region)."""
    return values[tuple(slice(0, n - margin) for n in values.shape)]


class FieldForm:
    """A degree-q form on an N-box.

    Component keys are exactly `enumerate_ordered(q, N)`; degrees outside
    0..N give the zero form with no components.
    """

    __slots__ = ("N", "q", "components")

    def __init__(self, N: int, q: int, components: dict):
        self.N = int(N)
        self.q = int(q)
        keys = enumerate_ordered(q, N)
        comp = {key: components[key] for key in keys if key in components}
        extra = set(map(tuple, components)) - set(map(tuple, keys))
        if extra:
            raise ValueError(f"components outside degree-{q} index set: {sorted(extra)}")
        if len(comp) != len(keys):
            raise ValueError("missing components; use from_callable/from_grid to zero-fill")
        self.components = comp

    @property
    def is_zero_degree_range(self) -> bool:
        return not (0 <= self.q <= self.N)

    @property
    def kind(self) -> str:
        for v in self.components.values():
            return "grid" if isinstance(v, GridScalar) else "callable"
        return "empty"

    @classmethod
    def from_callable(cls, N, q, components=None):
        components = dict(components or {})
        full = {}
        for key in enumerate_ordered(q, N):
            c = components.get(key, components.get(tuple(key)))
            if c is None:
                c = ScalarField.constant(0.0)
            elif not isinstance(c, ScalarField):
                c = ScalarField(c)
            full[key] = c
        return cls(N, q, full)

    @classmethod
    def from_grid(cls, N, q, components, spacing, origin=None):
        components = {tuple(k): v for k, v in components.items()}
        shape = next((np.shape(v) for v in components.values()), None)
        if shape is None:
            raise ValueError("at least one component array required")
        full = {}
        for key in enumerate_ordered(q, N):
            v = components.get(tuple(key))
            if v is None:
                v = np.zeros(shape)
            full[key] = v if isinstance(v, GridScalar) else GridScalar(v, spacing, origin)
        return cls(N, q, full)

    @classmethod
    def zero(cls, N, q):
        return cls.from_callable(N, q)

    def map_components(self, fn) -> "FieldForm":
        return FieldForm(self.N, self.q, {k: fn(v) for k, v in self.components.items()})

    def __add__(self, other):
        if self.N != other.N or self.q != other.q:
            raise ValueError("degree/dimension mismatch")
        return FieldForm(
            self.N, self.q, {k: self.components[k] + other.components[k] for k in self.components}
        )

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, c):
        return self.map_components(lambda v: c * v)

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self


def evaluate(form: FieldForm, x) -> dict:
    """Component values of a callable form at a point, keyed by multi-index."""
    if form.kind == "grid":
        raise ValueError("evaluate is for callable forms; read grid components directly")
    return {k: complex(v(x)) for k, v in form.components.items()}


def _zero_form(N: int, q: int, *templates: FieldForm) -> FieldForm:
    """Zero form of the requested degree, matching the templates' representation."""
    if not 0 <= q <= N:
        return FieldForm(N, q, {})
    fields = (v for t in templates for v in t.components.values())
    proto = next(fields, ScalarField.constant(0.0))
    return FieldForm(N, q, {k: proto.zero_like() for k in enumerate_ordered(q, N)})


def wedge(a: FieldForm, b: FieldForm) -> FieldForm:
    """Exterior product; antisymmetrized coefficient products with split signs."""
    if a.N != b.N:
        raise ValueError("dimension mismatch")
    N, q = a.N, a.q + b.q
    if a.is_zero_degree_range or b.is_zero_degree_range or q > N:
        return _zero_form(N, min(q, N + 1), a, b)
    kinds = {a.kind, b.kind} - {"empty"}
    if len(kinds) > 1:
        raise ValueError("cannot wedge callable with grid representation")
    out = {}
    for K in enumerate_ordered(q, N):
        acc = None
        for I in itertools.combinations(K, a.q):
            J = tuple(i for i in K if i not in I)
            sign = concat_sign(I, J)
            term = sign * (a.components[MultiIndex(I)] * b.components[MultiIndex(J)])
            acc = term if acc is None else acc + term
        out[K] = acc
    return FieldForm(N, q, out)


def hodge(a: FieldForm) -> FieldForm:
    """Hodge star: coefficient I goes to the complementary index with a split sign."""
    N = a.N
    if a.is_zero_degree_range:
        return _zero_form(N, N - a.q, a)
    out = {}
    for I in enumerate_ordered(a.q, N):
        Ic = complement(I, N)
        out[Ic] = concat_sign(I, Ic) * a.components[I]
    return FieldForm(N, N - a.q, out)


def ext_d(a: FieldForm) -> FieldForm:
    """Exterior derivative."""
    N, q = a.N, a.q
    if a.is_zero_degree_range or q + 1 > N:
        return _zero_form(N, q + 1, a)
    out = {}
    for I in enumerate_ordered(q + 1, N):
        acc = None
        for j in I:
            rest = I.remove(j)
            term = insert_sign(j, rest) * a.components[rest].partial(j)
            acc = term if acc is None else acc + term
        out[I] = acc
    return FieldForm(N, q + 1, out)


def codiff(a: FieldForm) -> FieldForm:
    """Codifferential via its star-derivative-star definition."""
    if a.is_zero_degree_range or a.q - 1 < 0:
        return _zero_form(a.N, a.q - 1, a)
    sign = sign_constants(a.q, a.N).codiff_sign
    return sign * hodge(ext_d(hodge(a)))


def codiff_expansion(a: FieldForm) -> FieldForm:
    """Codifferential by direct expansion over removed labels.

    Kept as an independent route; tests require it to agree with `codiff`.
    """
    N, q = a.N, a.q
    if a.is_zero_degree_range or q - 1 < 0:
        return _zero_form(N, q - 1, a)
    out = {}
    for I in enumerate_ordered(q - 1, N):
        acc = None
        for j in complement(I, N):
            term = insert_sign(j, I) * a.components[I.insert(j)].partial(j)
            acc = term if acc is None else acc + term
        out[I] = acc
    return FieldForm(N, q - 1, out)


@dataclass
class SmoothMap:
    """A smooth map with a user-supplied Jacobian, evaluated on point batches.

    `fn` maps points (s, ...) to (t, ...); `jacobian(x)[i, j]`, shape (s, t, ...)
    or (s, t) when constant, is the partial of component j+1 along source axis
    i+1, so rows index source axes.  `inverse` is optional and only required by
    the material transformations.  `affine` sets `constant_jacobian`.
    """

    fn: Callable
    jacobian: Callable
    source_dim: int
    target_dim: int
    inverse: Optional["SmoothMap"] = None
    constant_jacobian: Optional[np.ndarray] = None

    def __call__(self, x):
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)

    def jac(self, x):
        J = np.asarray(self.jacobian(np.asarray(x, dtype=float)), dtype=float)
        if J.shape[:2] != (self.source_dim, self.target_dim):
            raise ValueError(
                f"jacobian shape {J.shape}, expected {(self.source_dim, self.target_dim)}"
            )
        return J

    @classmethod
    def affine(cls, A, b=None):
        def make(A, b):  # sums over source axes in one order, batch or point
            t, s = A.shape
            return cls(fn=lambda x: ((x.T[..., None] * A.T).sum(-2) + b).T,
                       jacobian=lambda x: A.T.copy(), source_dim=s, target_dim=t,
                       constant_jacobian=A.T.copy())

        A = np.asarray(A, dtype=float)
        b = np.zeros(A.shape[0]) if b is None else np.asarray(b, dtype=float)
        fwd = make(A, b)
        if A.shape[0] == A.shape[1] and abs(np.linalg.det(A)) > 0:
            Ai = np.linalg.inv(A)
            fwd.inverse = make(Ai, -Ai @ b)
            fwd.inverse.inverse = fwd
        return fwd


def _compound(J: np.ndarray, q: int) -> np.ndarray:
    """q-th compound of J (m, n, ...): entry (I, K, ...) is the minor on rows I and
    columns K, from one stacked determinant; by Cauchy-Binet compounds multiply."""
    rows, cols = (np.array(ix, dtype=int).reshape(len(ix), q) - 1
                  for ix in (enumerate_ordered(q, n) for n in J.shape[:2]))
    blocks = J[rows[:, None, :, None], cols[None, :, None, :]]  # (I, K, q, q, ...)
    return np.linalg.det(np.moveaxis(blocks, (2, 3), (-2, -1)))


def pullback(tau: SmoothMap, a: FieldForm) -> FieldForm:
    """Pullback along tau: coefficient I is sum_K minor(I, K) a_K(tau(v)).

    One evaluator per pullback contracts the compound of the Jacobian with all
    components of `a`, evaluated once per point batch, and keeps the last batch:
    each coefficient reads its row, so nested pullbacks cost linear in depth.
    Along an affine map the compound is constant and the coefficients
    differentiate exactly: their partials are pullbacks of chain-ruled partials.
    """
    if a.kind == "grid":
        raise ValueError("pullback needs the callable representation")
    if a.N != tau.target_dim:
        raise ValueError("form dimension does not match map target")
    N_src, q = tau.source_dim, a.q
    if a.is_zero_degree_range or q > N_src:
        return _zero_form(N_src, min(q, N_src + 1))
    J = tau.constant_jacobian
    fixed = None if J is None else _compound(J.T, q)  # M[K, I], K over target indices
    last = [(None, None)]  # (key, coefficient rows) of the last batch, read as one pair

    def rows(v):
        key = (v.shape, v.tobytes())
        seen, out = last[0]
        if seen != key:
            y = tau(v)
            vals = np.empty((len(a.components),) + v.shape[1:], dtype=complex)
            for k, f in enumerate(a.components.values()):
                vals[k] = f(y)
            M = fixed if J is not None else _compound(np.swapaxes(tau.jac(v), 0, 1), q)
            M = M.reshape(M.shape + (1,) * (vals.ndim + 1 - M.ndim))
            out = (M * vals[:, None]).sum(axis=0)  # over K in one order, batch or point
            out.flags.writeable = False  # rows go out as views
            last[0] = key, out
        return out

    @functools.cache
    def chained(j):  # d/dv_j a(tau(v)) = sum_l J[j, l] (d_l a)(tau(v))
        return pullback(tau, a.map_components(lambda f: functools.reduce(
            ScalarField.__add__, (float(c) * f.partial(l) for l, c in enumerate(J[j - 1], 1)))))

    out = {}
    for i, I in enumerate(enumerate_ordered(q, N_src)):
        rule = None if J is None else (lambda j, I=I: chained(j).components[I])
        out[I] = ScalarField(lambda v, i=i: rows(v)[i], rule)
    return FieldForm(N_src, q, out)


_PROBE_OFFSETS = (0.0, 0.37, -0.29)


def _require_orientation(tau: SmoothMap):
    if tau.source_dim != tau.target_dim:
        raise ValueError("material transformations need a square map")
    if tau.inverse is None:
        raise ValueError("material transformations need an invertible map")
    for t in _PROBE_OFFSETS:
        x = np.full(tau.source_dim, t)
        if np.linalg.det(tau.jac(x)) <= 0:
            raise ValueError("orientation-reversing maps are not supported")


def transform_eps(tau: SmoothMap, a: FieldForm) -> FieldForm:
    """Material transformation acting through the inverse pullback first."""
    _require_orientation(tau)
    kappa = sign_constants(a.q, a.N).double_hodge
    return kappa * hodge(pullback(tau, hodge(pullback(tau.inverse, a))))


def transform_mu(tau: SmoothMap, a: FieldForm) -> FieldForm:
    """Material transformation acting through the hodge star first."""
    _require_orientation(tau)
    kappa = sign_constants(a.q, a.N).double_hodge
    return kappa * pullback(tau, hodge(pullback(tau.inverse, hodge(a))))


# -- serialization -----------------------------------------------------------


def _key_str(index) -> str:
    return ",".join(str(i) for i in index)


def _key_parse(s: str):
    return MultiIndex(int(p) for p in s.split(",") if p)


def grid_form_to_json(form: FieldForm) -> str:
    """Serialize a grid form: dimensions, grid layout, nested re/im arrays."""
    if form.kind != "grid":
        raise ValueError("only grid forms serialize")
    some = next(iter(form.components.values()))
    doc = {
        "N": form.N,
        "q": form.q,
        "grid": {
            "shape": list(some.grid.shape),
            "spacing": list(some.grid.spacing),
            "origin": list(some.grid.origin),
        },
        "components": {
            _key_str(k): {
                "re": v.values.real.tolist(),
                "im": v.values.imag.tolist(),
            }
            for k, v in form.components.items()
        },
    }
    return json.dumps(doc, sort_keys=True)


def grid_form_from_json(text: str) -> FieldForm:
    doc = json.loads(text)
    spacing = tuple(doc["grid"]["spacing"])
    origin = tuple(doc["grid"]["origin"])
    components = {}
    for key, payload in doc["components"].items():
        arr = np.asarray(payload["re"], dtype=float) + 1j * np.asarray(
            payload["im"], dtype=float
        )
        components[_key_parse(key)] = GridScalar(arr, spacing, origin)
    return FieldForm.from_grid(doc["N"], doc["q"], components, spacing, origin)

"""Differential forms on N-dimensional boxes with scalar coefficient fields.

A form of degree q carries one complex scalar coefficient per ordered
multi-index.  Coefficients come in two interchangeable representations:

* callable fields (`ScalarField`): evaluation on point batches, coordinates on
  the leading axis (x of shape (N,) or (N, P) gives () or (P,); a field constant
  over the batch may give a scalar, which consumers broadcast), plus partial
  derivatives, exact when a rule is attached, central differences otherwise;
* grid fields (`GridScalar`): samples on a uniform tensor grid, partial
  derivatives by forward differences with periodic wrap so that discrete
  partials commute as operators (the last slices along each axis, which the
  wrap reaches, are excluded from any accuracy claim).

Operations: wedge, hodge, exterior derivative, codifferential (two routes),
pullback along a smooth map, and the pair of material transformations built
from pullback and hodge.  Wedge, hodge, the exterior derivative and the
codifferential expansion each sum coefficients left to right over one cached
index table of `multiindex`.  A degree outside 0..N has no indices, so the
result of an operator keeps the degree it computes (a wedge past N has degree
p + r) with no components, and a coefficient with no terms is zero in the
operands' representation.  Operators whose keys come from those tables, in
their order, build the result without checking the keys again.

An affine map holds read-only copies of its arrays, and keeps what depends
only on it (maxforms._kept lists every store): the compound of its Jacobian
per degree, which every pullback along it contracts, and its orientation.

Callable operations build an expression tree of slotted nodes (sum, product,
complex scaling, constant, harmonic wave, the exact zero, pullback
coefficient), each one object whose evaluation and derivative rule are methods
of its class, so building a form allocates few objects for the cyclic garbage
collector and creates no reference cycles.  The zero is one node, which sums
and products fold away by identity as a form is built.  The partials of any
order of a pullback along an affine map go through one chain-rule evaluator
per pullback, which evaluates each leaf partial once per point batch.

Grid sums accumulate in place: the first term's new array takes each later
term, written into one spare array per operation, by an add or a subtract,
with values equal to those of summing signed copies.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._kept import kept
from .multiindex import (
    MultiIndex,
    codiff_table,
    derivative_table,
    enumerate_ordered,
    hodge_table,
    sign_constants,
    wedge_table,
)

_FD_STEP = 1e-6


class ScalarField:
    """Complex scalar field with batch evaluation and partial derivatives.

    `ScalarField(fn, partial_rule)` is a leaf around a user callable.
    `partial_rule(axis)` must return the derivative `ScalarField`; rules are
    composed exactly through sums and products, so analytic derivative chains
    of any depth are available when the leaves provide them.  Leaves without a
    rule fall back to central differences.

    The algebra builds expression nodes: subclasses whose `fn` and
    `partial_rule` are methods of the class, not closures, so a node is one
    object holding its operands (the leaf slots of those names stay empty in a
    node).  Each node evaluates its operands' `fn` in the order the closures
    did, so values do not depend on the representation.  The partial cache is
    made on first use.  The exact zero (`zero_like`) is one node: a sum drops
    it and a product or scaling of it is itself, so folding x + 0 into x
    changes at most the sign of a zero value.
    """

    __slots__ = ("fn", "partial_rule", "_cache")

    def __init__(self, fn, partial_rule=None):
        self.fn = fn
        self.partial_rule = partial_rule
        self._cache = None

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    def partial(self, axis: int) -> "ScalarField":
        cache = self._cache
        if cache is None:
            cache = self._cache = {}
        elif axis in cache:
            return cache[axis]
        rule = self.partial_rule
        out = rule(axis) if rule is not None else _central_difference(self, axis)
        cache[axis] = out
        return out

    def zero_like(self) -> "ScalarField":
        return _ZERO

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ScalarField):
            return NotImplemented
        return self if other is _ZERO else _Sum(self, other)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            return _ZERO if other is _ZERO else _Product(self, other)
        c = complex(other)
        if c == 1.0:  # most signs in hodge, ext_d and the transforms are +1
            return self
        return _Scaled(c, self)

    __rmul__ = __mul__

    # -- constructors --------------------------------------------------------

    @staticmethod
    def constant(c):
        """The field c; c = 0 gives the exact zero."""
        c = complex(c)
        return _Constant(c) if c else _ZERO

    @staticmethod
    def harmonic(freqs, phase=0.0, amp=1.0):
        """amp * cos(freqs . x + phase); derivatives close under phase shifts.

        The dot product is summed axis by axis, so a batch rounds as its points do.
        """
        k = np.asarray(freqs, dtype=float)
        return _Harmonic(k, tuple((i, float(c)) for i, c in enumerate(k) if c), phase, amp)


class _Pair(ScalarField):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self._cache = None


class _Sum(_Pair):
    __slots__ = ()

    def fn(self, x):
        return self.left.fn(x) + self.right.fn(x)

    def partial_rule(self, axis):
        return self.left.partial(axis) + self.right.partial(axis)


class _Product(_Pair):
    __slots__ = ()

    def fn(self, x):
        return self.left.fn(x) * self.right.fn(x)

    def partial_rule(self, axis):
        return self.left.partial(axis) * self.right + self.left * self.right.partial(axis)


class _Scaled(ScalarField):
    __slots__ = ("c", "field")

    def __init__(self, c, field):
        self.c = c
        self.field = field
        self._cache = None

    def fn(self, x):
        return self.c * self.field.fn(x)

    def partial_rule(self, axis):
        return self.c * self.field.partial(axis)


class _Constant(ScalarField):
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c
        self._cache = None

    def fn(self, x):
        return self.c

    def partial_rule(self, axis):
        return _ZERO


class _Zero(ScalarField):
    """The exact zero, one instance: its value is complex zeros of the batch's
    shape, as a wave of amplitude 0 gives, and it is its own partial."""

    __slots__ = ()

    def __init__(self):
        self._cache = None

    def fn(self, x):
        return np.zeros(x.shape[1:], complex)

    def partial(self, axis):
        return self

    def __add__(self, other):
        return other if isinstance(other, ScalarField) else NotImplemented

    def __mul__(self, other):
        if not isinstance(other, ScalarField):
            complex(other)  # scaling by what is no number still fails
        return self

    __rmul__ = __mul__


_ZERO = _Zero()


class _Harmonic(ScalarField):
    """amp * cos(k . x + phase); `terms` holds (axis, frequency) for k's nonzeros,
    shared with every derivative."""

    __slots__ = ("k", "terms", "phase", "amp")

    def __init__(self, k, terms, phase, amp):
        self.k = k
        self.terms = terms
        self.phase = phase
        self.amp = complex(amp)
        self._cache = None

    def fn(self, x):
        arg = self.phase
        # at a point, Python floats: the IEEE operations of numpy's scalars, faster
        coords = x.tolist() if x.ndim == 1 else x
        for i, c in self.terms:
            arg = arg + c * coords[i]
        return self.amp * np.cos(arg)

    def partial_rule(self, axis):
        c = self.k[axis - 1]
        if c == 0:
            return _ZERO
        return _Harmonic(self.k, self.terms, self.phase + np.pi / 2.0, self.amp * c)


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

    def partial(self, axis: int, out=None) -> "GridScalar":
        """Forward difference along `axis`, written into `out` when given (an
        array of the values' shape and dtype, which the result then holds)."""
        v = self.values
        head = (slice(None),) * (axis - 1)
        diff = np.empty(v.shape, v.dtype) if out is None else out
        # forward neighbour minus self, the last slice wrapping to the first
        np.subtract(v[head + (slice(1, None),)], v[head + (slice(None, -1),)],
                    out=diff[head + (slice(None, -1),)])
        np.subtract(v[head + (slice(None, 1),)], v[head + (slice(-1, None),)],
                    out=diff[head + (slice(-1, None),)])
        # numpy divides a complex array by a real h as (re + im * 0) * (1 / h) in
        # complex arithmetic; scaling the interleaved re, im by 1 / h gives the
        # same finite values (up to the sign of a zero) at a quarter of the cost
        scaled = diff.view(diff.real.dtype)
        scaled *= 1.0 / self.grid.spacing[axis - 1]
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
        if not isinstance(other, GridScalar):
            return NotImplemented
        self._check_compatible(other)
        return GridScalar(self.values - other.values, self.grid.spacing, self.grid.origin)

    def __neg__(self):
        return GridScalar(-self.values, self.grid.spacing, self.grid.origin)

    def __mul__(self, other):
        if isinstance(other, GridScalar):
            self._check_compatible(other)
            return GridScalar(
                self.values * other.values, self.grid.spacing, self.grid.origin
            )
        c = complex(other)
        if c == 1.0:  # values are never written in place, so self can be shared
            return self
        if c == -1.0:
            return -self
        return GridScalar(c * self.values, self.grid.spacing, self.grid.origin)

    __rmul__ = __mul__


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
        if len(comp) != len(components):  # some key lies outside the index set
            extra = set(map(tuple, components)) - set(map(tuple, keys))
            raise ValueError(f"components outside degree-{q} index set: {sorted(extra)}")
        if len(comp) != len(keys):
            raise ValueError("missing components; use from_callable/from_grid to zero-fill")
        self.components = comp

    @property
    def kind(self) -> str:
        for v in self.components.values():
            return "grid" if isinstance(v, GridScalar) else "callable"
        return "empty"

    @classmethod
    def _of_ordered(cls, N: int, q: int, components: dict) -> "FieldForm":
        """The form whose components are keyed by exactly `enumerate_ordered(q, N)`,
        in its order, as the operators build them; the keys are not checked."""
        form = object.__new__(cls)
        form.N, form.q, form.components = N, q, components
        return form

    @classmethod
    def from_callable(cls, N, q, components=None):
        """Wrap plain callables as fields and zero-fill the missing components;
        a key outside the degree-q index set is refused by the constructor."""
        full = {tuple(k): c if isinstance(c, ScalarField) else ScalarField(c)
                for k, c in (components or {}).items()}
        full |= {key: ScalarField.constant(0.0)
                 for key in enumerate_ordered(q, N) if key not in full}
        return cls(N, q, full)

    @classmethod
    def from_grid(cls, N, q, components, spacing, origin=None):
        """Wrap arrays as grid fields and zero-fill the missing components like
        the first one; a key outside the degree-q index set is refused."""
        full = {tuple(k): v if isinstance(v, GridScalar) else GridScalar(v, spacing, origin)
                for k, v in components.items()}
        if not full:
            raise ValueError("at least one component array required")
        proto = next(iter(full.values()))
        full |= {key: proto.zero_like() for key in enumerate_ordered(q, N) if key not in full}
        return cls(N, q, full)

    @classmethod
    def zero(cls, N, q):
        return cls.from_callable(N, q)

    def map_components(self, fn) -> "FieldForm":
        return FieldForm._of_ordered(self.N, self.q,
                                     {k: fn(v) for k, v in self.components.items()})

    def __add__(self, other):
        if self.N != other.N or self.q != other.q:
            raise ValueError("degree/dimension mismatch")
        return FieldForm(
            self.N, self.q, {k: self.components[k] + other.components[k] for k in self.components}
        )

    def __sub__(self, other):
        if self.N != other.N or self.q != other.q:
            raise ValueError("degree/dimension mismatch")
        return FieldForm(
            self.N, self.q, {k: self.components[k] - other.components[k] for k in self.components}
        )

    def __mul__(self, c):
        return self.map_components(lambda v: c * v)

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self


def evaluate(form: FieldForm, x) -> dict:
    """Component values of a callable form at one point x of shape (N,), keyed
    by multi-index."""
    if form.kind == "grid":
        raise ValueError("evaluate is for callable forms; read grid components directly")
    x = np.asarray(x, dtype=float)
    if x.shape != (form.N,):
        raise ValueError(f"evaluate takes one point of shape ({form.N},), not shape {x.shape}")
    return {k: complex(v.fn(x)) for k, v in form.components.items()}


def _partial(f, axis, out=None):
    """The partial of a coefficient; a grid one is written into `out` if given."""
    return f.partial(axis) if out is None else f.partial(axis, out)


def _product(f, g, out=None):
    """The product of two coefficients; a grid one is written into `out` if given."""
    if out is None:
        return f * g
    f._check_compatible(g)
    return GridScalar(np.multiply(f.values, g.values, out=out), f.grid.spacing, f.grid.origin)


def _sum_table(N: int, q: int, table, term, *operands: FieldForm) -> FieldForm:
    """The degree-q form whose component K sums `sign * kernel(x, y)` over K's
    table entries from left to right, where `term(*entry)` gives
    (sign, kernel, x, y) and every sign is +1 or -1; an empty sum is zero in the
    operands' representation.

    Grid components of one dtype are summed in place: the first term's array,
    made by its kernel, is the accumulator, and each later term is written into
    one spare array of the call and goes in by np.add or np.subtract with
    `out=`.  Since x - y is x + (-y) exactly, the values equal those of the
    out-of-place sum, without its negated copies; operands are never written.
    """
    fields = [v for f in operands for v in f.components.values()]
    zero = (fields[0] if fields else _ZERO).zero_like
    in_place = (bool(fields) and isinstance(fields[0], GridScalar)
                and len({v.values.dtype for v in fields}) == 1)
    spare = None
    out = {}
    for K, entries in table:
        terms = [term(*entry) for entry in entries]
        if not terms:
            out[K] = zero()
        elif not in_place:
            out[K] = functools.reduce(operator.add, (
                kernel(x, y) if sign == 1 else sign * kernel(x, y)
                for sign, kernel, x, y in terms))
        else:
            (sign, kernel, x, y), *rest = terms
            acc = kernel(x, y)
            if sign == -1:
                np.negative(acc.values, out=acc.values)
            for sign, kernel, x, y in rest:
                acc._check_compatible(x)
                if spare is None or spare.shape != acc.values.shape:
                    spare = np.empty_like(acc.values)
                kernel(x, y, spare)
                (np.add if sign == 1 else np.subtract)(acc.values, spare, out=acc.values)
            out[K] = acc
    return FieldForm._of_ordered(N, q, out)


def wedge(a: FieldForm, b: FieldForm) -> FieldForm:
    """Exterior product; antisymmetrized coefficient products with split signs."""
    if a.N != b.N:
        raise ValueError("dimension mismatch")
    if len({a.kind, b.kind} - {"empty"}) > 1:
        raise ValueError("cannot wedge callable with grid representation")
    return _sum_table(a.N, a.q + b.q, wedge_table(a.q, b.q, a.N),
                      lambda I, J, sign: (sign, _product, a.components[I], b.components[J]),
                      a, b)


def hodge(a: FieldForm) -> FieldForm:
    """Hodge star: coefficient I goes to the complementary index with a split sign."""
    return _signed_hodge(a, 1)


def _signed_hodge(a: FieldForm, prefactor: int) -> FieldForm:
    """prefactor (+1 or -1) times the Hodge star, each coefficient scaled once."""
    return FieldForm(a.N, a.N - a.q, {Ic: (prefactor * sign) * a.components[I]
                                      for Ic, I, sign in hodge_table(a.q, a.N)})


def ext_d(a: FieldForm) -> FieldForm:
    """Exterior derivative."""
    return _sum_table(a.N, a.q + 1, derivative_table(a.q, a.N),
                      lambda lower, j, sign: (sign, _partial, a.components[lower], j), a)


def codiff(a: FieldForm) -> FieldForm:
    """Codifferential via its star-derivative-star definition.

    The prefactor joins the outer star's signs, so each coefficient is negated
    at most once and one whose signs cancel is passed on as it is.
    """
    return _signed_hodge(ext_d(hodge(a)), sign_constants(a.q, a.N).codiff_sign)


def codiff_expansion(a: FieldForm) -> FieldForm:
    """Codifferential by direct expansion over removed labels.

    Kept as an independent route; tests require it to agree with `codiff`.
    """
    return _sum_table(a.N, a.q - 1, codiff_table(a.q, a.N),
                      lambda upper, j, sign: (sign, _partial, a.components[upper], j), a)


@dataclass
class SmoothMap:
    """A smooth map with a user-supplied Jacobian, evaluated on point batches.

    `fn` maps points (s, ...) to (t, ...); `jacobian(x)[i, j]`, shape (s, t, ...)
    or (s, t) when constant, is the partial of component j+1 along source axis
    i+1, so rows index source axes.  `inverse` is optional and only required by
    the material transformations.  `affine` sets `constant_jacobian`; along a
    map built here with one, what derives from it is computed per call.
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

    def _kept(self, key, make, *args):
        """make(*args), a value that depends only on the map and on `key`."""
        return make(*args)

    @classmethod
    def affine(cls, A, b=None):
        """x -> A x + b; an invertible A gives the map its inverse.  The map holds
        read-only copies of A and b, so what it keeps cannot go stale."""
        A = _read_only(A)
        b = _read_only(np.zeros(A.shape[0]) if b is None else b)
        inverse_of = None
        if A.shape[0] == A.shape[1]:
            # by slogdet, whose sign a determinant below the float range keeps
            sign, logabsdet = np.linalg.slogdet(A)
            if sign != 0 and np.isfinite(logabsdet):
                Ai = np.linalg.inv(A)
                inverse_of = (_read_only(Ai), _read_only(-Ai @ b))
        return _AffineMap.of(A, b, inverse_of)


def _read_only(x) -> np.ndarray:
    """A read-only float copy of x, in x's memory layout."""
    out = np.array(x, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(repr=False, eq=False)
class _AffineMap(SmoothMap):
    """x -> A x + b, with linear = (A, b), both read-only.

    The inverse is made on first use from inverse_of = (A^-1, -A^-1 b), and
    made to invert back by (A, b) itself, so `tau.inverse.inverse` evaluates
    as tau does while no map refers back to the map it inverts: dropping an
    affine map frees it without the cyclic collector.

    What depends only on the map is kept in a store that is no init field, so
    a map made by `dataclasses.replace` starts with an empty one.
    """

    linear: tuple = None
    inverse_of: Optional[tuple] = None
    _store: dict = field(default_factory=dict, init=False)

    @classmethod
    def of(cls, A, b, inverse_of):
        t, s = A.shape  # sums over source axes in one order, batch or point
        return cls(fn=lambda x: ((x.T[..., None] * A.T).sum(-2) + b).T,
                   jacobian=lambda x: A.T.copy(), source_dim=s, target_dim=t,
                   constant_jacobian=_read_only(A.T), linear=(A, b), inverse_of=inverse_of)

    def _kept(self, key, make, *args):
        return kept(self._store, key, make, *args)

    @property
    def inverse(self):
        if self._inverse is None and self.inverse_of is not None:
            self._inverse = _AffineMap.of(*self.inverse_of, self.linear)
        return self._inverse

    @inverse.setter
    def inverse(self, value):
        self._inverse = value

    def __repr__(self):
        A, b = self.linear
        return f"SmoothMap.affine({A.tolist()!r}, {b.tolist()!r})"


def _compound(J: np.ndarray, q: int) -> np.ndarray:
    """q-th compound of J (m, n, ...): entry (I, K, ...) is the minor on rows I and
    columns K, from one stacked determinant; by Cauchy-Binet compounds multiply."""
    rows, cols = (np.array(ix, dtype=int).reshape(len(ix), q) - 1
                  for ix in (enumerate_ordered(q, n) for n in J.shape[:2]))
    blocks = J[rows[:, None, :, None], cols[None, :, None, :]]  # (I, K, q, q, ...)
    return np.linalg.det(np.moveaxis(blocks, (2, 3), (-2, -1)))


class _Pullback:
    """The shared evaluator of one pullback: the compound of the Jacobian
    contracted with all components of `a` and, along an affine map, with their
    chain-ruled partials of any order, kept for the last point batch."""

    __slots__ = ("tau", "a", "fixed", "last")

    def __init__(self, tau, a, fixed):
        self.tau = tau
        self.a = a
        self.fixed = fixed  # M[K, I], K over target indices; None along a curved map
        # (key, (tau(v), leaf values, coefficient rows)) of the last batch, read as
        # one pair; the leaf values and the rows are keyed by their axes
        self.last = (None, None)

    def rows(self, v, axes=()):
        """The coefficients' partials along the source axes `axes`, the first
        taken first, at v; read-only, since rows go out as views."""
        key = (v.shape, v.tobytes())
        seen, batch = self.last
        if seen != key:
            batch = (self.tau(v), {}, {})
            self.last = key, batch
        y, leaves, rows = batch
        out = rows.get(axes)
        if out is None:
            a = self.a
            vals = np.zeros((len(a.components),) + v.shape[1:], dtype=complex)
            for k, value in enumerate(self._chain_rule(y, leaves, axes, ())):
                if value is not None:
                    vals[k] = value
            M = self.fixed
            if M is None:
                M = _compound(np.swapaxes(self.tau.jac(v), 0, 1), a.q)
            M = M.reshape(M.shape + (1,) * (vals.ndim + 1 - M.ndim))
            out = (M * vals[:, None]).sum(axis=0)  # over K in one order, batch or point
            out.flags.writeable = False
            rows[axes] = out
        return out

    def _chain_rule(self, y, leaves, axes, outer):
        """Per component a_K, d/dv_j1 ... d/dv_jd (a_K.partial(l) for l in outer)
        at y = tau(v), for axes = (j1, ..., jd); None where it is the exact zero.

        By the chain rule it is the sum over l, left to right, of J[jd, l] times
        the partial along the axes before jd with l put in front of `outer`, so
        the first axis's sum is innermost, as the partials of pullbacks of
        chain-ruled forms would nest.  Each term is scaled unless its factor is
        1.0, as `ScalarField.__mul__` does, and an exact zero is skipped, as `+`
        folds it.  The leaf partials a_K.partial(l1)...partial(ld) are evaluated
        once per batch, whichever axes ask for them.
        """
        if not axes:
            vals = leaves.get(outer)
            if vals is None:
                fields = self.a.components.values()
                for l in outer:
                    fields = [f.partial(l) for f in fields]
                vals = leaves[outer] = [None if f is _ZERO else f.fn(y) for f in fields]
            return vals
        inner, j = axes[:-1], axes[-1]
        acc = [None] * len(self.a.components)
        for l, c in enumerate(self.tau.constant_jacobian[j - 1], 1):
            c = complex(c)
            for k, value in enumerate(self._chain_rule(y, leaves, inner, (l,) + outer)):
                if value is not None:
                    if c != 1.0:
                        value = c * value
                    acc[k] = value if acc[k] is None else acc[k] + value
        return acc


class _PullbackCoefficient(ScalarField):
    """Row i of a pullback's coefficients, or of their partials along the source
    axes `axes`; along a curved map it has no rule (and no axes)."""

    __slots__ = ("pull", "i", "axes")
    partial_rule = None

    def __init__(self, pull, i, axes=()):
        self.pull = pull
        self.i = i
        self.axes = axes
        self._cache = None

    def fn(self, v):
        return self.pull.rows(v, self.axes)[self.i]


class _AffinePullbackCoefficient(_PullbackCoefficient):
    __slots__ = ()

    def partial_rule(self, j):
        return _AffinePullbackCoefficient(self.pull, self.i, self.axes + (j,))


def pullback(tau: SmoothMap, a: FieldForm) -> FieldForm:
    """Pullback along tau: coefficient I is sum_K minor(I, K) a_K(tau(v)).

    One evaluator per pullback contracts the compound of the Jacobian with all
    components of `a`, evaluated once per point batch, and keeps the last batch:
    each coefficient reads its row, so nested pullbacks cost linear in depth.
    Along an affine map the compound is constant, kept by the map per degree,
    and the coefficients differentiate exactly: a partial of any order reads
    its row from the same evaluator, which chain-rules the partials of `a`.
    """
    if a.kind == "grid":
        raise ValueError("pullback needs the callable representation")
    if a.N != tau.target_dim:
        raise ValueError("form dimension does not match map target")
    N_src, q = tau.source_dim, a.q
    if not 0 <= q <= N_src:
        return FieldForm._of_ordered(N_src, q, {})
    J = tau.constant_jacobian
    pull = _Pullback(tau, a, None if J is None else tau._kept(q, _compound, J.T, q))
    node = _PullbackCoefficient if J is None else _AffinePullbackCoefficient
    return FieldForm._of_ordered(N_src, q, {I: node(pull, i)
                                            for i, I in enumerate(enumerate_ordered(q, N_src))})


_PROBE_OFFSETS = (0.0, 0.37, -0.29)


def _oriented(tau: SmoothMap) -> bool:
    """Whether the Jacobian determinant is positive: the constant one, else at
    each probe point; by slogdet's sign, which no underflow sets to zero."""
    if tau.constant_jacobian is not None:
        jacobians = [tau.constant_jacobian]
    else:
        jacobians = (tau.jac(np.full(tau.source_dim, t)) for t in _PROBE_OFFSETS)
    return all(np.linalg.slogdet(J)[0] > 0 for J in jacobians)


def _require_orientation(tau: SmoothMap):
    if tau.source_dim != tau.target_dim:
        raise ValueError("material transformations need a square map")
    if tau.inverse is None:
        raise ValueError("material transformations need an invertible map")
    if not tau._kept("oriented", _oriented, tau):
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


def _field(doc, name: str, where: str = ""):
    if not isinstance(doc, dict) or name not in doc:
        raise ValueError(f"grid form: missing field '{where}{name}'")
    return doc[name]


def _numbers(value, field: str, shape: tuple) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"grid form: field '{field}' must hold numbers") from None
    if arr.shape != shape:
        raise ValueError(f"grid form: field '{field}' has shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():  # json.loads reads NaN and Infinity
        raise ValueError(f"grid form: field '{field}' must hold finite numbers")
    return arr


def grid_form_from_json(text: str) -> FieldForm:
    """Read a grid form written by `grid_form_to_json`.

    A malformed document raises a ValueError that names the field at fault.
    """
    doc = json.loads(text)
    N, q = _field(doc, "N"), _field(doc, "q")
    if type(N) is not int or type(q) is not int:
        raise ValueError("grid form: fields 'N' and 'q' must be integers")
    grid = _field(doc, "grid")
    shape = _field(grid, "shape", "grid.")
    if not (isinstance(shape, list) and len(shape) == N
            and all(type(n) is int and n > 0 for n in shape)):
        raise ValueError(f"grid form: field 'grid.shape' must list N = {N} positive integers")
    shape = tuple(shape)
    spacing, origin = (tuple(_numbers(_field(grid, name, "grid."), "grid." + name, (N,)).tolist())
                       for name in ("spacing", "origin"))
    if not all(h > 0 for h in spacing):
        raise ValueError("grid form: field 'grid.spacing' must be positive")
    entries = _field(doc, "components")
    if not isinstance(entries, dict):
        raise ValueError("grid form: field 'components' must be an object")
    components = {}
    for key, payload in entries.items():
        where = f"components.{key}"
        re, im = (_numbers(_field(payload, part, where + "."), f"{where}.{part}", shape)
                  for part in ("re", "im"))
        try:
            index = _key_parse(key)
        except ValueError as exc:
            raise ValueError(f"grid form: bad key '{where}': {exc}") from None
        components[index] = GridScalar(re + 1j * im, spacing, origin)
    return FieldForm.from_grid(N, q, components, spacing, origin)

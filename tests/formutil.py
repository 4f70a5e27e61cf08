"""Random test forms, residual measurement, the out-of-place oracles of the
exterior operators and of pullback partials, the per-index radial eigenvalue
oracle, the einsum oracle of P1 assembly, the strip-by-strip oracle of the
ring mesh, and a thread race runner, shared by the tests."""

import functools
import math
import operator
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy import sparse

from maxforms.dnfields import (
    TWO_PI,
    DiskMesh,
    _boundary_angles,
    _relative,
    _ring_angles,
)
from maxforms.exterior import FieldForm, GridScalar, ScalarField, evaluate, hodge, pullback
from maxforms.multiindex import (
    codiff_table,
    derivative_table,
    enumerate_ordered,
    sign_constants,
    wedge_table,
)
from maxforms.regularity import _M_PHI
from maxforms.spectrum1d import _tridiagonal_eigenvalues
from maxforms.spectrum2d import HALF_ARC, _angular_nodes, _on_grid, _radial_operator


def coordinate(axis):
    """The field x_axis (1-based)."""
    return ScalarField(
        lambda x: x[axis - 1], lambda j: ScalarField.constant(1.0 if j == axis else 0.0)
    )


def radial_power(exponent):
    """|x|^exponent away from the origin."""
    a = float(exponent)
    return ScalarField(
        lambda x: np.hypot.reduce(x) ** a,
        lambda axis: a * (coordinate(axis) * radial_power(a - 2.0)),
    )


def random_scalar_field(N, rng, n_terms=2, max_freq=2, field=ScalarField):
    """Sum of harmonic waves with integer frequencies; derivatives exact to any order."""
    f = None
    for _ in range(n_terms):
        freqs = rng.integers(-max_freq, max_freq + 1, N)
        amp = rng.normal() + 1j * rng.normal()
        term = field.harmonic(freqs, rng.uniform(0.0, 2.0 * np.pi), amp)
        f = term if f is None else f + term
    return f


def random_callable_form(N, q, rng, n_terms=2, max_freq=2, field=ScalarField):
    """`field=ClosurePairField` draws the same form from the same generator
    state, in the closure-pair algebra."""
    comps = {
        I: random_scalar_field(N, rng, n_terms, max_freq, field)
        for I in enumerate_ordered(q, N)
    }
    return FieldForm.from_callable(N, q, comps)


class ClosurePairField(ScalarField):
    """Oracle of the node algebra: every sum, product, scaling, constant and
    harmonic is a leaf holding two closures (its `fn` and its `partial_rule`)
    and an eager partial cache, so an expression costs about eight objects the
    cyclic collector tracks per node, where a node costs one."""

    __slots__ = ()

    def __init__(self, fn, partial_rule=None):
        self.fn = fn
        self.partial_rule = partial_rule
        self._cache = {}

    def zero_like(self):
        return ClosurePairField.constant(0.0)

    def __add__(self, other):
        if not isinstance(other, ScalarField):
            return NotImplemented
        return ClosurePairField(
            lambda x: self.fn(x) + other.fn(x),
            lambda axis: self.partial(axis) + other.partial(axis),
        )

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            return ClosurePairField(
                lambda x: self.fn(x) * other.fn(x),
                lambda axis: self.partial(axis) * other + self * other.partial(axis),
            )
        c = complex(other)
        if c == 1.0:
            return self
        return ClosurePairField(lambda x: c * self.fn(x), lambda axis: c * self.partial(axis))

    __rmul__ = __mul__

    @staticmethod
    def constant(c):
        c = complex(c)
        return ClosurePairField(lambda x: c, lambda axis: ClosurePairField.constant(0.0))

    @staticmethod
    def harmonic(freqs, phase=0.0, amp=1.0):
        k = np.asarray(freqs, dtype=float)
        a = complex(amp)
        terms = [(i, float(c)) for i, c in enumerate(k) if c]

        def fn(x):
            arg = phase
            for i, c in terms:
                arg = arg + c * x[i]
            return a * np.cos(arg)

        return ClosurePairField(
            fn, lambda axis: ClosurePairField.harmonic(k, phase + np.pi / 2.0, a * k[axis - 1])
        )


def race(work, count=4):
    """[work(0), ..., work(count - 1)], each on its own thread, all released
    together, more threads than cores and switching every microsecond.  A
    thread that raises raises here; one that does not finish in time fails."""
    start = threading.Barrier(count, timeout=60)

    def run(i):
        start.wait()
        return work(i)

    pool = ThreadPoolExecutor(count)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [pool.submit(run, i) for i in range(count)]
        return [done.result(timeout=120) for done in runs]
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown(wait=False)


def random_grid_form(N, q, rng, shape=None, spacing=None, integer=False):
    if shape is None:
        shape = (6,) * N
    if spacing is None:
        spacing = (2.0 ** -4,) * N
    comps = {}
    for I in enumerate_ordered(q, N):
        if integer:
            arr = rng.integers(0, 1024, shape).astype(np.complex128)
        else:
            arr = rng.uniform(1.0, 2.0, shape) + 1j * rng.uniform(1.0, 2.0, shape)
        comps[I] = GridScalar(arr, spacing)
    return FieldForm.from_grid(N, q, comps, spacing)


def sample_points(N, rng, count=3, lo=0.2, hi=0.8):
    return [rng.uniform(lo, hi, N) for _ in range(count)]


def form_max_abs(form, points):
    worst = 0.0
    for x in points:
        vals = evaluate(form, x)
        for v in vals.values():
            worst = max(worst, abs(v))
    return worst


def form_max_diff(a, b, points):
    worst = 0.0
    for x in points:
        va, vb = evaluate(a, x), evaluate(b, x)
        keys = set(va) | set(vb)
        for k in keys:
            worst = max(worst, abs(va.get(k, 0.0) - vb.get(k, 0.0)))
    return worst


def per_index(angular, M, count, bc):
    """The lowest min(count, M) radial eigenvalues, one bisection per index."""
    diag, off = _radial_operator(angular, M, bc)
    return [_tridiagonal_eigenvalues(diag, off, j, j)[0] for j in range(min(count, M))]


def interior(values: np.ndarray, margin: int) -> np.ndarray:
    """Strip the last `margin` slices along every axis (wrap-affected region)."""
    return values[tuple(slice(0, n - margin) for n in values.shape)]


def grid_max_abs(form, margin=0):
    worst = 0.0
    for v in form.components.values():
        vals = interior(v.values, margin)
        if vals.size:
            worst = max(worst, float(np.max(np.abs(vals))))
    return worst


def grid_ring_energies(partials, r):
    """Oracle of regularity._ring_energies: per radius, the midpoint rule in
    angle over each partial sampled on the (r, phi) grid, its squared modulus
    summed."""
    rows = np.zeros(len(r))
    for vals in _on_grid(partials, r, _angular_nodes(_M_PHI)):
        rows += np.sum(np.abs(vals) ** 2, axis=1)
    return (HALF_ARC / _M_PHI) * rows


# -- the out-of-place grid route -------------------------------------------
#
# Every term is signed as `sign * x` (a negated copy for -1) and the terms are
# summed left to right by `+`, one new array per step.  The operators sum in
# place and must agree with these entry for entry.


def out_of_place_sum(N, q, table, term, *operands):
    zero = next(v.zero_like for f in operands for v in f.components.values())
    out = {}
    for K, entries in table:
        terms = [term(*entry) for entry in entries]
        out[K] = functools.reduce(operator.add, terms) if terms else zero()
    return FieldForm(N, q, out)


def out_of_place_ext_d(a):
    return out_of_place_sum(a.N, a.q + 1, derivative_table(a.q, a.N),
                            lambda lower, j, sign: sign * a.components[lower].partial(j), a)


def out_of_place_codiff(a):
    return sign_constants(a.q, a.N).codiff_sign * hodge(out_of_place_ext_d(hodge(a)))


def out_of_place_codiff_expansion(a):
    return out_of_place_sum(a.N, a.q - 1, codiff_table(a.q, a.N),
                            lambda upper, j, sign: sign * a.components[upper].partial(j), a)


def out_of_place_wedge(a, b):
    return out_of_place_sum(a.N, a.q + b.q, wedge_table(a.q, b.q, a.N),
                            lambda I, J, sign: sign * (a.components[I] * b.components[J]),
                            a, b)


# -- the chain-ruled pullback route ----------------------------------------------


def chain_ruled_pullback(tau, a, axes=()):
    """Oracle of the partials of pullback(tau, a) along an affine tau, taken
    along the source axes `axes`, the first taken first: for each j in turn,
    d/dv_j a(tau(v)) = sum_l J[j, l] (d_l a)(tau(v)), so the pullback of the
    form whose components are the trees sum_l J[j, l] * a_K.partial(l), summed
    left to right by `+` and scaled by `*`."""
    for j in axes:
        row = tau.constant_jacobian[j - 1]
        a = a.map_components(lambda f: functools.reduce(
            operator.add, (float(c) * f.partial(l) for l, c in enumerate(row, 1))))
    return pullback(tau, a)


def einsum_p1_stiffness(mesh) -> sparse.csr_matrix:
    """P1 stiffness with the local matrices contracted by einsum over the
    turned edge vectors; the same COO entries as `dnfields.p1_stiffness`."""
    p = mesh.points[mesh.triangles]
    e0 = p[:, 2] - p[:, 1]
    e1 = p[:, 0] - p[:, 2]
    e2 = p[:, 1] - p[:, 0]
    area2 = e2[:, 0] * (-e1)[:, 1] - e2[:, 1] * (-e1)[:, 0]  # twice the area
    grads = np.stack([e0, e1, e2], axis=1)[:, :, ::-1] * np.array([-1.0, 1.0])
    grads = grads / area2[:, None, None]
    local = np.einsum("tic,tjc->tij", grads, grads) * (0.5 * area2)[:, None, None]
    rows = np.repeat(mesh.triangles, 3, axis=1).reshape(-1)
    cols = np.tile(mesh.triangles, (1, 3)).reshape(-1)
    A = sparse.coo_matrix(
        (local.reshape(-1), (rows, cols)),
        shape=(len(mesh.points), len(mesh.points)),
    )
    return A.tocsr()


# -- the ring mesh stitched strip by strip ------------------------------------------


def stitch(inner_idx, inner_ang, outer_idx, outer_ang, anchor):
    """Triangulate the strip between two rings by merging angles, each ring
    sorted by its quantized angle first; the inner ring takes every tie."""
    ia = np.argsort(_relative(inner_ang, anchor))
    oa = np.argsort(_relative(outer_ang, anchor))
    inner_idx, inner_ang = inner_idx[ia], _relative(inner_ang[ia], anchor)
    outer_idx, outer_ang = outer_idx[oa], _relative(outer_ang[oa], anchor)
    n, m = len(inner_idx), len(outer_idx)
    # each step advances the ring whose next angle comes first; listing the
    # inner keys first makes the stable sort give the inner ring every tie
    keys = np.concatenate([inner_ang[1:], [TWO_PI + inner_ang[0]],
                           outer_ang[1:], [TWO_PI + outer_ang[0]]])
    inner_step = np.argsort(keys, kind="stable") < n
    i = np.cumsum(inner_step) - inner_step
    j = np.arange(n + m) - i
    third = np.where(inner_step, inner_idx[(i + 1) % n], outer_idx[(j + 1) % m])
    return np.column_stack([inner_idx[i % n], outer_idx[j % m], third])


def per_strip_disk_mesh(partition, h, stitch=stitch) -> DiskMesh:
    """Oracle of `dnfields.disk_mesh`: the same rings, each strip between two
    of them triangulated on its own by `stitch`."""
    rings = max(3, int(round(1.0 / h)))
    step = 1.0 / rings
    anchor = partition.anchor

    radii = np.arange(1, rings + 1) * step
    ring_ang = [
        _ring_angles(max(6, math.ceil(TWO_PI * radius / step)), anchor)
        for radius in radii[:-1]
    ] + [_boundary_angles(partition, step)]
    sizes = [len(ang) for ang in ring_ang]
    ends = np.cumsum([1] + sizes)  # node 0 is the centre
    ring_idx = [np.arange(lo, hi) for lo, hi in zip(ends[:-1], ends[1:])]
    radius, ang = np.repeat(radii, sizes), np.concatenate(ring_ang)
    points = np.vstack([
        [0.0, 0.0], np.column_stack([radius * np.cos(ang), radius * np.sin(ang)])
    ])

    first = ring_idx[0]
    fan = np.column_stack([np.zeros_like(first), first, np.roll(first, -1)])
    triangles = np.concatenate([fan] + [
        stitch(ring_idx[j], ring_ang[j], ring_idx[j + 1], ring_ang[j + 1], anchor)
        for j in range(rings - 1)
    ])
    p = points[triangles]
    u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    flip = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0] < 0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    return DiskMesh(
        points=points,
        triangles=triangles,
        boundary_nodes=ring_idx[-1],
        boundary_angles=np.asarray(ring_ang[-1]) % TWO_PI,
        spacing=step,
        node_rings=np.repeat(np.arange(rings + 1), [1] + sizes),
        node_angles=np.concatenate([[0.0], _relative(ang, anchor)]),
    )

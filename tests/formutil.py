"""Shared builders for random test forms and residual measurement."""

import numpy as np

from maxforms.exterior import FieldForm, GridScalar, ScalarField, evaluate
from maxforms.multiindex import enumerate_ordered
from maxforms.regularity import _M_PHI
from maxforms.spectrum2d import HALF_ARC, _angular_nodes, _on_grid


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


def random_scalar_field(N, rng, n_terms=2, max_freq=2):
    """Sum of harmonic waves with integer frequencies; derivatives exact to any order."""
    f = None
    for _ in range(n_terms):
        freqs = rng.integers(-max_freq, max_freq + 1, N)
        amp = rng.normal() + 1j * rng.normal()
        term = ScalarField.harmonic(freqs, rng.uniform(0.0, 2.0 * np.pi), amp)
        f = term if f is None else f + term
    return f


def random_callable_form(N, q, rng, n_terms=2, max_freq=2):
    comps = {
        I: random_scalar_field(N, rng, n_terms, max_freq)
        for I in enumerate_ordered(q, N)
    }
    return FieldForm.from_callable(N, q, comps)


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

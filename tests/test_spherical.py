"""Polar splitting on half circles and sphere-relation residuals.

Oracles: `tau_check` and `rho_check`, the right inverses of the tangential
and radial extractions, embed circle data back into Cartesian forms.
"""

import math

import numpy as np
import pytest

from maxforms.exterior import FieldForm, ScalarField, evaluate
from maxforms.multiindex import enumerate_ordered
from maxforms.spherical import sphere_relation_residuals, split_circle

from formutil import random_callable_form, random_scalar_field

RNG = np.random.default_rng(52)


def away_from_origin(N, count=3):
    pts = []
    while len(pts) < count:
        x = RNG.uniform(-1.0, 1.0, N)
        if np.linalg.norm(x) > 0.4:
            pts.append(x)
    return pts


def _polar(x):
    return np.hypot(x[0], x[1]), np.arctan2(x[1], x[0])


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


# -- circle realization ----------------------------------------------------------


def _cartesian_grid(r, phi):
    R, P = np.meshgrid(r, phi, indexing="ij")
    return R, P, np.array([R * np.cos(P), R * np.sin(P)])


def test_split_circle_roundtrip_tau():
    g = lambda r, phi: r**2 * np.cos(phi) + 0.3j * r
    r, phi = np.array([0.5, 0.9, 1.3]), np.array([0.3, 2.1, 1.0])
    R, P, _ = _cartesian_grid(r, phi)
    for q in (0, 1):
        rho, tau = split_circle(tau_check(q, g), r, phi)
        assert np.max(np.abs(tau - g(R, P))) <= 1e-13
        assert np.max(np.abs(rho)) <= 1e-13


def test_split_circle_roundtrip_rho():
    f = lambda r, phi: np.sin(phi) * r + 1.0j * np.cos(2 * phi)
    r, phi = np.array([0.5, 0.9]), np.array([0.3, 2.1])
    R, P, _ = _cartesian_grid(r, phi)
    for q in (1, 2):
        rho, tau = split_circle(rho_check(q, f), r, phi)
        assert np.max(np.abs(rho - f(R, P))) <= 1e-13
        assert np.max(np.abs(tau)) <= 1e-13


def test_split_of_full_form_combines_parts():
    E = random_callable_form(2, 1, RNG)
    r, phi = zip(*(_polar(x) for x in away_from_origin(2)))
    _, P, x = _cartesian_grid(r, phi)
    rho, tau = split_circle(E, r, phi)
    # the polar frame rotated back onto dx1 and dx2
    rebuilt = {(1,): rho * np.cos(P) - tau * np.sin(P), (2,): rho * np.sin(P) + tau * np.cos(P)}
    for key, values in rebuilt.items():
        assert np.max(np.abs(values - E.components[key](x))) < 1e-12


def test_checks_are_pointwise_isometric():
    # orthonormal frame: embedded components carry exactly the circle data size
    g = lambda r, phi: math.cos(0.5 * phi) + 0.2j * r
    F = tau_check(1, g)
    for r, phi in [(0.4, 0.2), (1.1, 2.8)]:
        x = np.array([r * math.cos(phi), r * math.sin(phi)])
        vals = evaluate(F, x)
        total = sum(abs(v) ** 2 for v in vals.values())
        assert total == pytest.approx(abs(g(r, phi)) ** 2, abs=1e-13)


# -- sphere relations -------------------------------------------------------------


def test_grid_sampling_matches_pointwise_loop():
    r = np.linspace(0.25, 1.0, 64)
    phi = np.linspace(0.05, 3.1, 64)
    constant = FieldForm.from_callable(2, 0, {(): ScalarField.constant(0.3 - 1.0j)})
    for E in (constant, *(random_callable_form(2, q, RNG) for q in (0, 1, 2))):
        batch = split_circle(E, r, phi)
        loop = np.zeros((2, 64, 64), dtype=complex)
        for i, ri in enumerate(r):
            for j, pj in enumerate(phi):
                loop[:, i, j] = np.ravel(split_circle(E, [ri], [pj]))
        assert np.array_equal(np.array(batch), loop)


@pytest.mark.parametrize("q", [0, 1, 2])
def test_sphere_relations_second_order(q):
    E = random_callable_form(2, q, RNG, n_terms=2, max_freq=1)
    res = {m: sphere_relation_residuals(E, mr=m, mphi=m) for m in (16, 32, 64)}
    for key in ("rho_div", "tau_div", "rho_rot", "tau_rot"):
        seq = [res[m][key] for m in (16, 32, 64)]
        if seq[0] < 1e-12:
            # relation is trivial for this degree
            assert all(s < 1e-12 for s in seq)
            continue
        order_a = math.log2(seq[0] / seq[1])
        order_b = math.log2(seq[1] / seq[2])
        assert order_a == pytest.approx(2.0, abs=0.3)
        assert order_b == pytest.approx(2.0, abs=0.3)


def test_nontrivial_relations_by_degree():
    # every relation is exercised by some degree
    seen = {k: False for k in ("rho_div", "tau_div", "rho_rot", "tau_rot")}
    for q in (0, 1, 2):
        E = random_callable_form(2, q, RNG, max_freq=1)
        res = sphere_relation_residuals(E, mr=24, mphi=24)
        for k, v in res.items():
            if v > 1e-12:
                seen[k] = True
    assert all(seen.values())


def _counted_form(q, rng):
    """A random q-form whose components count their evaluations; the partials
    are the analytic ones of the uncounted fields."""
    calls = dict.fromkeys(enumerate_ordered(q, 2), 0)
    comps = {}
    for key in calls:
        f = random_scalar_field(2, rng)

        def fn(x, f=f, key=key):
            calls[key] += 1
            return f.fn(x)

        comps[key] = ScalarField(fn, f.partial)
    return FieldForm.from_callable(2, q, comps), calls


@pytest.mark.parametrize("q", [0, 1, 2])
def test_each_component_is_evaluated_once(q):
    E, calls = _counted_form(q, np.random.default_rng(14 + q))
    split_circle(E, np.linspace(0.3, 1.0, 5), np.linspace(0.1, 3.0, 7))
    assert calls == dict.fromkeys(calls, 1)
    sphere_relation_residuals(E, mr=16, mphi=16)
    assert calls == dict.fromkeys(calls, 2)

"""Polar splitting on half circles and sphere-relation residuals.

Oracles: `tau_check` and `rho_check`, the right inverses of the tangential
and radial extractions, embed circle data back into Cartesian forms.
"""

import math

import numpy as np
import pytest

from maxforms.exterior import FieldForm, ScalarField, evaluate
from maxforms.spherical import _sample, sphere_relation_residuals, split_circle

from formutil import form_max_diff, random_callable_form

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


def test_split_circle_roundtrip_tau():
    g = lambda r, phi: r**2 * math.cos(phi) + 0.3j * r
    for q in (0, 1):
        F = tau_check(q, g)
        sp = split_circle(F)
        for r, phi in [(0.5, 0.3), (0.9, 2.1), (1.3, 1.0)]:
            assert sp.tau(r, phi) == pytest.approx(g(r, phi), abs=1e-13)
            if sp.rho is not None:
                assert abs(sp.rho(r, phi)) < 1e-13


def test_split_circle_roundtrip_rho():
    f = lambda r, phi: math.sin(phi) * r + 1.0j * math.cos(2 * phi)
    for q in (1, 2):
        F = rho_check(q, f)
        sp = split_circle(F)
        for r, phi in [(0.5, 0.3), (0.9, 2.1)]:
            assert sp.rho(r, phi) == pytest.approx(f(r, phi), abs=1e-13)
            if sp.tau is not None:
                assert abs(sp.tau(r, phi)) < 1e-13


def test_split_of_full_form_combines_parts():
    E = random_callable_form(2, 1, RNG)
    sp = split_circle(E)
    rebuilt = rho_check(1, sp.rho) + tau_check(1, sp.tau)
    assert form_max_diff(rebuilt, E, away_from_origin(2)) < 1e-12


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
        sp = split_circle(E)
        for fn in (sp.rho, sp.tau):
            loop = np.zeros((64, 64), dtype=complex)
            if fn is not None:
                for i, ri in enumerate(r):
                    for j, pj in enumerate(phi):
                        loop[i, j] = fn(ri, pj)
            assert np.array_equal(_sample(fn, r, phi), loop)


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

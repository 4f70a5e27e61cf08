"""Radial operators, polar splitting, and sphere-relation residuals."""

import math

import numpy as np
import pytest

from maxforms.exterior import FieldForm, ScalarField, evaluate, hodge, wedge
from maxforms.spherical import (
    RadialProfile,
    _sample,
    SequenceSpaceElement,
    dr_form,
    polar_inner,
    position_form,
    radial_contract,
    radial_grid,
    radial_scale,
    radial_wedge,
    reconstruct_ambient,
    rho_check,
    sphere_relation_residuals,
    split_ambient,
    split_circle,
    tau_check,
    weighted_inner,
)

from formutil import form_max_abs, form_max_diff, random_callable_form, sample_points

RNG = np.random.default_rng(52)


def away_from_origin(N, count=3):
    pts = []
    while len(pts) < count:
        x = RNG.uniform(-1.0, 1.0, N)
        if np.linalg.norm(x) > 0.4:
            pts.append(x)
    return pts


# -- ambient operators ---------------------------------------------------------


def test_contract_kills_zero_forms():
    f = random_callable_form(3, 0, RNG)
    out = radial_contract(f)
    assert out.q == -1 and out.components == {}


def test_contract_of_coordinate_form():
    # contraction of dx^1 is the first coordinate
    E = FieldForm.from_callable(2, 1, {(1,): ScalarField.constant(1.0)})
    out = radial_contract(E)
    x = np.array([0.0, 1.0])
    assert evaluate(out, x)[()] == pytest.approx(0.0)
    x = np.array([0.7, -0.2])
    assert evaluate(out, x)[()] == pytest.approx(0.7)


@pytest.mark.parametrize("N,q", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 2)])
def test_wedge_contract_adjoint_pointwise(N, q):
    # E ^ star(X ^ H) equals (contraction of E) ^ star H for H one degree down
    E = random_callable_form(N, q, RNG)
    H = random_callable_form(N, q - 1, RNG)
    lhs = wedge(E, hodge(radial_wedge(H)))
    rhs = wedge(radial_contract(E), hodge(H))
    assert form_max_diff(lhs, rhs, away_from_origin(N)) < 1e-12


@pytest.mark.parametrize("N,q", [(2, 0), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_anticommutator_is_radius_squared(N, q):
    E = random_callable_form(N, q, RNG)
    lhs = radial_wedge(radial_contract(E)) + radial_contract(radial_wedge(E))
    rhs = radial_scale(E, 2.0)
    assert form_max_diff(lhs, rhs, away_from_origin(N)) < 1e-12


@pytest.mark.parametrize("N,q", [(2, 1), (3, 1), (3, 2)])
def test_split_reconstructs(N, q):
    E = random_callable_form(N, q, RNG)
    E_rho, E_tau = split_ambient(E)
    assert E_rho.q == q - 1 and E_tau.q == q
    back = reconstruct_ambient(E_rho, E_tau)
    assert form_max_diff(back, E, away_from_origin(N)) < 1e-12


def test_dr_is_unit_length():
    dr = dr_form(3)
    for x in away_from_origin(3):
        vals = evaluate(dr, x)
        norm_sq = sum(abs(v) ** 2 for v in vals.values())
        assert norm_sq == pytest.approx(1.0, abs=1e-13)


def test_radial_scale_matches_norm():
    E = random_callable_form(2, 1, RNG)
    scaled = radial_scale(E, 1.0)
    for x in away_from_origin(2):
        r = np.linalg.norm(x)
        va, vs = evaluate(E, x), evaluate(scaled, x)
        for k in va:
            assert vs[k] == pytest.approx(r * va[k], abs=1e-13)


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


def test_rho_check_is_dr_wedge_tau_check():
    g = lambda r, phi: r * math.cos(phi) - 0.4j
    lhs = rho_check(2, g)
    rhs = wedge(dr_form(2), tau_check(1, g))
    assert form_max_diff(lhs, rhs, away_from_origin(2)) < 1e-12


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


# -- grids and inner products -----------------------------------------------------


def test_radial_grid_offsets():
    r = radial_grid(10, 2.0)
    assert r[0] == pytest.approx(0.1)
    assert r[-1] == pytest.approx(1.9)
    assert np.all(r > 0) and np.all(r < 2.0)


def test_weighted_inner_against_closed_form():
    # integral of r^(N-1) * r over (0,1) is 1/(N+1)
    M = 2000
    r = radial_grid(M, 1.0)
    for N in (1, 2, 3):
        val = weighted_inner(r, np.ones(M), N)
        assert val.real == pytest.approx(1.0 / (N + 1), abs=5e-7)


def test_weighted_inner_profiles_and_conjugation():
    M = 500
    r = radial_grid(M, 1.0)
    u = RadialProfile(r + 1j * r**2)
    v = RadialProfile(np.ones(M))
    val = weighted_inner(u, v, 2)
    # integral of r^2 + i r^3 over (0,1)
    assert val.real == pytest.approx(1.0 / 3, abs=1e-5)
    assert val.imag == pytest.approx(1.0 / 4, abs=1e-5)
    assert weighted_inner(v, u, 2) == pytest.approx(np.conj(val), abs=1e-12)


def test_polar_inner_matches_tensor_product():
    mr, mphi = 400, 300
    r = radial_grid(mr, 1.0)
    phi = (np.arange(1, mphi + 1) - 0.5) * (math.pi / mphi)
    U = np.outer(r, np.cos(phi / 2))
    val = polar_inner(U, U, N=2)
    # int r^3 dr * int cos^2(phi/2) dphi = (1/4) * (pi/2)
    assert val.real == pytest.approx(math.pi / 8, rel=1e-4)


def test_sequence_space_norm():
    M = 1000
    r = radial_grid(M, 1.0)
    elem = SequenceSpaceElement(
        profiles={1: RadialProfile(np.ones(M)), 2: RadialProfile(r)},
        weight_power=1.0,
    )
    # 1/2 + 1/4
    assert elem.norm_sq() == pytest.approx(0.75, abs=1e-5)


def test_multiplication_by_weighted_factor_is_continuous():
    # radial factor r^(-1/4) is square integrable against the r weight;
    # multiplication keeps convergent sequences convergent
    M = 4000
    r = radial_grid(M, 1.0)
    phi_factor = r ** (-0.25)
    target = np.cos(3 * r)
    wobble = np.sin(2 * r) + 0.5
    gaps = []
    for k in (1, 2, 4, 8, 16):
        approx = target + wobble / k
        diff = phi_factor * approx - phi_factor * target
        gaps.append(math.sqrt(abs(weighted_inner(diff, diff, 2))))
    for a, b in zip(gaps, gaps[1:]):
        assert b < a
    assert gaps[-1] == pytest.approx(gaps[0] / 16, rel=1e-10)

import dataclasses
import gc
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import eigsh

from maxforms import bessel, cli, spectrum2d
from maxforms.bessel import eval_j, zeros_j, zeros_jprime
from maxforms.exterior import codiff, ext_d
from maxforms.regularity import classify
from maxforms.spectrum1d import _tridiagonal_eigenvalues, fd_eigenvalue_closed_form
from maxforms.spectrum2d import (
    AngularPart,
    AngularTerm,
    PolarScalar,
    RadialFactor,
    _angular_nodes,
    _radial_operator,
    analytic_eigenform,
    base_frequency,
    cartesian_components,
    coeff_ode_residuals,
    extract_coefficients,
    gram_matrix_2d,
    maxwell_residual_2d,
    project_angular,
    radial_eigensolve,
    radial_nodes,
    radial_spectrum,
    reference_eigenvalues,
    reference_modes,
    to_field_form,
    trace_families,
    zaremba2d_eigensolve,
)

from formutil import per_index, race

# roots of tan x = x and tan x = 2x, bisected independently in the bessel suite
ROOT_TAN_EQ_X = 4.493409457909064
ROOT_TAN_EQ_2X = 1.165561185207211


def test_base_frequencies_match_independent_roots():
    assert abs(base_frequency(0, 1, 1) - math.pi) <= 1e-10
    assert abs(base_frequency(0, 1, 2) - 2 * math.pi) <= 1e-10
    assert abs(base_frequency(0, 2, 1) - ROOT_TAN_EQ_X) <= 1e-10
    assert abs(base_frequency(1, 1, 1) - ROOT_TAN_EQ_2X) <= 1e-10


def test_radial_algebra_derivative_matches_differences():
    terms = [
        (1.3, RadialFactor(-1.0, 2, 5.1)),
        (-0.4 + 0.2j, RadialFactor(2.0, 1, 3.3)),
        (0.7, RadialFactor(3.0)),
    ]

    def part(r):
        return sum(c * F(r) for c, F in terms)

    def dpart(r):
        return sum(c * d * G(r) for c, F in terms for d, G in F.derivative())

    r = np.linspace(0.3, 0.9, 7)
    h = 1e-6
    fd = (part(r + h) - part(r - h)) / (2 * h)
    assert np.max(np.abs(dpart(r) - fd)) <= 1e-7


def test_angular_algebra_product_and_derivative():
    a = AngularPart([AngularTerm(1.5, 2.5, 0.3), AngularTerm(-0.2, 0.5, -1.0)])
    b = AngularPart([AngularTerm(0.8, 1.5, 0.1)])
    phi = np.linspace(0.1, 3.0, 9)
    assert np.max(np.abs(a.product(b)(phi) - a(phi) * b(phi))) <= 1e-13
    h = 1e-6
    fd = (a(phi + h) - a(phi - h)) / (2 * h)
    assert np.max(np.abs(a.derivative()(phi) - fd)) <= 1e-7


def test_cartesian_partials_match_differences():
    mode = analytic_eigenform(0, 2, 1, "H")
    ps = mode.parts["rho"]
    for axis in (1, 2):
        dps = ps.cartesian_partial(axis)
        for (x1, x2) in [(0.4, 0.3), (-0.2, 0.55), (0.1, 0.7)]:
            h = 1e-6
            dx = np.zeros(2)
            dx[axis - 1] = h
            r1, p1 = math.hypot(x1 + dx[0], x2 + dx[1]), math.atan2(x2 + dx[1], x1 + dx[0])
            r0, p0 = math.hypot(x1 - dx[0], x2 - dx[1]), math.atan2(x2 - dx[1], x1 - dx[0])
            fd = (ps(r1, p1) - ps(r0, p0)) / (2 * h)
            rr, pp = math.hypot(x1, x2), math.atan2(x2, x1)
            assert abs(dps(rr, pp) - fd) <= 1e-6


def _built_scalars(mode):
    """The frame parts, Cartesian components and Cartesian partials of a mode."""
    comps = cartesian_components(mode)
    partials = [ps.cartesian_partial(axis) for ps in comps.values() for axis in (1, 2)]
    return [*mode.parts.values(), *comps.values(), *partials]


@pytest.mark.parametrize("role", ["E", "H"])
@pytest.mark.parametrize("q", [0, 1])
@pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (7, 2)])
def test_polar_scalars_keep_one_angular_sum_per_radial_factor(q, n, m, role):
    for ps in _built_scalars(analytic_eigenform(q, n, m, role)):
        factors = [R for R, _ in ps.pairs]
        assert len(set(factors)) == len(factors)
        assert all(A.terms for _, A in ps.pairs)


@pytest.fixture
def passes(monkeypatch, empty_stores) -> list:
    """(lo, hi, points) of every Bessel span pass spectrum2d makes in the
    test, starting from empty stores."""
    passes = []

    def counted(lo, hi, x):
        passes.append((lo, hi, np.size(x)))
        return bessel._j_span(lo, hi, x)

    monkeypatch.setattr(spectrum2d, "_j_span", counted)
    return passes


@pytest.mark.parametrize("label", [(0, 1, 1, "H"), (1, 3, 2, "E")])
def test_evaluation_makes_one_bessel_pass_per_frequency(label, passes):
    n = label[1]
    comps = cartesian_components(analytic_eigenform(*label))
    partials = [ps.cartesian_partial(axis) for ps in comps.values() for axis in (1, 2)]
    r, phi = np.linspace(0.05, 0.95, 7)[:, None], np.linspace(0.1, 3.0, 9)[None, :]
    assert passes == []  # the normalization takes J from the zero scan's pass
    for ps in comps.values():
        ps(r, phi)
    assert passes == [(n, n + 1, 7)]  # J_n / r and J_(n+1), shared by both components
    for ps in partials:
        ps(r, phi)
    # the partials reach J_(n+2): one pass over the union serves all four
    assert passes == [(n, n + 1, 7), (n, n + 2, 7)]


def test_merged_sum_equals_the_sum_of_its_pieces():
    pieces = _built_scalars(analytic_eigenform(1, 3, 2, "E"))
    merged = pieces[0]
    for ps in pieces[1:]:
        merged = merged + ps
    assert len(merged.pairs) < sum(len(ps.pairs) for ps in pieces)
    rng = np.random.default_rng(12)
    r, phi = rng.uniform(0.05, 1.0, 40), rng.uniform(0.0, math.pi, 40)
    expected = sum(ps(r, phi) for ps in pieces)
    assert np.max(np.abs(merged(r, phi) - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("q", [0, 1])
@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (1, 2)])
def test_first_order_system_residuals(q, n, m):
    res = maxwell_residual_2d(q, n, m, samples=50)
    assert res["rot"] <= 1e-12
    assert res["div"] <= 1e-12


def test_one_form_family_is_divergence_free():
    E = to_field_form(analytic_eigenform(1, 2, 1, "E"))
    dE = codiff(E)
    for x in [(0.3, 0.2), (0.1, 0.6), (-0.4, 0.35)]:
        assert abs(dE.components[()](np.array(x))) <= 1e-12


def test_exterior_derivative_squares_to_zero_on_modes():
    E = to_field_form(analytic_eigenform(0, 1, 1, "E"))
    ddE = ext_d(ext_d(E))
    for x in [(0.3, 0.2), (-0.25, 0.5)]:
        assert abs(ddE.components[(1, 2)](np.array(x))) <= 1e-12


def test_unit_norms_all_four_families():
    for (q, n, m, role) in [
        (0, 1, 1, "E"), (0, 1, 1, "H"), (0, 2, 3, "E"), (0, 2, 3, "H"),
        (1, 1, 1, "E"), (1, 1, 1, "H"), (1, 3, 2, "E"), (1, 3, 2, "H"),
    ]:
        G = gram_matrix_2d([analytic_eigenform(q, n, m, role)])
        assert abs(G[0, 0] - 1.0) <= 1e-12


def test_cross_coefficients_collapse():
    mode = analytic_eigenform(0, 2, 1, "H")
    cs = extract_coefficients(mode, [1, 2, 3, 4], M_r=60, M_phi=128)
    for arr in cs.families.values():
        for i, n in enumerate(cs.n_list):
            if n != 2:
                assert np.max(np.abs(arr[i])) <= 1e-12


def test_own_coefficient_reproduces_radial_profile():
    mode = analytic_eigenform(0, 1, 2, "E")
    cs = extract_coefficients(mode, [1], M_r=80, M_phi=64)
    r = cs.nodes
    expected = (
        mode.normalization
        * eval_j(1, mode.omega * r)
        * math.sqrt(math.pi / 2.0)
    )
    assert np.max(np.abs(cs.families["c"][0] - expected)) <= 1e-12


@pytest.mark.parametrize("q,n,m", [(0, 1, 1), (0, 2, 2), (1, 1, 1), (1, 2, 2)])
def test_coefficient_relations_converge_second_order(q, n, m):
    coarse = coeff_ode_residuals(q, n, m, M_r=200)
    fine = coeff_ode_residuals(q, n, m, M_r=400)
    for key in coarse:
        if fine[key] <= 1e-12:
            continue  # algebraic relation, already at roundoff
        ratio = coarse[key] / fine[key]
        assert abs(ratio - 4.0) <= 0.7, (key, ratio)


def test_expansion_energy_matches_unit_norm():
    # Parseval with the metric weights: radial families carry r, tangential 1/r
    for (q, n, m, role) in [(0, 1, 1, "H"), (0, 3, 2, "H"), (1, 2, 1, "E")]:
        mode = analytic_eigenform(q, n, m, role)
        cs = extract_coefficients(mode, [n], M_r=2000, M_phi=64)
        r = cs.nodes
        h = r[1] - r[0]
        total = 0.0
        for letter, arr in cs.families.items():
            w = r if letter in ("c", "a") else 1.0 / r
            total += float(np.sum(np.abs(arr[0]) ** 2 * w) * h)
        assert abs(total - 1.0) <= 1e-6


def grid_extract_coefficients(mode, n_list, M_r, M_phi):
    """Oracle of the separable extraction: every trace sampled on the whole
    M_r x M_phi grid, then projected by project_angular."""
    r = radial_nodes(M_r)
    rg, pg = r[:, None], _angular_nodes(M_phi)[None, :]
    values = trace_families(mode.degree, rg,
                            **{k: ps(rg, pg) for k, ps in mode.parts.items()})
    return project_angular(values, n_list, r)


@pytest.mark.parametrize("role", ["E", "H"])
@pytest.mark.parametrize("q", [0, 1])
def test_separable_extraction_matches_grid_oracle(q, role):
    orders = range(1, 9)
    for n in range(1, 9):
        for m in (1, 2, 3):
            mode = analytic_eigenform(q, n, m, role)
            for M_r in (96, 400):
                got = extract_coefficients(mode, orders, M_r=M_r, M_phi=256)
                want = grid_extract_coefficients(mode, orders, M_r, 256)
                assert got.n_list == want.n_list and np.array_equal(got.nodes, want.nodes)
                assert got.families.keys() == want.families.keys()
                for letter, rows in want.families.items():
                    assert got.families[letter].shape == rows.shape
                    assert np.max(np.abs(got.families[letter] - rows)) <= 1e-13, (n, m, M_r)


def test_extraction_forms_no_radial_by_angular_grid():
    # the grid route would need a 200000 x 200000 complex temporary (640 GB)
    mode = analytic_eigenform(0, 3, 1, "H")
    start = time.perf_counter()
    cs = extract_coefficients(mode, [3], M_r=200_000, M_phi=200_000)
    assert time.perf_counter() - start <= 1.0
    assert {k: v.shape for k, v in cs.families.items()} == {"a": (1, 200_000), "d": (1, 200_000)}
    coarse = extract_coefficients(mode, [3], M_r=64, M_phi=256)
    # 3125 fine cells make one coarse cell, so fine node 3125 i + 1562 is coarse node i
    for letter, rows in coarse.families.items():
        assert np.max(np.abs(cs.families[letter][:, 1562::3125] - rows)) <= 1e-13


def test_angular_cells_are_raised_to_an_exact_count():
    # order 5 against order 1 aliases on 2 midpoints: n + k - 1 = 5 >= 2 * 2
    mode = analytic_eigenform(0, 5, 1, "E")
    few = extract_coefficients(mode, [1, 2, 5], M_r=3, M_phi=2)
    many = extract_coefficients(mode, [1, 2, 5], M_r=3, M_phi=256)
    assert np.max(np.abs(few.families["c"][:2])) <= 1e-12
    assert np.max(np.abs(few.families["c"][2] - many.families["c"][2])) <= 1e-12
    with pytest.raises(ValueError):
        extract_coefficients(mode, [1], M_phi=0)


def test_radial_solver_value_pinned_half_order():
    # nu = 1/2 eigenfunctions go like sqrt(r) at the center, which costs the
    # scheme an order; the error level stays far below the one-percent target
    targets = np.array([math.pi, 2 * math.pi, 3 * math.pi]) ** 2
    errs = []
    for M in (256, 512):
        sol = radial_eigensolve(1, M, 3, bc="dirichlet")
        errs.append(np.abs(sol.lambdas - targets) / targets)
    assert np.all(errs[1] <= 1e-3)
    assert np.all(errs[1] < errs[0])


def test_radial_solver_second_order_for_smoother_orders():
    targets = np.array([ROOT_TAN_EQ_X, 7.725251836937707]) ** 2
    errs = []
    for M in (128, 256, 512):
        sol = radial_eigensolve(2, M, 2, bc="dirichlet")
        errs.append(np.abs(sol.lambdas - targets) / targets)
    errs = np.array(errs)
    rates = np.log2(errs[:-1] / errs[1:])
    assert np.all(np.abs(rates - 2.0) <= 0.15)
    assert np.all(errs[-1] <= 2e-5)


def test_radial_solver_flux_pinned():
    table = zeros_jprime(1, 2)
    targets = np.array(table.zeros) ** 2
    sol = radial_eigensolve(1, 512, 2, bc="neumann")
    rel = np.abs(sol.lambdas - targets) / targets
    assert np.all(rel <= 1e-3)


def test_two_dimensional_solver_hits_reference_spectrum():
    ref = reference_eigenvalues(0, 4)
    sol = zaremba2d_eigensolve(128, 128, count=4)
    rel = np.abs(sol.lambdas - ref) / ref
    assert np.all(rel <= 1e-2)
    assert rel[1] <= 1e-3 and rel[2] <= 1e-3  # smoother modes do better


def test_two_dimensional_errors_decrease_under_refinement():
    ref = reference_eigenvalues(0, 4)
    rel = []
    for M in (64, 128):
        sol = zaremba2d_eigensolve(M, M, count=4)
        rel.append(np.abs(sol.lambdas - ref) / ref)
    assert np.all(rel[1] < rel[0])


def _kronecker_oracle(M_r, M_phi, count):
    """The 2D operator assembled as Kronecker sums, shift-invert Lanczos at 0;
    a dense symmetric solve where Lanczos cannot take count values."""
    h_r, h_phi = 1.0 / M_r, math.pi / M_phi
    idx = np.arange(1, M_r + 1, dtype=float)
    r = (idx - 0.5) * h_r
    diag_r = 2.0 * idx - 1.0
    diag_r[-1] = 3.0 * M_r - 1.0  # outer arc pinned
    K_r = sparse.diags([-idx[:-1], diag_r, -idx[:-1]], offsets=(-1, 0, 1))
    diag_phi = np.full(M_phi, 2.0)
    diag_phi[0] -= 1.0  # mirror edge
    diag_phi[-1] += 1.0  # pinned edge; one cell carries both edges
    off_phi = np.full(M_phi - 1, -1.0)
    S_phi = sparse.diags([off_phi, diag_phi, off_phi], offsets=(-1, 0, 1)) / h_phi
    A = sparse.kron(K_r, h_phi * sparse.identity(M_phi)) + sparse.kron(
        sparse.diags(h_r / r), S_phi
    )
    b = np.kron(r * h_r, np.full(M_phi, h_phi))
    if count >= M_r * M_phi:
        scale = 1.0 / np.sqrt(b)
        return np.linalg.eigvalsh(scale[:, None] * A.toarray() * scale[None, :])[:count]
    vals = eigsh(A.tocsc(), k=count, M=sparse.diags(b).tocsc(), sigma=0.0, which="LM",
                 return_eigenvectors=False)
    return np.sort(vals)


@pytest.mark.parametrize(
    "M_r,M_phi,count",
    [(64, 64, 4), (64, 64, 8), (128, 128, 4), (128, 128, 8), (96, 48, 6), (16, 64, 20),
     (1, 1, 1), (1, 8, 8), (8, 1, 8), (2, 3, 6), (3, 2, 5), (8, 8, 12), (512, 8, 4)],
)
def test_separable_solve_matches_kronecker_oracle(M_r, M_phi, count):
    sol = zaremba2d_eigensolve(M_r, M_phi, count)
    oracle = _kronecker_oracle(M_r, M_phi, count)
    assert np.max(np.abs(sol.lambdas - oracle) / oracle) <= 1e-9
    assert sol.unknowns == M_r * M_phi


def _brute_force_merge(count, rows_of, orders=math.inf):
    """Every order up to count + 4 (and orders), sorted together."""
    rows = [row for n in range(1, min(count + 4, orders) + 1) for row in rows_of(n)]
    return sorted(rows)[:count]


@pytest.mark.parametrize("q", [0, 1])
@pytest.mark.parametrize("count", range(1, 9))
def test_order_stop_rule_matches_brute_force(q, count):
    zeros = zeros_j if q == 0 else zeros_jprime
    labeled = _brute_force_merge(count, lambda n: [
        (float(z) ** 2, n, m, float(z)) for m, z in enumerate(zeros(n, count).zeros, 1)
    ])
    assert reference_modes(q, count) == labeled
    radial = _brute_force_merge(
        count, lambda n: per_index((n - 0.5) ** 2, 256, count, "neumann")
    )
    assert np.array_equal(radial_spectrum(256, count, bc="neumann"), radial)


@pytest.mark.parametrize("q", [0, 1])
def test_reference_modes_compute_only_the_zeros_the_merge_can_draw(q, empty_stores):
    zeros = zeros_j if q == 0 else zeros_jprime
    full = {n: zeros(n, 60).zeros for n in range(1, 65)}
    for count in range(1, 61):
        labeled = _brute_force_merge(count, lambda n: [
            (float(z) ** 2, n, m, float(z)) for m, z in enumerate(full[n][:count], 1)
        ])
        empty_stores()
        assert reference_modes(q, count) == labeled
        # order n holds count - n + 1 zeros: a short table is a prefix of a long one
        assert all(len(table) == count - n + 1 for (_, n), table in bessel._TABLES.items())
    # count 40 opens 15 orders for q = 0 and 16 for q = 1: 495 and 520 zeros,
    # where a full table per order would take 600 and 640
    empty_stores()
    reference_modes(q, 40)
    assert sum(len(table) for table in bessel._TABLES.values()) == (495, 520)[q]


@pytest.mark.parametrize("M", [16, 17, 256])
@pytest.mark.parametrize("count", range(1, 13))
@pytest.mark.parametrize("q", [0, 1])
def test_lazy_merge_matches_brute_force_over_per_index_values(q, count, M):
    if q == 0:
        got = zaremba2d_eigensolve(M, M, count).lambdas
        want = _brute_force_merge(count, lambda k: per_index(
            fd_eigenvalue_closed_form(M, k), M, count, "dirichlet"), orders=M)
    else:
        got = radial_spectrum(M, count, bc="neumann")
        want = _brute_force_merge(
            count, lambda n: per_index((n - 0.5) ** 2, M, count, "neumann"))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("count", [1, 2, 5, 12, 40])
def test_lazy_merge_draws_at_most_two_entries_per_value(count, monkeypatch, empty_stores):
    calls = []

    def counted(*args):
        calls.append(args[2:])
        return _tridiagonal_eigenvalues(*args)

    monkeypatch.setattr(spectrum2d, "_tridiagonal_eigenvalues", counted)
    for solve in (lambda: radial_spectrum(64, count, bc="neumann"),
                  lambda: zaremba2d_eigensolve(64, 32, count).lambdas):
        empty_stores()  # count cold draws
        calls.clear()
        assert len(solve()) == count
        assert all(first == last for first, last in calls)
        assert len(calls) <= 2 * count - 1


# -- the table of radial values drawn -------------------------------------------


def _spectrum(q, M, count):
    """The eigen2d route of family q on an M x M grid."""
    if q == 0:
        return zaremba2d_eigensolve(M, M, count).lambdas
    return radial_spectrum(M, count, bc="neumann")


@pytest.mark.parametrize("M", [16, 17, 256])
@pytest.mark.parametrize("q", [0, 1])
def test_a_cold_table_gives_the_warm_values(q, M, empty_stores):
    # longest first, so that every shorter request is served by lookups alone
    warm = {count: _spectrum(q, M, count) for count in range(12, 0, -1)}
    for count in range(1, 13):
        empty_stores()
        assert np.array_equal(_spectrum(q, M, count), warm[count])


@pytest.mark.parametrize("q", [0, 1])
def test_fill_order_does_not_change_the_rows(q, empty_stores, capsys):
    def rows(modes):
        assert cli.main(["eigen2d", "--q", str(q), "--modes", str(modes),
                         "--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)["results"]["modes"]

    fresh = {}
    for modes in (12, 4, 8):
        empty_stores()
        fresh[modes] = rows(modes)
    empty_stores()
    assert {modes: rows(modes) for modes in (12, 4, 8)} == fresh


def test_a_repeated_spectrum_bisects_nothing(monkeypatch):
    first = radial_spectrum(256, 12, "neumann")
    calls = []

    def counted(*args):
        calls.append(args[2:])
        return _tridiagonal_eigenvalues(*args)

    monkeypatch.setattr(spectrum2d, "_tridiagonal_eigenvalues", counted)
    assert np.array_equal(radial_spectrum(256, 12, "neumann"), first)
    assert calls == []


def test_a_warm_table_still_validates(monkeypatch):
    radial_spectrum(16, 12, "neumann")
    zaremba2d_eigensolve(16, 16, 12)
    # the entry the robin request would look up, planted so that only the
    # validation can refuse it
    table = dict(spectrum2d._RADIAL_VALUES)
    table[0.25, 16, "robin", 0] = 1.0
    monkeypatch.setattr(spectrum2d, "_RADIAL_VALUES", table)
    with pytest.raises(ValueError):
        radial_spectrum(0, 1)
    with pytest.raises(ValueError):
        radial_spectrum(16, 1, bc="robin")
    with pytest.raises(ValueError):
        zaremba2d_eigensolve(16, 16, 16 * 16 + 1)


def test_threads_filling_one_operator_agree_bitwise(empty_stores):
    alone = radial_spectrum(512, 12, "neumann")
    empty_stores()
    results = race(lambda i: radial_spectrum(512, 12, "neumann"))
    assert all(np.array_equal(got, alone) for got in results)


@pytest.mark.parametrize("M", [16, 256, 4096])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_radial_eigensolve_reads_the_values_the_merge_draws(bc, M, monkeypatch, empty_stores):
    # a merge of 80 draws entries j < 4 of every order n <= 12
    orders, count = range(1, 13), 4
    radial_spectrum(M, 80, bc)
    drawn = dict(spectrum2d._RADIAL_VALUES)
    empty_stores()
    cold = {n: radial_eigensolve(n, M, count, bc).lambdas for n in orders}
    calls = []

    def counted(*args):
        calls.append(args[2:])
        return _tridiagonal_eigenvalues(*args)

    monkeypatch.setattr(spectrum2d, "_tridiagonal_eigenvalues", counted)
    warm = {n: radial_eigensolve(n, M, count, bc).lambdas for n in orders}
    assert calls == []
    for n in orders:
        angular = (n - 0.5) ** 2
        assert np.array_equal(warm[n], cold[n])
        assert np.array_equal(cold[n], per_index(angular, M, count, bc))
        assert np.array_equal(cold[n], [drawn[angular, M, bc, j] for j in range(count)])


@pytest.mark.parametrize("n,error", [(0, ValueError), (-3, ValueError), (1.5, TypeError)])
def test_radial_eigensolve_refuses_an_invalid_order_before_any_lookup(n, error, empty_stores):
    # (n - 1/2)^2 at n = 0 and -3 is order 1's and order 4's angular term
    with pytest.raises(error):
        radial_eigensolve(n, 64, 2)
    assert spectrum2d._RADIAL_VALUES == {}


def _exact_rayleigh(diag, off, v) -> float:
    """v^T T v / v^T v of the symmetric tridiagonal T, in exact rationals."""
    d, e, v = ([Fraction(x) for x in a] for a in (diag, off, v))
    quad = sum(a * b * b for a, b in zip(d, v)) + 2 * sum(a * b * c for a, b, c in zip(e, v, v[1:]))
    return float(quad / sum(b * b for b in v))


@pytest.mark.parametrize("M", [1, 2, 3, 16, 17, 64])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("angular", [0.25, 30.25, 1e4])
def test_per_index_values_agree_with_dense_solve(angular, bc, M):
    # the dense eigenvectors' exact Rayleigh quotients are off by |residual|^2 / gap,
    # far below the few eps * ||T|| of the dense eigenvalues themselves
    diag, off = _radial_operator(angular, M, bc)
    T = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    dense = [_exact_rayleigh(diag, off, v) for v in np.linalg.eigh(T)[1].T]
    # four times dstebz's default absolute tolerance, eps * ||T||
    tol = 4 * np.finfo(float).eps * np.max(np.sum(np.abs(T), axis=0))
    assert np.max(np.abs(np.array(per_index(angular, M, M, bc)) - dense)) <= tol


def test_reference_eigenvalues():
    ref = reference_eigenvalues(0, 4)
    expected = np.array(
        [math.pi**2, ROOT_TAN_EQ_X**2, 5.763459196894550**2, (2 * math.pi) ** 2]
    )
    assert np.max(np.abs(ref - expected)) <= 1e-9
    ref1 = reference_eigenvalues(1, 4)
    assert np.all(np.diff(ref1) > 0)
    assert abs(ref1[0] - ROOT_TAN_EQ_2X**2) <= 1e-9


def test_gram_matrix_scalar_family():
    modes = [analytic_eigenform(0, n, m, "E") for n in (1, 2, 3) for m in (1, 2)]
    G = gram_matrix_2d(modes, M_r=400, M_phi=128)
    assert np.max(np.abs(G - np.eye(6))) <= 1e-10


def test_gram_matrix_partner_family():
    modes = [analytic_eigenform(0, n, m, "H") for n in (1, 2) for m in (1, 2)]
    G = gram_matrix_2d(modes, M_r=400, M_phi=128)
    assert np.max(np.abs(G - np.eye(4))) <= 1e-12


@pytest.mark.parametrize("role", ["E", "H"])
@pytest.mark.parametrize("q", [0, 1])
def test_gram_matrix_to_roundoff_over_sixty_modes(q, role):
    # the node floors of 1 are raised to what the modes need: up to n = 19
    # and omega = 22.7 here
    modes = [analytic_eigenform(q, n, m, role) for _, n, m, _ in reference_modes(q, 60)]
    G = gram_matrix_2d(modes, M_r=1, M_phi=1)
    assert np.max(np.abs(G - np.eye(60))) <= 1e-12


def test_field_form_agrees_with_frame_components():
    mode = analytic_eigenform(1, 2, 1, "E")
    ff = to_field_form(mode)
    r, phi = 0.55, 0.8
    x = np.array([r * math.cos(phi), r * math.sin(phi)])
    f1 = ff.components[(1,)](x)
    f2 = ff.components[(2,)](x)
    fr = complex(mode.parts["rho"](r, phi))
    fphi = complex(mode.parts["tau"](r, phi))
    assert abs(f1 * math.cos(phi) + f2 * math.sin(phi) - fr) <= 1e-12
    assert abs(-f1 * math.sin(phi) + f2 * math.cos(phi) - fphi) <= 1e-12
    assert set(cartesian_components(mode)) == {(1,), (2,)}


def test_validation():
    with pytest.raises(ValueError):
        analytic_eigenform(2, 1, 1)
    with pytest.raises(ValueError):
        analytic_eigenform(0, 0, 1)
    with pytest.raises(ValueError):
        analytic_eigenform(0, 1, 0)
    with pytest.raises(ValueError):
        analytic_eigenform(0, 1, 1, role="X")
    with pytest.raises(ValueError):
        radial_eigensolve(1, 0, 1)
    with pytest.raises(ValueError):
        radial_eigensolve(1, 64, 1, bc="robin")
    with pytest.raises(ValueError):
        zaremba2d_eigensolve(0, 64)
    with pytest.raises(ValueError):
        zaremba2d_eigensolve(64, 0)
    with pytest.raises(ValueError):
        zaremba2d_eigensolve(16, 16, 16 * 16 + 1)
    with pytest.raises(ValueError):
        reference_eigenvalues(2, 3)
    ref = reference_eigenvalues(0, 4)
    large = zaremba2d_eigensolve(2000, 2000).lambdas
    assert np.max(np.abs(large - ref) / ref) <= 1e-2
    with pytest.raises(ValueError):
        gram_matrix_2d(
            [analytic_eigenform(0, 1, 1, "E"), analytic_eigenform(0, 1, 1, "H")]
        )
    ps = PolarScalar([])
    with pytest.raises(ValueError):
        ps.cartesian_partial(3)


# -- one evaluation of every distinct radial factor per node set ------------------

# angular and radial ranks, low and high
_RANKS = [(n, m) for n in (1, 2, 3, 8) for m in (1, 2, 3, 12)]
_EVALUATION_LABELS = [(q, role, n, m) for q in (0, 1) for role in ("E", "H") for n, m in _RANKS]


def per_part_gram(modes, M_r, M_phi):
    """Oracle of gram_matrix_2d: every frame part evaluated on its own, by
    PolarScalar.__call__ on the broadcast (r, phi) grid, at the same raised
    node counts."""
    M_r = max(M_r, 16 + math.ceil(max(mode.omega for mode in modes)))
    M_phi = max(M_phi, 2 * max(mode.n for mode in modes))
    x, w = np.polynomial.legendre.leggauss(M_r)
    s = 0.5 * (x + 1.0)
    rg, pg = (s * s)[:, None], _angular_nodes(M_phi)[None, :]
    weight = (w * s**3)[:, None] * (math.pi / M_phi)
    C = np.array([[ps(rg, pg) for ps in mode.parts.values()] for mode in modes])
    return (C * weight).reshape(len(modes), -1) @ C.reshape(len(modes), -1).conj().T


def per_part_extraction(mode, n_list, M_r, M_phi):
    """Oracle of extract_coefficients: the radial factors of each frame part
    evaluated apart from the other part's."""
    n_list = tuple(n_list)
    M_phi = max(M_phi, (mode.n + max(n_list) + 1) // 2)
    r = radial_nodes(M_r)
    phi = _angular_nodes(M_phi)
    families = {}
    for letter, part, metric in spectrum2d._FAMILIES[mode.degree]:
        pairs = mode.parts[part].pairs
        radial = np.array([R(r) for R, _ in pairs])
        proj = (math.pi / M_phi) * (np.array([A(phi) for _, A in pairs])
                                    @ spectrum2d._basis_rows(letter, n_list, phi).T)
        families[letter] = proj.T @ (r * radial if metric else radial)
    return families


def two_pass_norm_constant(n, omega):
    """Oracle of the normalization: J from eval_j, and J' from its own upward
    pass as omega (J_(nu-1) - (nu / x) J_nu), divided by omega again."""
    nu = n - 0.5
    j = eval_j(n, omega)
    jm, jn = bessel._upward(n - 1, n, np.array([omega]))
    jp = float(omega * (jm - (nu / omega) * jn)[0]) / omega
    return 1.0 / math.sqrt((math.pi / 2.0) * 0.5 * (jp**2 + (1.0 - nu**2 / omega**2) * j**2))


@pytest.mark.parametrize("role", ["E", "H"])
@pytest.mark.parametrize("q", [0, 1])
def test_gram_equals_per_part_evaluation(q, role):
    modes = [analytic_eigenform(q, n, m, role) for n, m in _RANKS]
    for M_r, M_phi in ((32, 16), (400, 400)):
        assert np.array_equal(gram_matrix_2d(modes, M_r, M_phi),
                              per_part_gram(modes, M_r, M_phi))


@pytest.mark.parametrize("q,role,n,m", _EVALUATION_LABELS)
def test_extraction_equals_per_part_evaluation(q, role, n, m):
    mode = analytic_eigenform(q, n, m, role)
    got = extract_coefficients(mode, range(1, 9), M_r=400, M_phi=256).families
    want = per_part_extraction(mode, range(1, 9), 400, 256)
    assert got.keys() == want.keys()
    assert all(np.array_equal(got[letter], want[letter]) for letter in want)


def test_normalization_matches_the_two_pass_route():
    # equal on every label up to n = 12, m = 6; past it the two routes round
    # omega J' differently, within 2 eps relative
    for q in (0, 1):
        for n in (*range(1, 41), 60, 100, 140):
            for m in range(1, 13):
                omega = base_frequency(q, n, m)
                got, want = spectrum2d._norm_constant(n, omega), two_pass_norm_constant(n, omega)
                if n <= 12 and m <= 6:
                    assert got == want, (q, n, m)
                assert abs(got - want) <= 2 * np.finfo(float).eps * want, (q, n, m)


def test_each_distinct_radial_factor_is_evaluated_once_per_node_set(passes):
    from maxforms.regularity import classify

    for q in (0, 1):
        for role in ("E", "H"):
            modes = [analytic_eigenform(q, n, m, role) for _, n, m, _ in reference_modes(q, 6)]
            assert passes == []  # construction evaluates no factor
            gram_matrix_2d(modes)
            # one pass per frequency, each over the one node set
            assert len(passes) == len({mode.omega for mode in modes}) == 6
            assert len({size for _, _, size in passes}) == 1
            passes.clear()
    for q, n, m, role in ((0, 1, 1, "H"), (0, 3, 2, "H"), (1, 2, 1, "E"), (1, 4, 3, "E")):
        extract_coefficients(analytic_eigenform(q, n, m, role), range(1, 9))
        assert passes == [(n, n + 1, 200)]  # J_n / r in both parts, J_(n+1) in one
        passes.clear()
    classify(0, 2, 2, "H")
    assert passes == [(2, 4, 144)]  # every partial, all six shells
    passes.clear()
    for q in (0, 1):
        for n, m in ((1, 1), (2, 3), (7, 2)):
            maxwell_residual_2d(q, n, m, samples=24)
            assert 1 <= len(passes) <= 2, (q, n, m)  # 15 at one pass per factor evaluation
            passes.clear()


def factor_values(R: RadialFactor, r) -> np.ndarray:
    """Oracle of one radial factor: r^power times eval_j of its own order."""
    val = np.asarray(r, dtype=float) ** R.power
    return val if R.order is None else val * eval_j(R.order, R.omega * np.asarray(r))


_BATCH_LABELS = [(0, 1, 1, "H"), (0, 4, 3, "E"), (1, 2, 1, "E"), (1, 9, 2, "H")]


def test_cold_and_warm_batches_give_equal_values(empty_stores):
    r, phi = np.linspace(0.02, 0.98, 13)[:, None], np.linspace(0.1, 3.0, 5)[None, :]
    for label in _BATCH_LABELS:
        scalars = _built_scalars(analytic_eigenform(*label))
        warm = [ps(r, phi) for ps in scalars]  # one batch serves all but the first
        for ps, want in zip(scalars, warm):
            empty_stores()
            assert np.array_equal(ps(r, phi), want), label
            for R, _ in ps.pairs:
                assert np.array_equal(R(r), factor_values(R, r)), (label, R)


def test_threads_sharing_one_point_set_agree_bitwise(empty_stores):
    points = np.random.default_rng(5).uniform(0.05, 0.95, (2, 40))
    fields = [to_field_form(analytic_eigenform(*label)) for label in _BATCH_LABELS]

    def evaluate_all(form):
        # every component and Cartesian partial, many times over one point set
        return [[f(points) for f in (c, c.partial(1), c.partial(2))] * 3
                for c in form.components.values()]

    def same(got, want):
        return all(np.array_equal(a, b) for gs, ws in zip(got, want) for a, b in zip(gs, ws))

    alone = [evaluate_all(form) for form in fields]
    empty_stores()
    results = race(lambda i: evaluate_all(fields[i]), len(fields))
    for got, want in zip(results, alone):
        assert same(got, want)

    # with the memo cold, every thread builds every label, in its own order, so
    # the threads race to fill the memo and the partial caches of its forms
    empty_stores()

    def build_and_work(i):
        order = _BATCH_LABELS[i:] + _BATCH_LABELS[:i]
        modes = {label: analytic_eigenform(*label) for label in order}
        return modes, {label: evaluate_all(to_field_form(mode)) for label, mode in modes.items()}

    runs = race(build_and_work, len(fields))
    assert len(spectrum2d._EIGENFORMS) == len(_BATCH_LABELS)
    for modes, got in runs:
        for label, want in zip(_BATCH_LABELS, alone):
            assert modes[label] is spectrum2d._EIGENFORMS[label]  # the first stored
            assert same(got[label], want), label


def test_threads_racing_on_one_scalar_get_the_value_it_keeps(empty_stores, monkeypatch):
    # every value a scalar hands out, recorded as (scalar, key, value)
    handed = []
    keep = PolarScalar._kept

    def recorded(ps, key, make, *args):
        value = keep(ps, key, make, *args)
        handed.append((ps, key, value))
        return value

    monkeypatch.setattr(PolarScalar, "_kept", recorded)
    mode = analytic_eigenform(1, 3, 2, "E")
    scalars = [*mode.parts.values(), *cartesian_components(mode).values()]

    def work(i):
        for ps in scalars[i % 2:] + scalars[:i % 2]:
            ps.cartesian_partial(1).leading_exponent()
            ps.leading_exponent()
        extract_coefficients(mode, range(1, 9))

    race(work)
    assert {key for _, key, _ in handed} >= {("partial", 1), "exponent"}
    assert any(key[0] == "projection" for _, key, _ in handed)
    for ps, key, value in handed:
        assert value is ps._memo.get(key), key


# ---------------------------------------------------------------------------
# the per-label memo

_MEMO_LABELS = [(q, n, 1 + n % 3, role) for q in (0, 1) for role in ("E", "H")
                for n in range(1, 9)]


def _consumers(q, n, m, role):
    """The five consumers of a label's algebra, each run once."""
    mode = analytic_eigenform(q, n, m, role)
    return [classify(q, n, m, role),
            extract_coefficients(mode, range(1, 10), M_r=50),
            coeff_ode_residuals(q, n, m, M_r=100),
            gram_matrix_2d([mode, analytic_eigenform(q, n, m + 1, role)]),
            maxwell_residual_2d(q, n, m, samples=24)]


def _bitwise_equal(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_bitwise_equal(a[k], b[k]) for k in a)
    if hasattr(a, "__dataclass_fields__"):
        return type(a) is type(b) and _bitwise_equal(vars(a), vars(b))
    if isinstance(a, (np.ndarray, float, complex)):
        a, b = np.atleast_1d(a), np.atleast_1d(b)
        return (a.dtype == b.dtype and a.shape == b.shape
                and np.array_equal(a.view(np.uint8), b.view(np.uint8)))
    return a == b


@pytest.mark.parametrize("label", _MEMO_LABELS, ids=lambda label: "{}-{}-{}-{}".format(*label))
def test_cold_and_warm_memo_give_bitwise_equal_results(label, empty_stores):
    cold = _consumers(*label)
    assert label in spectrum2d._EIGENFORMS
    warm = _consumers(*label)
    for got, want in zip(warm, cold, strict=True):
        assert _bitwise_equal(got, want), label


def test_a_returned_mode_is_immutable():
    mode = analytic_eigenform(0, 2, 1, "H")
    assert analytic_eigenform(0, 2, 1, "H") is mode
    with pytest.raises(dataclasses.FrozenInstanceError):
        mode.omega = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        mode.parts = {}
    with pytest.raises(TypeError):
        mode.parts["rho"] = mode.parts["tau"]
    with pytest.raises(TypeError):
        del mode.parts["rho"]
    with pytest.raises(TypeError):
        cartesian_components(mode)[(1,)] = mode.parts["tau"]
    with pytest.raises(TypeError):
        to_field_form(mode).components[(1,)] = to_field_form(mode).components[(2,)]
    assert cartesian_components(mode) is cartesian_components(mode)
    assert to_field_form(mode) is to_field_form(mode)
    # a mode built directly is read-only as well
    copy = dataclasses.replace(mode, omega=mode.omega)
    with pytest.raises(TypeError):
        copy.parts["rho"] = mode.parts["tau"]


def test_invalid_labels_raise_and_store_nothing(empty_stores):
    for label in [(2, 1, 1, "E"), (-1, 1, 1, "E"), (0, 0, 1, "E"), (0, 1, 0, "E"),
                  (1, 1, -3, "H"), (0, 1, 1, "X"), (0, 1, 1, "e")]:
        with pytest.raises(ValueError):
            analytic_eigenform(*label)
    for label in [(0, 2.0, 1, "E"), (1, 2, 1.5, "H")]:
        with pytest.raises(TypeError):
            analytic_eigenform(*label)
    assert spectrum2d._EIGENFORMS == {}
    # an integer of another type names the same label
    assert analytic_eigenform(np.int64(1), np.int64(2), 1, "E") is analytic_eigenform(1, 2, 1)
    assert list(spectrum2d._EIGENFORMS) == [(1, 2, 1, "E")]


def test_the_memo_leaves_nothing_for_the_cyclic_collector(empty_stores):
    _consumers(1, 2, 1, "E")  # fills the index tables' and rules' caches
    empty_stores()
    gc.collect()
    gc.disable()
    try:
        for label in _MEMO_LABELS[::5]:
            _consumers(*label)
            _consumers(*label)
        # emptying the memo drops its modes: each must be freed by its count
        empty_stores()
        found = gc.collect()
    finally:
        gc.enable()
    # a scalar holding a field that holds the scalar would be one cycle per scalar
    assert found == 0

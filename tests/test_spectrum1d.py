import math

import numpy as np
import pytest

from maxforms.spectrum1d import (
    ARC,
    analytic_pair,
    fd_eigensolve,
    fd_eigenvalue_closed_form,
    orthonormality_gram,
)


def dense_operator(M: int) -> np.ndarray:
    # independent reconstruction of the discrete operator for oracle purposes
    h = ARC / M
    K = np.zeros((M, M))
    for i in range(M):
        K[i, i] = 2.0
        if i > 0:
            K[i, i - 1] = -1.0
        if i < M - 1:
            K[i, i + 1] = -1.0
    K[0, 0] = 1.0
    K[-1, -1] = 3.0
    return K / h**2


def test_closed_form_matches_dense_eigensolve():
    # freeze the closed-form discrete eigenvalues against a dense solve
    M = 48
    lam = np.linalg.eigvalsh(dense_operator(M))
    for k in range(1, 11):
        expected = fd_eigenvalue_closed_form(M, k)
        assert abs(lam[k - 1] - expected) <= 1e-9 * max(1.0, expected)


def test_solver_matches_closed_form_exactly():
    sol = fd_eigensolve(64, 12)
    for k in range(1, 13):
        expected = fd_eigenvalue_closed_form(64, k)
        assert abs(sol.lambdas[k - 1] - expected) <= 1e-12 * expected


@pytest.mark.parametrize("M", range(1, 16))
def test_solver_matches_closed_form_on_every_small_grid(M):
    # one cell carries both endpoint conditions at M = 1
    sol = fd_eigensolve(M, M)
    for k in range(1, M + 1):
        expected = fd_eigenvalue_closed_form(M, k)
        assert abs(sol.lambdas[k - 1] - expected) <= 1e-12 * expected


def test_closed_form_has_no_cancellation_on_fine_grids():
    # Taylor oracle of the discrete eigenvalue in t = omega h
    M, k = 65536, 1
    omega = k - 0.5
    t = omega * ARC / M
    oracle = omega**2 * (1.0 - t**2 / 12.0 + t**4 / 360.0)
    assert abs(fd_eigenvalue_closed_form(M, k) - oracle) <= 1e-13 * oracle


def test_eigenvalues_converge_at_second_order():
    grids = [250, 500, 1000, 2000]
    for n in range(1, 6):
        omega = n - 0.5
        errs = [abs(fd_eigenvalue_closed_form(M, n) - omega**2) for M in grids]
        assert errs[-1] <= 1e-3 * omega**2
        rates = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        for r in rates:
            assert abs(r - 2.0) <= 0.2


def test_first_order_system_residuals_vanish_analytically():
    # e' + i omega h = 0 and h' + i omega e = 0, with the derivatives of
    # cos(omega phi) and -i sin(omega phi) in closed form
    phi = np.linspace(0.0, ARC, 401)
    for n in range(1, 7):
        p = analytic_pair(n)
        w = p.omega
        rot = -w * np.sin(w * phi) + 1j * w * p.h(phi)
        div = -1j * w * np.cos(w * phi) + 1j * w * p.e(phi)
        assert np.max(np.abs(rot)) <= 1e-12
        assert np.max(np.abs(div)) <= 1e-12


def test_scalar_family_is_orthonormal():
    assert orthonormality_gram(count=10) <= 1e-10


def test_endpoint_conditions():
    for n in (1, 2, 5):
        p = analytic_pair(n)
        w = p.omega
        assert abs(-w * math.sin(w * 0.0)) <= 1e-12  # e'(0)
        assert abs(p.e(ARC)) <= 1e-12
        assert abs(p.h(0.0)) <= 1e-12
        assert abs(-1j * w * math.cos(w * ARC)) <= 1e-12  # h'(pi)


def test_normalization_constant():
    p = analytic_pair(1)
    assert abs(p.normalization - math.sqrt(2.0 / math.pi)) == 0.0


def test_eigenvalues_strictly_increasing():
    sol = fd_eigensolve(128, 20)
    assert np.all(np.diff(sol.lambdas) > 0)


def test_input_validation():
    with pytest.raises(ValueError):
        fd_eigensolve(0, 1)
    with pytest.raises(ValueError):
        fd_eigensolve(32, 0)
    with pytest.raises(ValueError):
        fd_eigensolve(32, 33)
    with pytest.raises(ValueError):
        analytic_pair(0)

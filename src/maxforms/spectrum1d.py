"""Eigenpairs on the half circle with one sound-soft and one mirror endpoint.

The scalar family is cos((n - 1/2) phi): derivative vanishes at phi = 0, value
vanishes at phi = pi.  Each scalar couples to a one-form partner so that the
pair solves the first-order system with eigenvalue omega = n - 1/2.  The
finite-difference route discretizes the second-order operator on the offset
grid phi_i = (i - 1/2) h with a mirror ghost at 0 and an odd-reflection ghost
at pi, which keeps the matrix symmetric tridiagonal and both endpoint
conditions second-order accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ARC = math.pi


@dataclass
class EigenPair1D:
    """Analytic eigenpair number n; fields are vectorized in phi."""

    n: int

    @property
    def omega(self) -> float:
        return self.n - 0.5

    @property
    def normalization(self) -> float:
        # unit norm over (0, pi): integral of cos^2 is pi/2
        return math.sqrt(2.0 / ARC)

    def e(self, phi):
        return np.cos(self.omega * np.asarray(phi, dtype=float))

    def h(self, phi):
        """dphi-coefficient of the one-form partner."""
        return -1j * np.sin(self.omega * np.asarray(phi, dtype=float))


def analytic_pair(n: int) -> EigenPair1D:
    if n < 1:
        raise ValueError("mode numbers start at 1")
    return EigenPair1D(n=n)


@dataclass
class EigenSolve1D:
    lambdas: np.ndarray  # the lowest count eigenvalues, ascending


def _tridiagonal_eigenvalues(diag, off, first: int, last: int) -> np.ndarray:
    """Eigenvalues first..last (0-based, ascending) of the symmetric tridiagonal
    matrix with diagonal diag and off-diagonal off, by LAPACK dstebz bisection.

    The arguments are those scipy's eigh_tridiagonal(select="i") passes: range
    by index, abstol 0 (dstebz's default eps * norm), entire-matrix order.
    """
    if len(diag) == 1:  # dstebz's wrapper refuses an empty off-diagonal
        return np.array(diag, dtype=float)
    from scipy.linalg.lapack import dstebz  # here, so the closed forms never load scipy

    found, values, _, _, info = dstebz(diag, off, 2, 0.0, 1.0, first + 1, last + 1, 0.0, "E")
    if info != 0:
        raise RuntimeError(f"dstebz failed with INFO = {info}")
    return values[:found]


def fd_eigensolve(M: int, count: int) -> EigenSolve1D:
    """Lowest eigenvalues of the mixed-endpoint second-derivative operator on
    the offset grid (eigenvalues only)."""
    if M < 1:
        raise ValueError(f"grid cells must be positive, got {M}")
    if not 1 <= count <= M:
        raise ValueError("count must be between 1 and M")
    h = ARC / M
    diag = np.full(M, 2.0)
    diag[0] = 1.0  # mirror ghost at phi=0: even reflection
    diag[-1] += 1.0  # Dirichlet face at phi=pi: odd reflection
    off = np.full(M - 1, -1.0)
    return EigenSolve1D(lambdas=_tridiagonal_eigenvalues(diag / h**2, off / h**2, 0, count - 1))


def fd_eigenvalue_closed_form(M: int, k: int) -> float:
    """The discrete operator's exact eigenvalue (the FD solver's oracle)."""
    h = ARC / M
    omega = k - 0.5
    return (4.0 / h**2) * math.sin(0.5 * omega * h) ** 2


def _simpson(values: np.ndarray, h: float) -> complex:
    n = len(values) - 1  # even: the Gram grid has an odd node count
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return complex((h / 3.0) * np.sum(w * values))


def orthonormality_gram(count: int = 10) -> float:
    """Max deviation of the normalized scalar family's Gram matrix from identity."""
    phi = np.linspace(0.0, ARC, 10001)
    h = phi[1] - phi[0]
    fams = [analytic_pair(n) for n in range(1, count + 1)]
    basis = np.array([p.normalization * p.e(phi) for p in fams])
    worst = 0.0
    for a in range(count):
        for b in range(count):
            g = _simpson(basis[a] * np.conj(basis[b]), h)
            target = 1.0 if a == b else 0.0
            worst = max(worst, abs(g - target))
    return worst

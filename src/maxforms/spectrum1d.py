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
MIN_GRID = 16


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

    def e_prime(self, phi):
        return -self.omega * np.sin(self.omega * np.asarray(phi, dtype=float))

    def h(self, phi):
        """dphi-coefficient of the one-form partner."""
        return -1j * np.sin(self.omega * np.asarray(phi, dtype=float))

    def h_prime(self, phi):
        return -1j * self.omega * np.cos(self.omega * np.asarray(phi, dtype=float))


def analytic_pair(n: int) -> EigenPair1D:
    if n < 1:
        raise ValueError("mode numbers start at 1")
    return EigenPair1D(n=n)


@dataclass
class EigenSolve1D:
    lambdas: np.ndarray
    vectors: np.ndarray  # column k is mode k on the offset grid
    grid: np.ndarray
    spacing: float


def fd_eigensolve(M: int, count: int) -> EigenSolve1D:
    """Lowest eigenvalues of the mixed-endpoint second-derivative operator."""
    from scipy.linalg import eigh_tridiagonal  # here, so the closed forms never load scipy

    if M < MIN_GRID:
        raise ValueError(f"grid must have at least {MIN_GRID} cells")
    if not 1 <= count <= M:
        raise ValueError("count must be between 1 and M")
    h = ARC / M
    diag = np.full(M, 2.0)
    diag[0] = 1.0  # mirror ghost at phi=0: even reflection
    diag[-1] = 3.0  # Dirichlet face at phi=pi: odd reflection
    off = np.full(M - 1, -1.0)
    lam, vec = eigh_tridiagonal(
        diag / h**2, off / h**2, select="i", select_range=(0, count - 1)
    )
    grid = (np.arange(1, M + 1) - 0.5) * h
    return EigenSolve1D(lambdas=lam, vectors=vec, grid=grid, spacing=h)


def fd_eigenvalue_closed_form(M: int, k: int) -> float:
    """The discrete operator's exact eigenvalue (the FD solver's oracle)."""
    h = ARC / M
    omega = k - 0.5
    return (4.0 / h**2) * math.sin(0.5 * omega * h) ** 2


def maxwell_residual(pair: EigenPair1D, M: int = 1000) -> dict:
    """Sup-norm residuals of both first-order equations, two derivative routes.

    The derivative route 'analytic' uses exact derivatives; 'fd' replaces them
    with centered differences on an M-point grid, so it carries the usual
    second-order truncation error.
    """
    phi = np.linspace(0.0, ARC, M + 1)
    h = phi[1] - phi[0]
    omega = pair.omega
    e, hh = pair.e(phi), pair.h(phi)

    rot_analytic = np.max(np.abs(pair.e_prime(phi) + 1j * omega * hh))
    div_analytic = np.max(np.abs(pair.h_prime(phi) + 1j * omega * e))

    de = (e[2:] - e[:-2]) / (2.0 * h)
    dh = (hh[2:] - hh[:-2]) / (2.0 * h)
    rot_fd = np.max(np.abs(de + 1j * omega * hh[1:-1]))
    div_fd = np.max(np.abs(dh + 1j * omega * e[1:-1]))

    return {
        "rot_analytic": float(rot_analytic),
        "div_analytic": float(div_analytic),
        "rot_fd": float(rot_fd),
        "div_fd": float(div_fd),
    }


def _simpson(values: np.ndarray, h: float) -> complex:
    n = len(values) - 1
    if n % 2 != 0:
        raise ValueError("composite Simpson needs an even interval count")
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return complex((h / 3.0) * np.sum(w * values))


def orthonormality_gram(count: int = 10, points: int = 10001) -> float:
    """Max deviation of the normalized scalar family's Gram matrix from identity."""
    if points % 2 == 0:
        points += 1
    phi = np.linspace(0.0, ARC, points)
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


def dirichlet_neumann_dim(M: int = 200) -> int:
    """Kernel dimension of the constrained divergence on half-circle one-forms.

    One-forms with derivative zero and vanishing coefficient at the free
    endpoint: the discrete kernel must be trivial (the domain picture has no
    handles to support harmonic fields).
    """
    if M < MIN_GRID:
        raise ValueError(f"grid must have at least {MIN_GRID} cells")
    h = ARC / M
    rows = np.zeros((M, M))
    rows[0, 0] = 1.0  # trace condition at the free end
    for i in range(1, M):
        rows[i, i - 1] = -1.0 / h
        rows[i, i] = 1.0 / h
    s = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(s < s[0] * 1e-8))

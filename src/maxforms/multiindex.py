"""Ordered multi-indices over axis labels 1..N and the dimension/degree sign constants.

Axis labels are 1-based throughout: a q-form coefficient is keyed by a strictly
increasing tuple like (1, 3, 4).  Everything here is exact integer arithmetic.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass


class MultiIndex(tuple):
    """Strictly increasing tuple of 1-based axis labels.

    Hashes and compares like a plain tuple, so it can key component dicts
    interchangeably with tuples.  Degenerate (repeated-label) input is an
    error, never silently collapsed.
    """

    def __new__(cls, labels=()):
        t = tuple(int(i) for i in labels)
        for i in t:
            if i < 1:
                raise ValueError(f"axis labels are 1-based, got {i}")
        if any(a >= b for a, b in zip(t, t[1:])):
            if len(set(t)) != len(t):
                raise ValueError(f"degenerate multi-index {t}")
            raise ValueError(f"multi-index {t} is not strictly increasing")
        return super().__new__(cls, t)

    @property
    def degree(self) -> int:
        return len(self)

    def remove(self, j: int) -> "MultiIndex":
        if j not in self:
            raise ValueError(f"label {j} not in {tuple(self)}")
        return MultiIndex(i for i in self if i != j)

    def insert(self, j: int) -> "MultiIndex":
        if j in self:
            raise ValueError(f"label {j} already in {tuple(self)}")
        return MultiIndex(sorted(self + (j,)))


def enumerate_ordered(q: int, N: int) -> tuple[MultiIndex, ...]:
    """All ordered multi-indices of degree q over 1..N, lexicographic.

    Empty for q < 0 or q > N; the single empty index for q = 0.
    """
    return _ordered(q, N)


@functools.cache  # every form operation asks for these; they are immutable
def _ordered(q: int, N: int) -> tuple[MultiIndex, ...]:
    if q < 0 or q > N:
        return ()
    return tuple(MultiIndex(c) for c in itertools.combinations(range(1, N + 1), q))


def perm_sign(labels) -> int:
    """Sign of the permutation sorting `labels`, by inversion count.

    Raises on repeated labels: the sign of a degenerate tuple is undefined.
    """
    t = tuple(labels)
    if len(set(t)) != len(t):
        raise ValueError(f"degenerate multi-index {t}")
    inversions = sum(
        1 for a, b in itertools.combinations(range(len(t)), 2) if t[a] > t[b]
    )
    return -1 if inversions % 2 else 1


def complement(index, N: int) -> MultiIndex:
    """The ordered complement of `index` in 1..N."""
    present = set(index)
    for i in present:
        if not 1 <= i <= N:
            raise ValueError(f"label {i} outside 1..{N}")
    return MultiIndex(i for i in range(1, N + 1) if i not in present)


def concat_sign(left, right) -> int:
    """Sign of sorting the concatenation of two disjoint label tuples."""
    return perm_sign(tuple(left) + tuple(right))


def insert_sign(j: int, index) -> int:
    """Sign of sorting (j, *index); the coefficient sign in derivative expansions."""
    return perm_sign((j,) + tuple(index))


# -- operator tables ----------------------------------------------------------
#
# One table per (degree, N) for each exterior operator, in the order its
# coefficient sums run.  A degree outside 0..N has no indices, so a table
# lists no target or no term for it.


@functools.cache
def derivative_table(q: int, N: int) -> tuple:
    """Exterior derivative of a q-form: per target I of degree q + 1, the terms
    (I without j, j, sign of sorting (j, *I without j)) for j in I ascending."""
    return tuple((I, tuple((I.remove(j), j, insert_sign(j, I.remove(j))) for j in I))
                 for I in _ordered(q + 1, N))


@functools.cache
def codiff_table(q: int, N: int) -> tuple:
    """Codifferential expansion of a q-form: per target I of degree q - 1, the
    terms (I with j, j, sign of sorting (j, *I)) for j outside I ascending."""
    return tuple((I, tuple((I.insert(j), j, insert_sign(j, I)) for j in complement(I, N)))
                 for I in _ordered(q - 1, N))


@functools.cache
def hodge_table(q: int, N: int) -> tuple:
    """Hodge star of a q-form: per source I, (complement Ic, I, sign of sorting I + Ic)."""
    return tuple((complement(I, N), I, concat_sign(I, complement(I, N))) for I in _ordered(q, N))


@functools.cache
def wedge_table(p: int, r: int, N: int) -> tuple:
    """Wedge of a p-form with an r-form: per target K of degree p + r, the terms
    (I, K without I, sign of sorting I + K without I) for the p-subsets I of K
    in `itertools.combinations` order."""
    return tuple((K, tuple((I, J, concat_sign(I, J)) for I in _ordered(p, N) if set(I) <= set(K)
                           for J in [MultiIndex(i for i in K if i not in I)]))
                 for K in _ordered(p + r, N))


@dataclass(frozen=True)
class SignConstants:
    """The four involution/duality signs attached to a degree q in dimension N.

    codiff_sign:    prefactor turning star-d-star into the codifferential.
    double_hodge:   eigenvalue of the doubled Hodge star on q-forms.
    The *_sphere fields are the same constants one dimension down, which is
    where they appear when a domain is sliced into spheres.
    """

    q: int
    N: int
    codiff_sign: int
    double_hodge: int
    codiff_sign_sphere: int
    double_hodge_sphere: int


def _pow_sign(e: int) -> int:
    return -1 if e % 2 else 1


def sign_constants(q: int, N: int) -> SignConstants:
    if N < 1:
        raise ValueError("dimension must be >= 1")
    return SignConstants(
        q=q,
        N=N,
        codiff_sign=_pow_sign(N * (q - 1)),
        double_hodge=_pow_sign(q * (N - q)),
        codiff_sign_sphere=_pow_sign((N - 1) * (q - 1)),
        double_hodge_sphere=_pow_sign(q * (N - 1 - q)),
    )

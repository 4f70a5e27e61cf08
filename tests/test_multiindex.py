"""Multi-index combinatorics and sign constants."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maxforms.multiindex import (
    MultiIndex,
    complement,
    concat_sign,
    enumerate_ordered,
    insert_sign,
    perm_sign,
    sign_constants,
)


def det_sign_oracle(labels):
    """Permutation sign via the determinant of the permutation matrix."""
    rank = {v: k for k, v in enumerate(sorted(labels))}
    n = len(labels)
    P = np.zeros((n, n))
    for row, v in enumerate(labels):
        P[row, rank[v]] = 1.0
    return int(round(np.linalg.det(P))) if n else 1


distinct_labels = st.lists(
    st.integers(min_value=1, max_value=30), min_size=0, max_size=7, unique=True
)


@given(distinct_labels)
def test_perm_sign_matches_determinant(labels):
    assert perm_sign(labels) == det_sign_oracle(labels)


@given(distinct_labels, distinct_labels)
def test_concatenation_law(left, right):
    if set(left) & set(right):
        return
    p, q = len(left), len(right)
    assert concat_sign(left, right) == (-1) ** (p * q) * concat_sign(right, left)


def test_enumerate_counts_and_order():
    for N in range(1, 8):
        for q in range(0, N + 1):
            idx = enumerate_ordered(q, N)
            assert len(idx) == math.comb(N, q)
            assert list(idx) == sorted(idx)
            for I in idx:
                assert all(1 <= i <= N for i in I)
                assert all(a < b for a, b in zip(I, I[1:]))
    assert enumerate_ordered(-1, 4) == ()
    assert enumerate_ordered(5, 4) == ()
    assert enumerate_ordered(0, 4) == (MultiIndex(()),)


def test_degenerate_rejected():
    with pytest.raises(ValueError):
        MultiIndex((1, 1, 2))
    with pytest.raises(ValueError):
        perm_sign((3, 3))
    with pytest.raises(ValueError):
        MultiIndex((0, 1))


def test_multiindex_is_tuple_compatible():
    I = MultiIndex((1, 3))
    assert I == (1, 3)
    assert hash(I) == hash((1, 3))
    assert I.remove(3) == (1,)
    assert I.insert(2) == (1, 2, 3)
    with pytest.raises(ValueError):
        I.insert(1)
    with pytest.raises(ValueError):
        I.remove(2)


def test_complement_sorts_to_identity():
    for N in range(1, 8):
        for q in range(0, N + 1):
            for I in enumerate_ordered(q, N):
                J = complement(I, N)
                assert tuple(sorted(tuple(I) + tuple(J))) == tuple(range(1, N + 1))
                assert concat_sign(I, J) in (-1, 1)


def test_insert_sign_matches_bubble_count():
    # moving j past the labels below it
    assert insert_sign(2, (1, 3, 4)) == -1
    assert insert_sign(1, (2, 3)) == 1
    assert insert_sign(5, (1, 2, 3, 4)) == 1
    for I in enumerate_ordered(3, 6):
        for j in complement(I, 6):
            below = sum(1 for i in I if i < j)
            assert insert_sign(j, I) == (-1) ** below


def test_sign_constant_identities():
    """The full identity family, exhaustively over q, N <= 8."""
    for N in range(1, 9):
        sc = {q: sign_constants(q, N) for q in range(-1, N + 3)}
        for q in range(0, N + 1):
            assert sc[q + 2].double_hodge == sc[q].double_hodge
            assert sc[q + 2].codiff_sign == sc[q].codiff_sign
            assert sc[N - q].double_hodge == sc[q].double_hodge
            assert sc[N - q].codiff_sign == sc[q + 1].codiff_sign
            assert sc[q].double_hodge * sc[q + 1].codiff_sign == (-1) ** q
            assert sc[q].codiff_sign * sc[q + 1].codiff_sign == (-1) ** N
            assert sc[q].codiff_sign * sc[q].double_hodge == (-1) ** (N + q)
            assert sc[q - 1].double_hodge_sphere * sc[q].codiff_sign == 1
            assert sc[q].codiff_sign_sphere * sc[q].double_hodge == (-1) ** (N + 1)


def test_sphere_constants_are_one_dimension_down():
    for N in range(2, 9):
        for q in range(0, N):
            full = sign_constants(q, N)
            down = sign_constants(q, N - 1)
            assert full.codiff_sign_sphere == down.codiff_sign
            assert full.double_hodge_sphere == down.double_hodge


def test_explicit_small_values():
    # N=2: codiff sign is +1 for every q, double hodge on 1-forms is -1
    assert sign_constants(1, 2).codiff_sign == 1
    assert sign_constants(1, 2).double_hodge == -1
    assert sign_constants(0, 2).double_hodge == 1
    # N=1: the 1-D codifferential picks up no sign
    assert sign_constants(1, 1).codiff_sign == 1
    # N=3 vector calculus: star is involutive in odd dimension
    for q in range(0, 4):
        assert sign_constants(q, 3).double_hodge == 1

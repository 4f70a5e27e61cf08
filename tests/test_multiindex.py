"""Multi-index combinatorics and sign constants."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maxforms.multiindex import (
    MultiIndex,
    codiff_table,
    complement,
    concat_sign,
    derivative_table,
    enumerate_ordered,
    hodge_table,
    insert_sign,
    perm_sign,
    sign_constants,
    wedge_table,
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


# -- operator tables, against a direct derivation from perm_sign/complement ---


def _without(K, I):
    return tuple(i for i in K if i not in I)


@pytest.mark.parametrize("N", range(1, 7))
def test_operator_tables_match_direct_derivation(N):
    for q in range(-1, N + 2):
        assert derivative_table(q, N) == tuple(
            (I, tuple((_without(I, (j,)), j, perm_sign((j, *_without(I, (j,))))) for j in I))
            for I in enumerate_ordered(q + 1, N))
        assert codiff_table(q, N) == tuple(
            (I, tuple((tuple(sorted((*I, j))), j, perm_sign((j, *I))) for j in complement(I, N)))
            for I in enumerate_ordered(q - 1, N))
        assert hodge_table(q, N) == tuple(
            (complement(I, N), I, perm_sign((*I, *complement(I, N))))
            for I in enumerate_ordered(q, N))
        for r in range(-1, N + 2):
            # combinations refuses a negative size; a negative degree has no splits
            assert wedge_table(q, r, N) == tuple(
                (K, tuple((I, _without(K, I), perm_sign((*I, *_without(K, I))))
                          for I in (itertools.combinations(K, q) if q >= 0 else ())))
                for K in enumerate_ordered(q + r, N))


@pytest.mark.parametrize("N", range(1, 7))
def test_derivative_and_codiff_tables_list_the_same_incidences(N):
    for q in range(-1, N + 2):
        up = {(lower, j, upper, sign)
              for upper, terms in derivative_table(q, N) for lower, j, sign in terms}
        down = {(lower, j, upper, sign)
                for lower, terms in codiff_table(q + 1, N) for upper, j, sign in terms}
        assert up == down
        assert len(up) == (math.comb(N, q + 1) * (q + 1) if 0 <= q < N else 0)


def test_tables_are_built_once():
    assert derivative_table(2, 5) is derivative_table(2, 5)
    assert wedge_table(1, 2, 5) is wedge_table(1, 2, 5)

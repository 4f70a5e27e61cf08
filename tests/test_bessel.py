"""Half-integer Bessel evaluation and zero tables.

Oracles: closed trigonometric forms of the low orders (bisection of
sin x = x cos x and relatives, written out independently here) and
scipy.special as a second, independently implemented evaluator.
"""

import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import special

from maxforms import bessel
from maxforms.bessel import _with_slope, eval_j, zeros_j, zeros_jprime


def bisect_oracle(f, lo, hi):
    for _ in range(200):
        if hi - lo < 1e-15:
            break
        mid = 0.5 * (lo + hi)
        if (f(lo) < 0) != (f(mid) < 0):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# -- evaluation -----------------------------------------------------------------


def test_low_orders_match_closed_forms():
    x = np.linspace(0.2, 30.0, 400)
    j1 = np.sqrt(2.0 / (np.pi * x)) * np.sin(x)
    j2 = np.sqrt(2.0 / (np.pi * x)) * (np.sin(x) / x - np.cos(x))
    assert np.max(np.abs(eval_j(1, x) - j1)) < 1e-14
    assert np.max(np.abs(eval_j(2, x) - j2)) < 1e-14


def test_eval_matches_independent_implementation():
    x = np.linspace(0.1, 50.0, 997)
    for n in range(1, 61):
        mine = eval_j(n, x)
        ref = special.jv(n - 0.5, x)
        err = np.abs(mine - ref)
        assert np.max(err) < 1e-12
        mask = np.abs(ref) > 1e-4
        assert np.max(err[mask] / np.abs(ref[mask])) < 1e-10


def test_eval_sweep_against_scipy_up_to_order_60():
    # below the order: relative; above it: scaled by the envelope, since zeros
    # of J make a relative bound meaningless there.  The 2e-12 is set by
    # scipy's own error at high order, not by ours.
    for n in range(1, 61):
        nu = n - 0.5
        below = np.geomspace(1e-2, nu, 200, endpoint=False)
        ref = special.jv(nu, below)
        assert np.max(np.abs(eval_j(n, below) - ref) / np.abs(ref)) < 1e-12
        above = np.linspace(nu, nu + 60.0, 600)
        ref = special.jv(nu, above)
        scale = np.maximum(np.abs(ref), 0.1 * np.sqrt(2.0 / (np.pi * above)))
        assert np.max(np.abs(eval_j(n, above) - ref) / scale) < 2e-12


def test_branch_seam_is_smooth():
    # backward and upward recurrence must agree where evaluation switches
    from maxforms.bessel import _miller, _upward

    for n in (4, 8, 12, 30, 60):
        x = np.array([n - 0.5])
        assert abs(_miller(n, n, x)[0][0] / _upward(n, n, x)[0][0] - 1.0) < 1e-13
        below = np.nextafter(x, 0.0)
        assert abs(eval_j(n, below)[0] / eval_j(n, x)[0] - 1.0) < 1e-13


# top orders of the spans: every order to 44, then sparse up to 200
_SPAN_TOPS = [*range(1, 45), 60, 80, 100, 140, 200]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("hi", _SPAN_TOPS)
def test_span_rows_equal_per_order_evaluation(hi):
    # points at each order's nu and one ulp to either side of it, and random
    # ones below the lowest order and far above the top one; an upward pass
    # that ran a point past its own order would overflow and warn
    rng = np.random.default_rng(hi)
    nus = np.arange(1, hi + 1) - 0.5
    x = np.concatenate([nus, np.nextafter(nus, 0.0), np.nextafter(nus, np.inf),
                        rng.uniform(0.01, 2.5 * hi + 20.0, 60)])
    for lo in sorted({1, max(1, hi - 4), max(1, hi - 2), hi}):
        rows = bessel._j_span(lo, hi, x)
        assert rows.shape == (hi - lo + 1, len(x))
        for k, row in enumerate(rows, lo):
            assert np.array_equal(row, eval_j(k, x)), (lo, hi, k)


def test_span_keeps_the_shape_of_its_points():
    x = np.linspace(0.5, 9.0, 12).reshape(3, 4)
    rows = bessel._j_span(2, 5, x)
    assert rows.shape == (4, 3, 4)
    assert np.array_equal(rows[1], eval_j(3, x))
    assert bessel._j_span(1, 3, np.empty(0)).shape == (3, 0)
    with pytest.raises(ValueError):
        bessel._j_span(0, 2, x)
    with pytest.raises(ValueError):
        bessel._j_span(1, 2, -x)


def test_recurrence_consistency():
    x = np.linspace(1.0, 40.0, 157)
    for n in range(2, 7):
        nu = n - 0.5
        lhs = eval_j(n + 1, x)
        rhs = (2.0 * nu / x) * eval_j(n, x) - eval_j(n - 1, x)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_scalar_and_vector_calls():
    v = eval_j(3, 2.5)
    assert isinstance(v, float)
    arr = eval_j(3, np.array([2.5, 3.5]))
    assert arr.shape == (2,)
    assert arr[0] == pytest.approx(v, abs=1e-15)


def test_eval_rejects_bad_input():
    with pytest.raises(ValueError):
        eval_j(0, 1.0)
    with pytest.raises(ValueError):
        eval_j(2, 0.0)
    with pytest.raises(ValueError):
        eval_j(2, np.array([1.0, -0.5]))


def test_derivative_identity_against_oracle():
    # the zero scan's one upward pass, at x >= nu: (J, J') for "fn", (J', J'')
    # for "dfn"
    for n in (1, 2, 5, 12, 40):
        nu = n - 0.5
        x = np.linspace(nu, nu + 30.0, 211)
        for kind, first in (("fn", 0), ("dfn", 1)):
            for got, order in zip(_with_slope(kind, n)(x), (first, first + 1)):
                ref = special.jvp(nu, x, order)
                assert np.max(np.abs(got - ref)) < 1e-12, (n, kind, order)


# -- zeros ------------------------------------------------------------------------


def test_half_order_zeros_are_multiples_of_pi():
    table = zeros_j(1, 5)
    expect = math.pi * np.arange(1, 6)
    assert np.max(np.abs(table.zeros - expect)) < 1e-11
    assert np.all(table.residuals < 1e-12)


def test_first_zero_order_three_half_tan_oracle():
    # tan x = x, radial Dirichlet ground mode
    oracle = bisect_oracle(lambda x: math.sin(x) - x * math.cos(x), 4.0, 5.0)
    table = zeros_j(2, 1)
    assert table.zeros[0] == pytest.approx(oracle, abs=1e-10)
    assert table.zeros[0] == pytest.approx(4.493409, abs=1e-6)


def test_first_zero_order_five_half_tan_oracle():
    oracle = bisect_oracle(
        lambda x: (3.0 - x * x) * math.sin(x) - 3.0 * x * math.cos(x), 5.0, 6.0
    )
    table = zeros_j(3, 1)
    assert table.zeros[0] == pytest.approx(oracle, abs=1e-10)
    assert table.zeros[0] == pytest.approx(5.763459, abs=1e-5)


def test_first_derivative_zero_tan_oracle():
    # tan x = 2x for the half order
    oracle = bisect_oracle(lambda x: math.sin(x) - 2.0 * x * math.cos(x), 1.0, 1.5)
    table = zeros_jprime(1, 2)
    assert table.zeros[0] == pytest.approx(oracle, abs=1e-10)
    assert table.zeros[0] == pytest.approx(1.165561, abs=1e-6)
    assert np.all(table.residuals < 1e-12)


def test_derivative_zero_precedes_function_zero():
    for n in (1, 2, 3, 4):
        zf = zeros_j(n, 1).zeros[0]
        zd = zeros_jprime(n, 1).zeros[0]
        assert zd < zf
    # landmark value: the order 3/2 peak sits below the first function zero 4.4934
    assert zeros_jprime(2, 1).zeros[0] < 4.4934


def test_zero_tables_ascend_and_interlace():
    for n in (1, 2, 3, 6):
        za = zeros_j(n, 4).zeros
        zb = zeros_j(n + 1, 4).zeros
        assert np.all(np.diff(za) > 0)
        # one zero of the next order between consecutive zeros
        for m in range(3):
            assert za[m] < zb[m] < za[m + 1]


def test_zeros_against_scipy_bracketing():
    # independent route: brentq on scipy.special.jv over scanned brackets
    from scipy.optimize import brentq

    for n in (2, 4, 9, 13, 20, 40):
        nu = n - 0.5
        mine = zeros_j(n, 3).zeros
        xs = np.linspace(0.05, mine[-1] + 1.0, 4000)
        vals = special.jv(nu, xs)
        found = []
        for a, b, fa, fb in zip(xs, xs[1:], vals, vals[1:]):
            if (fa < 0) != (fb < 0):
                found.append(brentq(lambda x: special.jv(nu, x), a, b, xtol=1e-13))
        assert len(found) >= 3
        assert np.max(np.abs(mine - np.array(found[:3]))) < 1e-10


@pytest.mark.parametrize("kind", ["fn", "dfn"])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 20, 30, 45, 60])
def test_newton_zeros_match_mpmath_to_roundoff(n, kind):
    mpmath = pytest.importorskip("mpmath")
    count = 6
    with mpmath.workdps(30):
        nu = mpmath.mpf(2 * n - 1) / 2
        ref = np.array([float(mpmath.besseljzero(nu, m, derivative=int(kind == "dfn")))
                        for m in range(1, count + 1)])
    mine = (zeros_j if kind == "fn" else zeros_jprime)(n, count).zeros
    assert np.max(np.abs(mine - ref) / ref) <= 1e-15


def test_newton_polish_takes_few_passes(monkeypatch, empty_stores):
    # bisection from the pi/8 brackets down to roundoff would take about 50
    passes = []
    polish = bessel._polish

    def counted(f, *brackets):
        calls = []
        out = polish(lambda x: calls.append(x.size) or f(x), *brackets)
        passes.append(len(calls))
        return out

    monkeypatch.setattr(bessel, "_polish", counted)
    for n in (1, 2, 13, 60):
        zeros_j(n, 20)
        zeros_jprime(n, 20)
    assert len(passes) == 8 and max(passes) <= 8


def test_returned_tables_are_copies_of_the_cache():
    first = zeros_jprime(4, 5)
    keep = first.zeros.copy(), first.residuals.copy()
    first.zeros[:] = 0.0
    first.residuals[:] = 1.0
    again = zeros_jprime(4, 5)
    assert np.array_equal(again.zeros, keep[0])
    assert np.array_equal(again.residuals, keep[1])


@pytest.mark.parametrize("kind", ["fn", "dfn"])
@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_shorter_tables_are_bit_identical_prefixes(empty_stores, n, kind):
    zeros = zeros_j if kind == "fn" else zeros_jprime
    fresh = zeros(n, 3)
    empty_stores()
    long_first = zeros(n, 20), zeros(n, 3)
    empty_stores()
    short_first = zeros(n, 3), zeros(n, 20)
    for short, long in (long_first[::-1], short_first):
        assert np.array_equal(short.zeros, fresh.zeros)
        assert np.array_equal(long.zeros[:3], fresh.zeros)
        assert np.array_equal(long.residuals[:3], fresh.residuals)


def test_repeated_frequency_requests_do_not_scan(monkeypatch, empty_stores):
    from maxforms.spectrum2d import base_frequency

    scans = []
    scan = bessel._scan_zeros
    monkeypatch.setattr(bessel, "_scan_zeros", lambda *a, **k: scans.append(a) or scan(*a, **k))
    first = base_frequency(1, 3, 4)
    assert [base_frequency(1, 3, 4) for _ in range(5)] == [first] * 5
    base_frequency(1, 3, 2)  # a shorter table is a prefix of the cached one
    assert len(scans) == 1


def test_a_racing_shorter_table_leaves_the_longer_one(monkeypatch, empty_stores):
    scan = bessel._scan_zeros
    scanning, stored = threading.Event(), threading.Event()

    def held_back(f, start, stop, count):
        zs = scan(f, start, stop, count)
        if count == 5:  # the short scan ends only once the long table is stored
            scanning.set()
            assert stored.wait(timeout=60)
        return zs

    monkeypatch.setattr(bessel, "_scan_zeros", held_back)
    with ThreadPoolExecutor(1) as pool:
        short = pool.submit(zeros_j, 9, 5)
        assert scanning.wait(timeout=60)
        long = zeros_j(9, 20)
        stored.set()
        short = short.result(timeout=60)
    assert np.array_equal(short.zeros, long.zeros[:5])
    assert len(bessel._TABLES["fn", 9]) == 20


def test_zero_count_must_be_positive():
    with pytest.raises(ValueError):
        zeros_j(1, 0)

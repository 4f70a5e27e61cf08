"""Exterior algebra and calculus on box forms, both representations."""

import functools
import gc
import itertools
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import maxforms.exterior as exterior
from maxforms.exterior import (
    FieldForm,
    GridScalar,
    ScalarField,
    SmoothMap,
    _compound,
    _ZERO,
    _PullbackCoefficient,
    _Scaled,
    codiff,
    codiff_expansion,
    evaluate,
    ext_d,
    grid_form_from_json,
    grid_form_to_json,
    hodge,
    pullback,
    transform_eps,
    transform_mu,
    wedge,
)
from maxforms.multiindex import (
    MultiIndex,
    complement,
    concat_sign,
    enumerate_ordered,
    hodge_table,
    insert_sign,
    sign_constants,
)

from maxforms.spectrum2d import maxwell_residual_2d

from formutil import (
    ClosurePairField,
    chain_ruled_pullback,
    coordinate,
    form_max_abs,
    form_max_diff,
    grid_max_abs,
    interior,
    out_of_place_codiff,
    out_of_place_codiff_expansion,
    out_of_place_ext_d,
    out_of_place_wedge,
    random_callable_form,
    random_grid_form,
    race,
    radial_power,
    sample_points,
)

RNG = np.random.default_rng(20240817)


# -- algebraic structure ------------------------------------------------------


def test_component_keys_match_index_set():
    for N in range(1, 5):
        for q in range(-1, N + 2):
            form = FieldForm.zero(N, q)
            assert tuple(form.components) == enumerate_ordered(q, N)


def test_hodge_sign_example():
    # dx^(1,3) in four dimensions lands on (2,4) with a negative sign
    form = FieldForm.from_callable(4, 2, {(1, 3): ScalarField.constant(1.0)})
    starred = evaluate(hodge(form), np.zeros(4))
    assert starred[(2, 4)] == pytest.approx(-1.0)
    assert all(abs(v) == 0 for k, v in starred.items() if tuple(k) != (2, 4))


def test_double_hodge_is_sign_constant():
    pts = sample_points(3, RNG)
    for N in (1, 2, 3, 4):
        for q in range(0, N + 1):
            a = random_callable_form(N, q, RNG)
            twice = hodge(hodge(a))
            kappa = sign_constants(q, N).double_hodge
            assert form_max_diff(twice, kappa * a, sample_points(N, RNG)) < 1e-14


def test_hodge_commutes_with_scalar_multiply():
    a = random_callable_form(3, 2, RNG)
    c = 0.7 - 1.3j
    assert form_max_diff(hodge(c * a), c * hodge(a), sample_points(3, RNG)) < 1e-14


def test_wedge_anticommutation():
    for N, p, q in [(3, 1, 1), (3, 1, 2), (4, 2, 1), (4, 2, 2)]:
        a = random_callable_form(N, p, RNG)
        b = random_callable_form(N, q, RNG)
        lhs = wedge(a, b)
        rhs = ((-1) ** (p * q)) * wedge(b, a)
        assert form_max_diff(lhs, rhs, sample_points(N, RNG)) < 1e-12


def test_wedge_degree_overflow_is_zero_form():
    a = random_callable_form(2, 1, RNG)
    b = random_callable_form(2, 2, RNG)
    prod = wedge(a, b)
    assert prod.components == {}
    assert not 0 <= prod.q <= prod.N


def test_zero_form_scalar_multiplication_via_wedge():
    # wedging with a 0-form is coefficientwise multiplication
    phi = random_callable_form(3, 0, RNG)
    a = random_callable_form(3, 2, RNG)
    prod = wedge(phi, a)
    pts = sample_points(3, RNG)
    for x in pts:
        scalar = evaluate(phi, x)[()]
        va = evaluate(a, x)
        vp = evaluate(prod, x)
        for k in va:
            assert vp[k] == pytest.approx(scalar * va[k], abs=1e-13)


def test_hodge_of_scalar_times_form():
    phi = random_callable_form(3, 0, RNG)
    a = random_callable_form(3, 1, RNG)
    lhs = hodge(wedge(phi, a))
    rhs = wedge(phi, hodge(a))
    assert form_max_diff(lhs, rhs, sample_points(3, RNG)) < 1e-12


# -- derivative identities, callable route ------------------------------------


def test_dd_zero_callable():
    for N in (2, 3, 4):
        for q in range(0, N - 1):
            a = random_callable_form(N, q, RNG)
            dd = ext_d(ext_d(a))
            assert form_max_abs(dd, sample_points(N, RNG)) < 1e-12


def test_codiff_routes_agree():
    for N in (1, 2, 3, 4):
        for q in range(1, N + 1):
            a = random_callable_form(N, q, RNG)
            assert (
                form_max_diff(codiff(a), codiff_expansion(a), sample_points(N, RNG))
                < 1e-12
            )


def test_codiff_codiff_zero():
    for N in (2, 3, 4):
        for q in range(2, N + 1):
            a = random_callable_form(N, q, RNG)
            dd = codiff(codiff(a))
            assert form_max_abs(dd, sample_points(N, RNG)) < 1e-12


def test_codiff_on_explicit_one_form():
    # divergence convention: no extra sign in this grading
    f = ScalarField.harmonic([1.0, 2.0], 0.3)
    g = ScalarField.harmonic([2.0, -1.0], 1.1)
    a = FieldForm.from_callable(2, 1, {(1,): f, (2,): g})
    div = codiff(a)
    x = np.array([0.4, 0.7])
    expect = f.partial(1)(x) + g.partial(2)(x)
    assert evaluate(div, x)[()] == pytest.approx(expect, abs=1e-13)


def test_leibniz_callable():
    for N, p, q in [(2, 0, 1), (3, 1, 1), (4, 1, 2)]:
        a = random_callable_form(N, p, RNG)
        b = random_callable_form(N, q, RNG)
        lhs = ext_d(wedge(a, b))
        rhs = wedge(ext_d(a), b) + ((-1) ** p) * wedge(a, ext_d(b))
        assert form_max_diff(lhs, rhs, sample_points(N, RNG)) < 1e-10


# -- derivative identities, grid route ----------------------------------------


def test_dd_zero_grid_exact():
    # integer samples and power-of-two spacing keep every difference exact
    for N, q in [(2, 0), (3, 1), (4, 2)]:
        a = random_grid_form(N, q, RNG, integer=True)
        dd = ext_d(ext_d(a))
        for v in dd.components.values():
            assert np.all(v.values == 0.0)


def test_dd_grid_generic_floats_near_zero():
    a = random_grid_form(3, 1, RNG, integer=False)
    dd = ext_d(ext_d(a))
    # generic floats: cancellation is exact only up to rounding of the stencils
    assert grid_max_abs(dd) < 1e-9


def test_codiff_routes_agree_grid():
    a = random_grid_form(3, 2, RNG)
    d1 = codiff(a)
    d2 = codiff_expansion(a)
    worst = max(
        float(np.max(np.abs(d1.components[k].values - d2.components[k].values)))
        for k in d1.components
    )
    assert worst < 1e-12


def _smooth_grid_form(N, q, M, fns):
    axes = [np.linspace(0.0, 1.0, M, endpoint=False) for _ in range(N)]
    mesh = np.meshgrid(*axes, indexing="ij")
    spacing = (1.0 / M,) * N
    comps = {}
    for I, fn in fns.items():
        comps[I] = GridScalar(fn(*mesh), spacing)
    return FieldForm.from_grid(N, q, comps, spacing)


def test_leibniz_grid_first_order():
    # forward differences satisfy the product rule only to O(h)
    def residual(M):
        a = _smooth_grid_form(2, 0, M, {(): lambda x, y: np.sin(2 * x + y)})
        b = _smooth_grid_form(
            2,
            1,
            M,
            {(1,): lambda x, y: np.cos(x - y), (2,): lambda x, y: np.sin(x * y + 0.2)},
        )
        lhs = ext_d(wedge(a, b))
        rhs = wedge(ext_d(a), b) + wedge(a, ext_d(b))
        diff = lhs - rhs
        return grid_max_abs(diff, margin=2)

    r32, r64 = residual(32), residual(64)
    assert r32 > r64
    assert r32 / r64 == pytest.approx(2.0, rel=0.35)


# -- pullback and material transformations ------------------------------------


def _curved_map():
    def fn(v):
        return np.array([v[0] + 0.1 * np.sin(v[1]), v[1] + 0.1 * v[0] ** 2])

    def jac(v):
        # rows: source axis, columns: target component; constant entries follow
        # the point layout of v
        one = np.ones_like(v[0])
        return np.array([[one, 0.2 * v[0]], [0.1 * np.cos(v[1]), one]])

    return SmoothMap(fn=fn, jacobian=jac, source_dim=2, target_dim=2)


def test_pullback_of_coordinate_differential():
    tau = _curved_map()
    dx1 = FieldForm.from_callable(2, 1, {(1,): ScalarField.constant(1.0)})
    pulled = pullback(tau, dx1)
    v = np.array([0.3, 0.8])
    vals = evaluate(pulled, v)
    J = tau.jac(v)
    assert vals[(1,)] == pytest.approx(J[0, 0])
    assert vals[(2,)] == pytest.approx(J[1, 0])


def test_pullback_affine_scaling():
    tau = SmoothMap.affine(2.0 * np.eye(2))
    dx1 = FieldForm.from_callable(2, 1, {(1,): ScalarField.constant(1.0)})
    vals = evaluate(pullback(tau, dx1), np.array([0.2, 0.5]))
    assert vals[(1,)] == pytest.approx(2.0)
    assert vals[(2,)] == pytest.approx(0.0)


def test_pullback_respects_wedge():
    tau = _curved_map()
    a = random_callable_form(2, 1, RNG)
    b = random_callable_form(2, 1, RNG)
    lhs = pullback(tau, wedge(a, b))
    rhs = wedge(pullback(tau, a), pullback(tau, b))
    assert form_max_diff(lhs, rhs, sample_points(2, RNG)) < 1e-12


def test_pullback_naturality_curved():
    tau = _curved_map()
    for q in (0, 1):
        a = random_callable_form(2, q, RNG)
        lhs = ext_d(pullback(tau, a))
        rhs = pullback(tau, ext_d(a))
        assert form_max_diff(lhs, rhs, sample_points(2, RNG)) < 1e-8


def _mild_affine_3d():
    A = np.array([[1.0, 0.2, 0.0], [0.0, 0.9, -0.1], [0.3, 0.0, 1.1]])
    return SmoothMap.affine(A, b=[0.1, -0.2, 0.05])


def test_pullback_naturality_affine_3d():
    tau = _mild_affine_3d()
    for q in (0, 1, 2):
        a = random_callable_form(3, q, RNG)
        lhs = ext_d(pullback(tau, a))
        rhs = pullback(tau, ext_d(a))
        # exact chain rule: the two sides differ by roundoff only
        assert form_max_diff(lhs, rhs, sample_points(3, RNG)) <= 1e-13


def test_affine_pullback_partials_match_central_differences():
    tau = _mild_affine_3d()
    for q in (0, 1, 2):
        for f in pullback(tau, random_callable_form(3, q, RNG)).components.values():
            for j in (1, 2, 3):
                fd = ScalarField(f.fn).partial(j)  # no rule: central differences
                for x in sample_points(3, RNG):
                    assert abs(f.partial(j)(x) - fd(x)) < 1e-8


def _random_spd_affine(N, rng):
    B = rng.normal(size=(N, N))
    A = B @ B.T + 0.8 * N * np.eye(N)
    return SmoothMap.affine(A, b=rng.normal(size=N))


def test_transform_identity_map():
    tau = SmoothMap.affine(np.eye(3))
    a = random_callable_form(3, 1, RNG)
    assert form_max_diff(transform_eps(tau, a), a, sample_points(3, RNG)) < 1e-12
    assert form_max_diff(transform_mu(tau, a), a, sample_points(3, RNG)) < 1e-12


def test_transforms_are_mutually_inverse():
    for N, q in [(2, 1), (3, 1), (3, 2)]:
        tau = _random_spd_affine(N, RNG)
        a = random_callable_form(N, q, RNG)
        roundtrip = transform_eps(tau, transform_mu(tau, a))
        assert form_max_diff(roundtrip, a, sample_points(N, RNG)) < 1e-10


def test_transform_intertwines_star_and_pullback():
    tau = _random_spd_affine(3, RNG)
    a = random_callable_form(3, 1, RNG)
    lhs = hodge(transform_eps(tau, pullback(tau, a)))
    rhs = pullback(tau, hodge(a))
    assert form_max_diff(lhs, rhs, sample_points(3, RNG)) < 1e-10


def test_conformal_scaling_is_transform_neutral():
    # half dimension: uniform scalings leave the material tensor alone
    tau = SmoothMap.affine(1.7 * np.eye(2), b=[0.3, -0.1])
    a = random_callable_form(2, 1, RNG)
    assert form_max_diff(transform_eps(tau, a), a, sample_points(2, RNG)) < 1e-10


def test_orientation_reversing_rejected():
    flip = np.diag([1.0, -1.0])
    tau = SmoothMap.affine(flip)
    a = random_callable_form(2, 1, RNG)
    with pytest.raises(ValueError):
        transform_eps(tau, a)


def test_orientation_probed_when_the_jacobian_is_not_constant():
    probed = replace(SmoothMap.affine(np.diag([1.0, -1.0])), constant_jacobian=None)
    dx1 = FieldForm.from_callable(2, 1, {(1,): ScalarField.constant(1.0)})
    with pytest.raises(ValueError, match="orientation"):
        transform_mu(probed, dx1)


def test_invertibility_and_orientation_survive_a_determinant_below_the_float_range():
    # det(1e-100 I) = 1e-400 underflows to 0, yet the map is invertible
    tau = SmoothMap.affine(1e-100 * np.eye(4))
    x = RNG.uniform(-1.0, 1.0, (4, 6))
    assert np.max(np.abs(tau.inverse(tau(x)) - x)) <= 1e-12
    a = random_callable_form(4, 2, RNG)  # half dimension: a scaling is transform neutral
    assert form_max_diff(transform_eps(tau, a), a, sample_points(4, RNG)) < 1e-10
    flip = SmoothMap.affine(np.diag([1e-100, 1e-100, 1e-100, -1e-100]))
    assert flip.inverse is not None
    with pytest.raises(ValueError, match="orientation-reversing"):
        transform_eps(flip, a)
    with pytest.raises(ValueError, match="orientation-reversing"):  # and when probed
        transform_eps(replace(flip, constant_jacobian=None), a)
    assert SmoothMap.affine(np.zeros((2, 2))).inverse is None


# -- representation handling ---------------------------------------------------


def test_mixed_representation_wedge_rejected():
    a = random_callable_form(2, 1, RNG)
    b = random_grid_form(2, 1, RNG)
    with pytest.raises(ValueError):
        wedge(a, b)


def _assert_zero_form(form, N, q, like=None):
    """Exactly the degree-q keys, every value zero; on `like`'s grid if given."""
    assert (form.N, form.q) == (N, q)
    assert tuple(form.components) == enumerate_ordered(q, N)
    for v in form.components.values():
        if like is None:
            assert isinstance(v, ScalarField) and v(np.full(N, 0.3)) == 0
        else:
            assert v.grid == like.grid and not v.values.any()


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("grid", [False, True], ids=["callable", "grid"])
def test_out_of_range_degrees_give_zero_forms_on_the_full_index_set(N, grid):
    make = random_grid_form if grid else random_callable_form
    f0, f1, top = (make(N, q, RNG) for q in (0, 1, N))
    like = f1.components[(1,)] if grid else None
    below, above = codiff(f0), ext_d(top)
    _assert_zero_form(below, N, -1)
    _assert_zero_form(above, N, N + 1)
    for form, q in [(ext_d(below), 0), (ext_d(above), N + 2), (hodge(below), N + 1),
                    (hodge(above), -1), (codiff(below), -2), (codiff(above), N),
                    (codiff_expansion(f0), -1), (codiff_expansion(below), -2),
                    (codiff_expansion(above), N), (wedge(above, below), N),
                    (wedge(top, f1), N + 1), (wedge(f1, above), N + 2)]:
        _assert_zero_form(form, N, q)
    # an empty sum takes the representation of the operand that has components
    _assert_zero_form(wedge(below, f1), N, 0, like)
    _assert_zero_form(wedge(f1, below), N, 0, like)
    if not grid:
        tau = SmoothMap.affine(np.eye(N))
        _assert_zero_form(pullback(tau, below), N, -1)
        _assert_zero_form(pullback(tau, above), N, N + 1)


def test_constructors_refuse_keys_outside_the_index_set():
    f = ScalarField.constant(1.0)
    for extra in ({(3,): f}, {(2, 1): f}, {(1,): f, (1, 2): f}):
        with pytest.raises(ValueError, match="outside"):
            FieldForm.from_callable(2, 1, extra)
        with pytest.raises(ValueError, match="outside"):
            FieldForm.from_grid(2, 1, {k: np.ones((2, 2)) for k in extra}, (0.5, 0.5))
    # the bare constructor names an outside key before a missing one
    with pytest.raises(ValueError, match=r"outside degree-1 index set: \[\(3,\)\]"):
        FieldForm(2, 1, {(1,): f, (3,): f})
    with pytest.raises(ValueError, match="missing components"):
        FieldForm(2, 1, {(1,): f})


def test_from_grid_zero_fills_on_the_grid_of_its_components():
    g = GridScalar(np.ones((3, 2)), (0.5, 0.25), (1.0, 0.0))
    form = FieldForm.from_grid(2, 1, {(2,): g}, (0.5, 0.25), (1.0, 0.0))
    assert form.components[(2,)] is g
    assert form.components[(1,)].grid == g.grid and not form.components[(1,)].values.any()


def test_grid_serialization_roundtrip():
    a = random_grid_form(2, 1, RNG, shape=(5, 7), spacing=(0.25, 0.125))
    text = grid_form_to_json(a)
    back = grid_form_from_json(text)
    assert back.N == a.N and back.q == a.q
    for k, v in a.components.items():
        assert np.array_equal(back.components[k].values, v.values)
        assert back.components[k].grid == v.grid
    # round-trip of the serialized text itself is stable
    assert grid_form_to_json(back) == text


def test_interior_mask():
    arr = np.arange(16.0).reshape(4, 4)
    assert interior(arr, 1).shape == (3, 3)
    assert interior(arr, 0).shape == (4, 4)


def test_central_difference_fallback_accuracy():
    f = ScalarField(lambda x: np.sin(2.0 * x[0]) * np.cos(x[1]))
    x = np.array([0.4, 1.1])
    exact = 2.0 * np.cos(2.0 * x[0]) * np.cos(x[1])
    assert abs(f.partial(1)(x) - exact) < 1e-9


# -- batched evaluation --------------------------------------------------------


def _assert_batch_matches_points(field, X):
    single = np.array([field(X[:, p]) for p in range(X.shape[1])])
    batch = np.broadcast_to(field(X), single.shape)
    assert np.max(np.abs(batch - single)) <= 1e-15 * np.max(np.abs(single))


def test_batched_fields_match_pointwise():
    X = RNG.uniform(0.2, 0.8, (3, 9))
    leaf = ScalarField(lambda x: np.sin(2.0 * x[0]) * x[2])
    fields = [
        ScalarField.constant(0.5 - 2.0j),
        coordinate(2),
        ScalarField.harmonic([1.0, -2.0, 1.0], 0.4, 1.0 - 1.0j),
        radial_power(-1.5),
        leaf,
    ]
    fields += [fields[2] + fields[3], fields[1] * fields[2], 3.0j * fields[3], leaf - fields[0]]
    fields += [f.partial(j) for f in fields for j in (1, 3)]
    for f in fields:
        _assert_batch_matches_points(f, X)


def test_batched_form_operations_match_pointwise():
    N = 4
    tau = _random_spd_affine(N, RNG)
    X = RNG.uniform(0.2, 0.8, (N, 9))
    a = random_callable_form(N, 2, RNG)
    b = random_callable_form(N, 1, RNG)
    forms = [hodge(a), wedge(a, b), ext_d(a), codiff(a), pullback(tau, a),
             ext_d(pullback(tau, a)), transform_eps(tau, a), transform_mu(tau, a),
             transform_eps(tau, transform_mu(tau, a))]
    curved = _curved_map()
    for q in (0, 1, 2):
        forms.append(ext_d(pullback(curved, random_callable_form(2, q, RNG))))
    for form in forms:
        pts = X[: form.N]
        for f in form.components.values():
            _assert_batch_matches_points(f, pts)


def test_nested_pullbacks_evaluate_each_leaf_once_per_batch():
    calls = Counter()

    def counted(I, f):
        def fn(x):
            calls[I] += 1
            return f(x)

        return ScalarField(fn)

    base = random_callable_form(4, 2, RNG)
    a = FieldForm.from_callable(4, 2, {I: counted(I, f) for I, f in base.components.items()})
    tau = _random_spd_affine(4, RNG)
    out = transform_eps(tau, transform_mu(tau, a))
    for batch in (RNG.uniform(0.2, 0.8, (4, 5)), RNG.uniform(0.2, 0.8, 4)):
        calls.clear()
        for f in out.components.values():
            f(batch)
        # four nested pullbacks, yet one call per leaf, not C(4, 2)^4
        assert calls == Counter(dict.fromkeys(a.components, 1))
    assert form_max_diff(out, a, sample_points(4, RNG)) < 1e-12


# -- the chain-rule evaluator and the exact zero -------------------------------


def _form_with_flat_axes(N, q, rng):
    """A random form whose waves each have one zero-frequency axis, beside a
    wave with all frequencies drawn, so that some leaf partials are zero."""
    def field():
        k = rng.integers(-2, 3, N)
        k[rng.integers(N)] = 0
        flat = ScalarField.harmonic(k, rng.uniform(0.0, 2.0 * np.pi), rng.normal() + 1j)
        return flat + ScalarField.harmonic(rng.integers(-1, 2, N), rng.uniform(0.0, 6.0),
                                           1j * rng.normal() - 0.5)

    return FieldForm.from_callable(N, q, {I: field() for I in enumerate_ordered(q, N)})


def _chain_ruled_leaves(tau, a, axes=()):
    """pullback(tau, a) as leaves whose values and partials of every order are
    those of the chain-ruled route."""
    pulled = chain_ruled_pullback(tau, a, axes)
    return FieldForm(pulled.N, pulled.q, {
        I: ScalarField(f.fn, lambda j, I=I: _chain_ruled_leaves(tau, a, axes + (j,)).components[I])
        for I, f in pulled.components.items()})


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_pullback_partials_equal_the_chain_ruled_route_bitwise(N):
    rng = np.random.default_rng(1100 + N)
    tau = _random_spd_affine(N, rng)
    X = rng.uniform(0.2, 0.8, (N, 5))
    for q in range(N + 1):
        for a in (random_callable_form(N, q, rng, max_freq=1), _form_with_flat_axes(N, q, rng)):
            pulled = pullback(tau, a)
            axes_list = [(j,) for j in range(1, N + 1)]
            axes_list += [(j, k) for j in range(1, N + 1) for k in range(1, N + 1)]
            pairs = [(ext_d(ext_d(pulled)), ext_d(ext_d(_chain_ruled_leaves(tau, a))))]
            for axes in axes_list:
                got = {I: functools.reduce(ScalarField.partial, axes, f)
                       for I, f in pulled.components.items()}
                pairs.append((FieldForm(N, q, got), chain_ruled_pullback(tau, a, axes)))
            for x in (X[:, 0], X[:, 3], X):
                for got, want in pairs:
                    for I, f in got.components.items():
                        np.testing.assert_array_equal(np.asarray(f(x)),
                                                      np.asarray(want.components[I](x)),
                                                      strict=True)


def test_ext_d_of_a_pullback_evaluates_each_leaf_partial_once_per_batch():
    calls = Counter()

    def counted(name, f):
        def fn(x):
            calls[name] += 1
            return f.fn(x)

        return ScalarField(fn, lambda l: counted(name + (l,), f.partial(l)))

    N = 4
    base = random_callable_form(N, 2, RNG)
    a = FieldForm.from_callable(N, 2, {I: counted((I,), f) for I, f in base.components.items()})
    tau = _random_spd_affine(N, RNG)
    d_pulled = ext_d(pullback(tau, a))
    for batch in (RNG.uniform(0.2, 0.8, (N, 5)), RNG.uniform(0.2, 0.8, N)):
        calls.clear()
        for f in d_pulled.components.values():
            f(batch)
        # every partial of every component, once, though N source axes ask for each
        assert calls == Counter({(I, l): 1 for I in a.components for l in range(1, N + 1)})


def test_the_exact_zero_folds_and_evaluates_to_complex_zeros():
    assert ScalarField.harmonic([0, 1]).partial(1) is _ZERO
    assert ScalarField.harmonic([0, 1]).partial(2) is not _ZERO
    f = ScalarField.harmonic([1.0, -2.0], 0.3, 1.0 - 0.5j)
    assert f + _ZERO is f and _ZERO + f is f
    assert _ZERO * f is _ZERO and f * _ZERO is _ZERO
    assert 2.5j * _ZERO is _ZERO and _ZERO * 3.0 is _ZERO and -_ZERO is _ZERO
    assert f * 0.0 is not _ZERO  # only the exact zero folds, by identity
    with pytest.raises(TypeError):
        _ZERO * None
    assert ScalarField.constant(2.0).partial(1) is _ZERO
    assert ScalarField.constant(0.0) is _ZERO and f.zero_like() is _ZERO
    assert FieldForm.from_callable(2, 1, {(1,): f}).components[(2,)] is _ZERO
    assert _ZERO.partial(2) is _ZERO
    point = _ZERO(np.array([0.3, 0.7]))
    assert point == 0j and point.shape == () and point.dtype == complex
    batch = _ZERO(RNG.uniform(0.2, 0.8, (2, 6)))
    np.testing.assert_array_equal(batch, np.zeros(6, complex), strict=True)


def test_threads_racing_on_one_pullbacks_partials_read_the_serial_values():
    """4 threads, each at its own points, evaluate the partials of one pullback,
    which keeps one batch: each must read its own batch's values bitwise."""
    N = 3
    rng = np.random.default_rng(41)
    tau = _random_spd_affine(N, rng)
    a = _form_with_flat_axes(N, 1, rng)
    points = [[rng.uniform(0.2, 0.8, N), rng.uniform(0.2, 0.8, (N, 4))] for _ in range(4)]

    def partials(pulled):
        fields = list(pulled.components.values())
        return ([f.partial(j) for f in fields for j in range(1, N + 1)]
                + [f.partial(j).partial(k) for f in fields for j in (1, 3) for k in (2, 3)])

    serial = [[[np.asarray(f(x)) for f in partials(pullback(tau, a))] for x in xs]
              for xs in points]
    shared = partials(pullback(tau, a))

    def work(i):
        turn = 7 * i  # each thread takes the partials in its own order
        fields = shared[turn:] + shared[:turn]
        for _ in range(50):
            for x, want in zip(points[i], serial[i], strict=True):
                for f, v in zip(fields, want[turn:] + want[:turn], strict=True):
                    np.testing.assert_array_equal(np.asarray(f(x)), v, strict=True)
        return i

    assert race(work) == [0, 1, 2, 3]


def test_evaluate_takes_exactly_one_point_of_the_forms_dimension():
    a = random_callable_form(2, 1, RNG)
    assert set(evaluate(a, [0.3, 0.4])) == {(1,), (2,)}
    with pytest.raises(ValueError, match=r"shape \(2,\), not shape \(3,\)"):
        evaluate(a, np.array([0.3, 0.4, 0.5]))
    with pytest.raises(ValueError, match=r"not shape \(2, 5\)"):
        evaluate(a, RNG.uniform(0.2, 0.8, (2, 5)))


# -- grid fast paths against the plain formulas -------------------------------
#
# The references work on raw component arrays: np.roll for the forward
# difference, every sign an explicit complex multiplication, a - b as
# a + (-1) * b.  The operators must agree with them entry for entry (==, under
# which the two zeros are equal: -v and (-1 + 0j) * v may sign a zero apart).

GRID_SPACING = {3: (0.125, 0.1, 0.3), 4: (0.125, 0.1, 0.3, 0.5)}


def _integer_grid_form(N, q, rng, first=5):
    shape = (first,) + (5,) * (N - 1)
    comps = {I: rng.integers(-4, 5, shape) + 1j * rng.integers(-4, 5, shape)
             for I in enumerate_ordered(q, N)}
    return FieldForm.from_grid(N, q, comps, GRID_SPACING[N])


def _slab_budgets(monkeypatch, row_bytes):
    """Set the grid sweeps' slab budget to the default, which takes a small
    grid in one slab, then to one row and to two rows, which do not divide a
    first axis of 5: yields the rows per slab, None for the default."""
    default = exterior._SLAB_BYTES
    for rows in (None, 1, 2):
        monkeypatch.setattr(exterior, "_SLAB_BYTES", default if rows is None else rows * row_bytes)
        yield rows
    monkeypatch.setattr(exterior, "_SLAB_BYTES", default)


def _arrays(form):
    return {I: v.values for I, v in form.components.items()}


def _ref_partial(v, j, N):
    return (np.roll(v, -1, axis=j - 1) - v) / GRID_SPACING[N][j - 1]


def _ref_hodge(c, N, q):
    return {complement(I, N): complex(concat_sign(I, complement(I, N))) * c[I]
            for I in enumerate_ordered(q, N)}


def _ref_sum(terms):
    acc = None
    for term in terms:
        acc = term if acc is None else acc + term
    return acc


def _ref_ext_d(c, N, q):
    return {I: _ref_sum(complex(insert_sign(j, I.remove(j))) * _ref_partial(c[I.remove(j)], j, N)
                        for j in I)
            for I in enumerate_ordered(q + 1, N)}


def _ref_codiff(c, N, q):
    sign = complex(sign_constants(q, N).codiff_sign)
    inner = _ref_hodge(_ref_ext_d(_ref_hodge(c, N, q), N, N - q), N, N - q + 1)
    return {I: sign * v for I, v in inner.items()}


def _ref_codiff_expansion(c, N, q):
    return {I: _ref_sum(complex(insert_sign(j, I)) * _ref_partial(c[I.insert(j)], j, N)
                        for j in complement(I, N))
            for I in enumerate_ordered(q - 1, N)}


def _ref_wedge(a, qa, b, qb, N):
    out = {}
    for K in enumerate_ordered(qa + qb, N):
        terms = []
        for I in itertools.combinations(K, qa):
            J = tuple(i for i in K if i not in I)
            terms.append(complex(concat_sign(I, J)) * (a[MultiIndex(I)] * b[MultiIndex(J)]))
        out[K] = _ref_sum(terms)
    return out


def _assert_components_equal(form, ref):
    assert set(form.components) == set(ref)
    for I, v in form.components.items():
        np.testing.assert_array_equal(v.values, ref[I], strict=True)


@pytest.mark.parametrize("N", [3, 4])
def test_grid_operators_match_roll_and_multiply_formulas(N, monkeypatch):
    rng = np.random.default_rng(100 + N)
    # first axes of 5, 1 and 2 rows, each swept in one slab, by rows, and by two rows
    for first in (5, 1, 2):
        for _ in _slab_budgets(monkeypatch, 16 * 5 ** (N - 1)):
            for q in range(N + 1):
                a = _integer_grid_form(N, q, rng, first)
                b = _integer_grid_form(N, q, rng, first)
                c = _arrays(a)
                _assert_components_equal(hodge(a), _ref_hodge(c, N, q))
                if q < N:
                    _assert_components_equal(ext_d(a), _ref_ext_d(c, N, q))
                if q > 0:
                    _assert_components_equal(codiff(a), _ref_codiff(c, N, q))
                    _assert_components_equal(codiff_expansion(a),
                                             _ref_codiff_expansion(c, N, q))
                _assert_components_equal(
                    a - b, {I: c[I] + complex(-1) * b.components[I].values for I in c})
                _assert_components_equal(-a, {I: complex(-1) * v for I, v in c.items()})
                for qb in range(N - q + 1):
                    e = _integer_grid_form(N, qb, rng, first)
                    _assert_components_equal(wedge(a, e), _ref_wedge(c, q, _arrays(e), qb, N))


@pytest.mark.parametrize("shape", [(5, 4, 3, 4), (1, 4, 3), (2, 3), (7,), (1,), (3, 1, 2),
                                   (2, 2, 1, 3)])
def test_grid_partial_on_every_axis_matches_the_roll_formula(shape):
    rng = np.random.default_rng(len(shape) + sum(shape))
    spacing = (0.1, 0.3, 0.7, 0.45)[:len(shape)]
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for layout in (values.copy(), np.asfortranarray(values)):
        g = GridScalar(layout, spacing)
        for axis in range(1, len(shape) + 1):
            d = g.partial(axis)
            assert d.grid == g.grid and not np.shares_memory(d.values, g.values)
            want = (np.roll(values, -1, axis=axis - 1) - values) / spacing[axis - 1]
            np.testing.assert_array_equal(d.values, want, strict=True)
        np.testing.assert_array_equal(g.values, values, strict=True)  # never written


def test_point_grid_sums_go_as_signed_copies():
    # a grid of no axes has no rows to sweep
    a = FieldForm.from_grid(0, 0, {(): np.array(2.0 + 1j)}, ())
    b = FieldForm.from_grid(0, 0, {(): np.array(-0.5 + 3j)}, ())
    out = wedge(a, b).components[()].values
    assert out.shape == () and out == (2.0 + 1j) * (-0.5 + 3j)


def test_grid_negation_flips_exactly_the_complex_signs():
    values = np.array([[0.0, -0.0, 1.5 - 0.0j], [complex(-0.0, 2.0), np.nan, -np.inf + 1j]])
    neg = -GridScalar(values, (0.5, 0.25))
    for got, x in zip(neg.values.ravel(), values.ravel()):
        for part, ref in ((got.real, x.real), (got.imag, x.imag)):
            assert np.signbit(part) != np.signbit(ref)
            assert part == -ref or (np.isnan(part) and np.isnan(ref))


def test_grid_scalar_unit_multiples_skip_the_pass():
    g = GridScalar(np.arange(6.0).reshape(2, 3) - 2.5j, (0.5, 0.25))
    assert 1 * g is g and g * 1.0 is g and (1 + 0j) * g is g
    neg = -1 * g
    assert neg is not g and neg.grid == g.grid
    np.testing.assert_array_equal(neg.values, -g.values)
    assert g.values[0, 0] == -2.5j  # never written in place
    form = FieldForm.from_grid(2, 1, {(1,): g, (2,): g}, (0.5, 0.25))
    assert all(v is g for v in (1 * form).components.values())


# -- the node algebra against closure pairs -----------------------------------


def _relations(a, b, tau):
    """Both sides of each relation of acceptance criterion 02, as forms."""
    kappa = sign_constants(a.q, a.N).double_hodge
    forms = [ext_d(ext_d(a)), hodge(hodge(a)), kappa * a,
             ext_d(pullback(tau, a)), pullback(tau, ext_d(a)),
             transform_eps(tau, transform_mu(tau, a)), a]
    if a.q >= 1:
        forms += [codiff(a), codiff_expansion(a)]
    if b is not None:
        forms += [ext_d(wedge(a, b)),
                  wedge(ext_d(a), b) + ((-1) ** a.q) * wedge(a, ext_d(b))]
    return forms


def _component_values(forms, x):
    return [np.asarray(f(x)) for form in forms for f in form.components.values()]


def _relation_forms(N, q, seed, tau, field):
    rng = np.random.default_rng(seed)
    a = random_callable_form(N, q, rng, max_freq=1, field=field)
    b = random_callable_form(N, 1, rng, max_freq=1, field=field) if q + 1 <= N else None
    return _relations(a, b, tau)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_node_algebra_matches_closure_pairs_bitwise(N):
    rng = np.random.default_rng(400 + N)
    tau = _random_spd_affine(N, rng)
    X = rng.uniform(0.2, 0.8, (N, 5))
    for q in range(N + 1):
        seed = int(rng.integers(2**32))
        nodes = _relation_forms(N, q, seed, tau, ScalarField)
        pairs = _relation_forms(N, q, seed, tau, ClosurePairField)
        # each side is built in its own algebra: d d a and the double hodge of
        # the closure-pair form hold closure pairs only, those of the other none
        for form in pairs[:2]:
            assert all(type(f) is ClosurePairField for f in form.components.values())
        assert not any(isinstance(f, ClosurePairField)
                       for form in nodes for f in form.components.values())
        for x in (X[:, 0], X[:, 3], X):
            for u, v in zip(_component_values(nodes, x), _component_values(pairs, x),
                            strict=True):
                np.testing.assert_array_equal(u, v, strict=True)


def _build_and_evaluate_relations(seed):
    rng = np.random.default_rng(seed)
    for N in range(1, 5):
        tau = _random_spd_affine(N, rng)
        X = rng.uniform(0.2, 0.8, (N, 4))
        for q in range(N + 1):
            forms = _relation_forms(N, q, int(rng.integers(2**32)), tau, ScalarField)
            _component_values(forms, X)
            _component_values(forms, X[:, 0])
    # the separable fields of an eigenform, through their Cartesian partials
    maxwell_residual_2d(1, 2, 1, samples=8)
    maxwell_residual_2d(0, 1, 2, samples=8)


def test_node_expressions_leave_nothing_for_the_cyclic_collector():
    _build_and_evaluate_relations(1)  # fills the index tables' caches
    gc.collect()
    gc.disable()
    try:
        # the affine maps, and their inverses, are made with the collector off
        _build_and_evaluate_relations(2)
        found = gc.collect()
    finally:
        gc.enable()
    # a node holding a bound method of itself would be one cycle per node, and
    # a map its inverse refers back to one cycle per map
    assert found == 0


def test_an_affine_inverse_inverts_back_to_the_map():
    rng = np.random.default_rng(21)
    for N in range(1, 5):
        tau = _random_spd_affine(N, rng)
        x = rng.uniform(-1.0, 1.0, (N, 6))
        back = tau.inverse.inverse
        assert np.array_equal(back(x), tau(x)) and np.array_equal(back.jac(x), tau.jac(x))
        assert np.array_equal(back.constant_jacobian, tau.constant_jacobian)
        assert np.max(np.abs(tau.inverse(tau(x)) - x)) <= 1e-12
        assert tau.inverse is tau.inverse  # made once, then kept
        # the inverse outlives the map it inverts, and still inverts back
        inverse = SmoothMap.affine(np.diag(np.arange(1.0, N + 1)), np.ones(N)).inverse
        assert np.array_equal(inverse.inverse(x), (x.T * np.arange(1.0, N + 1) + 1.0).T)
    assert SmoothMap.affine(np.ones((2, 3))).inverse is None
    assert SmoothMap.affine(np.zeros((2, 2))).inverse is None
    # dataclasses.replace keeps the inverse already made
    probed = replace(tau, constant_jacobian=None)
    assert probed.inverse is tau.inverse and probed.constant_jacobian is None


def _hodge_negations(q, N, prefactor=1):
    """Coefficients a prefactor times the star negates on q-forms."""
    return sum(prefactor * sign == -1 for _, _, sign in hodge_table(q, N))


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_codiff_negates_each_coefficient_at_most_once(N, monkeypatch):
    """codiff equals the prefactor times star d star, value for value, on grid
    and callable forms, and negates only the coefficients whose outer star sign
    times the prefactor is -1: none twice, and a net +1 is passed on as is."""
    negations = Counter()
    negate, scale = GridScalar.__neg__, _Scaled.__init__

    def counted_negate(self):
        negations["grid"] += 1
        return negate(self)

    def counted_scale(self, c, field):
        negations["callable"] += c == -1
        scale(self, c, field)

    monkeypatch.setattr(GridScalar, "__neg__", counted_negate)
    monkeypatch.setattr(_Scaled, "__init__", counted_scale)
    rng = np.random.default_rng(600 + N)
    X = rng.uniform(0.2, 0.8, (N, 5))
    for q in range(N + 1):
        for kind, a in (("grid", _float_grid_form(N, q, rng)),
                        ("callable", random_callable_form(N, q, rng))):
            negations.clear()
            inner = ext_d(hodge(a))
            made = negations[kind]  # by the inner star and the derivative's sums
            out = codiff(a)
            assert negations[kind] - 2 * made == _hodge_negations(
                N - q + 1, N, sign_constants(q, N).codiff_sign)
            want = sign_constants(q, N).codiff_sign * hodge(inner)
            assert out.components.keys() == want.components.keys()
            for I, f in out.components.items():
                if kind == "grid":
                    assert np.array_equal(f.values, want.components[I].values)
                else:
                    for x in (X, X[:, 0]):
                        assert np.array_equal(f(x), want.components[I](x))


def _tracked_growth(form):
    """Net objects tracked by the cyclic collector while d d form is built."""
    gc.collect()
    start = gc.get_count()[0]
    dd = ext_d(ext_d(form))
    grown = gc.get_count()[0] - start
    del dd
    return grown


def test_building_dd_tracks_at_most_half_the_objects_of_closure_pairs():
    """Building d d a for N = 4, q = 2 makes at most half the objects the
    collector tracks that the closure-pair algebra makes.  This fails for an
    algebra whose operations build closure pairs, where the two counts are
    equal (about 1050 each, as measured)."""
    forms = {field: random_callable_form(4, 2, np.random.default_rng(5), field=field)
             for field in (ScalarField, ClosurePairField)}
    ext_d(ext_d(random_callable_form(4, 2, RNG)))  # fills the index tables' caches
    gc.disable()
    try:
        grown = {field: _tracked_growth(form) for field, form in forms.items()}
    finally:
        gc.enable()
    assert grown[ScalarField] <= grown[ClosurePairField] / 2


# -- in-place grid sums against the out-of-place route ------------------------
#
# Float-valued forms at non-dyadic spacing: on integer forms at a power-of-two
# spacing every difference is exact, so a change of summation order would not
# show there.

FLOAT_SPACING = (0.1, 0.3, 0.7, 0.45)


def _float_grid_form(N, q, rng, dtype=np.complex128, first=5):
    shape = (first, 4, 3, 4)[:N]
    comps = {I: (rng.normal(size=shape) + 1j * rng.normal(size=shape)).astype(dtype)
             for I in enumerate_ordered(q, N)}
    return FieldForm.from_grid(N, q, comps, FLOAT_SPACING[:N])


def _assert_forms_equal(form, ref):
    assert (form.N, form.q) == (ref.N, ref.q)
    assert form.components.keys() == ref.components.keys()
    for I, v in form.components.items():
        np.testing.assert_array_equal(v.values, ref.components[I].values, strict=True)


def _assert_fresh(result, *operands):
    """No component of `result` shares memory with an operand or another one."""
    arrays = [v.values for v in result.components.values()]
    inputs = [v.values for f in operands for v in f.components.values()]
    for i, x in enumerate(arrays):
        assert not any(np.shares_memory(x, y) for y in inputs + arrays[:i])


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_in_place_grid_sums_equal_the_out_of_place_route(N, monkeypatch):
    rng = np.random.default_rng(500 + N)
    # first axes of 5, 1 and 2 rows, each swept in one slab, by rows, and by two rows
    for first in (5, 1, 2):
        for _ in _slab_budgets(monkeypatch, 16 * int(np.prod((4, 3, 4)[:N - 1]))):
            for q in range(N + 1):
                a = _float_grid_form(N, q, rng, first=first)
                partners = [_float_grid_form(N, r, rng, first=first) for r in range(N - q + 1)]
                before = [v.values.copy() for f in [a] + partners
                          for v in f.components.values()]
                for op, ref in ((ext_d, out_of_place_ext_d), (codiff, out_of_place_codiff),
                                (codiff_expansion, out_of_place_codiff_expansion)):
                    out = op(a)
                    _assert_forms_equal(out, ref(a))
                    if op is not codiff:  # codiff's outer hodge shares arrays by design
                        _assert_fresh(out, a)
                # each hodge sign is a negation or a shared array, so the pair is exact
                _assert_forms_equal(hodge(hodge(a)), sign_constants(q, N).double_hodge * a)
                for b in partners:
                    for x, y in ((a, b), (b, a)):
                        out = wedge(x, y)
                        _assert_forms_equal(out, out_of_place_wedge(x, y))
                        _assert_fresh(out, x, y)
                after = [v.values for f in [a] + partners for v in f.components.values()]
                for x, y in zip(before, after, strict=True):
                    np.testing.assert_array_equal(x, y, strict=True)


def test_grid_sums_of_mixed_dtypes_promote_as_the_out_of_place_route():
    rng = np.random.default_rng(7)
    a, b = _float_grid_form(3, 1, rng), _float_grid_form(3, 1, rng, dtype=np.complex64)
    mixed = FieldForm.from_grid(3, 1, {(1,): a.components[(1,)], (2,): b.components[(2,)],
                                       (3,): a.components[(3,)]}, FLOAT_SPACING[:3])
    for op, ref in ((ext_d, out_of_place_ext_d),
                    (codiff_expansion, out_of_place_codiff_expansion)):
        _assert_forms_equal(op(mixed), ref(mixed))
    _assert_forms_equal(wedge(a, b), out_of_place_wedge(a, b))


def test_grid_sums_refuse_components_on_different_grids():
    values = np.ones((4, 4), complex)
    a = FieldForm.from_grid(2, 1, {(1,): GridScalar(values, (0.1, 0.3)),
                                   (2,): GridScalar(values, (0.2, 0.3))}, (0.1, 0.3))
    with pytest.raises(ValueError, match="grid mismatch"):
        ext_d(a)


# -- what an affine map keeps ---------------------------------------------------


def _pulled_compound(tau, q, rng):
    """The compound that a pullback of a q-form along tau contracts."""
    form = pullback(tau, random_callable_form(tau.target_dim, q, rng))
    return next(iter(form.components.values())).pull.fixed


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_an_affine_map_keeps_the_compound_its_pullbacks_contract(N):
    rng = np.random.default_rng(800 + N)
    tau = _random_spd_affine(N, rng)
    for m in (tau, tau.inverse, tau.inverse.inverse):
        for q in range(N + 1):
            kept = _pulled_compound(m, q, rng)
            assert _pulled_compound(m, q, rng) is kept
            assert np.array_equal(kept, _compound(m.constant_jacobian.T, q))
            assert not kept.flags.writeable


def test_a_replaced_map_keeps_nothing_and_takes_the_curved_path():
    tau = _random_spd_affine(3, RNG)
    a = random_callable_form(3, 1, RNG)
    transform_eps(tau, pullback(tau, a))
    assert set(tau._store) == {1, 2, "oriented"}
    probed = replace(tau, constant_jacobian=None)
    assert probed._store == {}
    pulled = pullback(probed, a)
    assert probed._store == {}
    assert all(type(f) is _PullbackCoefficient for f in pulled.components.values())
    assert form_max_diff(pulled, pullback(tau, a), sample_points(3, RNG)) <= 1e-15


def test_a_map_with_its_own_constant_jacobian_follows_writes_into_it():
    J = np.array([[1.2, -0.3], [0.1, 0.9]])
    own = SmoothMap(fn=lambda x: x, jacobian=lambda x: J, source_dim=2, target_dim=2,
                    constant_jacobian=J)
    dx1 = FieldForm.from_callable(2, 1, {(1,): ScalarField.constant(1.0)})
    v = np.array([0.3, 0.8])
    assert evaluate(pullback(own, dx1), v) == pytest.approx({(1,): 1.2, (2,): 0.1})
    J[:, 0] = [2.0, 0.5]  # the map keeps nothing, so the next pullback sees the write
    assert evaluate(pullback(own, dx1), v) == pytest.approx({(1,): 2.0, (2,): 0.5})


def test_an_affine_map_holds_read_only_copies_of_its_arrays():
    A, b = np.array([[2.0, 0.5], [0.25, 1.5]]), np.array([0.1, -0.2])
    tau = SmoothMap.affine(A, b)
    x = RNG.uniform(-1.0, 1.0, (2, 3))
    before = tau(x)
    arrays = [tau.constant_jacobian, *tau.linear, tau.inverse.constant_jacobian,
              *tau.inverse.linear]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 7.0
    # the caller's arrays stay writable, and writing them leaves the map alone
    A[0, 0] = b[0] = 3.0
    assert np.array_equal(tau(x), before)
    assert np.array_equal(tau.constant_jacobian, [[2.0, 0.25], [0.5, 1.5]])


def test_threads_racing_pullbacks_on_a_fresh_map_get_the_single_threaded_values():
    """4 threads, more than the cores, at a short switch interval: each gets the
    single-threaded values bitwise, and every pullback along the map contracts
    the compound the map kept, which a lost update of the store would break."""
    N = 4
    rng = np.random.default_rng(31)
    B = rng.normal(size=(N, N))
    A, b = B @ B.T + 0.8 * N * np.eye(N), rng.normal(size=N)
    forms = [random_callable_form(N, q, rng) for q in range(N + 1)]
    X = rng.uniform(0.2, 0.8, (N, 5))

    def values(tau):
        out, used = [], []
        for a in forms:
            pulled = pullback(tau, a)
            used.append((a.q, next(iter(pulled.components.values())).pull.fixed))
            for form in (pulled, ext_d(pullback(tau, a)),
                         transform_eps(tau, transform_mu(tau, a))):
                out += [np.asarray(f(X)) for f in form.components.values()]
        return out, used

    want, _ = values(SmoothMap.affine(A, b))
    tau = SmoothMap.affine(A, b)
    for out, used in race(lambda i: values(tau)):
        for u, v in zip(out, want, strict=True):
            np.testing.assert_array_equal(u, v, strict=True)
        assert all(M is tau._store[q] for q, M in used)


def test_a_criterion_02_loop_makes_each_compound_once_per_map_and_degree(monkeypatch):
    calls = Counter()

    def counted(J, q):
        calls[id(J.base), q] += 1  # J is the transpose of a map's constant Jacobian
        return compound(J, q)

    compound = exterior._compound
    monkeypatch.setattr(exterior, "_compound", counted)
    rng = np.random.default_rng(202)
    for N in range(1, 5):
        tau = _random_spd_affine(N, rng)
        calls.clear()
        for q in range(N + 1):
            for _ in range(50):
                a = random_callable_form(N, q, rng, max_freq=1)
                x = rng.uniform(0.2, 0.8, N)
                evaluate(ext_d(pullback(tau, a)), x)
                evaluate(pullback(tau, ext_d(a)), x)
                evaluate(transform_eps(tau, transform_mu(tau, a)), x)
        # degrees 0..N along tau and along its inverse, each made once
        assert set(calls.values()) == {1} and len(calls) <= 2 * (N + 1)


# -- the order of operator results ---------------------------------------------


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("grid", [False, True], ids=["callable", "grid"])
def test_operator_results_are_keyed_in_index_order(N, grid):
    """Every operator's result lists its components in `enumerate_ordered` order,
    also for degrees outside 0..N, where there are none."""
    rng = np.random.default_rng(900 + N)

    def make(q):
        if not 0 <= q <= N:
            return FieldForm(N, q, {})
        return random_grid_form(N, q, rng) if grid else random_callable_form(N, q, rng)

    def assert_ordered(form, q):
        assert (form.N, form.q) == (N, q)
        assert list(form.components) == list(enumerate_ordered(q, N))

    tau = _random_spd_affine(N, rng)
    for q in range(-1, N + 2):
        a = make(q)
        for op, degree in ((ext_d, q + 1), (hodge, N - q), (codiff, q - 1),
                           (codiff_expansion, q - 1)):
            assert_ordered(op(a), degree)
        assert_ordered(a.map_components(lambda v: 2.0 * v), q)
        for r in range(-1, N + 2):
            assert_ordered(wedge(a, make(r)), q + r)
        if not grid:
            for op in (pullback, transform_eps, transform_mu):
                assert_ordered(op(tau, a), q)

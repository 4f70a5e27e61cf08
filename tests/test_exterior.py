"""Exterior algebra and calculus on box forms, both representations."""

from collections import Counter

import numpy as np
import pytest

from maxforms.exterior import (
    FieldForm,
    GridScalar,
    ScalarField,
    SmoothMap,
    codiff,
    codiff_expansion,
    evaluate,
    ext_d,
    grid_form_from_json,
    grid_form_to_json,
    hodge,
    interior,
    pullback,
    transform_eps,
    transform_mu,
    wedge,
)
from maxforms.multiindex import enumerate_ordered, sign_constants

from formutil import (
    form_max_abs,
    form_max_diff,
    grid_max_abs,
    random_callable_form,
    random_grid_form,
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


# -- representation handling ---------------------------------------------------


def test_mixed_representation_wedge_rejected():
    a = random_callable_form(2, 1, RNG)
    b = random_grid_form(2, 1, RNG)
    with pytest.raises(ValueError):
        wedge(a, b)


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
        ScalarField.coordinate(2),
        ScalarField.harmonic([1.0, -2.0, 1.0], 0.4, 1.0 - 1.0j),
        ScalarField.radial_power(-1.5),
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

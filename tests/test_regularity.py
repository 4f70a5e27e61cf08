import functools
import itertools
import math

import numpy as np

from maxforms.regularity import (
    _partials,
    classify,
    classify_components,
    expected_verdict,
)
from maxforms.spectrum2d import (
    AngularPart,
    AngularTerm,
    PolarScalar,
    RadialFactor,
    analytic_eigenform,
    cartesian_components,
)


ROUNDOFF = float(np.finfo(float).eps)


def accumulated_exponent(ps: PolarScalar) -> float:
    """Oracle of the ascending sweep in PolarScalar.leading_exponent: every
    (power, frequency) group up to the last horizon is accumulated, and the
    smallest surviving power is kept."""
    top = -math.inf
    for R, _ in ps.pairs:
        peak = 0.0
        for horizon, c, _ in R.series():
            if abs(c) <= ROUNDOFF * (peak := max(peak, abs(c))):
                break
        top = max(top, horizon)
    most = sum(len(A.terms) for _, A in ps.pairs)
    groups = {}
    for R, A in ps.pairs:
        for p, c, factors in itertools.takewhile(lambda s: s[0] <= top, R.series()):
            for a in A.terms:
                w = c * a.coeff
                g = groups.setdefault((p, a.freq), [0.0, 0.0, 0.0])
                g[0] += w * math.cos(a.shift)
                g[1] += w * math.sin(a.shift) if a.freq else 0.0
                g[2] += 2.0 * (factors + 2 + most) * ROUNDOFF * abs(w)
    return min((p for (p, _), (cos, sin, bound) in groups.items()
                if max(abs(cos), abs(sin)) > bound), default=math.inf)


def shell_gradient_energy(components: dict, eps: float) -> float:
    """Per-shell oracle of the batched ladder: the squared partials summed over
    components and axes on eps/4 < r < eps, by Gauss-Legendre in r and in phi
    (not the log-r and midpoint rules of the ladder)."""
    x, w = np.polynomial.legendre.leggauss(40)
    lo, hi = eps / 4.0, eps
    r = 0.5 * (hi - lo) * (x + 1.0) + lo
    phi = 0.5 * math.pi * (x + 1.0)
    rows = sum(np.abs(p(r[:, None], phi[None, :])) ** 2 for p in _partials(components))
    return float(0.5 * (hi - lo) * (w * r) @ rows @ (0.5 * math.pi * w))


# q, role, n <= 8 and m, at low and high radial rank
LABELS = [(q, role, n, m) for q in (0, 1) for role in ("E", "H")
          for n in range(1, 9) for m in (1, 2, 3, 12)]


@functools.cache
def _report(q, role, n, m):
    return classify(q, n, m, role)


def _expected_exponent(q, n, role):
    # value members (q=0 E, q=1 H) have partials like r^(nu-1); their
    # derivative partners lose one more power
    value_member = (q == 0 and role == "E") or (q == 1 and role == "H")
    return n - 0.5 - (1.0 if value_member else 2.0)


def test_every_family_member_classifies_as_expected():
    # criterion 09's bands: slope -1 +- 0.2 when singular, >= -0.1 when H1
    for label in LABELS:
        q, role, n, _ = label
        rep = _report(*label)
        assert rep.verdict == expected_verdict(q, n, role), label
        assert rep.exponent == _expected_exponent(q, n, role), label
        if rep.verdict == "not-H1":
            assert abs(rep.slope + 1.0) <= 0.2, label
        else:
            assert rep.slope >= -0.1, label


def test_shell_slope_reads_twice_the_exponent_plus_two():
    # E(eps/4 < r < eps) ~ eps^(2 alpha + 2): -1 when singular, even at m = 12
    for label in LABELS:
        rep = _report(*label)
        assert abs(rep.slope - (2.0 * rep.exponent + 2.0)) <= 3e-3, label


def test_high_order_reads_its_exponent():
    rep = classify(0, 40, 1, "E")
    assert rep.exponent == 38.5
    assert abs(rep.slope - 79.0) <= 1e-3


def test_singular_members_have_unit_slope():
    for (q, role) in ((0, "H"), (1, "E")):
        for m in (1, 2):
            rep = classify(q, 1, m, role)
            assert abs(rep.slope + 1.0) <= 0.2
            # partials ~ r^(-3/2): the energy grows like eps^(2 alpha + 2) = 1/eps
            assert rep.exponent == -1.5


def test_regular_members_have_flat_tails():
    for (q, n, m, role) in [(0, 1, 1, "E"), (0, 2, 1, "H"), (1, 2, 2, "E"), (1, 1, 1, "H")]:
        rep = classify(q, n, m, role)
        assert rep.slope >= -0.05


def test_saturated_energy_reads_its_exponent():
    rep = classify(1, 3, 1, "H")
    assert rep.exponent == 1.5
    assert rep.verdict == "H1"
    assert abs(rep.slope - 5.0) <= 3e-3


def _polar(power, freq, order=None, omega=0.0):
    return PolarScalar(
        [(RadialFactor(power, order, omega), AngularPart([AngularTerm(1.0, freq, 0.0)]))]
    )


def _recurrence_zero(n, omega):
    """J_(nu+1) - (2 nu / (w r)) J_nu + J_(nu-1), identically zero."""
    nu = n - 0.5
    return (_polar(0.0, 0.5, n + 1, omega)
            + _polar(-1.0, 0.5, n, omega).scaled(-2.0 * nu / omega)
            + _polar(0.0, 0.5, n - 1, omega))


def test_leading_exponent_of_hand_built_fields():
    half = _polar(0.5, 0.5)  # r^(1/2) cos(phi/2)
    assert half.leading_exponent() == 0.5
    assert half.cartesian_partial(1).leading_exponent() == -0.5
    assert half.cartesian_partial(2).leading_exponent() == -0.5
    x1 = _polar(1.0, 1.0)  # r cos(phi)
    # d/dx1 = cos^2 + sin^2: the cos(2 phi) parts cancel, the constant stays
    assert x1.cartesian_partial(1).leading_exponent() == 0.0
    # d/dx2 = cos sin - sin cos vanishes identically
    assert x1.cartesian_partial(2).leading_exponent() == math.inf
    assert classify_components({(): x1}).verdict == "H1"
    # J_(nu+1) - (2 nu / (w r)) J_nu + J_(nu-1) = 0 cancels at every power
    for omega in (0.3, 3.7, 40.0):
        for n in (2, 5, 12):
            assert _recurrence_zero(n, omega).leading_exponent() == math.inf, (omega, n)
            assert _polar(0.0, 0.5, n, omega).leading_exponent() == n - 0.5


def test_constant_field_reads_the_exact_flat_slope():
    # no gradient: every shell energy is 0, so there is no power law to fit
    const = PolarScalar(
        [(RadialFactor(0.0), AngularPart([AngularTerm(2.0, 0.0, 0.0)]))]
    )
    rep = classify_components({(): const})
    assert not rep.seminorms.any()
    assert rep.exponent == math.inf
    assert math.isnan(rep.slope)
    assert rep.verdict == "H1"


def test_energy_matches_closed_form_for_linear_field():
    # f = r cos(phi) = x1 has gradient (1, 0), so the energy over the half
    # shell eps/4 < r < eps is pi (eps^2 - eps^2 / 16) / 2 = (15/32) pi eps^2
    linear = PolarScalar(
        [(RadialFactor(1.0), AngularPart([AngularTerm(1.0, 1.0, 0.0)]))]
    )
    rep = classify_components({(): linear})
    expected = 15.0 / 32.0 * math.pi * rep.eps**2
    assert np.max(np.abs(rep.seminorms - expected) / expected) <= 1e-12
    for eps in (0.2, 0.05):
        val = shell_gradient_energy({(): linear}, eps)
        assert abs(val - 15.0 / 32.0 * math.pi * eps**2) <= 1e-12 * eps**2


def test_seminorms_scale_quadratically_and_verdict_is_invariant():
    comps = cartesian_components(analytic_eigenform(0, 1, 1, "H"))
    scaled = {k: ps.scaled(3.0 - 4.0j) for k, ps in comps.items()}
    base = classify_components(comps)
    other = classify_components(scaled)
    ratio = other.seminorms / base.seminorms
    assert np.max(np.abs(ratio - 25.0)) <= 1e-10 * 25.0
    assert abs(other.slope - base.slope) <= 1e-10
    assert other.verdict == base.verdict


def test_batched_ladder_equals_per_level_energies():
    for q, n, m, role in [(0, 1, 1, "H"), (0, 3, 2, "E"), (1, 1, 4, "E"), (1, 2, 1, "H")]:
        comps = cartesian_components(analytic_eigenform(q, n, m, role))
        rep = classify_components(comps)
        per_shell = np.array([shell_gradient_energy(comps, eps) for eps in rep.eps])
        assert np.max(np.abs(rep.seminorms - per_shell) / per_shell) <= 1e-14


def test_energy_grows_as_annulus_deepens():
    comps = cartesian_components(analytic_eigenform(1, 1, 1, "E"))
    rep = classify_components(comps)
    assert np.all(np.diff(rep.seminorms) > 0)  # eps decreasing, energy rising
    assert np.all(np.diff(rep.eps) < 0)


def _sweep_labels():
    yield from ((q, n, m, role) for q in (0, 1) for role in ("E", "H")
                for n in range(1, 13) for m in range(1, 6))
    yield from ((0, n, 1, "E") for n in (40, 70, 140))


def test_sweep_equals_full_accumulation_on_eigenforms():
    for q, n, m, role in _sweep_labels():
        comps = cartesian_components(analytic_eigenform(q, n, m, role))
        for ps in [*comps.values(), *_partials(comps)]:
            assert ps.leading_exponent() == accumulated_exponent(ps), (q, n, m, role)


def test_sweep_equals_full_accumulation_on_hand_built_fields():
    x1 = _polar(1.0, 1.0)
    const = PolarScalar([(RadialFactor(0.0), AngularPart([AngularTerm(2.0, 0.0, 0.0)]))])
    fields = [_polar(0.5, 0.5), x1, const, PolarScalar([]),
              *_partials({(): _polar(0.5, 0.5)}), *_partials({(): x1}), *_partials({(): const})]
    for omega in (0.3, 3.7, 40.0):
        for n in (2, 5, 12):
            fields += [_recurrence_zero(n, omega), _polar(0.0, 0.5, n, omega)]
    for ps in fields:
        assert ps.leading_exponent() == accumulated_exponent(ps)
    assert PolarScalar([]).leading_exponent() == math.inf
    assert const.leading_exponent() == 0.0

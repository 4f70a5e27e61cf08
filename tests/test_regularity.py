import math

import numpy as np
import pytest

from maxforms.regularity import (
    annulus_gradient_energy,
    classify,
    classify_components,
    expected_verdict,
)
from maxforms.spectrum2d import (
    AngularPart,
    AngularTerm,
    PolarScalar,
    RadialPart,
    RadialTerm,
    analytic_eigenform,
    cartesian_components,
)


def _expected_exponent(q, n, role):
    # value members (q=0 E, q=1 H) have partials like r^(nu-1); their
    # derivative partners lose one more power
    value_member = (q == 0 and role == "E") or (q == 1 and role == "H")
    return n - 0.5 - (1.0 if value_member else 2.0)


def test_every_family_member_classifies_as_expected():
    # criterion 09's bands: slope -1 +- 0.2 when singular, >= -0.1 when H1
    for q in (0, 1):
        for role in ("E", "H"):
            for n in range(1, 9):
                for m in (1, 2, 3):
                    rep = classify(q, n, m, role)
                    label = (q, role, n, m)
                    assert rep.verdict == expected_verdict(q, n, role), label
                    assert rep.exponent == _expected_exponent(q, n, role), label
                    if rep.verdict == "not-H1":
                        assert abs(rep.slope + 1.0) <= 0.2, label
                    else:
                        assert rep.slope >= -0.1, label


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
    assert abs(rep.slope) <= 2e-3


def _polar(power, freq, order=None, omega=0.0):
    return PolarScalar(
        [(RadialPart([RadialTerm(1.0, power, order, omega)]),
          AngularPart([AngularTerm(1.0, freq, 0.0)]))]
    )


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
            nu = n - 0.5
            zero = (
                _polar(0.0, 0.5, n + 1, omega)
                + _polar(-1.0, 0.5, n, omega).scaled(-2.0 * nu / omega)
                + _polar(0.0, 0.5, n - 1, omega)
            )
            assert zero.leading_exponent() == math.inf, (omega, n)
            assert _polar(0.0, 0.5, n, omega).leading_exponent() == nu


def test_constant_field_reads_the_exact_flat_slope():
    # no gradient: every ladder energy is 0, so there is no power law to fit
    const = PolarScalar(
        [(RadialPart([RadialTerm(2.0, 0.0)]), AngularPart([AngularTerm(1.0, 0.0, 0.0)]))]
    )
    rep = classify_components({(): const})
    assert not rep.seminorms.any()
    assert rep.exponent == math.inf
    assert rep.slope == 0.0
    assert rep.verdict == "H1"


def test_energy_matches_closed_form_for_linear_field():
    # f = r cos(phi) = x1 has gradient (1, 0), so the energy over the
    # half annulus is pi (1 - eps^2) / 2 exactly
    linear = PolarScalar(
        [(RadialPart([RadialTerm(1.0, 1.0)]), AngularPart([AngularTerm(1.0, 1.0, 0.0)]))]
    )
    for eps in (0.2, 0.05):
        val = annulus_gradient_energy({(): linear}, eps)
        expected = math.pi * (1.0 - eps**2) / 2.0
        assert abs(val - expected) <= 1e-12 * expected


def test_seminorms_scale_quadratically_and_verdict_is_invariant():
    comps = cartesian_components(analytic_eigenform(0, 1, 1, "H"))
    scaled = {k: ps.scaled(3.0 - 4.0j) for k, ps in comps.items()}
    base = classify_components(comps)
    other = classify_components(scaled)
    ratio = other.seminorms / base.seminorms
    assert np.max(np.abs(ratio - 25.0)) <= 1e-10 * 25.0
    assert abs(other.slope - base.slope) <= 1e-10
    assert other.verdict == base.verdict


def test_energy_grows_as_annulus_deepens():
    comps = cartesian_components(analytic_eigenform(1, 1, 1, "E"))
    rep = classify_components(comps)
    assert np.all(np.diff(rep.seminorms) > 0)  # eps decreasing, energy rising
    assert np.all(np.diff(rep.eps) < 0)


def test_validation():
    comps = cartesian_components(analytic_eigenform(0, 1, 1, "E"))
    with pytest.raises(ValueError):
        annulus_gradient_energy(comps, 0.0)
    with pytest.raises(ValueError):
        annulus_gradient_energy(comps, 1.0)
    with pytest.raises(ValueError):
        classify_components(comps, levels=2)

"""Acceptance gates for the whole package.

One test per criterion; each prints a single PASS/FAIL line (visible with
pytest -s or in the captured output) and fails loudly with the offending
numbers otherwise.  Tolerances are pinned here on purpose: loosening one is
a contract change, not a test fix.
"""

import math
import time

import numpy as np
import pytest

from maxforms import regularity, spectrum1d, spectrum2d
from maxforms.bessel import zeros_j, zeros_jprime
from maxforms.dnfields import ArcPartition, build_basis, dimension_check
from maxforms.exterior import (
    SmoothMap,
    codiff,
    codiff_expansion,
    ext_d,
    hodge,
    pullback,
    transform_eps,
    transform_mu,
    wedge,
)
from maxforms.multiindex import complement, concat_sign, enumerate_ordered, sign_constants
from maxforms.spherical import sphere_relation_residuals

from formutil import (
    form_max_diff,
    random_callable_form,
    random_grid_form,
    sample_points,
)

RNG = np.random.default_rng(20260825)


def _report(num: int, label: str, failures, detail: str = ""):
    ok = not failures
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status} {label}" + (f" :: {detail}" if detail else ""))
    assert ok, f"criterion {num} ({label}): " + "; ".join(failures)


# -- 1 -------------------------------------------------------------------------


def test_criterion_01_sign_identities():
    failures = []
    start = time.perf_counter()
    for N in range(1, 9):
        sc = {q: sign_constants(q, N) for q in range(-1, N + 3)}
        for q in range(0, N + 1):
            checks = {
                "dh_period": sc[q + 2].double_hodge - sc[q].double_hodge,
                "cs_period": sc[q + 2].codiff_sign - sc[q].codiff_sign,
                "dh_reflect": sc[N - q].double_hodge - sc[q].double_hodge,
                "cs_reflect": sc[N - q].codiff_sign - sc[q + 1].codiff_sign,
                "dh_cs": sc[q].double_hodge * sc[q + 1].codiff_sign - (-1) ** q,
                "cs_cs": sc[q].codiff_sign * sc[q + 1].codiff_sign - (-1) ** N,
                "cs_dh": sc[q].codiff_sign * sc[q].double_hodge - (-1) ** (N + q),
                "sphere_dh": sc[q - 1].double_hodge_sphere * sc[q].codiff_sign - 1,
                "sphere_cs": sc[q].codiff_sign_sphere * sc[q].double_hodge
                - (-1) ** (N + 1),
            }
            for name, dev in checks.items():
                if dev != 0:
                    failures.append(f"{name} broken at q={q}, N={N}")
            for I in enumerate_ordered(q, N):
                J = complement(I, N)
                flip = (-1) ** (q * (N - q))
                if concat_sign(I, J) != flip * concat_sign(J, I):
                    failures.append(f"concatenation law broken at I={tuple(I)}, N={N}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(1, "sign identity suite q,N<=8", failures, f"{elapsed:.3f}s")


# -- 2 -------------------------------------------------------------------------


def test_criterion_02_exterior_calculus_suite():
    failures = []
    worst = {"dd": 0.0, "ddgrid": 0.0, "hodge": 0.0, "routes": 0.0,
             "leibniz": 0.0, "natural": 0.0, "epsmu": 0.0}
    start = time.perf_counter()
    for N in range(1, 5):
        # moderate-scale SPD map: orthogonal conjugation of a diagonal in [0.8, 1.3]
        Q = np.linalg.qr(RNG.normal(size=(N, N)))[0]
        A = Q @ np.diag(RNG.uniform(0.8, 1.3, N)) @ Q.T
        tau = SmoothMap.affine(A, b=0.2 * RNG.normal(size=N))
        for q in range(0, N + 1):
            for _ in range(50):
                a = random_callable_form(N, q, RNG, max_freq=1)
                pts = sample_points(N, RNG, count=2)
                kappa = sign_constants(q, N).double_hodge

                g = random_grid_form(N, q, RNG, integer=True)
                ddg_form = ext_d(ext_d(g))
                ddg = max(
                    float(np.max(np.abs(v.values)))
                    for v in ddg_form.components.values()
                ) if ddg_form.components else 0.0
                worst["ddgrid"] = max(worst["ddgrid"], ddg)

                dda = ext_d(ext_d(a))
                dd = form_max_diff(dda, 0.0 * dda, pts)
                worst["dd"] = max(worst["dd"], dd)
                worst["hodge"] = max(
                    worst["hodge"], form_max_diff(hodge(hodge(a)), kappa * a, pts)
                )
                if q >= 1:
                    worst["routes"] = max(
                        worst["routes"],
                        form_max_diff(codiff(a), codiff_expansion(a), pts),
                    )
                if q + 1 <= N:
                    b = random_callable_form(N, 1, RNG, max_freq=1)
                    lhs = ext_d(wedge(a, b))
                    rhs = wedge(ext_d(a), b) + ((-1) ** q) * wedge(a, ext_d(b))
                    worst["leibniz"] = max(
                        worst["leibniz"], form_max_diff(lhs, rhs, pts[:1])
                    )
                worst["natural"] = max(
                    worst["natural"],
                    form_max_diff(
                        ext_d(pullback(tau, a)), pullback(tau, ext_d(a)), pts[:1]
                    ),
                )
                worst["epsmu"] = max(
                    worst["epsmu"],
                    form_max_diff(transform_eps(tau, transform_mu(tau, a)), a, pts[:1]),
                )
    elapsed = time.perf_counter() - start

    gates = {"dd": 1e-12, "ddgrid": 0.0, "hodge": 0.0, "routes": 1e-12,
             "leibniz": 1e-8, "natural": 1e-8, "epsmu": 1e-10}
    for key, gate in gates.items():
        if worst[key] > gate:
            failures.append(f"{key} residual {worst[key]:.3e} > {gate:.0e}")
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    detail = ", ".join(f"{k}={v:.1e}" for k, v in worst.items()) + f", {elapsed:.1f}s"
    _report(2, "exterior calculus invariants, 50 forms per (q,N<=4)", failures, detail)


# -- 3 -------------------------------------------------------------------------


def test_criterion_03_sphere_relations_second_order():
    failures = []
    orders = []
    for q in (0, 1, 2):
        E = random_callable_form(2, q, RNG, max_freq=1)
        res = {m: sphere_relation_residuals(E, mr=m, mphi=m) for m in (16, 32, 64)}
        for key in ("rho_div", "tau_div", "rho_rot", "tau_rot"):
            seq = [res[m][key] for m in (16, 32, 64)]
            if seq[0] < 1e-12:
                if any(s > 1e-12 for s in seq):
                    failures.append(f"q={q} {key} expected trivial, got {seq}")
                continue
            for lo, hi in ((0, 1), (1, 2)):
                order = math.log2(seq[lo] / seq[hi])
                orders.append(order)
                if abs(order - 2.0) > 0.3:
                    failures.append(f"q={q} {key} order {order:.2f} outside 2.0+-0.3")
    detail = f"orders in [{min(orders):.2f}, {max(orders):.2f}]"
    _report(3, "sphere derivative relations converge at order 2", failures, detail)


# -- 4 -------------------------------------------------------------------------


def test_criterion_04_half_circle_spectrum():
    failures = []
    start = time.perf_counter()
    solve = spectrum1d.fd_eigensolve(2000, 5)
    exact = (np.arange(1, 6) - 0.5) ** 2
    rel = np.abs(solve.lambdas - exact) / exact
    if np.max(rel) > 1e-3:
        failures.append(f"relative error {np.max(rel):.3e} > 1e-3 at M=2000")

    grids = np.array([250, 500, 1000, 2000])
    errs = [
        float(np.max(np.abs(spectrum1d.fd_eigensolve(M, 5).lambdas - exact) / exact))
        for M in grids
    ]
    slope = -np.polyfit(np.log(grids), np.log(errs), 1)[0]
    if abs(slope - 2.0) > 0.2:
        failures.append(f"convergence slope {slope:.2f} outside 2.0+-0.2")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s >= 5s")
    detail = f"rel={np.max(rel):.1e}, slope={slope:.2f}, {elapsed:.1f}s"
    _report(4, "half-circle FD spectrum vs (n-1/2)^2", failures, detail)


# -- 5 -------------------------------------------------------------------------


def _bisect_root(f, lo, hi):
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo, flo = mid, f(mid)
    return 0.5 * (lo + hi)


def test_criterion_05_bessel_zero_oracles():
    failures = []
    table = zeros_j(1, 10)
    dev = np.max(np.abs(table.zeros - np.arange(1, 11) * math.pi))
    if dev > 1e-12:
        failures.append(f"half-order zeros deviate from m*pi by {dev:.2e}")

    # independent oracles by bisection of the closed-form zero equations
    oracle_tan_x = _bisect_root(lambda x: math.tan(x) - x,
                                math.pi + 0.1, 1.5 * math.pi - 1e-9)
    oracle_tan_2x = _bisect_root(lambda x: math.tan(x) - 2.0 * x, 1.0, 1.5)
    z32 = float(zeros_j(2, 1).zeros[0])
    if abs(z32 - oracle_tan_x) > 1e-6 or abs(z32 - 4.493409) > 1e-5:
        failures.append(f"first 3/2 zero {z32:.8f} vs oracle {oracle_tan_x:.8f}")
    d12 = float(zeros_jprime(1, 1).zeros[0])
    if abs(d12 - oracle_tan_2x) > 1e-6 or abs(d12 - 1.165561) > 1e-5:
        failures.append(f"first 1/2 derivative zero {d12:.8f} vs {oracle_tan_2x:.8f}")

    for n in range(1, 6):
        low = zeros_j(n, 6).zeros
        high = zeros_j(n + 1, 6).zeros
        for k in range(5):
            if not (low[k] < high[k] < low[k + 1]):
                failures.append(f"interlacing broken between orders {n} and {n + 1}")
                break
    detail = f"tan x=x root {oracle_tan_x:.9f}, tan x=2x root {oracle_tan_2x:.9f}"
    _report(5, "Bessel zeros vs closed-form oracles and interlacing", failures, detail)


# -- 6 -------------------------------------------------------------------------


def test_criterion_06_half_disk_three_routes():
    failures = []
    targets = {0: spectrum2d.reference_eigenvalues(0, 4),
               1: spectrum2d.reference_eigenvalues(1, 4)}

    rel_d = np.abs(spectrum2d.radial_spectrum(512, 4, "dirichlet") - targets[0]) / targets[0]
    if np.max(rel_d) > 0.01:
        failures.append(f"radial dirichlet rel err {np.max(rel_d):.3e} > 1%")
    rel_n = np.abs(spectrum2d.radial_spectrum(512, 4, "neumann") - targets[1]) / targets[1]
    if np.max(rel_n) > 0.01:
        failures.append(f"radial neumann rel err {np.max(rel_n):.3e} > 1%")

    start = time.perf_counter()
    lam2d = spectrum2d.zaremba2d_eigensolve(512, 512, 4).lambdas
    elapsed = time.perf_counter() - start
    rel_z = np.abs(lam2d - targets[0]) / targets[0]
    if np.max(rel_z) > 0.01:
        failures.append(f"2D mixed-edge rel err {np.max(rel_z):.3e} > 1%")
    if elapsed >= 60.0:
        failures.append(f"2D solve runtime {elapsed:.1f}s >= 60s")
    detail = (f"dirichlet={np.max(rel_d):.1e}, neumann={np.max(rel_n):.1e}, "
              f"2d={np.max(rel_z):.1e} in {elapsed:.1f}s")
    _report(6, "three routes match squared Bessel zeros within 1%", failures, detail)


# -- 7 -------------------------------------------------------------------------


def test_criterion_07_eigenform_verification():
    failures = []
    worst_maxwell = 0.0
    for q in (0, 1):
        for n, m in ((1, 1), (2, 1), (1, 2)):
            res = spectrum2d.maxwell_residual_2d(q, n, m)
            worst_maxwell = max(worst_maxwell, res["rot"], res["div"])
    if worst_maxwell > 1e-8:
        failures.append(f"analytic Maxwell residual {worst_maxwell:.3e} > 1e-8")

    ratios = []
    for q, n, m in ((0, 1, 1), (0, 2, 1), (1, 1, 1), (1, 2, 1)):
        coarse = spectrum2d.coeff_ode_residuals(q, n, m, M_r=200)
        fine = spectrum2d.coeff_ode_residuals(q, n, m, M_r=400)
        for key, c in coarse.items():
            if c < 1e-11:
                continue
            ratio = c / fine[key]
            ratios.append(ratio)
            if abs(ratio - 4.0) > 0.7:
                failures.append(
                    f"ODE relation {key} at (q={q},n={n},m={m}) ratio {ratio:.2f}"
                )

    cross = 0.0
    smallest_own = math.inf
    for q in (0, 1):
        for role in ("E", "H"):
            mode = spectrum2d.analytic_eigenform(q, 2, 1, role)
            coeffs = spectrum2d.extract_coefficients(mode, (1, 2, 3))
            for rows in coeffs.families.values():
                cross = max(cross, float(np.max(np.abs(rows[0]))),
                            float(np.max(np.abs(rows[2]))))
                smallest_own = min(smallest_own, float(np.max(np.abs(rows[1]))))
    if cross > 1e-8:
        failures.append(f"cross coefficient {cross:.3e} > 1e-8")
    if smallest_own < 0.1:
        failures.append("an expansion lost its own coefficient")
    detail = (f"maxwell={worst_maxwell:.1e}, ode ratios "
              f"[{min(ratios):.2f}, {max(ratios):.2f}], cross={cross:.1e}")
    _report(7, "eigenforms: residuals, ODE order, series collapse", failures, detail)


# -- 8 -------------------------------------------------------------------------


DN_PARTITIONS = {
    1: ArcPartition(((0.4, 2.9),)),
    2: ArcPartition(((0.0, 1.5), (2.2, 4.9))),
    3: ArcPartition(((0.2, 1.1), (1.9, 2.8), (4.0, 5.2))),
    4: ArcPartition(((0.1, 1.2), (1.7, 2.9), (3.4, 4.4), (4.9, 5.9))),
}


def test_criterion_08_dirichlet_neumann_dimension():
    failures = []
    details = []
    for K, partition in DN_PARTITIONS.items():
        start = time.perf_counter()
        report = dimension_check(build_basis(partition, h=0.05).gram)
        refined = dimension_check(build_basis(partition, h=0.025).gram)
        elapsed = time.perf_counter() - start
        if report.rank != K - 1:
            failures.append(f"K={K}: rank {report.rank} != {K - 1}")
        if report.gap < 1e6:
            failures.append(f"K={K}: gap {report.gap:.2e} < 1e6")
        if refined.rank != report.rank:
            failures.append(f"K={K}: rank changed to {refined.rank} at h/2")
        if elapsed >= 30.0:
            failures.append(f"K={K}: runtime {elapsed:.1f}s >= 30s")
        gap = "inf" if math.isinf(report.gap) else f"{report.gap:.1e}"
        details.append(f"K={K}: rank={report.rank}, gap={gap}, {elapsed:.1f}s")
    _report(8, "gradient-field dimension K-1 with stable gap", failures,
            "; ".join(details))


# -- 9 -------------------------------------------------------------------------


def test_criterion_09_regularity_classification():
    failures = []
    slopes = {}
    for q in (0, 1):
        for role in ("E", "H"):
            for n in (1, 2, 3):
                for m in (1, 2):
                    report = regularity.classify(q, n, m, role=role)
                    want = regularity.expected_verdict(q, n, role)
                    tag = f"(q={q},{role},n={n},m={m})"
                    slopes[tag] = report.slope
                    if report.verdict == "indeterminate":
                        failures.append(f"{tag} indeterminate")
                    elif report.verdict != want:
                        failures.append(f"{tag} {report.verdict} != {want}")
                    if want == "not-H1" and abs(report.slope + 1.0) > 0.2:
                        failures.append(f"{tag} slope {report.slope:.2f} not -1+-0.2")
                    if want == "H1" and report.slope < -0.1:
                        failures.append(f"{tag} slope {report.slope:.2f} < -0.1")
    singular = [s for t, s in slopes.items() if "n=1" in t and ("(q=0,H" in t or "(q=1,E" in t)]
    detail = f"24 verdicts, singular slopes [{min(singular):.2f}, {max(singular):.2f}]"
    _report(9, "regularity verdicts for n<=3, m<=2", failures, detail)


# -- 10 ------------------------------------------------------------------------


def test_criterion_10_orthonormality():
    failures = []
    dev1 = float(spectrum1d.orthonormality_gram(count=10))
    if dev1 > 1e-10:
        failures.append(f"1D Gram deviation {dev1:.3e} > 1e-10")

    devs2 = {}
    for q in (0, 1):
        labels = [(n, m) for _, n, m, _ in spectrum2d.reference_modes(q, 6)]
        for role in ("E", "H"):
            modes = [spectrum2d.analytic_eigenform(q, n, m, role) for n, m in labels]
            G = spectrum2d.gram_matrix_2d(modes, M_r=400, M_phi=400)
            devs2[f"q{q}{role}"] = float(np.max(np.abs(G - np.eye(6))))
    worst2 = max(devs2.values())
    if worst2 > 1e-4:
        failures.append(f"2D Gram deviation {worst2:.3e} > 1e-4")
    detail = f"1d={dev1:.1e}, 2d worst={worst2:.1e} ({devs2})"
    _report(10, "eigenbasis orthonormality 1D and 2D", failures, detail)

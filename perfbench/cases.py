"""The three workloads as cycles of seeded user-level requests, with their checks.

A case is one request a user of maxforms makes: one CLI call through
`cli.main(argv)` in-process, or one library call.  `run` is the timed part;
`check` runs afterwards, outside the timed region, and returns
(name, residual, gate) triples.  A check passes when residual <= gate; a gate
of 0 is an exact check.  Gates are the ones pinned in tests/test_acceptance.py
(or, where a case has no acceptance gate, in the unit test or CLI --strict
gate named beside it).

Checks on a measured convergence order or slope are pass/fail bands; only
residual gates count toward the gate margin.  The sphere order bands (names
starting with PRE_ASYMPTOTIC) are measured to miss now and then on valid input;
such a miss is counted as a band miss, apart from verified and failed cases.

A case may name a known defect: the message with which the program refuses
that valid request today.  Such a refusal is counted as a refusal, not as a
wrong answer; once the defect is fixed the same case is checked like any other.

Every maxforms function is looked up through its module at call time, so a
traced run sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

ORDER_CAP_DEFECT = "above cap"  # eigen2d --q 1 --modes >= 9: order label 13 above cap 12
GRID_GUARD_DEFECT = "factorization guard"  # eigen2d grids above 10^6 cells


@dataclass
class Case:
    kind: str
    label: str
    run: Callable
    check: Callable
    defect: str | None = None


class Deck:
    """Seeded draws that use every value once before any value repeats.

    Case costs depend on the values drawn; dealing them from a shuffled deck
    keeps the cost mix of a run nearly independent of the seed.
    """

    def __init__(self, rng, values):
        self.rng, self.values, self.stack = rng, list(values), []

    def draw(self):
        if not self.stack:
            self.stack = [self.values[i] for i in self.rng.permutation(len(self.values))]
        return self.stack.pop()


@dataclass
class CliResult:
    rc: int
    out: str
    err: str


def cli_call(m, argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = m.cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argument
            rc = exc.code if isinstance(exc.code, int) else 2
    return CliResult(rc, out.getvalue(), err.getvalue())


def _cli_case(m, kind, argv, check, defect=None) -> Case:
    return Case(kind, " ".join(argv), lambda: cli_call(m, argv), check, defect)


def _rows(text: str):
    return list(csv.DictReader(io.StringIO(text)))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _band(name: str, value: float, target: float, half_width: float):
    """Pass/fail check that value lies within target +- half_width (no margin)."""
    return (f"{name} {value:.3f} (band {target}+-{half_width})",
            float(not abs(value - target) <= half_width), 0.0)


# ---------------------------------------------------------------------------
# checks shared by workloads


def _check_eigen2d(q: int, modes: int):
    route = "zaremba" if q == 0 else "radial"

    def check(res: CliResult):
        rows = _rows(res.out)
        ref = oracles.merged_spectrum(q, modes)
        out = [("row_count", float(len(rows) != modes), 0.0)]
        for row, (lam, _, _, omega) in zip(rows, ref):
            out.append(("route", float(row["route"] != route), 0.0))
            # acceptance 05: zeros within 1e-6 of the oracle
            out.append(("zero", abs(math.sqrt(float(row["lambda_bessel"])) - omega), 1e-6))
            # acceptance 06: every route within 1% of the squared zeros
            out.append(("rel_err", _rel(float(row["lambda_num"]), lam), 0.01))
        return out

    return check


def _eigen2d_case(m, q: int, modes: int, grid: str | None = None, defect=None) -> Case:
    argv = ["eigen2d", "--q", str(q), "--modes", str(modes)]
    if grid:
        argv += ["--grid", grid]
    return _cli_case(m, f"eigen2d.q{q}", argv, _check_eigen2d(q, modes), defect)


# ---------------------------------------------------------------------------
# solvers: sparse LU, Lanczos and array kernels; almost no Bessel work


def _eigen1d_case(m, M: int, modes: int) -> Case:
    def check(res: CliResult):
        rows = _rows(res.out)
        ks = [int(row["k"]) for row in rows]
        closed = [m.spectrum1d.fd_eigenvalue_closed_form(M, k) for k in ks]
        drift = max(abs(float(row["lambda_fd"]) - c) for row, c in zip(rows, closed))
        # cli --strict gate: the solver matches the closed-form discrete spectrum
        # to 1e-9 of its largest eigenvalue (roundoff scales with the matrix norm)
        out = [("row_count", float(ks != list(range(1, modes + 1))), 0.0),
               ("closed_form", drift, 1e-9 * max(1.0, closed[-1]))]
        # acceptance 04: within 1e-3 of (k - 1/2)^2
        out += [("continuum", _rel(float(row["lambda_fd"]), (k - 0.5) ** 2), 1e-3)
                for row, k in zip(rows, ks)]
        return out

    argv = ["eigen1d", "--grid", str(M), "--modes", str(modes)]
    return _cli_case(m, f"eigen1d.M{M}", argv, check)


def _radial_merge_case(m, M: int, count: int, bc: str) -> Case:
    q = 0 if bc == "dirichlet" else 1

    def run():
        pool = []
        for n in range(1, count + 5):
            pool.extend(m.spectrum2d.radial_eigensolve(n, M, count, bc=bc).lambdas)
        return np.sort(np.array(pool))[:count]

    def check(lams):
        ref = oracles.merged_spectrum(q, count)
        # acceptance 06: within 1% of the squared zeros
        return [("rel_err", _rel(lam, row[0]), 0.01) for lam, row in zip(lams, ref)]

    return Case(f"radial.{bc}", f"M={M} count={count}", run, check)


def random_partition(rng, K: int, min_len: float = 0.35):
    """K closed arcs alternating with K gaps, every piece at least min_len."""
    pieces = min_len + rng.dirichlet(np.ones(2 * K)) * (2 * math.pi - 2 * K * min_len)
    ends = rng.uniform(0.0, 2 * math.pi) + np.concatenate([[0.0], np.cumsum(pieces)])
    return tuple((float(ends[2 * k]), float(ends[2 * k + 1])) for k in range(K))


def _dn_case(m, arcs, h: float) -> Case:
    K = len(arcs)

    def run():
        basis = m.dnfields.build_basis(m.dnfields.ArcPartition(arcs), h=h)
        return basis, m.dnfields.dimension_check(basis.gram)

    def check(result):
        basis, report = result
        mesh = basis.mesh
        out = [
            ("rank", float(report.rank != K - 1), 0.0),  # acceptance 08
            ("euler", float(oracles.euler_characteristic(mesh.points, mesh.triangles) != 1), 0.0),
            # test_cli: pinned solves exact to 1e-10
            ("solve", float(np.max(basis.residuals)), 1e-10),
        ]
        if K > 1:  # acceptance 08: spectral gap of at least 1e6
            out.append(("gap", 1e6 / report.gap, 1.0))
        return out

    return Case(f"dn_fields.h{h}", f"K={K} h={h}", run, check)


def _identities_case(m, N: int, cells: int, q: int, seed: int) -> Case:
    def check(res: CliResult):
        doc = json.loads(res.out)
        r = doc["residuals"]
        out = [
            # acceptance 02: grid d.d and the double star are exact
            ("dd", r["dd_max"], 0.0),
            ("double_hodge", r["double_hodge_max"], 0.0),
            ("routes", r["codiff_routes_max"], 1e-12),
            ("sign_suite", float(r["sign_suite_max"]), 0.0),
            ("components", float(doc["results"]["component_count"] != math.comb(N, q)), 0.0),
            ("shape", float(doc["results"]["grid_shape"] != [cells] * N), 0.0),
        ]
        if "wedge_anticommute_max" in r:  # cli --strict gate
            out.append(("wedge", r["wedge_anticommute_max"], 1e-8))
        return out

    argv = ["identities", "--N", str(N), "--q", str(q), "--cells", str(cells),
            "--seed", str(seed)]
    return _cli_case(m, f"identities.N{N}", argv, check)


def solvers_cycles(m, rng):
    counts = Deck(rng, range(4, 9))
    while True:
        cycle = [
            _eigen2d_case(m, 0, 4),
            _eigen2d_case(m, 0, 4, grid="512"),
            _eigen2d_case(m, 0, 4, grid="1024,1024", defect=GRID_GUARD_DEFECT),
        ]
        for M in (2000, 16000):
            cycle += [_eigen1d_case(m, M, modes) for modes in (4, 8)]
        for bc in ("dirichlet", "neumann"):
            cycle += [_radial_merge_case(m, 4096, counts.draw(), bc) for _ in range(3)]
        # K sets the number of pinned solves, so it is fixed per slot; the
        # seed places the arcs
        for h, arc_counts in ((0.05, (1, 2, 3, 4)), (0.01, (2, 4))):
            cycle += [_dn_case(m, random_partition(rng, K), h) for K in arc_counts]
        for N, q, cells in ((3, 1, 64), (4, 2, 24)):
            cycle.append(_identities_case(m, N, cells, q, int(rng.integers(0, 10**6))))
        yield cycle


# ---------------------------------------------------------------------------
# eigenforms: many small requests over a small label pool (zero tables repeat)

LABEL_POOL = [(q, n, mm) for q in (0, 1) for n in range(1, 5) for mm in range(1, 4)]


def _eigenform_case(m, q, n, mm, role) -> Case:
    kind = "fn" if q == 0 else "dfn"

    def check(mode):
        # acceptance 05: the frequency is the oracle zero to 1e-6
        return [("omega", abs(mode.omega - oracles.bessel_zeros(n, mm, kind)[mm - 1]), 1e-6),
                ("degree", float(mode.degree != q + (role == "H")), 0.0)]

    return Case("analytic_eigenform", f"q={q} n={n} m={mm} {role}",
                lambda: m.spectrum2d.analytic_eigenform(q, n, mm, role), check)


def _maxwell_case(m, q, n, mm, seed) -> Case:
    def check(res):  # acceptance 07: analytic Maxwell residual
        return [("rot", res["rot"], 1e-8), ("div", res["div"], 1e-8)]

    return Case("maxwell_residual_2d", f"q={q} n={n} m={mm}",
                lambda: m.spectrum2d.maxwell_residual_2d(q, n, mm, samples=24, seed=seed),
                check)


def _ode_case(m, q, n, mm) -> Case:
    def run():
        return (m.spectrum2d.coeff_ode_residuals(q, n, mm, M_r=200),
                m.spectrum2d.coeff_ode_residuals(q, n, mm, M_r=400))

    def check(pair):
        coarse, fine = pair
        out = []
        for key, c in coarse.items():
            if c < 1e-11:  # algebraic relation at roundoff
                out.append((key, c, 1e-11))
            else:  # acceptance 07: second order, ratio 4 +- 0.7
                out.append(_band(key, c / fine[key], 4.0, 0.7))
        return out

    return Case("coeff_ode_residuals", f"q={q} n={n} m={mm}", run, check)


def _expand_case(m, q, n, mm, role) -> Case:
    def check(res: CliResult):
        own, cross = 0.0, 0.0
        for row in _rows(res.out):
            size = abs(complex(float(row["re"]), float(row["im"])))
            if int(row["order"]) == n:
                own = max(own, size)
            else:
                cross = max(cross, size)
        # acceptance 07: the series collapses onto its own order
        return [("cross", cross, 1e-8), ("own_lost", float(own < 0.1), 0.0)]

    argv = ["expand", "--q", str(q), "--n", str(n), "--m", str(mm), "--field", role]
    return _cli_case(m, "expand", argv, check)


def _regularity_case(m, q, n, mm, role) -> Case:
    want = m.regularity.expected_verdict(q, n, role)

    def check(res: CliResult):
        r = json.loads(res.out)["results"]
        # acceptance 09: verdict, slope -1 +- 0.2 when singular, >= -0.1 when H1
        if want == "not-H1":
            slope = _band("slope", r["slope"], -1.0, 0.2)
        else:
            slope = ("slope", float(r["slope"] < -0.1), 0.0)
        return [("verdict", float(r["verdict"] != want), 0.0), slope]

    argv = ["regularity", "--q", str(q), "--n", str(n), "--m", str(mm), "--field", role]
    return _cli_case(m, "regularity", argv, check)


def _zeros_case(m, n, kind, count) -> Case:
    def check(res: CliResult):
        doc = json.loads(res.out)
        zeros = doc["results"]["zero"]
        out = [("row_count", float(len(zeros) != count), 0.0),
               ("residual", doc["residuals"]["max_abs_value_at_zero"], 1e-10)]  # cli --strict
        for mm, (zero, z) in enumerate(zip(zeros, oracles.bessel_zeros(n, count, kind)), 1):
            if n == 1 and kind == "fn":  # acceptance 05: exactly m pi
                out.append(("m_pi", abs(zero - mm * math.pi), 1e-12))
            else:  # acceptance 05: within 1e-6 of the oracle
                out.append(("oracle", abs(zero - z), 1e-6))
        return out

    argv = ["bessel-zeros", "--n", str(n), "--kind", kind, "--count", str(count),
            "--format", "json"]
    return _cli_case(m, "bessel-zeros", argv, check)


def _gram_case(m, q, count, role) -> Case:
    labels = [(n, mm) for _, n, mm, _ in oracles.merged_spectrum(q, count)]

    def run():
        modes = [m.spectrum2d.analytic_eigenform(q, n, mm, role) for n, mm in labels]
        return m.spectrum2d.gram_matrix_2d(modes)

    def check(G):  # acceptance 10: orthonormal to 1e-4
        return [("gram", float(np.max(np.abs(G - np.eye(count)))), 1e-4)]

    return Case("gram_matrix_2d", f"q={q} count={count} {role}", run, check)


def eigenforms_cycles(m, rng):
    labels = {kind: Deck(rng, LABEL_POOL) for kind in
              ("eigenform", "maxwell", "ode", "expand", "regularity", "zeros")}
    roles = Deck(rng, ("E", "H"))
    below_cap, above_cap = Deck(rng, range(4, 9)), Deck(rng, range(9, 13))
    gram = Deck(rng, [(q, count) for q in (0, 1) for count in (4, 5, 6)])
    while True:
        # small requests are most of the count, so the median case is one of them
        cycle = [_eigenform_case(m, *labels["eigenform"].draw(), roles.draw())
                 for _ in range(8)]
        for _ in range(4):
            cycle.append(_expand_case(m, *labels["expand"].draw(), roles.draw()))
            q, n, mm = labels["zeros"].draw()
            cycle.append(_zeros_case(m, n, ("fn", "dfn")[q], mm + 3))
        for _ in range(2):
            cycle.append(_regularity_case(m, *labels["regularity"].draw(), roles.draw()))
        cycle.append(_maxwell_case(m, *labels["maxwell"].draw(), int(rng.integers(0, 10**6))))
        cycle.append(_ode_case(m, *labels["ode"].draw()))
        cycle.append(_gram_case(m, *gram.draw(), roles.draw()))
        # two requests below the order cap and two above it, so the share of
        # known-defect requests is the same in every cycle
        for _ in range(2):
            cycle.append(_eigen2d_case(m, 1, below_cap.draw()))
            cycle.append(_eigen2d_case(m, 1, above_cap.draw(), defect=ORDER_CAP_DEFECT))
        yield cycle


# ---------------------------------------------------------------------------
# calculus: pointwise callable exterior calculus, interpreter bound


def random_field(m, N, rng, n_terms=2, max_freq=1):
    """Sum of harmonic waves with integer frequencies (exact derivatives)."""
    f = None
    for _ in range(n_terms):
        term = m.exterior.ScalarField.harmonic(
            rng.integers(-max_freq, max_freq + 1, N),
            rng.uniform(0.0, 2.0 * np.pi),
            rng.normal() + 1j * rng.normal(),
        )
        f = term if f is None else f + term
    return f


def random_form(m, N, q, rng):
    comps = {I: random_field(m, N, rng) for I in m.multiindex.enumerate_ordered(q, N)}
    return m.exterior.FieldForm.from_callable(N, q, comps)


def random_spd_map(m, N, rng):
    """Orthogonal conjugation of a diagonal in [0.8, 1.3], plus a shift."""
    Q = np.linalg.qr(rng.normal(size=(N, N)))[0]
    A = Q @ np.diag(rng.uniform(0.8, 1.3, N)) @ Q.T
    return m.exterior.SmoothMap.affine(A, b=0.2 * rng.normal(size=N))


def _max_diff(m, a, b, points) -> float:
    worst = 0.0
    for x in points:
        va = m.exterior.evaluate(a, x)
        vb = m.exterior.evaluate(b, x) if b is not None else {}
        for k in set(va) | set(vb):
            worst = max(worst, abs(va.get(k, 0.0) - vb.get(k, 0.0)))
    return worst


# acceptance 02 gates
CALCULUS_GATES = {"dd": 1e-12, "hodge": 0.0, "routes": 1e-12, "leibniz": 1e-8,
                  "natural": 1e-8, "epsmu": 1e-10}


def _form_case(m, N, q, tau, rng) -> Case:
    ext = m.exterior
    a = random_form(m, N, q, rng)
    b = random_form(m, N, 1, rng) if q + 1 <= N else None
    pts = [rng.uniform(0.2, 0.8, N) for _ in range(2)]

    def run():
        kappa = m.multiindex.sign_constants(q, N).double_hodge
        res = {
            "dd": _max_diff(m, ext.ext_d(ext.ext_d(a)), None, pts),
            "hodge": _max_diff(m, ext.hodge(ext.hodge(a)), kappa * a, pts),
            "natural": _max_diff(m, ext.ext_d(ext.pullback(tau, a)),
                                 ext.pullback(tau, ext.ext_d(a)), pts[:1]),
            "epsmu": _max_diff(m, ext.transform_eps(tau, ext.transform_mu(tau, a)), a,
                               pts[:1]),
        }
        if q >= 1:
            res["routes"] = _max_diff(m, ext.codiff(a), ext.codiff_expansion(a), pts)
        if b is not None:
            lhs = ext.ext_d(ext.wedge(a, b))
            rhs = ext.wedge(ext.ext_d(a), b) + ((-1) ** q) * ext.wedge(a, ext.ext_d(b))
            res["leibniz"] = _max_diff(m, lhs, rhs, pts[:1])
        return res

    def check(res):
        return [(k, v, CALCULUS_GATES[k]) for k, v in res.items()]

    return Case(f"calculus.N{N}", f"N={N} q={q}", run, check)


# On seeded random forms the measured orders leave the 2 +- 0.3 band of
# acceptance 03 now and then, mostly on the coarse pair.  In 300 forms
# (q = 0, 1, 2; 594 nontrivial relations) the 16/32 orders ranged over
# [1.26, 2.00] with 12 misses, the 32/64 orders over [1.73, 2.00] and the
# 64/128 orders over [1.86, 2.00]; one benchmark form read 1.71, 1.70, 1.87 on
# the three pairs.  The orders approach 2 under refinement, so a miss is
# pre-asymptotic, not a wrong residual; it is counted as a band miss.
SPHERE_GRIDS = (16, 32, 64)
PRE_ASYMPTOTIC = "sphere_order"  # prefix of the names of the sphere order bands


def _sphere_case(m, q, rng) -> Case:
    E = random_form(m, 2, q, rng)

    def run():
        return [m.spherical.sphere_relation_residuals(E, mr=g, mphi=g) for g in SPHERE_GRIDS]

    def check(res):
        out = []
        for key in res[0]:
            seq = [r[key] for r in res]
            if seq[0] < 1e-12:  # relation trivial for this degree
                out += [(key, s, 1e-12) for s in seq]
                continue
            for i in (0, 1):  # acceptance 03: second order, 2 +- 0.3, on both pairs
                pair = f"{PRE_ASYMPTOTIC}{SPHERE_GRIDS[i]}/{SPHERE_GRIDS[i + 1]}"
                out.append(_band(f"{pair}.{key}", math.log2(seq[i] / seq[i + 1]), 2.0, 0.3))
        return out

    return Case("sphere_relations", f"q={q}", run, check)


def calculus_cycles(m, rng):
    while True:
        cycle = []
        for _ in range(3):
            for N in range(1, 5):
                tau = random_spd_map(m, N, rng)
                cycle += [_form_case(m, N, q, tau, rng) for q in range(N + 1)]
        cycle += [_sphere_case(m, q, rng) for q in range(3)]
        yield cycle


WORKLOADS = {"solvers": solvers_cycles, "eigenforms": eigenforms_cycles,
             "calculus": calculus_cycles}

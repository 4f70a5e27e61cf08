"""Command line front end: formats, exit codes, determinism."""

import argparse
import csv
import dataclasses
import importlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from maxforms import cli, exterior

from formutil import per_index


def run(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def rows_of(text):
    reader = csv.DictReader(io.StringIO(text))
    return list(reader)


def test_bessel_zeros_rows_are_multiples_of_pi(capsys):
    code, out = run(["bessel-zeros", "--n", "1", "--count", "3", "--strict"], capsys)
    assert code == 0
    rows = rows_of(out)
    assert [r["m"] for r in rows] == ["1", "2", "3"]
    for r in rows:
        assert abs(float(r["zero"]) - int(r["m"]) * math.pi) <= 1e-10
        assert float(r["residual"]) <= 1e-10


def test_json_documents_have_exactly_three_top_level_keys(capsys):
    code, out = run(
        ["bessel-zeros", "--n", "2", "--kind", "dfn", "--count", "2",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc) == ["config", "residuals", "results"]
    assert doc["config"]["kind"] == "dfn"
    assert len(doc["results"]["zero"]) == 2


def test_eigen1d_error_column_consistency(capsys):
    code, out = run(["eigen1d", "--modes", "4", "--grid", "64", "--strict"], capsys)
    assert code == 0
    for r in rows_of(out):
        k = int(r["k"])
        assert float(r["lambda_exact"]) == (k - 0.5) ** 2
        recomputed = abs(float(r["lambda_fd"]) - float(r["lambda_exact"]))
        # columns are independently rounded to 12 significant digits
        assert abs(float(r["abs_err"]) - recomputed) <= 1e-11 * max(1.0, k * k)


def test_eigen2d_radial_route(capsys):
    code, out = run(
        ["eigen2d", "--q", "1", "--modes", "4", "--grid", "256,16", "--strict"],
        capsys,
    )
    assert code == 0
    rows = rows_of(out)
    assert all(r["route"] == "radial" for r in rows)
    assert max(float(r["rel_err"]) for r in rows) <= 1e-2


def test_eigen2d_zaremba_route_with_metadata(tmp_path, capsys):
    meta = tmp_path / "meta.json"
    code, out = run(
        ["eigen2d", "--q", "0", "--modes", "4", "--grid", "64,64",
         "--metadata", str(meta)],
        capsys,
    )
    assert code == 0
    rows = rows_of(out)
    assert all(r["route"] == "zaremba" for r in rows)
    doc = json.loads(meta.read_text())
    first = doc["results"]["modes"][0]
    assert first["n"] == 1 and first["m"] == 1
    assert abs(first["lambda_bessel"] - math.pi**2) <= 1e-10
    assert doc["residuals"]["rel_err_max"] < 0.05


def test_eigen2d_strict_gate_trips_on_coarse_grid(capsys):
    code, _ = run(["eigen2d", "--q", "0", "--grid", "32,32", "--strict"], capsys)
    assert code == 1
    code, _ = run(["eigen2d", "--q", "0", "--grid", "32,32"], capsys)
    assert code == 0


@pytest.mark.parametrize(
    "argv,modes",
    [
        (["--q", "1", "--modes", "12"], 12),
        (["--q", "0", "--grid", "1024,1024"], 4),
        (["--q", "0", "--modes", "40"], 40),
        (["--q", "1", "--modes", "40"], 40),
    ],
)
def test_eigen2d_serves_more_modes_and_large_grids(argv, modes, capsys):
    code, out = run(["eigen2d", *argv, "--strict"], capsys)
    assert code == 0
    assert len(rows_of(out)) == modes


@pytest.mark.parametrize("argv,modes", [
    (["eigen1d", "--grid", "8"], 8),
    (["eigen1d", "--grid", "1", "--modes", "1"], 1),
    (["eigen2d", "--q", "1", "--grid", "8"], 4),
    (["eigen2d", "--q", "1", "--grid", "1", "--modes", "3"], 3),
    (["eigen2d", "--grid", "512,8"], 4),
    (["eigen2d", "--grid", "1,1", "--modes", "1"], 1),
])
def test_small_grids_are_served(argv, modes, capsys):
    # the operators' only limits: one cell, and no more values than unknowns
    code, out = run(argv, capsys)
    assert code == 0
    assert len(rows_of(out)) == modes


def test_eigen2d_radial_route_serves_more_modes_than_radial_cells(capsys):
    # each angular order has up to M_r eigenvalues; the merge pools them all
    code, out = run(
        ["eigen2d", "--q", "1", "--modes", "17", "--grid", "16", "--format", "json"],
        capsys,
    )
    assert code == 0
    got = [row["lambda_num"] for row in json.loads(out)["results"]["modes"]]
    # every value of the merge comes from its own index-selected bisection
    pooled = [lam for n in range(1, 18) for lam in per_index((n - 0.5) ** 2, 16, 16, "neumann")]
    assert got == sorted(pooled)[:17]


@pytest.mark.parametrize("q", [0, 1])
@pytest.mark.parametrize("modes", [1, 4, 8])
def test_eigen2d_rows_do_not_depend_on_modes(q, modes, capsys):
    # each value is canonical, so a shorter request is a bitwise prefix
    def rows(count):
        argv = ["eigen2d", "--q", str(q), "--modes", str(count), "--grid", "64,32",
                "--format", "json"]
        code, out = run(argv, capsys)
        assert code == 0
        return json.loads(out)["results"]["modes"]

    assert rows(modes) == rows(modes + 4)[:modes]


def test_bessel_zeros_serve_high_orders(capsys):
    code, out = run(
        ["bessel-zeros", "--n", "40", "--count", "5", "--format", "json", "--strict"],
        capsys,
    )
    assert code == 0
    assert len(json.loads(out)["results"]["zero"]) == 5


def test_identities_residuals_all_zero(capsys):
    code, out = run(["identities", "--N", "4", "--q", "2", "--strict"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc["residuals"]) == {
        "codiff_routes_max",
        "dd_max",
        "double_hodge_max",
        "sign_suite_max",
        "wedge_anticommute_max",
    }
    assert all(v == 0 for v in doc["residuals"].values())


def test_identities_dump_and_reload(tmp_path, capsys):
    dumped = tmp_path / "form.json"
    code, first = run(
        ["identities", "--N", "3", "--q", "1", "--seed", "7",
         "--dump-form", str(dumped)],
        capsys,
    )
    assert code == 0
    form = exterior.grid_form_from_json(dumped.read_text())
    assert form.N == 3 and form.q == 1

    code, second = run(["identities", "--form", str(dumped), "--strict"], capsys)
    assert code == 0
    doc = json.loads(second)
    assert doc["config"]["source"] == "file"
    assert doc["residuals"]["dd_max"] == 0.0


@pytest.mark.parametrize("N,q,cells,seed", [(2, 1, 8, 0), (3, 2, 5, 7), (4, 2, 6, 1)])
def test_generated_grid_form_serializes_as_the_summed_draws(N, q, cells, seed):
    # reference: real and imaginary draws summed into a fresh complex array
    rng = np.random.default_rng(seed)
    comps = {}
    for key in cli.enumerate_ordered(q, N):
        data = rng.integers(-4, 5, size=(cells,) * N) + 1j * rng.integers(-4, 5, size=(cells,) * N)
        comps[key] = data.astype(np.complex128)
    expected = exterior.FieldForm.from_grid(N, q, comps, spacing=(0.125,) * N)
    grid = exterior.GridSpec((cells,) * N, (0.125,) * N, (0.0,) * N)
    assert (exterior.grid_form_to_json(cli._random_grid_form(q, grid, seed))
            == exterior.grid_form_to_json(expected))


@pytest.mark.parametrize("sign", [1, -1])
def test_difference_max_equals_the_max_of_the_difference_form(sign, monkeypatch):
    # float values at a non-dyadic spacing, so no difference is exactly zero; a
    # NaN in a later component wins over an infinity in another, whether a
    # component is reduced in one slab, entry by entry, or in slabs of 7
    # entries, which do not divide its 60
    rng = np.random.default_rng(11)
    shape, spacing = (5, 4, 3), (0.1, 0.3, 0.7)

    def form():
        comps = {k: rng.normal(size=shape) + 1j * rng.normal(size=shape)
                 for k in cli.enumerate_ordered(1, 3)}
        return exterior.FieldForm.from_grid(3, 1, comps, spacing)

    def whole_array_max(X, Y):
        pairs = ((X.components[k].values, Y.components[k].values) for k in X.components)
        return float(np.max([np.max(np.abs(x - y if sign == 1 else x + y)) for x, y in pairs]))

    for budget in (exterior._SLAB_BYTES, 1, 7 * 16):
        monkeypatch.setattr(exterior, "_SLAB_BYTES", budget)
        X, Y = form(), form()
        assert cli._difference_max(X, Y, sign) == cli._form_max(X - sign * Y)
        assert cli._difference_max(X, Y, sign) == whole_array_max(X, Y)
        X.components[(2,)].values[1, 2, 0] = np.nan
        Y.components[(3,)].values[0, 0, 2] = np.inf
        assert math.isnan(cli._difference_max(X, Y, sign))
        assert math.isnan(cli._form_max(X - sign * Y)) and math.isnan(whole_array_max(X, Y))
        # the slab holding the NaN gives NaN, and so does the component
        one = exterior.FieldForm.from_grid(3, 0, {(): X.components[(2,)].values}, spacing)
        assert math.isnan(cli._form_max(one))


@pytest.mark.parametrize("q,N", [(1, 3), (2, 4)])
def test_form_max_reads_nan_whichever_component_holds_it(q, N):
    # an infinity in the first component, and a NaN in each component in turn
    keys = cli.enumerate_ordered(q, N)
    for holder in keys:
        comps = {k: np.ones((3,) * N, dtype=np.complex128) for k in keys}
        comps[keys[0]][0] = np.inf
        comps[holder][(1,) * N] = np.nan
        form = exterior.FieldForm.from_grid(N, q, comps, (0.5,) * N)
        assert math.isnan(cli._form_max(form))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
def test_overflowing_stored_form_fails_strict_with_null_residuals(tmp_path, capsys):
    # a 0-form whose entries alternate +-1e308: ext_d overflows to inf, so
    # d(d a) and the wedge difference hold inf - inf = NaN
    i, j = np.indices((6, 6))
    values = np.where((i + j) % 2 == 0, 1e308, -1e308).astype(np.complex128)
    path = tmp_path / "form.json"
    path.write_text(exterior.grid_form_to_json(
        exterior.FieldForm.from_grid(2, 0, {(): values}, (0.5, 0.5))))
    code, out = run(["identities", "--form", str(path)], capsys)
    residuals = json.loads(out)["residuals"]
    assert code == 0
    assert residuals["dd_max"] is None and residuals["wedge_anticommute_max"] is None
    assert run(["identities", "--form", str(path), "--strict"], capsys) == (1, out)


def _nan_last(values):
    """A copy of an array with a NaN in its last entry."""
    out = np.array(values)
    out.reshape(-1)[-1] = np.nan
    return out


def _nan_in_last_component(form):
    form.components[max(form.components)].values.reshape(-1)[-1] = np.nan
    return form


# per gated subcommand: a passing request, and a library result that the
# monkeypatch gives a NaN, so that the gate's value reads NaN
_NAN_GATES = {
    "bessel-zeros": (["bessel-zeros", "--n", "1", "--count", "3"], "bessel", "zeros_j",
                     lambda t: dataclasses.replace(t, residuals=_nan_last(t.residuals))),
    "eigen1d": (["eigen1d", "--modes", "4", "--grid", "64"], "spectrum1d", "fd_eigensolve",
                lambda s: dataclasses.replace(s, lambdas=_nan_last(s.lambdas))),
    "eigen2d": (["eigen2d", "--q", "1", "--modes", "4", "--grid", "64,16"], "spectrum2d",
                "radial_spectrum", _nan_last),
    "dn-fields": (["dn-fields", "--arcs", "0.5:2.5,3.5:5.5", "--h", "0.2"], "dnfields",
                  "dimension_check", lambda r: dataclasses.replace(r, gap=math.nan)),
    "identities": (["identities", "--N", "3", "--q", "2"], "exterior", "codiff",
                   _nan_in_last_component),
    # the NaN lands in order 4's row, a cross order of the n = 1 eigenform
    "expand": (["expand", "--q", "0", "--n", "1", "--m", "1", "--radial-cells", "12"],
               "spectrum2d", "extract_coefficients",
               lambda c: dataclasses.replace(
                   c, families={k: _nan_last(v) for k, v in c.families.items()})),
}


@pytest.mark.parametrize("command", sorted(_NAN_GATES))
def test_a_nan_gate_value_fails_strict(command, monkeypatch, capsys):
    argv, module, name, spoil = _NAN_GATES[command]
    assert run([*argv, "--strict"], capsys)[0] == 0
    library = importlib.import_module(f"maxforms.{module}")
    honest = getattr(library, name)
    monkeypatch.setattr(library, name, lambda *a, **k: spoil(honest(*a, **k)))
    assert run(argv, capsys)[0] == 0
    assert run([*argv, "--strict"], capsys)[0] == 1


def test_regularity_has_no_gate(monkeypatch, capsys):
    from maxforms import regularity

    argv = ["regularity", "--q", "0", "--n", "1", "--m", "1", "--strict"]
    assert run(argv, capsys)[0] == 0
    honest = regularity.classify
    monkeypatch.setattr(regularity, "classify",
                        lambda *a, **k: dataclasses.replace(honest(*a, **k), slope=math.nan))
    code, out = run(argv, capsys)
    assert code == 0 and json.loads(out)["residuals"]["slope_deviation"] is None


def test_identities_checks_stored_forms_on_any_grid(tmp_path, capsys):
    # the partner 1-form of the wedge check is drawn on the stored form's grid
    rng = np.random.default_rng(3)
    one = {k: rng.integers(-4, 5, (6, 6)).astype(np.complex128) for k in ((1,), (2,))}
    xs, ys = np.linspace(-1.0, 1.0, 81), np.linspace(0.0, 1.0, 41)
    X, _ = np.meshgrid(xs, ys, indexing="ij")
    forms = {
        "one.json": (one, (0.25, 0.25), None),
        "zero.json": ({(): X}, (xs[1] - xs[0], ys[1] - ys[0]), (-1.0, 0.0)),
    }
    for name, (comps, spacing, origin) in forms.items():
        form = exterior.FieldForm.from_grid(2, len(next(iter(comps))), comps, spacing, origin)
        path = tmp_path / name
        path.write_text(exterior.grid_form_to_json(form))
        code, out = run(["identities", "--form", str(path), "--strict"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["grid_shape"] == list(next(iter(comps.values())).shape)
        assert "wedge_anticommute_max" in doc["residuals"]


def test_dn_fields_reports_rank_and_gap(capsys):
    code, out = run(
        ["dn-fields", "--arcs", "0.0:1.5,2.0:3.5,4.0:5.5", "--h", "0.1",
         "--strict"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["K"] == 3
    assert doc["results"]["rank"] == 2
    assert doc["results"]["gap"] >= 1e6
    assert doc["residuals"]["solve_max"] <= 1e-10


def test_dn_fields_single_arc_has_empty_basis(capsys):
    code, out = run(["dn-fields", "--arcs", "0.5:2.5", "--h", "0.1", "--strict"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["rank"] == 0
    # infinite gap serializes as null
    assert doc["results"]["gap"] is None


def test_regularity_reports_verdict(capsys):
    code, out = run(
        ["regularity", "--q", "0", "--n", "1", "--m", "1", "--field", "H",
         "--strict"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["verdict"] == "not-H1"
    assert doc["results"]["exponent"] == -1.5
    assert doc["results"]["slope"] == pytest.approx(-1.0, abs=0.2)
    assert len(doc["results"]["eps"]) == len(doc["results"]["seminorms"])


def test_regularity_slope_reads_minus_one_at_high_radial_rank(capsys):
    # on dyadic shells the slope is 2 alpha + 2 = -1 at high radial rank too
    code, out = run(
        ["regularity", "--q", "0", "--n", "1", "--m", "12", "--field", "H",
         "--strict"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["verdict"] == "not-H1"
    assert doc["results"]["exponent"] == -1.5
    assert doc["results"]["slope"] == pytest.approx(-1.0, abs=3e-3)
    assert doc["residuals"]["slope_deviation"] <= 3e-3


def test_regularity_slope_is_null_where_every_shell_underflows(capsys):
    code, out = run(["regularity", "--q", "0", "--n", "140", "--m", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["verdict"] == "H1"
    assert doc["results"]["slope"] is None
    assert doc["residuals"]["slope_deviation"] is None


def test_expand_eigenform_collapses_to_single_order(capsys):
    code, out = run(
        ["expand", "--q", "0", "--n", "2", "--m", "1", "--orders", "1,2,3",
         "--radial-cells", "12", "--strict"],
        capsys,
    )
    assert code == 0
    rows = rows_of(out)
    assert {r["family"] for r in rows} == {"c"}
    off = [r for r in rows if r["order"] != "2"]
    assert max(abs(float(r["re"])) + abs(float(r["im"])) for r in off) <= 1e-12


def test_expand_raises_angular_cells_to_an_exact_count(capsys):
    # 2 midpoints alias order 5 onto order 1; --angular-cells is a floor,
    # raised to (5 + 5 + 1) // 2 = 5, and the artifact names the count it used
    def coefficients(cells, used):
        code, out = run(["expand", "--q", "0", "--n", "5", "--m", "1", "--orders", "1,2,5",
                         "--angular-cells", cells, "--radial-cells", "3", "--format", "json"],
                        capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["angular_cells"] == int(cells)
        assert doc["results"]["angular_nodes"] == used
        return doc, {k: np.asarray(v["re"]) + 1j * np.asarray(v["im"])
                     for k, v in doc["results"]["families"]["c"].items()}

    doc, few = coefficients("2", 5)
    _, many = coefficients("256", 256)
    assert doc["residuals"]["cross_coefficient_max"] <= 1e-12
    assert np.max(np.abs(few["1"])) <= 1e-12 and np.max(np.abs(few["2"])) <= 1e-12
    assert np.max(np.abs(few["5"] - many["5"])) <= 1e-12


def test_expand_grid_form_route(tmp_path, capsys):
    xs = np.linspace(-1.0, 1.0, 81)
    ys = np.linspace(0.0, 1.0, 41)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    # x1 restricted to the half disk: the q=0 trace has order-1 content only
    form = exterior.FieldForm.from_grid(
        2, 0, {(): X}, spacing=(xs[1] - xs[0], ys[1] - ys[0]), origin=(-1.0, 0.0)
    )
    path = tmp_path / "form.json"
    path.write_text(exterior.grid_form_to_json(form))
    code, out = run(
        ["expand", "--form", str(path), "--orders", "1,2", "--format", "json",
         "--radial-cells", "12", "--angular-cells", "64"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["source"] == "file"
    assert doc["results"]["angular_nodes"] == 64
    c1 = np.asarray(doc["results"]["families"]["c"]["1"]["re"])
    nodes = np.asarray(doc["results"]["nodes"])
    # trace of x1 against sqrt(2/pi) cos(phi/2): coefficient (2/3) sqrt(2 pi) r... no,
    # integral of cos(phi) cos(phi/2) over (0, pi) = 2/3, so c1 = sqrt(2/pi) * (2/3) r
    assert np.max(np.abs(c1 - math.sqrt(2 / math.pi) * (2 / 3) * nodes)) <= 1e-3


def test_expand_without_selection_is_a_usage_error(capsys):
    code, _ = run(["expand", "--orders", "1"], capsys)
    assert code == 2


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["bessel-zeros", "--n", "1", "--frobnicate"])
    assert err.value.code == 2
    capsys.readouterr()


def test_parser_is_built_once_and_reused(capsys):
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit):
        cli.main(["bessel-zeros", "--n", "1", "--frobnicate"])
    capsys.readouterr()
    code, out = run(["bessel-zeros", "--n", "2", "--count", "2"], capsys)
    assert code == 0 and len(rows_of(out)) == 2


def test_a_request_out_of_memory_exits_3_with_one_line():
    # 1.5 GB of address space, in the child alone: room for the interpreter
    # and numpy, not for one 3.09 GiB grid component
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "maxforms.cli",
         "identities", "--N", "4", "--q", "2", "--cells", "120"],
        capture_output=True, text=True, env=env, preexec_fn=limit, timeout=120)
    assert proc.returncode == 3
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()  # one line: no traceback
    # numpy's message names the refused allocation
    assert line.startswith("maxforms: identities: out of memory: ")
    assert "3.09 GiB" in line and "(120, 120, 120, 120)" in line
    # and beside it, the request's dominant size by the README's formula
    assert "C(N, q)*cells^N = 1.2e9 complex values per form" in line


# one memory-bound request per subcommand, and the dominant size its line names
_MEMORY_BOUND = [
    (["identities", "--N", "4", "--q", "2", "--cells", "120"],
     "C(N, q)*cells^N = 1.2e9 complex values per form"),
    (["identities", "--form", "a.json"], "the stored form's C(N, q)*cells^N values"),
    (["bessel-zeros", "--n", "3", "--count", "10000000"],
     "about 8 (count + 1) = 8.0e7 scan points, doubled until they hold the zeros"),
    (["eigen1d", "--grid", "100000000"], "a few arrays of grid = 1.0e8 floats"),
    (["eigen2d", "--grid", "20000000,4", "--modes", "3"],
     "2 M_r = 4.0e7 floats per angular order, for at most modes = 3 orders"),
    (["dn-fields", "--arcs", "0:1", "--h", "0.0005"], "about pi/h^2 = 1.3e7 mesh nodes"),
    (["regularity", "--q", "0", "--n", "1", "--m", "1"],
     "a fixed shell quadrature, whatever the mode"),
    (["expand", "--q", "0", "--n", "1", "--m", "1", "--radial-cells", "100000000"],
     "radial-cells = 1.0e8 floats per distinct radial factor"),
    (["expand", "--form", "a.json", "--radial-cells", "1000", "--angular-cells", "2000"],
     "radial-cells = 1000 floats per distinct radial factor, "
     "plus radial-cells*angular-cells = 2.0e6 trace samples"),
]


@pytest.mark.parametrize("message", ["Unable to allocate 1.00 GiB for an array", ""])
@pytest.mark.parametrize("argv,size", _MEMORY_BOUND)
def test_out_of_memory_names_the_dominant_size(argv, size, message, capsys, monkeypatch):
    parser = cli.build_parser()

    def refuse(args):
        raise MemoryError(message)

    class Refusing:  # the real parser, with a handler that runs out of memory
        def parse_args(self, argv):
            return argparse.Namespace(**{**vars(parser.parse_args(argv)), "handler": refuse})

    monkeypatch.setattr(cli, "build_parser", Refusing)
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    refused = f" ({message})" if message else ""
    assert out == ""
    assert err == (f"maxforms: {argv[0]}: out of memory: the request's dominant size is "
                   f"{size}{refused}\n")


def test_every_subcommand_names_a_dominant_size():
    choices = cli.build_parser()._subparsers._group_actions[0].choices
    assert set(cli._DOMINANT_SIZE) == set(choices)
    assert {argv[0] for argv, _ in _MEMORY_BOUND} == set(choices)


def test_malformed_grid_exits_2(capsys):
    # a non-positive entry is refused on both routes, also where the radial
    # route reads only M_r; the message gives the reason
    requests = [(["--grid", "10,20,30"], "grid must be 'M' or 'Mr,Mphi'"),
                (["--grid", "16,x"], "grid entries must be integers")] + [
        (["--q", q, "--grid", grid], "grid entries must be positive")
        for q in ("0", "1") for grid in ("16,0", "16,-3")]
    for request, reason in requests:
        with pytest.raises(SystemExit) as err:
            cli.main(["eigen2d", *request])
        assert err.value.code == 2
        assert f"error: argument --grid: {reason}\n" in capsys.readouterr().err


@pytest.mark.parametrize("orders, reason", [
    ("0", "orders must be positive integers"),
    ("1,-2", "orders must be positive integers"),
    ("1,x", "orders must be a comma-separated integer list"),
    ("1,1", "orders must not repeat"),
])
def test_malformed_orders_exit_2_with_the_reason(orders, reason, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["expand", "--q", "0", "--n", "1", "--m", "1", "--orders", orders])
    assert err.value.code == 2
    assert f"error: argument --orders: {reason}\n" in capsys.readouterr().err


# every integer option of every subcommand, at 0 and -1; --q and --seed take 0
_INTEGER_OPTIONS = [
    (["identities"], "--N"), (["identities"], "--q"), (["identities"], "--cells"),
    (["identities"], "--seed"),
    (["bessel-zeros", "--n", "1"], "--n"), (["bessel-zeros", "--n", "1"], "--count"),
    (["eigen1d"], "--modes"), (["eigen1d"], "--grid"),
    (["eigen2d"], "--q"), (["eigen2d"], "--modes"), (["eigen2d"], "--grid"),
    *((["regularity", "--q", "0", "--n", "1", "--m", "1"], o) for o in ("--q", "--n", "--m")),
    *((["expand", "--q", "0", "--n", "1", "--m", "1"], o)
      for o in ("--q", "--n", "--m", "--orders", "--radial-cells", "--angular-cells")),
]
_INVALID = [(base, option, value) for base, option in _INTEGER_OPTIONS
            for value in ("0", "-1") if value != "0" or option not in ("--q", "--seed")]


@pytest.mark.parametrize("base,option,value", _INVALID,
                         ids=[f"{b[0]}{o}={v}" for b, o, v in _INVALID])
def test_invalid_integer_options_exit_2_with_a_message(base, option, value, capsys):
    argv = list(base)
    if option in argv:
        argv[argv.index(option) + 1] = value
    else:
        argv += [option, value]
    try:
        code = cli.main(argv)  # any other exception escapes with a traceback
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "maxforms: error:" in err or f"error: argument {option}" in err
    assert "Traceback" not in err
    if option.endswith("cells") or option == "--seed":  # the message names the option
        assert option.removeprefix("--").replace("-", " ") in err


def test_missing_form_file_exits_2(capsys):
    code, _ = run(["expand", "--form", "/nonexistent/missing.json"], capsys)
    assert code == 2


# a 1-form on a 2x2 grid that stores only its (1,) component; the grids match
# the partner form `identities` draws (spacing 0.125), so it checks clean
_STORED = {"N": 2, "q": 1,
           "grid": {"shape": [2, 2], "spacing": [0.125, 0.125], "origin": [0.0, 0.0]},
           "components": {"1": {"re": [[0, 1], [2, 3]], "im": [[0, 0], [1, 0]]}}}


def _stored(path, value):
    """_STORED with `value` at the slash-separated `path` (None deletes the field)."""
    doc = json.loads(json.dumps(_STORED))
    *parents, leaf = path.split("/")
    node = doc
    for name in parents:
        node = node[name]
    if value is None:
        del node[leaf]
    else:
        node[leaf] = value
    return json.dumps(doc)


_MALFORMED = {
    "not-json": "{",
    "array": "[1, 2]",
    "no-grid": json.dumps({"N": 2, "q": 1}),
    "no-q": _stored("q", None),
    "N-string": _stored("N", "2"),
    "q-float": _stored("q", 1.0),
    "grid-list": _stored("grid", [2, 2]),
    "shape-short": _stored("grid/shape", [2]),
    "shape-zero": _stored("grid/shape", [2, 0]),
    "no-spacing": _stored("grid/spacing", None),
    "spacing-text": _stored("grid/spacing", ["a", 0.125]),
    "spacing-zero": _stored("grid/spacing", [0.0, 0.125]),
    "origin-long": _stored("grid/origin", [0.0, 0.0, 0.0]),
    "components-list": _stored("components", [1]),
    "components-empty": _stored("components", {}),
    "key-text": _stored("components/a", _STORED["components"]["1"]),
    "key-unsorted": _stored("components/2,1", _STORED["components"]["1"]),
    "key-degree": _stored("components/1,2", _STORED["components"]["1"]),
    "key-range": _stored("components/3", _STORED["components"]["1"]),
    "payload-list": _stored("components/1", [1]),
    "no-im": _stored("components/1/im", None),
    "shape-mismatch": _stored("components/1/re", [[0, 1], [2, 3], [4, 5]]),
    "ragged": _stored("components/1/re", [[0, 1], [2]]),
    "text-values": _stored("components/1/im", [["a", 0], [0, 0]]),
    # json.loads reads the NaN and Infinity that json.dumps writes
    "nan-values": _stored("components/1/re", [[0, math.nan], [2, 3]]),
    "infinite-values": _stored("components/1/im", [[0, 0], [-math.inf, 0]]),
    "infinite-spacing": _stored("grid/spacing", [math.inf, 0.125]),
    "nan-origin": _stored("grid/origin", [0.0, math.nan]),
}


def test_stored_form_may_omit_components(tmp_path, capsys):
    path = tmp_path / "form.json"
    path.write_text(json.dumps(_STORED))
    form = exterior.grid_form_from_json(path.read_text())
    assert not form.components[(2,)].values.any()
    code, out = run(["identities", "--form", str(path), "--strict"], capsys)
    assert code == 0 and json.loads(out)["results"]["component_count"] == 2
    code, _ = run(["expand", "--form", str(path), "--orders", "1", "--radial-cells", "4",
                   "--angular-cells", "8"], capsys)
    assert code == 0


@pytest.mark.parametrize("command", ["identities", "expand"])
@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_malformed_form_file_exits_2_with_a_message(name, command, tmp_path, capsys):
    path = tmp_path / "form.json"
    path.write_text(_MALFORMED[name])
    code = cli.main([command, "--form", str(path)])  # other exceptions escape
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("maxforms: error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["identities", "expand"])
def test_non_finite_form_values_exit_2_naming_the_field(command, tmp_path, capsys):
    # identities --strict used to print null residuals and exit 0
    path = tmp_path / "form.json"
    path.write_text(_MALFORMED["nan-values"])
    code = cli.main([command, "--form", str(path), "--strict"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "'components.1.re' must hold finite numbers" in captured.err


# one small request per subcommand, in its default format
_REQUESTS = {
    "identities": ["identities", "--N", "2"],
    "bessel-zeros": ["bessel-zeros", "--n", "1", "--count", "2"],
    "eigen1d": ["eigen1d", "--modes", "2", "--grid", "32"],
    "eigen2d": ["eigen2d", "--q", "1", "--modes", "2", "--grid", "32,16"],
    "dn-fields": ["dn-fields", "--arcs", "0.5:2.5", "--h", "0.2"],
    "regularity": ["regularity", "--q", "0", "--n", "1", "--m", "1"],
    "expand": ["expand", "--q", "0", "--n", "1", "--m", "1", "--orders", "1",
               "--radial-cells", "4"],
}


@pytest.mark.parametrize("command", sorted(_REQUESTS))
def test_output_goes_to_file_not_stdout(command, tmp_path, capsys):
    code, expected = run(_REQUESTS[command], capsys)
    assert code == 0 and expected
    target = tmp_path / "artifact"
    code, out = run([*_REQUESTS[command], "--output", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert target.read_text() == expected


@pytest.mark.parametrize("command", sorted(_REQUESTS))
def test_output_into_a_missing_directory_exits_2(command, tmp_path, capsys):
    target = tmp_path / "missing" / "artifact"
    code = cli.main([*_REQUESTS[command], "--output", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("maxforms: error:")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", sorted(_REQUESTS))
def test_repeat_runs_are_byte_identical(command, empty_stores, capsys):
    # the first run fills every per-process store from empty, the second reads
    # them warm
    argv = [*_REQUESTS[command], "--format", "json"]
    code, first = run(argv, capsys)
    assert code == 0
    code, second = run(argv, capsys)
    assert code == 0 and first == second
    assert "time" not in json.loads(first)["config"]


@pytest.mark.parametrize("command", sorted(_REQUESTS))
def test_threads_env_is_advisory_and_echoed(command, monkeypatch, capsys):
    argv = [*_REQUESTS[command], "--format", "json"]
    monkeypatch.setenv("MAXFORMS_THREADS", "2")
    code, out = run(argv, capsys)
    assert code == 0
    assert json.loads(out)["config"]["threads"] == 2

    monkeypatch.setenv("MAXFORMS_THREADS", "zero")
    code, out = run(argv, capsys)
    assert code == 2 and out == ""


def test_csv_values_carry_twelve_significant_digits(capsys):
    _, out = run(["bessel-zeros", "--n", "1", "--count", "1"], capsys)
    zero = rows_of(out)[0]["zero"]
    assert zero == f"{math.pi:.12g}"


_SPECIAL_COLUMNS = [
    [0.5, 0.5, 0.25, 0.5, 0.25],  # repeats
    [0.0, -0.0, 0.0, -0.0, 1e-300, -1e-300],  # signed zeros, by bits
    [math.nan, -math.nan, math.inf, -math.inf, math.nan, 1.0, math.inf],
    list(np.arange(1, 20) / 7.0),  # all distinct
]


# each column short, and repeated past the length from which distinct values
# are formatted once
@pytest.mark.parametrize("column", [
    *_SPECIAL_COLUMNS,
    *(column * 9 for column in _SPECIAL_COLUMNS),
    list(np.tile(np.linspace(0.1, 1.0, 7), 50)),
    list(np.arange(1, 200) / 7.0),
    [],
])
def test_csv_formats_each_float_as_its_own_value(column):
    n = len(column)
    labels = ["a", "b", "a", "c"] * n
    integers = np.arange(n) % 3
    text = cli._csv(("label", "k", "x"), (labels[:n], integers, np.array(column)))
    want = "".join(f"{a},{k},{cli.CSV_DIGITS.format(x)}\n"
                   for a, k, x in zip(labels, integers.tolist(), column))
    assert text == "label,k,x\n" + want

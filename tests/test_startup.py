"""The start-up contract: a request loads only the modules it runs.

Each check runs in a fresh interpreter with src/ on the path and reads
`sys.modules` afterwards.  Nothing here is timed: the contract is which
modules load, and the time follows from that.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# the public names, as the eager namespace exported them
PUBLIC = [
    "ArcPartition", "FieldForm", "MultiIndex", "ScalarField", "SmoothMap",
    "analytic_eigenform", "analytic_pair", "arcs_from_string", "build_basis",
    "classify", "codiff", "dimension_check", "enumerate_ordered", "eval_j",
    "expected_verdict", "ext_d", "extract_coefficients", "fd_eigensolve",
    "gradient_dimension", "gram_matrix_2d", "grid_form_from_json",
    "grid_form_to_json", "hodge", "maxwell_residual_2d", "pullback",
    "radial_eigensolve", "reference_eigenvalues", "sign_constants",
    "transform_eps", "transform_mu", "wedge", "zaremba2d_eigensolve", "zeros_j",
    "zeros_jprime",
]


def fresh(code: str) -> dict:
    """Run `code` in a new interpreter; it leaves its result in `out`."""
    script = (
        f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\nout = {{}}\n{code}\n"
        "out['modules'] = sorted(sys.modules)\nprint(json.dumps(out))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def run_cli(argv) -> set:
    code = (f"from maxforms.cli import main\n"
            f"out['rc'] = main({list(argv) + ['--output', os.devnull]!r})")
    result = fresh(code)
    assert result["rc"] == 0
    return set(result["modules"])


def family(modules, top: str) -> set:
    return {m for m in modules if m == top or m.startswith(top + ".")}


def test_import_loads_neither_numpy_nor_scipy():
    modules = set(fresh("import maxforms")["modules"])
    assert "maxforms" in modules
    assert not family(modules, "numpy") and not family(modules, "scipy")
    assert not {m for m in family(modules, "maxforms") if m != "maxforms"}


@pytest.mark.parametrize("argv", [
    ["bessel-zeros", "--n", "3"],
    ["identities"],
    ["regularity", "--q", "0", "--n", "1", "--m", "1"],
    ["expand", "--q", "1", "--n", "2", "--m", "1"],
], ids=lambda argv: argv[0])
def test_numpy_only_subcommands_load_no_scipy(argv):
    modules = run_cli(argv)
    assert "numpy" in modules
    assert not family(modules, "scipy")


@pytest.mark.parametrize("argv", [["eigen1d"], ["eigen2d"]], ids=lambda argv: argv[0])
def test_eigensolvers_load_no_sparse(argv):
    modules = run_cli(argv)
    assert "scipy.linalg" in modules
    assert not family(modules, "scipy.sparse")


def test_namespace_resolves_every_public_name():
    code = """
import importlib
import maxforms
from maxforms import *
out['all'] = maxforms.__all__
out['unbound'] = [n for n in maxforms.__all__ if n not in globals()]
out['mismatched'] = [
    n for n, mod in maxforms._ORIGIN.items()
    if getattr(maxforms, n) is not getattr(importlib.import_module('maxforms.' + mod), n)
]
"""
    result = fresh(code)
    assert result["all"] == sorted(PUBLIC)
    assert result["unbound"] == [] and result["mismatched"] == []


def test_submodules_and_unknown_names():
    import importlib

    import maxforms

    for name in ("cli", "spherical", "dnfields"):
        assert getattr(maxforms, name) is importlib.import_module(f"maxforms.{name}")
    assert set(maxforms.__all__) <= set(dir(maxforms))
    with pytest.raises(AttributeError, match="no_such_name"):
        maxforms.no_such_name
    assert not hasattr(maxforms, "_no_such_private")

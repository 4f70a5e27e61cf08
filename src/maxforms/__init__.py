"""Exterior calculus on boxes and Maxwell eigenform expansions on the half disk.

The modules splay out along the build: combinatorics (multiindex), pointwise
calculus (exterior), the sphere split (spherical), half-integer Bessel tables
(bessel), the half-circle and half-disk spectra (spectrum1d, spectrum2d),
Dirichlet-Neumann field dimensions (dnfields), exact regularity verdicts at
the center (regularity), and the batch CLI (cli).

The namespace resolves on first access (PEP 562): `import maxforms` loads no
submodule, and `maxforms.X` or `from maxforms import X` imports the submodule
that defines X.  A request pays only for the modules it touches; scipy is
loaded by `dnfields` and by the two tridiagonal eigensolvers only.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines; every submodule is listed
_EXPORTS = {
    "bessel": ("eval_j", "zeros_j", "zeros_jprime"),
    "cli": (),
    "dnfields": (
        "ArcPartition", "arcs_from_string", "build_basis", "dimension_check",
        "gradient_dimension",
    ),
    "exterior": (
        "FieldForm", "ScalarField", "SmoothMap", "codiff", "ext_d",
        "grid_form_from_json", "grid_form_to_json", "hodge", "pullback",
        "transform_eps", "transform_mu", "wedge",
    ),
    "multiindex": ("MultiIndex", "enumerate_ordered", "sign_constants"),
    "regularity": ("classify", "expected_verdict"),
    "spectrum1d": ("analytic_pair", "fd_eigensolve"),
    "spectrum2d": (
        "analytic_eigenform", "extract_coefficients", "gram_matrix_2d",
        "maxwell_residual_2d", "radial_eigensolve", "reference_eigenvalues",
        "zaremba2d_eigensolve",
    ),
    "spherical": (),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name):
    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _ORIGIN:
        value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted([*__all__, *_EXPORTS])

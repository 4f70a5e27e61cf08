"""Exterior calculus on boxes and Maxwell eigenform expansions on the half disk.

The modules splay out along the build: combinatorics (multiindex), pointwise
calculus (exterior), the sphere split (spherical), half-integer Bessel tables
(bessel), the half-circle and half-disk spectra (spectrum1d, spectrum2d),
Dirichlet-Neumann field dimensions (dnfields), exact regularity verdicts at
the center (regularity), and the batch CLI (cli).
"""

from .bessel import eval_j, zeros_j, zeros_jprime
from .dnfields import (
    ArcPartition,
    arcs_from_string,
    build_basis,
    dimension_check,
    gradient_dimension,
)
from .exterior import (
    FieldForm,
    ScalarField,
    SmoothMap,
    codiff,
    ext_d,
    grid_form_from_json,
    grid_form_to_json,
    hodge,
    pullback,
    transform_eps,
    transform_mu,
    wedge,
)
from .multiindex import MultiIndex, enumerate_ordered, sign_constants
from .regularity import classify, expected_verdict
from .spectrum1d import analytic_pair, fd_eigensolve
from .spectrum2d import (
    analytic_eigenform,
    extract_coefficients,
    gram_matrix_2d,
    maxwell_residual_2d,
    radial_eigensolve,
    reference_eigenvalues,
    zaremba2d_eigensolve,
)

__version__ = "0.1.0"

__all__ = [
    "ArcPartition",
    "FieldForm",
    "MultiIndex",
    "ScalarField",
    "SmoothMap",
    "analytic_eigenform",
    "analytic_pair",
    "arcs_from_string",
    "build_basis",
    "classify",
    "codiff",
    "dimension_check",
    "enumerate_ordered",
    "eval_j",
    "expected_verdict",
    "ext_d",
    "extract_coefficients",
    "fd_eigensolve",
    "gradient_dimension",
    "gram_matrix_2d",
    "grid_form_from_json",
    "grid_form_to_json",
    "hodge",
    "maxwell_residual_2d",
    "pullback",
    "radial_eigensolve",
    "reference_eigenvalues",
    "sign_constants",
    "transform_eps",
    "transform_mu",
    "wedge",
    "zaremba2d_eigensolve",
    "zeros_j",
    "zeros_jprime",
]

"""Batch front end: every solver and check as a subcommand.

Each handler imports the modules it runs, so a request loads only those:
scipy, for one, is loaded by eigen1d, eigen2d and dn-fields alone.  A handler
computes and returns a `Report`; `main` alone applies the output policy:
--format, --output, --metadata, --strict and the MAXFORMS_THREADS echo.

Output is machine readable and deterministic: CSV files carry a header row
and 12 significant digits, JSON documents have exactly the top-level keys
config / results / residuals with sorted keys and no timestamps, so identical
configurations give byte-identical artifacts.  A handler declares its gates,
(value, bound) pairs; with --strict `main` exits 1 unless every value <= bound,
so a NaN fails.  Invalid parameters exit 2.
"""

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .multiindex import concat_sign, enumerate_ordered, sign_constants

CSV_DIGITS = "{:.12g}"
# below this many values, np.unique's fixed cost exceeds the formatting it saves
_SHORT_COLUMN = 32


@dataclass
class Report:
    """What a subcommand computed, before it is rendered.

    config, results and residuals make the JSON document; table is the CSV
    form of the results, (header, columns), for the subcommands that offer
    CSV; gates holds (value, bound) pairs, and --strict exits 1 unless every
    value <= bound, which a NaN never is.
    """

    config: dict
    results: dict
    residuals: dict
    gates: tuple = ()
    table: tuple | None = None


def _threads():
    """MAXFORMS_THREADS, validated and echoed in every JSON config block.

    The value does not cap BLAS: its thread pools read their environment when
    numpy is imported, before any subcommand runs.
    """
    raw = os.environ.get("MAXFORMS_THREADS")
    if raw is None:
        return None
    try:
        n = int(raw)
    except ValueError:
        raise ValueError("MAXFORMS_THREADS must be an integer") from None
    if n < 1:
        raise ValueError("MAXFORMS_THREADS must be positive")
    return n


def _plain(obj):
    """Recursively convert to JSON-safe builtins; non-finite floats to None."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else None
    if isinstance(obj, (np.complexfloating, complex)):
        return {"im": _plain(obj.imag), "re": _plain(obj.real)}
    return obj


def _json(report: Report) -> str:
    payload = {
        "config": _plain({**report.config, "threads": _threads()}),
        "results": _plain(report.results),
        "residuals": _plain(report.residuals),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _column(values) -> list:
    """One CSV column as text: strings as they are, integers with str, floats
    with CSV_DIGITS.  In a long column each distinct float is formatted once;
    distinct means a distinct bit pattern, so -0.0 keeps its sign, and nan and
    inf their text.  A short column is formatted value by value, since finding
    its distinct values costs more than formatting it."""
    values = np.asarray(values)
    if values.dtype.kind == "U":
        return values.tolist()
    if values.dtype.kind in "iu":
        return list(map(str, values.tolist()))
    values = np.ascontiguousarray(values, dtype=float)
    if len(values) < _SHORT_COLUMN:
        return list(map(CSV_DIGITS.format, values.tolist()))
    distinct, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    text = list(map(CSV_DIGITS.format, distinct.view(float).tolist()))
    return [text[i] for i in inverse.tolist()]


def _csv(header, columns) -> str:
    # no field holds a comma, a quote or a line break (names, numbers and
    # route or family labels), so none needs quoting
    return "\n".join([",".join(header), *map(",".join, zip(*map(_column, columns)))]) + "\n"


def _emit(path, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _add_io(sp, formats, default):
    sp.add_argument("--output", default="-", metavar="PATH",
                    help="artifact path, '-' for stdout (default)")
    sp.add_argument("--format", choices=list(formats), default=default)
    sp.add_argument("--strict", action="store_true",
                    help="exit 1 unless every gated value is at or below its bound")


def _grid_pair(text: str):
    parts = text.split(",")
    if len(parts) == 1:
        parts = parts * 2
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("grid must be 'M' or 'Mr,Mphi'")
    try:
        mr, mphi = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError("grid entries must be integers") from None
    if mr < 1 or mphi < 1:
        raise argparse.ArgumentTypeError("grid entries must be positive")
    return mr, mphi


def _order_list(text: str):
    try:
        orders = tuple(int(p) for p in text.split(",") if p)
    except ValueError:
        raise argparse.ArgumentTypeError("orders must be a comma-separated integer list") from None
    if not orders or any(n < 1 for n in orders):
        raise argparse.ArgumentTypeError("orders must be positive integers")
    if len(set(orders)) < len(orders):
        raise argparse.ArgumentTypeError("orders must not repeat")
    return orders


# ---------------------------------------------------------------------------
# subcommands


def _run_bessel_zeros(args) -> Report:
    from .bessel import zeros_j, zeros_jprime

    table = (zeros_j if args.kind == "fn" else zeros_jprime)(args.n, args.count)
    worst = float(np.max(table.residuals))
    m = np.arange(1, len(table.zeros) + 1)
    return Report(
        {"count": args.count, "kind": args.kind, "n": args.n},
        {"m": list(range(1, args.count + 1)), "zero": table.zeros},
        {"max_abs_value_at_zero": worst},
        gates=((worst, 1e-10),),
        table=(("m", "zero", "residual"), (m, table.zeros, table.residuals)),
    )


def _run_eigen1d(args) -> Report:
    from . import spectrum1d

    solve = spectrum1d.fd_eigensolve(args.grid, args.modes)
    ks = np.arange(1, args.modes + 1)
    exact = (ks - 0.5) ** 2
    abs_err = np.abs(solve.lambdas - exact)
    # consistency against the closed-form discrete spectrum, not the continuum
    closed = np.array(
        [spectrum1d.fd_eigenvalue_closed_form(args.grid, int(k)) for k in ks]
    )
    drift = float(np.max(np.abs(solve.lambdas - closed)))
    return Report(
        {"grid": args.grid, "modes": args.modes},
        {"lambda_exact": exact, "lambda_fd": solve.lambdas},
        {"abs_err_max": float(np.max(abs_err)), "solver_drift": drift},
        gates=((drift, 1e-9 * max(1.0, float(closed[-1]))),),
        table=(("k", "lambda_fd", "lambda_exact", "abs_err"),
               (ks, solve.lambdas, exact, abs_err)),
    )


def _run_eigen2d(args) -> Report:
    from . import spectrum2d

    M_r, M_phi = args.grid
    if args.q == 0:
        route = "zaremba"
        lambdas = spectrum2d.zaremba2d_eigensolve(M_r, M_phi, args.modes).lambdas
    else:
        route = "radial"
        lambdas = spectrum2d.radial_spectrum(M_r, args.modes, bc="neumann")
    reference = spectrum2d.reference_modes(args.q, args.modes)
    rel_err = np.array(
        [abs(lam - ref[0]) / ref[0] for lam, ref in zip(lambdas, reference)]
    )
    worst = float(np.max(rel_err))

    rows = [
        {
            "lambda_bessel": ref[0],
            "lambda_num": float(lam),
            "m": ref[2],
            "n": ref[1],
            "omega": ref[3],
            "rank": rank,
            "rel_err": float(err),
            "route": route,
        }
        for rank, (lam, ref, err) in enumerate(
            zip(lambdas, reference, rel_err), start=1
        )
    ]
    header = ("rank", "lambda_num", "lambda_bessel", "rel_err", "route")
    return Report(
        {"grid": list(args.grid), "modes": args.modes, "q": args.q},
        {"modes": rows},
        {"rel_err_max": worst},
        gates=((worst, 0.01),),
        table=(header, [[row[k] for row in rows] for k in header]),
    )


def _run_dn_fields(args) -> Report:
    from . import dnfields

    partition = dnfields.arcs_from_string(args.arcs)
    basis = dnfields.build_basis(partition, h=args.h)
    report = dnfields.dimension_check(basis.gram)
    ones = np.ones(partition.count)
    scale = max(float(report.singular_values[0]), 1.0)
    kernel = float(np.max(np.abs(basis.gram @ ones))) / scale
    gates = [(float(report.rank != partition.count - 1), 0.0)]
    if partition.count > 1:  # acceptance 08: a spectral gap of at least 1e6
        gates.append((1e6 / report.gap, 1.0))
    return Report(
        {"arcs": [[a, b] for a, b in partition.arcs], "h": args.h},
        {
            "K": partition.count,
            "gap": report.gap,
            "gram_eigenvalues": report.singular_values,
            "rank": report.rank,
        },
        {"constant_kernel": kernel, "solve_max": float(np.max(basis.residuals))},
        gates=tuple(gates),
    )


def _run_regularity(args) -> Report:
    from . import regularity

    report = regularity.classify(args.q, args.n, args.m, role=args.field)
    # no gate: the verdict is exact, and the slope deviation is only reported
    return Report(
        {"field": args.field, "m": args.m, "n": args.n, "q": args.q},
        {
            "eps": report.eps,
            "exponent": report.exponent,
            "seminorms": report.seminorms,
            "slope": report.slope,
            "verdict": report.verdict,
        },
        {"slope_deviation": abs(report.slope - (2.0 * report.exponent + 2.0))},
    )


def _sign_suite_max(n_cap: int) -> int:
    """Exhaustive deviation over the sign-constant identity family, q,N <= cap."""
    worst = 0
    for N in range(1, n_cap + 1):
        sc = {q: sign_constants(q, N) for q in range(-1, N + 3)}
        for q in range(0, N + 1):
            checks = (
                sc[q + 2].double_hodge - sc[q].double_hodge,
                sc[q + 2].codiff_sign - sc[q].codiff_sign,
                sc[N - q].double_hodge - sc[q].double_hodge,
                sc[N - q].codiff_sign - sc[q + 1].codiff_sign,
                sc[q].double_hodge * sc[q + 1].codiff_sign - (-1) ** q,
                sc[q].codiff_sign * sc[q + 1].codiff_sign - (-1) ** N,
                sc[q].codiff_sign * sc[q].double_hodge - (-1) ** (N + q),
                sc[q - 1].double_hodge_sphere * sc[q].codiff_sign - 1,
                sc[q].codiff_sign_sphere * sc[q].double_hodge - (-1) ** (N + 1),
            )
            worst = max(worst, max(abs(c) for c in checks))
        for I in enumerate_ordered(min(2, N), N):
            J = tuple(i for i in range(1, N + 1) if i not in I)
            worst = max(
                worst,
                abs(
                    concat_sign(I, J)
                    - (-1) ** (len(I) * len(J)) * concat_sign(J, I)
                ),
            )
    return worst


def _max_modulus(pairs, combine=None) -> float:
    """The largest modulus over grid arrays, or over `combine(x, y, out)` of
    equal-shaped pairs (x, y), reduced slab by slab through two buffers of the
    call: no combined array is stored.  An array's maximum is np.max over its
    slab maxima, so a NaN still propagates."""
    from .exterior import _slabs

    buf = mod = None
    vals = []
    for x, y in pairs:
        x, y = x.reshape(-1), None if y is None else y.reshape(-1)
        maxima = []
        for lo, hi in _slabs(x.size, x.itemsize):
            if mod is None or len(mod) < hi - lo:  # the first slab is the largest
                buf, mod = np.empty(hi - lo, x.dtype), np.empty(hi - lo)
            rows = x[lo:hi]
            if combine is not None:
                rows = combine(rows, y[lo:hi], out=buf[:hi - lo])
            maxima.append(np.max(np.abs(rows, out=mod[:hi - lo])))
        vals.append(np.max(maxima))
    return float(np.max(vals, initial=0.0))


def _form_max(form) -> float:
    return _max_modulus((c.values, None) for c in form.components.values())


def _difference_max(X, Y, sign: int) -> float:
    """`_form_max(X - sign * Y)` for grid forms and sign +1 or -1."""
    pairs = []
    for key, x in X.components.items():
        y = Y.components[key]
        x._check_compatible(y)
        pairs.append((x.values, y.values))
    # x - (-y) is x + y exactly
    return _max_modulus(pairs, np.subtract if sign == 1 else np.add)


def _random_grid_form(q: int, grid, seed: int):
    """Integer-valued components on the given `GridSpec`: on a power-of-two
    spacing, derivatives stay exact."""
    from .exterior import FieldForm

    rng = np.random.default_rng(seed)
    comps = {}
    for key in enumerate_ordered(q, len(grid.shape)):
        data = np.empty(grid.shape, dtype=np.complex128)
        data.real = rng.integers(-4, 5, size=grid.shape)
        data.imag = rng.integers(-4, 5, size=grid.shape)
        comps[key] = data
    return FieldForm.from_grid(len(grid.shape), q, comps, grid.spacing, grid.origin)


def _run_identities(args) -> Report:
    from . import exterior

    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    if args.form:
        with open(args.form, encoding="ascii") as fh:
            a = exterior.grid_form_from_json(fh.read())
        N, q = a.N, a.q
        source = "file"
    else:
        N, q = args.N, args.q
        if not 0 <= q <= N:
            raise ValueError("degree must lie in 0..N")
        if args.cells < 1:
            raise ValueError(f"--cells must be positive, got {args.cells}")
        grid = exterior.GridSpec((args.cells,) * N, (0.125,) * N, (0.0,) * N)
        a = _random_grid_form(q, grid, args.seed)
        source = "generated"
    if args.dump_form:
        _emit(args.dump_form, exterior.grid_form_to_json(a) + "\n")

    some = next(iter(a.components.values()))
    # the partner 1-form is drawn on the grid of `a`, so wedge can pair them
    b = _random_grid_form(1, some.grid, args.seed + 1) if N >= 1 else None
    kappa = sign_constants(q, N).double_hodge
    residuals = {
        "codiff_routes_max": _difference_max(
            exterior.codiff(a), exterior.codiff_expansion(a), 1
        ),
        "dd_max": _form_max(exterior.ext_d(exterior.ext_d(a))),
        "double_hodge_max": _difference_max(exterior.hodge(exterior.hodge(a)), a, kappa),
        "sign_suite_max": _sign_suite_max(max(N, 8)),
    }
    if b is not None:
        flip = (-1) ** q
        residuals["wedge_anticommute_max"] = _difference_max(
            exterior.wedge(a, b), exterior.wedge(b, a), flip
        )
    return Report(
        {"N": N, "q": q, "seed": None if args.form else args.seed, "source": source},
        {"component_count": len(a.components), "grid_shape": list(some.grid.shape)},
        residuals,
        gates=tuple((value, 1e-8) for value in residuals.values()),
    )


def _bilinear(component, pts: np.ndarray) -> np.ndarray:
    """Bilinear interpolation on a grid component; outside points are clamped."""
    layout = component.grid
    vals = component.values
    rel = (pts - np.asarray(layout.origin)) / np.asarray(layout.spacing)
    i0 = np.clip(np.floor(rel).astype(int), 0, np.asarray(layout.shape) - 2)
    t = np.clip(rel - i0, 0.0, 1.0)
    ix, iy = i0[:, 0], i0[:, 1]
    tx, ty = t[:, 0], t[:, 1]
    v00 = vals[ix, iy]
    v10 = vals[ix + 1, iy]
    v01 = vals[ix, iy + 1]
    v11 = vals[ix + 1, iy + 1]
    return ((1 - tx) * (1 - ty) * v00 + tx * (1 - ty) * v10
            + (1 - tx) * ty * v01 + tx * ty * v11)


def _grid_trace_values(form, r: np.ndarray, M_phi: int) -> dict:
    """Circle traces of a grid form, read bilinearly and split into polar parts."""
    from .exterior import FieldForm
    from .spectrum2d import _angular_nodes, trace_families
    from .spherical import split_circle

    comps = {k: lambda x, c=c: _bilinear(c, x.T) for k, c in form.components.items()}
    rho, tau = split_circle(FieldForm.from_callable(2, form.q, comps), r, _angular_nodes(M_phi))
    return trace_families(form.q, r[:, None], rho=rho, tau=tau)


def _run_expand(args) -> Report:
    from . import exterior, spectrum2d

    orders = args.orders
    r = spectrum2d.radial_nodes(args.radial_cells)
    config = {
        "angular_cells": args.angular_cells,
        "orders": list(orders),
        "radial_cells": args.radial_cells,
    }
    own = None
    if args.form:
        with open(args.form, encoding="ascii") as fh:
            form = exterior.grid_form_from_json(fh.read())
        if form.N != 2:
            raise ValueError("expansion is defined on the half disk (N = 2)")
        values = _grid_trace_values(form, r, args.angular_cells)
        coeffs = spectrum2d.project_angular(values, orders, r)
        config.update({"q": form.q, "source": "file"})
    else:
        missing = [k for k in ("q", "n", "m") if getattr(args, k) is None]
        if missing:
            raise ValueError("either --form or all of --q/--n/--m are required")
        mode = spectrum2d.analytic_eigenform(args.q, args.n, args.m, role=args.field)
        coeffs = spectrum2d.extract_coefficients(
            mode, orders, M_r=args.radial_cells, M_phi=args.angular_cells
        )
        own = args.n
        config.update(
            {"field": args.field, "m": args.m, "n": args.n, "q": args.q,
             "source": "eigenform"}
        )

    residuals = {}
    if own is not None:
        rows = np.stack(list(coeffs.families.values()))[:, np.asarray(orders) != own]
        residuals["cross_coefficient_max"] = float(np.max(np.abs(rows), initial=0.0))

    letters = sorted(coeffs.families)
    values = np.concatenate([coeffs.families[letter] for letter in letters]).ravel()
    columns = (
        np.repeat(letters, len(orders) * len(r)),
        np.tile(np.repeat(orders, len(r)), len(letters)),
        np.tile(r, len(letters) * len(orders)),
        values.real,
        values.imag,
    )
    families = {
        letter: {
            str(n): {"im": rows[i].imag, "re": rows[i].real}
            for i, n in enumerate(orders)
        }
        for letter, rows in coeffs.families.items()
    }
    return Report(
        config,
        {"angular_nodes": coeffs.M_phi, "families": families, "nodes": r},
        residuals,
        gates=tuple((value, 1e-8) for value in residuals.values()),
        table=(("family", "order", "r", "re", "im"), columns),
    )


# ---------------------------------------------------------------------------
# parser


@functools.cache  # one parser per process: parsing never changes it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxforms",
        description="Half-disk Maxwell eigenmodes: solvers and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("identities", help="multi-index and calculus identity residuals")
    sp.add_argument("--N", type=int, default=4)
    sp.add_argument("--q", type=int, default=1)
    sp.add_argument("--cells", type=int, default=6, help="grid points per axis")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--form", metavar="PATH", help="check a stored grid form instead")
    sp.add_argument("--dump-form", metavar="PATH", help="write the checked form as JSON")
    _add_io(sp, ("json",), "json")
    sp.set_defaults(handler=_run_identities)

    sp = sub.add_parser("bessel-zeros", help="half-integer Bessel zero tables")
    sp.add_argument("--n", type=int, required=True, help="order index, nu = n - 1/2")
    sp.add_argument("--kind", choices=("fn", "dfn"), default="fn")
    sp.add_argument("--count", type=int, default=5)
    _add_io(sp, ("csv", "json"), "csv")
    sp.set_defaults(handler=_run_bessel_zeros)

    sp = sub.add_parser("eigen1d", help="half-circle spectrum, FD against exact")
    sp.add_argument("--modes", type=int, default=8)
    sp.add_argument("--grid", type=int, default=512)
    _add_io(sp, ("csv", "json"), "csv")
    sp.set_defaults(handler=_run_eigen1d)

    sp = sub.add_parser("eigen2d", help="half-disk spectrum against Bessel zeros")
    sp.add_argument("--q", type=int, choices=(0, 1), default=0)
    sp.add_argument("--modes", type=int, default=4)
    sp.add_argument("--grid", type=_grid_pair, default=(256, 256), metavar="MR,MPHI")
    sp.add_argument("--metadata", metavar="PATH",
                    help="also write eigenform metadata as JSON")
    _add_io(sp, ("csv", "json"), "csv")
    sp.set_defaults(handler=_run_eigen2d)

    sp = sub.add_parser("dn-fields", help="Dirichlet-Neumann field dimension")
    sp.add_argument("--arcs", required=True, metavar="A:B,A:B,...",
                    help="boundary arcs carrying the value condition")
    sp.add_argument("--h", type=float, default=0.05)
    _add_io(sp, ("json",), "json")
    sp.set_defaults(handler=_run_dn_fields)

    sp = sub.add_parser("regularity", help="exact H1 verdict from the leading power of r")
    sp.add_argument("--q", type=int, choices=(0, 1), required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--field", choices=("E", "H"), default="E")
    _add_io(sp, ("json",), "json")
    sp.set_defaults(handler=_run_regularity)

    sp = sub.add_parser("expand", help="radial coefficient families of a field")
    sp.add_argument("--q", type=int, choices=(0, 1))
    sp.add_argument("--n", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--field", choices=("E", "H"), default="E")
    sp.add_argument("--form", metavar="PATH", help="expand a stored grid form instead")
    sp.add_argument("--orders", type=_order_list, default=(1, 2, 3, 4),
                    metavar="N1,N2,...")
    sp.add_argument("--radial-cells", type=int, default=96)
    sp.add_argument("--angular-cells", type=int, default=256,
                    help="angular midpoints; for an eigenform a floor, raised to the "
                         "smallest count exact for its orders")
    _add_io(sp, ("csv", "json"), "csv")
    sp.set_defaults(handler=_run_expand)

    return parser


def _count(x: float) -> str:
    """A size to two significant digits: 96, 1.3e7."""
    if x < 1e4:
        return f"{x:.0f}"
    mantissa, exponent = f"{x:.1e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def _expand_size(a) -> str:
    size = f"radial-cells = {_count(a.radial_cells)} floats per distinct radial factor"
    if a.form:
        cells = a.radial_cells * a.angular_cells
        size += f", plus radial-cells*angular-cells = {_count(cells)} trace samples"
    return size


# each subcommand's dominant allocation, as the README gives it, with the
# request's own numbers; an out-of-memory line names it beside numpy's message,
# which names only the allocation refused, often the last and smallest
_DOMINANT_SIZE = {
    "identities": lambda a: "the stored form's C(N, q)*cells^N values" if a.form else (
        f"C(N, q)*cells^N = {_count(math.comb(a.N, a.q) * a.cells ** a.N)} "
        "complex values per form"),
    "bessel-zeros": lambda a: (f"about 8 (count + 1) = {_count(8 * (a.count + 1))} scan "
                               "points, doubled until they hold the zeros"),
    "eigen1d": lambda a: f"a few arrays of grid = {_count(a.grid)} floats",
    "eigen2d": lambda a: (f"2 M_r = {_count(2 * a.grid[0])} floats per angular order, "
                          f"for at most modes = {_count(a.modes)} orders"),
    "dn-fields": lambda a: f"about pi/h^2 = {_count(math.pi / a.h**2)} mesh nodes",
    "regularity": lambda a: "a fixed shell quadrature, whatever the mode",
    "expand": _expand_size,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _threads()  # an invalid value fails before any work
        report = args.handler(args)
        if getattr(args, "metadata", None):
            _emit(args.metadata, _json(report))
        text = _csv(*report.table) if args.format == "csv" else _json(report)
        _emit(args.output, text)
    except (ValueError, OSError) as exc:
        print(f"maxforms: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # no size cap: the allocator sets the limit, and says what it refused
        refused = f" ({exc})" if str(exc) else ""
        print(f"maxforms: {args.command}: out of memory: the request's dominant size is "
              f"{_DOMINANT_SIZE[args.command](args)}{refused}", file=sys.stderr)
        return 3
    return 1 if args.strict and not all(value <= bound for value, bound in report.gates) else 0


if __name__ == "__main__":
    sys.exit(main())

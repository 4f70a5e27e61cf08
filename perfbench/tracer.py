"""Spans around calls into maxforms, recorded from the benchmark's side.

`Tracer.install` replaces every public function of every maxforms module with
a wrapper, on each module that holds the name (so `spectrum2d.eval_j`, the
binding spectrum2d imported, is wrapped as well as `bessel.eval_j`).  A wrapper
records a span (name, start, end, parent, case) and counts at the call
boundary.  Self time is a span's duration minus the time its child spans cover;
calls run on one thread, so the children of a span are disjoint and their
durations add up to that coverage.  Spans are kept in memory, up to a cap, and
written as JSON Lines at the end; the counters cover every call.

Callable forms are lazy: the form operations and `pullback` only build
closures, so for callable forms `exterior.callable.ops.self_s` and
`exterior.pullback.self_s` time that building, and the pointwise work shows up
under `exterior.evaluate.self_s`.  Grid cells and bytes are counted once per
outermost grid operation (an operation that calls others, such as `codiff`,
does not count its inner calls again); bytes are computed from array sizes,
not measured.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
from collections import Counter, defaultdict

_FORM_OPS = {"wedge", "hodge", "ext_d", "codiff", "codiff_expansion", "transform_eps",
             "transform_mu"}


def _cells(form) -> int:
    return sum(v.values.size for v in form.components.values())


def _forms(a):
    return [v for v in a.values() if hasattr(v, "components")]


# hooks: key -> (name, before, after); before(tr, a) and after(tr, a, result)
# receive the bound arguments with defaults applied


def _zeros_hook(kind):
    def before(tr, a):
        key = (kind, a["n"])
        seen = tr.zero_tables.get(key, 0)
        tr.sizes["bessel.zeros.repeats"] += a["count"] <= seen
        tr.zero_tables[key] = max(seen, a["count"])

    def after(tr, a, table):
        tr.sizes["bessel.zeros.found"] += len(table.zeros)

    return "bessel.zeros", before, after


def _sizes(*pairs):
    def after(tr, a, result):
        for stat, fn in pairs:
            tr.sizes[stat] += fn(a, result)

    return after


def _grid_after(tr, a, result):
    """Cells read and bytes read or written (16 per complex cell) by one grid op."""
    cells_in = sum(_cells(f) for f in _forms(a))
    tr.sizes["exterior.grid.ops.cells"] += cells_in
    tr.sizes["exterior.grid.ops.bytes_computed"] += 16 * (cells_in + _cells(result))


def _annulus_nodes(a, _):
    m_t = a["nodes_base"] + math.ceil(a["nodes_per_unit"] * -math.log(a["eps"]))
    return m_t * a["M_phi"]


HOOKS = {
    "bessel.zeros_j": _zeros_hook("fn"),
    "bessel.zeros_jprime": _zeros_hook("dfn"),
    "spectrum2d.zaremba2d_eigensolve": (None, None, _sizes(
        ("spectrum2d.zaremba2d_eigensolve.unknowns", lambda a, r: r.unknowns))),
    "spectrum2d.radial_eigensolve": (None, None, _sizes(
        ("spectrum2d.radial_eigensolve.unknowns", lambda a, r: a["M"]))),
    "spectrum2d.maxwell_residual_2d": (None, None, _sizes(
        ("spectrum2d.maxwell_residual_2d.points", lambda a, r: a["samples"]))),
    "spectrum2d.extract_coefficients": (None, None, _sizes(
        ("spectrum2d.extract_coefficients.quad_nodes", lambda a, r: a["M_r"] * a["M_phi"]))),
    "spectrum2d.gram_matrix_2d": (None, None, _sizes(
        ("spectrum2d.gram_matrix_2d.quad_nodes", lambda a, r: a["M_r"] * a["M_phi"]))),
    "spectrum1d.fd_eigensolve": (None, None, _sizes(
        ("spectrum1d.fd_eigensolve.unknowns", lambda a, r: a["M"]))),
    "dnfields.disk_mesh": (None, None, _sizes(
        ("dnfields.disk_mesh.nodes", lambda a, r: len(r.points)),
        ("dnfields.disk_mesh.triangles", lambda a, r: len(r.triangles)))),
    "dnfields.p1_stiffness": (None, None, _sizes(
        ("dnfields.p1_stiffness.nnz", lambda a, r: r.nnz))),
    "dnfields.solve_pinned": (None, None, _sizes(
        ("dnfields.solve_pinned.free_unknowns", lambda a, r: a["A"].shape[0] - len(a["pinned"])))),
    "spherical.sphere_relation_residuals": (None, None, _sizes(
        ("spherical.sphere_relation_residuals.points", lambda a, r: a["mr"] * a["mphi"]))),
    "regularity.annulus_gradient_energy": (None, None, _sizes(
        ("regularity.annulus_gradient_energy.quad_nodes", _annulus_nodes))),
    "cli.main": (None, None, _sizes(("cli.main.exit_nonzero", lambda a, r: r != 0))),
}


MAX_SPANS = 50_000  # spans kept in memory; counters go on past the cap


class Tracer:
    def __init__(self):
        self.case = None
        self.spans = []  # [name, start, end, parent, case]
        self.stack = []  # [start, child_s, span index]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.failed = Counter()
        self.sizes = defaultdict(float)
        self.zero_tables = {}  # (kind, n) -> largest count requested so far
        self.zero_depth = 0
        self.grid_depth = 0
        self._wrapped = {}  # id(function) -> wrapper
        self._restore = []

    # -- wrapping ------------------------------------------------------------

    def install(self, modules):
        wrapped = self._wrapped
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if not fn.__module__.startswith("maxforms."):
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(fn)
                self._restore.append((mod, attr, fn))
                setattr(mod, attr, wrapped[id(fn)])

    def uninstall(self):
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def _wrap(self, fn):
        key = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        if key == "bessel.eval_j":
            return self._wrap_eval_j(fn)
        name, before, after = HOOKS.get(key, (None, None, None))
        name = name or key
        sig = inspect.signature(fn)
        form_op = key.startswith("exterior.") and fn.__name__ in _FORM_OPS
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            a = None
            if before or after or form_op:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
            span, post, grid = name, after, False
            if form_op:
                grid = any(f.kind == "grid" for f in _forms(a))
                span = "exterior.grid.ops" if grid else "exterior.callable.ops"
                post = _grid_after if grid and tr.grid_depth == 0 else None
            if before:
                before(tr, a)
            zeros = span == "bessel.zeros"
            tr.zero_depth += zeros
            tr.grid_depth += grid
            tr._enter(span)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                tr._exit(span, ok)
                tr.zero_depth -= zeros
                tr.grid_depth -= grid
            if post:
                post(tr, a, result)
            return result

        return wrapper

    def _wrap_eval_j(self, fn):
        """The hot leaf of every zero scan: no argument binding."""
        tr = self

        @functools.wraps(fn)
        def wrapper(n, x, *args, **kwargs):
            tr._enter("bessel.eval_j")
            ok = False
            try:
                result = fn(n, x, *args, **kwargs)
                ok = True
            finally:
                tr._exit("bessel.eval_j", ok)
            tr.sizes["bessel.eval_j.points"] += getattr(x, "size", 1)
            tr.sizes["bessel.zeros.evals"] += tr.zero_depth > 0
            return result

        return wrapper

    # -- spans ----------------------------------------------------------------

    def _enter(self, name):
        idx = -1
        if len(self.spans) < MAX_SPANS:
            idx = len(self.spans)
            parent = self.stack[-1][2] if self.stack else -1
            self.spans.append([name, 0.0, 0.0, parent, self.case])
        start = time.perf_counter()
        if idx >= 0:
            self.spans[idx][1] = start
        self.stack.append([start, 0.0, idx])

    def _exit(self, name, ok):
        end = time.perf_counter()
        start, child, idx = self.stack.pop()
        duration = end - start
        if self.stack:
            self.stack[-1][1] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if not ok:
            self.failed[name] += 1
        if idx >= 0:
            self.spans[idx][2] = end

    def write_spans(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, case in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "case": case}) + "\n")

    # -- per-layer metrics ------------------------------------------------------

    def metrics(self, names) -> dict:
        """Values of the named per-layer metrics, `<span>.<stat>` each."""
        zero_calls = self.calls["bessel.zeros"]
        found = self.sizes["bessel.zeros.found"]
        derived = {
            "bessel.zeros.evals_per_zero": self.sizes["bessel.zeros.evals"] / found if found else 0.0,
            "bessel.zeros.repeat_frac":
                self.sizes["bessel.zeros.repeats"] / zero_calls if zero_calls else 0.0,
        }
        out = {}
        for name in names:
            prefix, stat = name.rsplit(".", 1)
            if name in derived:
                out[name] = derived[name]
            elif stat == "calls":
                out[name] = self.calls[prefix]
            elif stat == "self_s":
                out[name] = self.self_s[prefix]
            elif stat == "failed":
                out[name] = self.failed[prefix]
            else:
                out[name] = self.sizes[name]
        return out

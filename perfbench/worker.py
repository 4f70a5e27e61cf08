"""One measured pass of a workload, in a fresh process.

Run by run.py, never directly.  BLAS and OpenMP pools are pinned to one thread
here, before numpy is imported.  The pass runs whole cycles of seeded cases, in
a closed loop (one case at a time), until `--seconds` have gone by; only the
cases' own calls are timed.  After each cycle, outside the timed region, every
output is checked; one JSON document with the case records is printed as the
last line of stdout.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _key in THREAD_VARS:
    os.environ[_key] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pkgutil  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import cases  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MARGIN_CAP = 16.0  # decades; stands in for log10(gate / 0)


def load_maxforms():
    """Import maxforms and all its modules from SRC; returns (package, modules)."""
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("maxforms")
    if Path(pkg.__file__).resolve().parent != (SRC / "maxforms").resolve():
        raise RuntimeError(f"imported maxforms from {pkg.__file__}, not from {SRC}")
    modules = [importlib.import_module(f"maxforms.{info.name}")
               for info in pkgutil.iter_modules(pkg.__path__)]
    return pkg, [pkg] + modules


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "pinned_threads": {k: os.environ[k] for k in THREAD_VARS},
    }


def verify(case, out):
    """(status, margin in decades or None, detail) of one case's output."""
    if isinstance(out, BaseException) or (isinstance(out, cases.CliResult) and out.rc != 0):
        msg = repr(out) if isinstance(out, BaseException) else f"exit {out.rc}: {out.err.strip()}"
        if case.defect and case.defect in msg:
            return "refused", None, msg
        return "failed", None, msg
    try:
        checks = case.check(out)
    except Exception:  # a malformed artifact is a wrong answer
        return "failed", None, traceback.format_exc(limit=2)
    missed = [(name, res, gate) for name, res, gate in checks if not res <= gate]
    margins = [
        min(MARGIN_CAP, math.log10(gate / res)) if res > 0 else MARGIN_CAP
        for _, res, gate in checks if gate > 0
    ]
    margin = min(margins) if margins else None
    detail = "; ".join(f"{name}: {res!r} > {gate!r}" for name, res, gate in missed)
    if any(not name.startswith(cases.PRE_ASYMPTOTIC) for name, _, _ in missed):
        return "failed", margin, detail
    return ("band_miss" if missed else "ok"), margin, detail


def run_pass(m, modules, workload: str, seed: int, seconds: float, tracer):
    """Whole cycles until `seconds` have passed; returns (records, cycles, wall)."""
    cycle_stream = cases.WORKLOADS[workload](m, np.random.default_rng(seed))
    records = []
    cycles = 0
    start = time.perf_counter()
    while cycles == 0 or time.perf_counter() - start < seconds:
        batch = next(cycle_stream)  # input generation is neither timed nor traced
        if tracer:
            tracer.install(modules)
        timed = []
        for case in batch:
            if tracer:
                tracer.case = len(records) + len(timed)
            t0 = time.perf_counter()
            try:
                out = case.run()
            except Exception as exc:  # counted against the case, never fatal
                out = exc
            elapsed = time.perf_counter() - t0
            if tracer and isinstance(out, cases.CliResult):
                tracer.sizes["cli.main.artifact_bytes"] += len(out.out)
            timed.append((case, out, elapsed))
        if tracer:
            tracer.uninstall()
        # checked per cycle so that outputs do not pile up on the heap
        for case, out, elapsed in timed:
            status, margin, detail = verify(case, out)
            records.append({"kind": case.kind, "label": case.label, "seconds": elapsed,
                            "status": status, "margin": margin, "detail": detail})
        cycles += 1
    return records, cycles, time.perf_counter() - start


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spans", type=Path, help="trace the pass and write spans here")
    args = ap.parse_args()

    pkg, modules = load_maxforms()
    tracer = Tracer() if args.spans else None
    records, cycles, wall = run_pass(pkg, modules, args.workload, args.seed, args.seconds,
                                     tracer)
    doc = {
        "env": environment(),
        "cycles": cycles,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "records": records,
    }
    if tracer:
        tracer.write_spans(args.spans)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        doc["layers"] = tracer.metrics(m["name"] for m in spec["per_layer"]
                                       if not m["name"].startswith("trace."))
        doc["spans"] = len(tracer.spans)
        doc["spans_total"] = sum(tracer.calls.values())
    print(json.dumps(doc))


if __name__ == "__main__":
    main()

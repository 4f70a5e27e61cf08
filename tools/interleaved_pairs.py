"""Per-cycle speed of this tree against another checkout, in one process.

Both trees' `src/maxforms` are loaded side by side, the other one under the
package name `maxforms_base` (the package resolves its submodules through its
own `__name__`).  Each tree draws the seeded cycles of one workload of
`perfbench/cases.py` from its own generator, so both run the same cases; the
two trees then run each cycle in turn, which one goes first alternating from
cycle to cycle, so host drift falls on both alike.  Only the cases' own calls
are timed, as in `perfbench/worker.py`; a case that raises is timed up to its
exception.  The first cycle of each tree is run untimed, to fill what the
trees keep per process.  BLAS pools are pinned to one thread.  Run from the
repository root:

    python3 tools/interleaved_pairs.py --base /path/to/other/checkout \\
        --workload calculus --cycles 40 --seed 5

It prints the median and quartiles of the per-cycle speedup (the base's
cycle time over this tree's) and of each tree's cycle time, then one JSON
object with the same numbers as its last line.  Nothing under `perfbench/`
is changed; it is only imported.
"""

import os

for _key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_key] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import cases  # noqa: E402


def load_package(name: str, src: Path):
    """The package at src/maxforms, imported as `name`."""
    path = src / "maxforms"
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py", submodule_search_locations=[str(path)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def cycle_seconds(batch) -> float:
    total = 0.0
    for case in batch:
        t0 = time.perf_counter()
        try:
            case.run()
        except Exception:  # a refused request costs its time, as in the benchmark
            pass
        total += time.perf_counter() - t0
    return total


def quartiles(values) -> list:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    ap.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    ap.add_argument("--cycles", type=int, required=True, help="timed cycles per tree")
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    if args.cycles < 2:
        ap.error("--cycles must be at least 2")

    trees = {"base": load_package("maxforms_base", args.base.resolve() / "src"),
             "this": load_package("maxforms", ROOT / "src")}
    streams = {side: cases.WORKLOADS[args.workload](pkg, np.random.default_rng(args.seed))
               for side, pkg in trees.items()}
    for stream in streams.values():
        cycle_seconds(next(stream))
    times = {side: [] for side in trees}
    for i in range(args.cycles):
        order = ("base", "this") if i % 2 == 0 else ("this", "base")
        for side in order:
            times[side].append(cycle_seconds(next(streams[side])))

    speedup = [b / t for b, t in zip(times["base"], times["this"])]
    doc = {"workload": args.workload, "seed": args.seed, "cycles": args.cycles,
           "speedup_quartiles": quartiles(speedup),
           "cycle_s_quartiles": {side: quartiles(ts) for side, ts in times.items()},
           "this_faster_cycles": sum(s > 1.0 for s in speedup)}
    q1, q2, q3 = doc["speedup_quartiles"]
    print(f"{args.workload}, seed {args.seed}, {args.cycles} cycles per tree")
    print(f"  speedup (base / this per cycle): median {q2:.3f} [{q1:.3f}, {q3:.3f}],"
          f" this tree faster in {doc['this_faster_cycles']} of {args.cycles}")
    for side, (c1, c2, c3) in doc["cycle_s_quartiles"].items():
        print(f"  {side} cycle: median {c2 * 1e3:.1f} ms [{c1 * 1e3:.1f}, {c3 * 1e3:.1f}]")
    print(json.dumps(doc))


if __name__ == "__main__":
    main()

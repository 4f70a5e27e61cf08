"""Start-up cost of maxforms requests, this tree against another checkout.

Each request is one fresh process, as the command line serves it: `import
maxforms` alone, and every request of `tools/artifact_diff.py` that is a
single command, with `{dir}` standing for a scratch directory and the artifact
sent to the null device.  The two trees alternate within each repeat,
and which one goes first alternates between repeats, so host drift falls on
both alike.  BLAS pools are pinned to one thread.  Run from the repository root:

    python3 tools/startup_bench.py --base /path/to/other/checkout > BENCH_10.json

The JSON gives per request the median wall time of each tree over REPEATS
runs, the quartile distance of the base's runs and the quartiles of the
per-pair differences (this tree minus the base), and the wall time of each
tree's Tier-1 suite.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy
from artifact_diff import REQUESTS as ARTIFACT_REQUESTS

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 7
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REQUESTS = {
    "import": None,
    **{name: commands[0] for name, commands in ARTIFACT_REQUESTS.items()
       if len(commands) == 1},
}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "pinned_threads": {k: "1" for k in THREAD_VARS},
    }


def tree_env(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def timed(cmd, tree: Path) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=tree, env=tree_env(tree), check=True,
                   stdout=subprocess.DEVNULL, timeout=600)
    return time.perf_counter() - t0


def request_cmd(argv, scratch: str) -> list:
    if argv is None:
        return [sys.executable, "-c", "import maxforms"]
    argv = [a.replace("{dir}", scratch) for a in argv]
    return [sys.executable, "-m", "maxforms.cli", *argv, "--output", os.devnull]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    args = ap.parse_args()
    trees = {"base": args.base.resolve(), "this": ROOT}

    runs = {name: {"base": [], "this": []} for name in REQUESTS}
    with tempfile.TemporaryDirectory() as scratch:
        for rep in range(REPEATS):
            order = ("base", "this") if rep % 2 == 0 else ("this", "base")
            for name, argv in REQUESTS.items():
                for side in order:
                    runs[name][side].append(timed(request_cmd(argv, scratch), trees[side]))

    startup = {}
    for name, r in runs.items():
        q1, _, q3 = statistics.quantiles(r["base"], n=4)
        diffs = [b - a for a, b in zip(r["base"], r["this"])]
        startup[name] = {
            "base_median_s": statistics.median(r["base"]),
            "this_median_s": statistics.median(r["this"]),
            "base_iqr_s": q3 - q1,
            "pair_diff_quartiles_s": statistics.quantiles(diffs, n=4),
        }
        print(f"{name:14s} base {startup[name]['base_median_s']:.3f} s  "
              f"this {startup[name]['this_median_s']:.3f} s", file=sys.stderr)

    pytest = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
              "--continue-on-collection-errors"]
    doc = {
        "environment": environment(),
        "repeats": REPEATS,
        "startup": startup,
        "tier1_wall_s": {side: timed(pytest, tree) for side, tree in trees.items()},
    }
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""CLI artifacts of this tree against another checkout, request by request.

Each request is one or more maxforms commands, each run in a fresh process
against `<base>/src` and against this tree's `src`, in a scratch directory per
tree.  `{dir}` in a command stands for that directory, so a file one command
writes (`--dump-form`, `--metadata`, `--output`) can be read by the next.
Compared per request, in order: every command's exit code, stdout and stderr,
then every file left in the directory.  Run from the repository root:

    python3 tools/artifact_diff.py --base /path/to/other/checkout

One line per request: `identical`, or the first file that differs and, for
JSON, the largest deviation between numbers at the same place.  The exit code
is 1 if any request differs.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARCS = "0.0:1.5,2.0:3.5,4.0:5.5"
# every subcommand at its default and at one large config, edge cases of the
# regularity and expand paths, then the round-trips
REQUESTS = {
    "identities": [["identities"]],
    "identities-large": [["identities", "--N", "4", "--q", "2", "--cells", "24"]],
    "bessel-zeros": [["bessel-zeros", "--n", "1"]],
    "bessel-zeros-large": [["bessel-zeros", "--n", "60", "--kind", "dfn", "--count", "40",
                            "--format", "json"]],
    "eigen1d": [["eigen1d"]],
    "eigen1d-large": [["eigen1d", "--grid", "16000", "--modes", "16", "--format", "json"]],
    "eigen2d": [["eigen2d"]],
    "eigen2d-large": [["eigen2d", "--grid", "1024,1024", "--modes", "40"]],
    "eigen2d-q1": [["eigen2d", "--q", "1"]],
    "eigen2d-q1-large": [["eigen2d", "--q", "1", "--grid", "4096,16", "--modes", "16",
                          "--format", "json"]],
    "eigen2d-q1-modes-above-cells": [["eigen2d", "--q", "1", "--grid", "16", "--modes", "17"]],
    "dn-fields": [["dn-fields", "--arcs", ARCS]],
    "dn-fields-large": [["dn-fields", "--arcs", ARCS, "--h", "0.025"]],
    "regularity": [["regularity", "--q", "0", "--n", "1", "--m", "1"]],
    "regularity-large": [["regularity", "--q", "1", "--n", "8", "--m", "12", "--field", "H"]],
    # the longest exponent sweep; no shell is representable, so the slope is null
    "regularity-n140": [["regularity", "--q", "0", "--n", "140", "--m", "1"]],
    "expand": [["expand", "--q", "0", "--n", "1", "--m", "1"]],
    "expand-large": [["expand", "--q", "1", "--n", "2", "--m", "1", "--radial-cells", "400",
                      "--orders", "1,2,3,4,5,6,7,8"]],
    # orders past the requested angular cells: the node count is raised to an exact one
    "expand-aliasing": [["expand", "--q", "0", "--n", "5", "--m", "1", "--orders", "1,2,5",
                         "--angular-cells", "2", "--radial-cells", "3", "--format", "json"]],
    "dump-form-roundtrip": [
        ["identities", "--N", "2", "--q", "1", "--cells", "32", "--seed", "7",
         "--dump-form", "{dir}/a.json"],
        ["identities", "--form", "{dir}/a.json", "--dump-form", "{dir}/b.json"],
        ["expand", "--form", "{dir}/a.json", "--orders", "1,2,3"],
        ["expand", "--form", "{dir}/b.json", "--orders", "1,2,3", "--format", "json"],
    ],
    "metadata": [["eigen2d", "--q", "1", "--modes", "8", "--metadata", "{dir}/meta.json"]],
    "output": [
        ["eigen1d", "--output", "{dir}/eigen1d.csv"],
        ["regularity", "--q", "1", "--n", "1", "--m", "2", "--output", "{dir}/reg.json"],
    ],
}


def run_request(tree: Path, commands: list) -> dict:
    """Artifact name -> bytes, in the order they are compared."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = {}
    with tempfile.TemporaryDirectory() as scratch:
        for i, argv in enumerate(commands):
            argv = [a.replace("{dir}", scratch) for a in argv]
            done = subprocess.run([sys.executable, "-m", "maxforms.cli", *argv],
                                  env=env, cwd=scratch, capture_output=True)
            # paths inside the output name the scratch directory, which differs
            out[f"{i}.exit"] = str(done.returncode).encode()
            out[f"{i}.stdout"] = done.stdout.replace(scratch.encode(), b"{dir}")
            out[f"{i}.stderr"] = done.stderr.replace(scratch.encode(), b"{dir}")
        for name in sorted(os.listdir(scratch)):
            out[name] = Path(scratch, name).read_bytes()
    return out


def largest_deviation(a, b) -> float:
    """Largest |a - b| over numbers at the same place; inf where the
    structures differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return math.inf
        return max((largest_deviation(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return math.inf
        return max((largest_deviation(x, y) for x, y in zip(a, b)), default=0.0)
    numbers = (int, float)
    if isinstance(a, numbers) and isinstance(b, numbers) and not isinstance(a, bool):
        return abs(a - b)
    return 0.0 if a == b else math.inf


def compare(base: dict, ours: dict) -> str:
    for name in [*base, *(k for k in ours if k not in base)]:
        if base.get(name) == ours.get(name):
            continue
        if name not in base or name not in ours:
            return f"differs at {name} (present on one side only)"
        if base[name][:1] != b"{" or ours[name][:1] != b"{":
            return f"differs at {name}"
        dev = largest_deviation(json.loads(base[name]), json.loads(ours[name]))
        return f"differs at {name} (largest numeric deviation {dev:.3g})"
    return "identical"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path,
                        help="checkout to compare against (its src/ is run)")
    args = parser.parse_args(argv)
    if not (args.base / "src" / "maxforms").is_dir():
        parser.error(f"{args.base} has no src/maxforms")
    differ = 0
    for name, commands in REQUESTS.items():
        verdict = compare(run_request(args.base.resolve(), commands),
                          run_request(ROOT, commands))
        differ += verdict != "identical"
        print(f"{name}: {verdict}", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

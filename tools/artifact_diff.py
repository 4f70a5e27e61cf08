"""CLI artifacts of this tree against another checkout, request by request.

Each request is one or more maxforms commands, each run in a fresh process
against `<base>/src` and against this tree's `src`, in a scratch directory per
tree.  `{dir}` in a command stands for that directory, so a file one command
writes (`--dump-form`, `--metadata`, `--output`) can be read by the next.
Compared per request, in order: every command's exit code, stdout and stderr,
then every file left in the directory.  Run from the repository root:

    python3 tools/artifact_diff.py --base /path/to/other/checkout

`identities-float-form` reads `tools/float_form.json`, a 1-form on a (9, 7, 5)
grid at spacing (0.1, 0.3, 0.7) whose values are normal draws (numpy's
default_rng(2024)).  On the integer draws of the other identities requests,
at spacing 0.125, every grid sum is exact, so only a float form shows a
change of summation order.

One line per request: `identical`, or every file that differs, each with,
for JSON and CSV, the largest absolute and relative deviation between numbers
at the same place (or that the structures differ: keys, lengths, CSV headers
or shapes, or text).  The exit code is 1 if any request differs.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARCS = "0.0:1.5,2.0:3.5,4.0:5.5"
FLOAT_FORM = ROOT / "tools" / "float_form.json"
# every subcommand at its default and at one large config, edge cases of the
# regularity and expand paths, then the round-trips
REQUESTS = {
    "identities": [["identities"]],
    "identities-large": [["identities", "--N", "4", "--q", "2", "--cells", "24"]],
    "identities-float-form": [["identities", "--form", str(FLOAT_FORM)]],
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
    # four arcs at the finest spacing the benchmark solves
    "dn-fields-fine": [["dn-fields", "--arcs", "0.0:1.0,1.6:2.6,3.2:4.2,4.8:5.8", "--h", "0.01"]],
    "regularity": [["regularity", "--q", "0", "--n", "1", "--m", "1"]],
    "regularity-large": [["regularity", "--q", "1", "--n", "8", "--m", "12", "--field", "H"]],
    # the longest exponent sweep; no shell is representable, so the slope is null
    "regularity-n140": [["regularity", "--q", "0", "--n", "140", "--m", "1"]],
    # Bessel spans at high orders: every shell of order 40 lies below its nu,
    # so on Miller's route; order 12's factors cross their nu inside the disk
    "regularity-n40": [["regularity", "--q", "1", "--n", "40", "--m", "3", "--field", "E"]],
    "expand": [["expand", "--q", "0", "--n", "1", "--m", "1"]],
    "expand-large": [["expand", "--q", "1", "--n", "2", "--m", "1", "--radial-cells", "400",
                      "--orders", "1,2,3,4,5,6,7,8"]],
    "expand-high-orders": [["expand", "--q", "1", "--n", "12", "--m", "4", "--field", "H",
                            "--orders", "10,11,12,13,14"]],
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
    # every subcommand at its default under --strict: each exits 0, so a gate
    # that stops passing shows as a changed exit code
    "strict-defaults": [[*argv, "--strict"] for argv in (
        ["identities"], ["bessel-zeros", "--n", "1"], ["eigen1d"], ["eigen2d"],
        ["eigen2d", "--q", "1"], ["dn-fields", "--arcs", ARCS],
        ["expand", "--q", "0", "--n", "1", "--m", "1"],
        ["regularity", "--q", "0", "--n", "1", "--m", "1"])],
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


def json_pairs(a, b, where=""):
    """(key path, x, y) for every pair of numbers at the same place; None
    where the structures differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return None
        pairs = [json_pairs(a[k], b[k], f"{where}.{k}".lstrip(".")) for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return None
        pairs = [json_pairs(x, y, where) for x, y in zip(a, b)]
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)) and not isinstance(a, bool):
        return [(where, a, b)]
    else:
        return [] if a == b else None
    return None if None in pairs else [p for sub in pairs for p in sub]


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def csv_pairs(a: str, b: str):
    """(column, x, y) for every pair of numeric cells at the same place; None
    where the headers, the shapes or a text cell differ."""
    rows_a, rows_b = ([line.split(",") for line in t.splitlines()] for t in (a, b))
    if (len(rows_a) != len(rows_b) or rows_a[:1] != rows_b[:1]
            or any(len(x) != len(y) for x, y in zip(rows_a, rows_b))):
        return None
    pairs = []
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        for column, x, y in zip(rows_a[0], row_a, row_b):
            nx, ny = _number(x), _number(y)
            if nx is not None and ny is not None:
                pairs.append((column, nx, ny))
            elif x != y:
                return None
    return pairs


def deviation(pairs) -> str:
    """The largest absolute and relative deviation over the pairs, each with
    the column or key path where it occurs."""
    if pairs is None:
        return "structures differ"
    moved = [(where, abs(x - y), abs(x - y) / max(abs(x), abs(y)))
             for where, x, y in pairs if x != y]
    if not moved:
        return "no numeric deviation"
    absolute = max(moved, key=lambda m: m[1])
    relative = max(moved, key=lambda m: m[2])
    return (f"largest deviation {absolute[1]:.3g} absolute at {absolute[0]}, "
            f"{relative[2]:.3g} relative at {relative[0]}")


def _file_verdict(name: str, a: bytes, b: bytes) -> str:
    a, b = a.decode(errors="replace"), b.decode(errors="replace")
    if a[:1] == b[:1] == "{":
        pairs = json_pairs(json.loads(a), json.loads(b))
    elif "," in a.partition("\n")[0]:  # a CSV header
        pairs = csv_pairs(a, b)
    else:
        return name
    return f"{name} ({deviation(pairs)})"


def compare(base: dict, ours: dict) -> str:
    differ = []
    for name in [*base, *(k for k in ours if k not in base)]:
        if base.get(name) == ours.get(name):
            continue
        if name not in base or name not in ours:
            differ.append(f"{name} (present on one side only)")
        else:
            differ.append(_file_verdict(name, base[name], ours[name]))
    return "differs at " + "; ".join(differ) if differ else "identical"


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

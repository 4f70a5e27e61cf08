"""The in-process pair runner loads two trees side by side and times both."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_two_trees_run_the_same_cycles_in_turn():
    probe = ("import sys; sys.path.insert(0, 'tools'); "
             "import interleaved_pairs as t; from pathlib import Path; "
             "pkg = t.load_package('maxforms_base', Path('src')); "
             "print(pkg.exterior.__name__, Path(pkg.exterior.__file__).resolve())")
    loaded = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, capture_output=True,
                            text=True, check=True, timeout=120).stdout.split()
    assert loaded == ["maxforms_base.exterior", str(ROOT / "src" / "maxforms" / "exterior.py")]
    run = subprocess.run([sys.executable, "tools/interleaved_pairs.py", "--base", str(ROOT),
                          "--workload", "calculus", "--cycles", "2", "--seed", "3"],
                         cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
    doc = json.loads(run.stdout.splitlines()[-1])
    assert (doc["workload"], doc["seed"], doc["cycles"]) == ("calculus", 3, 2)
    q1, median, q3 = doc["speedup_quartiles"]
    assert 0 < q1 <= median <= q3
    assert set(doc["cycle_s_quartiles"]) == {"base", "this"}

"""The artifact comparison names every file of a request that differs."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "artifact_diff.py"
_spec = importlib.util.spec_from_file_location("artifact_diff", _PATH)
artifact_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_diff)


def test_every_differing_file_is_listed_with_its_deviation():
    base = {"0.exit": b"0", "0.stdout": b"k,x\n1,2.0\n", "0.stderr": b"",
            "meta.json": b'{"a": [1.0, 4.0]}', "note": b"a"}
    ours = {**base, "0.stdout": b"k,x\n1,2.5\n", "meta.json": b'{"a": [1.0, 5.0]}',
            "note": b"b", "extra.json": b"{}"}
    assert artifact_diff.compare(base, base) == "identical"
    assert artifact_diff.compare(base, ours) == (
        "differs at 0.stdout (largest deviation 0.5 absolute at x, 0.2 relative at x); "
        "meta.json (largest deviation 1 absolute at a, 0.2 relative at a); note; "
        "extra.json (present on one side only)")

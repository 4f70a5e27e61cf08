"""The package carries only what its product surface reaches.

Every module-level function or class in `src/maxforms`, and every method,
property and dataclass field of those classes (dunders aside), must be named
somewhere: in the package's own code, in `maxforms.__all__`, in the acceptance
gates or in the benchmark.  A routine that only its own unit tests call is an
oracle and belongs in `tests/`, or is dead and goes.
"""

import ast
from pathlib import Path

import maxforms

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "maxforms"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names_used(paths) -> set:
    """Every identifier read, every attribute taken, every keyword passed and
    every name imported.  A name only assigned is not a use, so a dataclass
    field is not reached by its own declaration."""
    used = set()
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                used.add(node.arg)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    return used


def _member_name(node):
    """The name a class-body statement defines as a method, property or field."""
    if isinstance(node, ast.FunctionDef):
        return node.name
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return node.target.id
    return None


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _tree(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            found = [(f"{path.stem}.{node.name}", node.name)]
            if isinstance(node, ast.ClassDef):
                found += [(f"{path.stem}.{node.name}.{name}", name)
                          for name in map(_member_name, node.body) if name]
            for label, name in found:
                if not (name.startswith("__") and name.endswith("__")):
                    yield label, name


def test_every_definition_is_reached_from_the_product_surface():
    sources = [*PACKAGE.glob("*.py"), ROOT / "tests" / "test_acceptance.py",
               *(ROOT / "perfbench").glob("*.py")]
    reached = _names_used(sources) | set(maxforms.__all__)
    unreached = sorted(label for label, name in _definitions() if name not in reached)
    assert not unreached, f"defined in src/maxforms but reached by nothing: {unreached}"

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


def _uses(paths) -> dict:
    """Name -> (path, line) of every identifier read, every attribute taken,
    every keyword passed and every name imported.  A name only assigned is not
    a use, so a dataclass field is not reached by its own declaration."""
    used = {}
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.keyword) and node.arg:
                name = node.arg
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            else:
                continue
            used.setdefault(name, []).append((path, node.lineno))
    return used


def _member_name(node):
    """The name a class-body statement defines as a method, property or field."""
    if isinstance(node, ast.FunctionDef):
        return node.name
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return node.target.id
    return None


def _definitions():
    """(label, name, path, line span) of every definition the rule covers."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _tree(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            found = [(f"{path.stem}.{node.name}", node)]
            if isinstance(node, ast.ClassDef):
                found += [(f"{path.stem}.{node.name}.{_member_name(member)}", member)
                          for member in node.body if _member_name(member)]
            for label, member in found:
                name = _member_name(member) or member.name
                if not (name.startswith("__") and name.endswith("__")):
                    yield label, name, path, (member.lineno, member.end_lineno)


def test_every_definition_is_reached_from_the_product_surface():
    sources = [*PACKAGE.glob("*.py"), ROOT / "tests" / "test_acceptance.py",
               *(ROOT / "perfbench").glob("*.py")]
    uses = _uses(sources)
    exported = set(maxforms.__all__)

    def reached(name, path, span) -> bool:
        # a use inside the definition's own lines, such as a recursive call, does not count
        return name in exported or any(
            where != path or not span[0] <= line <= span[1] for where, line in uses.get(name, ()))

    unreached = sorted(label for label, name, path, span in _definitions()
                       if not reached(name, path, span))
    assert not unreached, f"defined in src/maxforms but reached by nothing: {unreached}"

"""Every imported name is read somewhere in its module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name bound by an import and never read; names
    listed in ``__all__`` and ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_imports_are_found():
    src = "from __future__ import annotations\nimport os, sys\nfrom a import b as c, d\n__all__ = ['d']\nsys.exit()\n"
    assert unused_imports(src) == [(2, "os"), (3, "c")]


def test_no_unused_imports():
    found = {}
    for folder in ("src", "tests", "demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            unused = unused_imports(path.read_text())
            if unused:
                found[str(path.relative_to(ROOT))] = unused
    assert found == {}


def test_recognizers_do_not_import_domination():
    # perfectness is decided by its own mask pass, on graph-level primitives
    tree = ast.parse((ROOT / "src" / "domlab" / "recognizers.py").read_text())
    modules = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    modules |= {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    assert not {m for m in modules if m and m.split(".")[-1] == "domination"}

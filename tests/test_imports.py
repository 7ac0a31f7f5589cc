"""Every module-level import in the package and the tests is used.

A name bound by a top-level ``import`` must be read somewhere in its
module: as a name, the root of an attribute chain, or an entry of
``__all__``.  A package ``__init__.py`` re-exports what it imports, and
a line marked ``# noqa: F401`` is exempt.  Standard-library ``ast``
only, so the check runs wherever the tests do.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "scx").rglob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str, is_package: bool) -> list:
    """(line, name) of each top-level import binding that is never read."""
    if is_package:
        return []
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.end_lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound.append((node.lineno, name))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [(line, name) for line, name in bound if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(), path.name == "__init__.py") == []


@pytest.mark.parametrize("source,package,unused", [
    ("import os\nimport sys\nsys.exit()\n", False, [(1, "os")]),
    ("import os.path\nos.getcwd()\n", False, []),
    ("import numpy as np\n", False, [(1, "np")]),
    ("from a import (b,\n    c)\nc()\n", False, [(1, "b")]),
    ("from a import b  # noqa: F401\n", False, []),
    ("from a import b\n__all__ = ['b']\n", False, []),
    ("from .a import b\n", True, []),
    ("from __future__ import annotations\n", False, []),
    ("def f():\n    import os\n", False, []),
    ("from a import b\nx: b = 1\n", False, []),
])
def test_the_check_itself(source, package, unused):
    assert unused_imports(source, package) == unused

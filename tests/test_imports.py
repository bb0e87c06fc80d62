"""Every import in the package, the tests and the demos is used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str):
    """``(line, name)`` of each name a module imports and never reads.

    A name counts as read when it appears as a name anywhere in the module
    or as a string in its ``__all__``; ``from __future__`` imports bind
    nothing to read.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from math import gcd, lcm\nfrom x import y\n"
              "__all__ = ['y']\nprint(np.pi, lcm)\n")
    assert unused_imports(source) == [(2, "os"), (4, "gcd")]


def test_no_module_imports_a_name_it_never_reads():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for folder in ("src", "tests", "demos")
             for path in sorted((ROOT / folder).rglob("*.py"))
             for line, name in unused_imports(path.read_text())]
    assert found == []

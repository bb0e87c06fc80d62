"""Every import in the package, the tests and the demos is used, every
name the package exports or reads from NumPy is declared, and no module of
the package reads another's private name."""

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


def module_all(path: Path):
    """The names in the ``__all__`` of the module at ``path``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_package_exports_are_in_their_modules_all():
    package = ROOT / "src" / "biphoton_cascade"
    missing = [f"{node.module}.{alias.name}"
               for node in ast.parse((package / "__init__.py").read_text()).body
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names
               if alias.name not in module_all(package / f"{node.module}.py")]
    assert missing == []


#: Every ``np.<name>`` that ``src/`` reads.  A name new to the package
#: needs an entry here, so each NumPy dependency is taken on deliberately;
#: the check is on names only, not on what they do.
NUMPY_NAMES = [
    "abs", "add", "any", "arange", "argmax", "argsort", "array", "array_equal",
    "asarray", "bitwise_count", "broadcast_shapes", "broadcast_to",
    "column_stack", "concatenate", "conjugate", "cos", "diff",
    "empty", "errstate", "exp", "eye", "fft", "finfo", "flatnonzero", "float64",
    "floor", "fmax", "frexp", "full", "gcd", "hanning", "hypot",
    "iinfo", "int64", "interp", "intp", "isfinite", "ldexp", "linalg", "linspace",
    "log10", "matmul", "max", "maximum", "median", "min", "minimum", "multiply",
    "nan", "ndarray", "not_equal", "pi", "random", "repeat", "rint", "roll",
    "searchsorted", "signbit", "sin", "sqrt", "stack", "subtract", "sum",
    "tensordot", "tile", "uint64", "unique", "vdot", "where", "zeros", "zeros_like",
]


def numpy_names(source: str):
    """The names ``<name>`` of every ``np.<name>`` the module reads."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "np"}


def test_numpy_names_are_found():
    assert numpy_names("import numpy as np\nx = np.linalg.norm(np.pi)\n"
                       "y = numpy.sin\n") == {"linalg", "pi"}


def test_src_reads_only_the_frozen_numpy_names():
    found = set().union(*(numpy_names(path.read_text())
                          for path in (ROOT / "src").rglob("*.py")))
    assert sorted(found) == NUMPY_NAMES


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source: str, package: str = "biphoton_cascade"):
    """``(line, name)`` of each ``_``-prefixed name a module imports from a
    module of ``package``, or reads as an attribute of a name it imports
    from one (``analytic._walk`` after ``from . import analytic``)."""
    tree = ast.parse(source)
    imported, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == package):
            for alias in node.names:
                if is_private(alias.name):
                    found.append((node.lineno, alias.name))
                imported.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names
                            if alias.name.split(".")[0] == package)
    found += [(node.lineno, f"{node.value.id}.{node.attr}") for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in imported and is_private(node.attr)]
    return sorted(found)


def test_private_reads_are_found():
    source = ("from __future__ import annotations\nimport numpy as np\n"
              "from . import analytic\nfrom .spectra import _CAP, JointSpectrum\n"
              "import biphoton_cascade.cascade as cascade\n"
              "x = analytic._walk, analytic.walk, np._NoValue, JointSpectrum._x\n"
              "y = cascade._shift, analytic.__name__\n")
    assert private_reads(source) == [(4, "_CAP"), (6, "JointSpectrum._x"),
                                     (6, "analytic._walk"), (7, "cascade._shift")]


def test_no_src_module_reads_a_private_name_of_another():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line, name in private_reads(path.read_text())]
    assert found == []

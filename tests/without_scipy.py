"""Run the biphoton_cascade CLI in an interpreter that refuses to import SciPy.

    PYTHONPATH=src python tests/without_scipy.py reconstruct --config configs/noon_correlated.cfg

SciPy is a test dependency only: the package must run without it.  Any
import of a ``scipy*`` module raises ``ModuleNotFoundError``.  The script
exits with the CLI's code, or with 1 and a message if a ``scipy*`` module
was loaded all the same (before the refusal was in place).
"""

import runpy
import sys


def _is_scipy(name):
    return name.split(".")[0].startswith("scipy")


class RefuseSciPy:
    """A ``sys.meta_path`` finder that refuses every ``scipy*`` module."""

    def find_spec(self, name, path=None, target=None):
        if _is_scipy(name):
            raise ModuleNotFoundError(f"{name} is refused here", name=name)
        return None


if __name__ == "__main__":
    sys.meta_path.insert(0, RefuseSciPy())
    sys.argv[0] = "biphoton_cascade.cli"
    try:
        runpy.run_module("biphoton_cascade.cli", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as stop:
        code = stop.code
    loaded = sorted(filter(_is_scipy, sys.modules))
    if loaded:
        sys.exit(f"SciPy modules loaded: {', '.join(loaded)}")
    sys.exit(code)

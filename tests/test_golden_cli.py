"""The command line on every shipped config against a frozen table.

``golden_cli.json`` maps each run to its exit code, the SHA-256 of the file
it wrote (null if none), its stdout and its stderr.  The runs are
``sweep``, ``envelope``, ``envelope --numeric``, ``reconstruct`` and
``derive --prune`` on each config in ``configs/``, and ``validate --json``.
``sweep --backend both`` is left out: the bits of its quadrature trace
depend on the OpenBLAS thread count.

Run this file as a script to write the table from the code in place.
"""

import contextlib
import hashlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from biphoton_cascade import cli

TABLE = Path(__file__).with_name("golden_cli.json")
CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
COMMANDS = (["sweep"], ["envelope"], ["envelope", "--numeric"], ["reconstruct"],
            ["derive", "--prune"])


def runs():
    """``(key, argv)`` of each run; the output path goes after ``argv``."""
    for config in CONFIGS:
        for command in COMMANDS:
            yield " ".join([config.stem, *command]), [*command, "--config", str(config), "--out"]
    yield "validate --json", ["validate", "--json"]


def run(argv, out: Path):
    """``[exit code, SHA-256 of out or None, stdout, stderr]`` of one run of
    ``cli.main`` in this process.  A warning is one stderr line, as the
    interpreter's default filter shows it, with its source path and line
    number masked."""
    stdout, stderr = io.StringIO(), io.StringIO()

    def show(message, category, filename, lineno, file=None, line=None):
        stderr.write(f"*:*: {category.__name__}: {message}\n")

    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("default")
        warnings.showwarning = show
        code = cli.main([*argv, str(out)])
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    return [code, digest, stdout.getvalue(), stderr.getvalue()]


def outputs(folder: Path) -> dict:
    return {key: run(argv, folder / f"{i}.out") for i, (key, argv) in enumerate(runs())}


def test_cli_outputs_match_the_golden_table(tmp_path):
    assert outputs(tmp_path) == json.loads(TABLE.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        TABLE.write_text(json.dumps(outputs(Path(folder)), indent=1) + "\n")

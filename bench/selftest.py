"""Self-test of the benchmark.  Run from the repository root:

    python3 bench/selftest.py

For each workload it makes a short untraced run, two traced runs with the
same seed and a negative-control run, and checks that:

* the last output line has exactly the result keys, the gates passed,
  every ``end_to_end`` metric is reported and printed with its unit, and
  ``fail_frac`` and ``op_p50_ms`` are printed;
* every ``per_layer`` metric is reported, its count metrics repeat exactly
  across the two traced runs, and every metric other than an error count
  is nonzero on at least one workload (a misspelt name would read 0);
* the negative control makes ``fail_frac`` > 0;
* in a directory holding only ``BENCHMARK.json`` and ``bench/`` the
  benchmark exits nonzero without printing a result.

It prints the tracing overhead, traced against untraced ``ops_per_ref_s``, of
these short runs.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_UNITS = {"count", "bytes", "ratio"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
NEGATIVE_SECONDS = 8

problems = []


def check(ok, message):
    if not ok:
        problems.append(message)
        print(f"FAIL {message}")


def run(workload, trace, *extra, cwd=ROOT, seconds=1):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc, label):
    check(proc.returncode == 0, f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    check(set(res) == RESULT_KEYS, f"{label}: result keys {sorted(res)}")
    check(isinstance(res["attempted"], int) and res["attempted"] >= 1, f"{label}: attempted")
    return res, lines[:-1]


def reported(res, printed, wanted, label):
    check(set(res["metrics"]) == {m["name"] for m in wanted}, f"{label}: metric names")
    for m in wanted:
        got = res["metrics"].get(m["name"], {})
        check(got.get("unit") == m["unit"], f"{label}: unit of {m['name']}")
        check(any(line.split()[:1] == [m["name"]] and line.endswith(" " + m["unit"])
                  for line in printed), f"{label}: {m['name']} not printed with its unit")


def main() -> int:
    nonzero = set()
    for entry in SPEC["workloads"]:
        name = entry["name"]
        plain, printed = result(run(name, 0), f"{name} untraced")
        check(plain["correct"] and plain["failed"] == 0, f"{name}: gates failed at this commit")
        reported(plain, printed, SPEC["end_to_end"], f"{name} untraced")
        for extra in ("fail_frac", "op_p50_ms"):
            check(any(line.split()[:1] == [extra] for line in printed),
                  f"{name}: {extra} not printed")

        first, printed = result(run(name, 1), f"{name} traced")
        second, _ = result(run(name, 1), f"{name} traced again")
        reported(first, printed, SPEC["per_layer"], f"{name} traced")
        for m in SPEC["per_layer"]:
            a, b = first["metrics"][m["name"]]["value"], second["metrics"][m["name"]]["value"]
            if m["unit"] in EXACT_UNITS:
                check(a == b, f"{name}: {m['name']} {a} then {b}")
            if a:
                nonzero.add(m["name"])
        traced = first["metrics"]["trace.ops_per_ref_s"]["value"]
        untraced = plain["metrics"]["ops_per_ref_s"]["value"]
        print(f"{name}: traced {traced:.4g} ops/s, untraced {untraced:.4g} ops/s "
              f"(overhead {100 * (untraced / traced - 1):+.1f}%, 1-s runs)")

        # Several rounds: a shifted envelope gate trips on about half of
        # the interferogram envelope ops, so one round can pass by chance.
        corrupt, _ = result(run(name, 0, "--negative-control", seconds=NEGATIVE_SECONDS),
                            f"{name} negative control")
        check(corrupt["failed"] > 0 and not corrupt["correct"],
              f"{name}: negative control passed its gates")

    for m in SPEC["per_layer"]:
        if not m["name"].endswith(".errors"):
            check(m["name"] in nonzero, f"{m['name']} is 0 on every workload")

    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
    check(proc.returncode != 0 and "correct" not in proc.stdout,
          f"without the package: exit {proc.returncode}, output {proc.stdout[-200:]!r}")
    shutil.rmtree(bare)

    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

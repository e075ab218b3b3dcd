#!/usr/bin/env python3
"""Fast self-test of the benchmark: every workload at tiny sizes, untraced and traced.

    python3 perfbench/selftest.py

For each run it checks that the process exits 0, that the last line is the
result object, that its metrics are exactly the ones ``BENCHMARK.json``
names with their units, that each is also printed by name with its unit, and
that every check passes. It also checks that the benchmark fails without a
result when the dppred sources are missing. Failed operations, such as the
stratified single-row predictions that differ from the batch, are printed,
not failed on: they are what the benchmark measures.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 300


def run(args, cwd):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_run(workload, trace, spec):
    proc = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny"], ROOT)
    problems = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1
            and isinstance(result.get("failed"), int)):
        problems.append("attempted/failed are not whole numbers with attempted >= 1")
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = result.get("metrics", {})
    if set(got) != set(units):
        problems.append(f"metric names differ: missing {sorted(set(units) - set(got))}, "
                        f"extra {sorted(set(got) - set(units))}")
    prefix = "layer" if trace else "metric"
    printed = {tuple(ln.split()[1:4:2]) for ln in lines if ln.startswith(prefix + " ")}
    for name, unit in units.items():
        entry = got.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        elif not trace and value <= 0:
            problems.append(f"{name}: end-to-end value {value!r} is not positive")
        if (name, unit) not in printed:
            problems.append(f"{name} is not printed with its unit")
    problems += [ln for ln in lines if ln.startswith("check ") and " FAILED" in ln]
    print(f"{workload} trace={trace}: attempted={result.get('attempted')} "
          f"failed={result.get('failed')} {'ok' if not problems else 'PROBLEMS'}")
    return problems


def check_without_sources():
    """In a directory holding only BENCHMARK.json and perfbench/, the run must fail."""
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "medical-forward", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        return [f"without sources: exit {proc.returncode}, last line {last[0]!r}"]
    print(f"without sources: exit {proc.returncode}, no result ok")
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    problems = check_without_sources()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems += [f"{workload} trace={trace}: {p}" for p in check_run(workload, trace, spec)]
    for p in problems:
        print("PROBLEM", p)
    print("self-test", "passed" if not problems else f"failed with {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

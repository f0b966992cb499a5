"""Smoke test of the benchmark at tiny sizes.

    python3 benchmarks/smoke.py

Runs every workload for a fraction of a second, untraced and traced, and
checks the result line against BENCHMARK.json: exactly the declared metrics
with their units, finite values, end-to-end values above zero, and every
output check passed.  It then runs the benchmark from a copy of its own
directory that lacks the program, which must fail without a result line.
Everything it writes stays under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT = 120


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def check_result(spec, workload, trace, proc) -> list[str]:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}\n{proc.stderr[-2000:]}")
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if sorted(got) != sorted(want):
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name, metric in got.items():
        value = metric["value"]
        if metric["unit"] != want.get(name, metric["unit"]):
            problems.append(f"{where}: {name} unit {metric['unit']} != {want[name]}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} = {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{where}: end-to-end {name} = {value}, must be above zero")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            found = check_result(spec, workload, trace, proc)
            print(f"{workload:18s} trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    printed_result = proc.stdout.strip().startswith("{") or '"metrics"' in proc.stdout
    if proc.returncode == 0 or printed_result:
        problems.append(f"without the program: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")
    print(f"{'without the program':27s}: {'ok' if proc.returncode and not printed_result else 'FAILED'}")
    shutil.rmtree(bare)

    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

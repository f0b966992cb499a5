"""Run-to-run spread of the end-to-end metrics, and the baseline record.

    python3 benchmarks/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S]
                                 [--out FILE]

Runs the benchmark once per workload and seed, one run at a time, and
prints for every end-to-end metric the median and the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median, next to the metric's bound in BENCHMARK.json.  ``--out``
writes the same figures, with every run's values, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    failures = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall = time.monotonic() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                failures += 1
                continue
            result = json.loads(lines[-1])
            failures += not result["correct"]
            env = next((line[2:] for line in lines if line.startswith("# python")), "")
            windows = next((json.loads(line[len("# windows "):]) for line in lines
                            if line.startswith("# windows ")), {})
            runs.append({"seed": seed, "wall_s": wall, "correct": result["correct"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                         "windows": windows})
            print(f"{workload} seed {seed}: {wall:.1f} s wall, correct {result['correct']}",
                  flush=True)
        if len(runs) < 2:
            continue
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            rows[name] = {"median": median, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / median, "bound": bound}
            print(f"  {name:16s} median {median:12.6g}  spread {rows[name]['spread']:7.3f}"
                  f"  bound {bound:.2f}  spread/bound {rows[name]['spread'] / bound:5.2f}")
        report["workloads"][workload] = {"metrics": rows, "runs": runs, "env": env}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

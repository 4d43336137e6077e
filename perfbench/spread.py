#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json's bounds.

    python3 perfbench/spread.py

Run from the repository root.  Runs perfbench/run.py on seeds 1 to 10 for
every workload in BENCHMARK.json (--trace 0, its run_seconds) and prints,
per metric, the ten values, their median and the interquartile distance
as a share of the median, taken with statistics.quantiles(values, n=4).
Exits 1 when a run fails its checks or a spread exceeds the metric's bound;
the target for a steady benchmark is a third of the bound.
"""
import json
import statistics
import subprocess
import sys
import time

SEEDS = range(1, 11)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
    return result, elapsed


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        values = {name: [] for name in bounds}
        walls = []
        for seed in SEEDS:
            result, elapsed = run_once(workload, seed, bench["run_seconds"])
            walls.append(elapsed)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {len(SEEDS)} runs, {min(walls):.1f}-{max(walls):.1f} s each")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med)
            verdict = "ok" if spread <= bounds[name] / 3 else (
                "WIDE" if spread <= bounds[name] else "OVER BOUND")
            ok = ok and spread <= bounds[name]
            print(f"  {name:20s} median {med:<12.6g} spread {spread:6.3f}"
                  f"  bound {bounds[name]:.2f}  {verdict}")
            print("      " + " ".join(f"{v:.5g}" for v in vals))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Tests of the search benchmark itself.

    python3 perfbench/test_bench.py           # smoke runs, about two minutes
    python3 perfbench/test_bench.py --full    # plus full-size character runs

Run from the repository root.  The smoke tests run every workload with tiny
searches in both modes and check that the printed metrics are exactly the
ones BENCHMARK.json names, with their units, and that the traced run's
ledger remainder (ledger.other_s) is not negative.  --full adds traced
full-size runs on two seeds and checks that each workload keeps its
character: completions desynchronise on the LCS workloads (dispatch batches
of about 1) and stay in full batches of 8 virtual workers on uno-baseline.
"""
import json
import math
import re
import subprocess
import sys
import unittest

FULL = "--full" in sys.argv
if FULL:
    sys.argv.remove("--full")

with open("BENCHMARK.json") as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
LCS_WORKLOADS = ("cifar-lcs", "nt3-lcs-durable")


def run(*args):
    """Run perfbench/run.py; returns (exit code, parsed last line or None)."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


_cache = {}


def bench(workload, trace, seed=1, smoke=True):
    key = (workload, trace, seed, smoke)
    if key not in _cache:
        # Full-size runs get a third of the benchmark's budget: several
        # searches, so the character checks average over more than one.
        args = ["--workload", workload, "--seed", str(seed),
                "--seconds", "1" if smoke else "10",
                "--trace", str(trace)] + (["--smoke"] if smoke else [])
        _cache[key] = run(*args)
    return _cache[key]


class BenchmarkJsonTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        self.assertEqual(BENCH["paths"], ["perfbench"])
        names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]] + WORKLOADS
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
            self.assertIn(m["better"], ("higher", "lower"))
        bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class SmokeTest(unittest.TestCase):
    def check_result(self, workload, trace, expected):
        code, result, out = bench(workload, trace)
        self.assertEqual(code, 0, out)
        self.assertIsNotNone(result, out)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in expected})
        for name, m in result["metrics"].items():
            self.assertTrue(math.isfinite(m["value"]), name)
        return result["metrics"], out

    def test_end_to_end_metrics_match_benchmark_json(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics, _ = self.check_result(workload, 0, BENCH["end_to_end"])
                for name, m in metrics.items():
                    self.assertGreater(m["value"], 0, name)

    def test_per_layer_metrics_match_benchmark_json(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics, out = self.check_result(workload, 1, BENCH["per_layer"])
                value = {name: m["value"] for name, m in metrics.items()}
                self.assertGreaterEqual(value["ledger.other_s"], 0.0)
                span_file = re.search(r"spans: \d+ events in (\S+)", out).group(1)
                with open(span_file) as f:
                    self.assertTrue(json.load(f)["traceEvents"])
                if workload == "uno-baseline":
                    self.assertEqual(value["ckpt.bytes_written"], 0)
                else:
                    self.assertGreater(value["ckpt.get_calls"], 0)
                if workload == "nt3-lcs-durable":
                    self.assertGreater(value["exp.run_dir_bytes"], 0)

    def test_seed_is_recorded_and_inputs_follow_it(self):
        _, _, first = bench("cifar-lcs", 0)
        _, _, again = run("--workload", "cifar-lcs", "--seed", "1", "--seconds", "1",
                          "--trace", "0", "--smoke")
        _, _, other = run("--workload", "cifar-lcs", "--seed", "2", "--seconds", "1",
                          "--trace", "0", "--smoke")
        digests = lambda out: re.findall(r"trace digest ([0-9a-f]{16})", out)
        self.assertIn("seed 1 ", first)
        self.assertEqual(digests(first)[:5], digests(again)[:5])
        self.assertNotEqual(digests(first)[:5], digests(other)[:5])

    def test_bad_arguments_fail_without_a_result(self):
        for args in (["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
                     ["--workload", "cifar-lcs", "--seed", "1", "--trace", "0"]):
            with self.subTest(args=args):
                code, result, _ = run(*args)
                self.assertNotEqual(code, 0)
                self.assertIsNone(result)


@unittest.skipUnless(FULL, "full-size runs need --full")
class CharacterTest(unittest.TestCase):
    def test_dispatch_batches_keep_their_shape_on_two_seeds(self):
        for workload in WORKLOADS:
            for seed in (1, 2):
                with self.subTest(workload=workload, seed=seed):
                    code, result, out = bench(workload, 1, seed=seed, smoke=False)
                    self.assertEqual(code, 0, out)
                    batch = result["metrics"]["cluster.dispatch_batch_mean"]["value"]
                    print(f"{workload} seed {seed}: dispatch_batch_mean {batch:.3f}",
                          file=sys.stderr)
                    if workload in LCS_WORKLOADS:
                        self.assertLess(batch, 1.5)
                    else:
                        self.assertGreater(batch, 7.0)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

The comparison tests use synthetic result sets; the last tests build
the benchmark and run one short `hetero` pass with the default seed,
once as is and once with every expected digest perturbed.
"""

import json
import os
import random
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import compare  # noqa: E402

with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
MACHINE = {"cpu": "test cpu", "nproc": 2, "rustc": "rustc test", "spin_mips": 400.0}


def result_set(seed, scale=None):
    """Ten synthetic runs per workload with 1 % noise; `scale` maps
    (workload, metric) to a factor applied to every run of that pair."""
    rng = random.Random(seed)
    records = []
    for workload in BENCHMARK["workloads"]:
        for run in range(10):
            metrics = {}
            for m in BENCHMARK["end_to_end"]:
                value = 100.0 * (1 + rng.uniform(-0.01, 0.01))
                value *= (scale or {}).get((workload["name"], m["name"]), 1.0)
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            records.append({"workload": workload["name"], "seed": str(run), "machine": dict(MACHINE),
                            "failed": 0, "metrics": metrics})
    return records


def flagged(base, new):
    rows = compare.compare(base, new, BENCHMARK["end_to_end"])
    return [(w, m) for w, m, _, _, _, verdict in rows if verdict in ("REGRESSION", "slower")]


def run_benchmark(*args):
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench", "selftest")
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args, "--out", out],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout.strip().splitlines()


class Comparison(unittest.TestCase):
    def test_identical_result_sets_pass(self):
        base = result_set(1)
        self.assertEqual(flagged(base, [dict(r) for r in base]), [])

    def test_ten_percent_slowdown_is_flagged(self):
        base = result_set(1)
        new = result_set(2, scale={("hetero", "pearl_cycles_per_ref_s"): 0.9})
        self.assertEqual(flagged(base, new), [("hetero", "pearl_cycles_per_ref_s")])
        new = result_set(2, scale={("ml_train", "workload_ref_s"): 1.1})
        self.assertEqual(flagged(base, new), [("ml_train", "workload_ref_s")])

    def test_different_machines_are_refused(self):
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            for directory, cpu in ((a, "cpu one"), (b, "cpu two")):
                for i, record in enumerate(result_set(1)):
                    record["machine"]["cpu"] = cpu
                    with open(os.path.join(directory, f"r{i}-trace0.json"), "w") as f:
                        json.dump(record, f)
            self.assertEqual(compare.main([a, b]), 3)


class Benchmark(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        code, lines = run_benchmark("--list-metrics")
        self.assertEqual(code, 0)
        listed = json.loads(lines[-1])
        self.assertEqual(listed["workloads"], [w["name"] for w in BENCHMARK["workloads"]])
        for kind in ("end_to_end", "per_layer"):
            declared = [{k: m[k] for k in ("name", "unit", "better")} for m in BENCHMARK[kind]]
            self.assertEqual(listed[kind], declared)

    def test_default_seed_matches_expected_digests(self):
        code, lines = run_benchmark("--workload", "hetero", "--seed", "1", "--seconds", "1")
        result = json.loads(lines[-1])
        self.assertEqual((code, result["correct"], result["failed"]), (0, True, 0))

    def test_perturbed_expected_digest_fails_every_operation(self):
        with open(os.path.join(HERE, "expected.json")) as f:
            table = json.load(f)
        perturbed = {run: {op: f"{int(digest, 16) ^ 1:016x}" for op, digest in ops.items()}
                     for run, ops in table.items()}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "expected.json")
            with open(path, "w") as f:
                json.dump(perturbed, f)
            code, lines = run_benchmark("--workload", "hetero", "--seed", "1", "--seconds", "1",
                                        "--expected", path)
        result = json.loads(lines[-1])
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()

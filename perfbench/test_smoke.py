#!/usr/bin/env python3
"""The benchmark's own test: every workload, untraced and traced, at tiny
scale. Checks that the result line follows BENCHMARK.json (every metric, by
name, with its unit), that every output check passed, and that the traced
run wrote a readable Chrome trace.

    python3 perfbench/test_smoke.py        # from the repository root
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def run_bench(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=900)
    return json.loads(out.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_result(self, result, metrics):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_workloads(self):
        for w in self.spec["workloads"]:
            name = w["name"]
            with self.subTest(workload=name, trace=0):
                result = run_bench(name, 0)
                self.check_result(result, self.spec["end_to_end"])
                for m in self.spec["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0, m["name"])
            with self.subTest(workload=name, trace=1):
                result = run_bench(name, 1)
                self.check_result(result, self.spec["per_layer"])
                self.assertGreaterEqual(
                    result["metrics"]["trace.coverage"]["value"], 0.95)
                if name.startswith("cpd-"):
                    for m in ("mttkrp.speedup", "cpd.speedup",
                              "mttkrp.gb_per_s", "model_io.bytes"):
                        self.assertGreater(result["metrics"][m]["value"], 0,
                                           m)
                path = os.path.join(ROOT, ".bench_build", "traces",
                                    f"{name}-seed{SEED}.json")
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                self.assertEqual(len(events),
                                 result["metrics"]["trace.spans"]["value"])


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Smoke test of the benchmark, at tiny sizing.

    python3 perfbench/test_smoke.py

Runs every workload of BENCHMARK.json untraced and traced with --smoke and
checks that the last line of each run parses as a report, that the
outputs were correct, and that it names every metric of BENCHMARK.json
(end_to_end untraced, per_layer traced) with its declared unit. Also
checks that the benchmark fails, without a report, when the simulator
sources are missing. Takes a few minutes, most of it the first build.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py")] + list(args),
        cwd=cwd, capture_output=True, text=True, timeout=1800)


class SmokeTest(unittest.TestCase):
    def test_every_metric_prints_with_its_unit(self):
        spec = load_spec()
        for w in spec["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    p = run_bench(ROOT, "--workload", w["name"], "--seed",
                                  "7", "--seconds", "1", "--trace",
                                  str(trace), "--smoke")
                    self.assertEqual(p.returncode, 0, p.stderr[-3000:])
                    rep = json.loads(p.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(rep), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertIs(rep["correct"], True, p.stderr[-3000:])
                    self.assertGreaterEqual(rep["attempted"], 1)
                    self.assertEqual(rep["failed"], 0)
                    want = {m["name"]: m["unit"] for m in spec[kind]}
                    got = rep["metrics"]
                    self.assertEqual(set(got), set(want))
                    for name, m in got.items():
                        self.assertEqual(m["unit"], want[name], name)
                        self.assertIsInstance(m["value"], (int, float))
                        self.assertTrue(math.isfinite(m["value"]), name)

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            p = run_bench(bare, "--workload", "fig4-live", "--seed", "1",
                          "--seconds", "1", "--trace", "0")
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

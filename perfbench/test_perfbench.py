#!/usr/bin/env python3
"""The benchmark's own tests, on the smoke size (every workload in seconds,
every check on). Run from the root of a checkout:

    python3 -m unittest perfbench/test_perfbench.py
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload, trace, seed=1, seconds=2, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


class BenchmarkJsonTest(unittest.TestCase):
    def test_shape(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end", "per_layer"})
        self.assertEqual(BENCH["paths"], ["perfbench"])
        self.assertTrue(1 <= BENCH["run_seconds"] <= 60)
        self.assertTrue(2 <= len(WORKLOADS) <= 8)
        names = WORKLOADS + [m["name"] for m in BENCH["end_to_end"]] + \
            [m["name"] for m in BENCH["per_layer"]]
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))
        for w in BENCH["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in BENCH["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in BENCH["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in BENCH["end_to_end"]))


class SmokeRunTest(unittest.TestCase):
    def check(self, workload, trace, expected):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        units = {m["name"]: m["unit"] for m in expected}
        for name, metric in result["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertEqual(metric["unit"], units[name])
        if not trace:
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, name)
        for key in ("info", "ops", "e2e"):
            self.assertTrue(any(l.startswith(key + " {") for l in lines), key)
        return result

    def test_untraced_reports_end_to_end(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, 0, BENCH["end_to_end"])

    def test_traced_reports_per_layer(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, 1, BENCH["per_layer"])
                trace = os.path.join(ROOT, ".bench_build", "perfbench",
                                     "traces", "%s-seed1.json" % w)
                if os.environ.get("CARGO_TARGET_DIR"):
                    trace = os.path.join(os.environ["CARGO_TARGET_DIR"],
                                         "perfbench", "traces",
                                         "%s-seed1.json" % w)
                with open(trace) as f:
                    spans = json.load(f)["spans"]
                self.assertTrue(any(s["name"] == "core.train" for s in spans))
                self.assertTrue(any(s["request"] for s in spans))

    def test_unknown_workload_fails(self):
        proc = run("no-such-workload", 0)
        self.assertNotEqual(proc.returncode, 0)

    def test_compare_reads_runs(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as a:
            for seed in (1, 2):
                proc = run(WORKLOADS[0], 0, seed=seed)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                with open(os.path.join(a, "r%d.out" % seed), "w") as f:
                    f.write(proc.stdout)
            cmp = subprocess.run(
                [sys.executable, os.path.join(HERE, "compare.py"), a, a],
                stdout=subprocess.PIPE, text=True)
            self.assertIn("== " + WORKLOADS[0], cmp.stdout)
            self.assertIn("train_s", cmp.stdout)


class BareCheckoutTest(unittest.TestCase):
    def test_fails_without_library_sources(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run(WORKLOADS[0], 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            lines = proc.stdout.strip().splitlines()
            self.assertFalse(lines and lines[-1].startswith("{"))


if __name__ == "__main__":
    unittest.main()

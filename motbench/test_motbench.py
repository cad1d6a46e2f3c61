#!/usr/bin/env python3
"""Tests of the motbench benchmark itself, at smoke size.

    python3 -m unittest motbench/test_motbench.py    (from the repo root)

They build the runner on first use like run.py does.
"""

import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
HELD_OUT_SEED = 7


def bench(*args, env=None):
    """Runs run.py; returns (exit code, parsed last stdout line or None)."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc


def smoke(workload, trace, seed=1, *extra):
    return bench("--workload", workload, "--seed", str(seed), "--seconds", "5",
                 "--trace", str(trace), "--size", "smoke", *extra)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        # BENCHMARK.json names a subset; run.py also runs the x01 control.
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]},
                             set(run.WORKLOADS))
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        runs = 4 + 22 * len(SPEC["workloads"])
        # Leaves room for two builds and per-run overhead in 3420 s.
        self.assertLess(runs * (SPEC["run_seconds"] + 4) + 200, 3420)


class QuantileTest(unittest.TestCase):
    def test_nearest_rank_is_exact_and_ordered(self):
        v = [float(x) for x in range(10, 0, -1)]
        self.assertEqual(run.nearest_rank(v, 0.5), 5.0)
        self.assertEqual(run.nearest_rank(v, 0.9), 9.0)
        self.assertEqual(run.nearest_rank(v, 1.0), 10.0)
        self.assertEqual(run.nearest_rank([3.0], 0.9), 3.0)
        raw = {"workload": "serve", "latency_s": v, "pass_s": [1.0],
               "setup_s": [0.5], "detected": 1}
        m = run.end_to_end(raw, attempted=10, failed=1)
        self.assertLessEqual(m["latency_p50_s"], m["latency_p90_s"])
        self.assertLessEqual(m["latency_p90_s"], max(v))
        self.assertAlmostEqual(m["pass_rate"], 0.9)
        # Pipeline workloads take quantiles over each cell's mean.
        cells = [{"name": f"c{i % 3}/mot/seed{i}", "seconds": [float(i)]}
                 for i in range(9)]
        self.assertEqual(sorted(run.latency_samples(
            {"workload": "x01", "cells": cells})), [3.0, 4.0, 5.0])


class SmokeTest(unittest.TestCase):
    def check_result(self, result, trace):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        self.assertGreaterEqual(result["attempted"], 1)

    def test_every_workload_reports_every_metric(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    code, result, proc = smoke(workload, trace)
                    self.assertEqual(code, 0, proc.stderr[-2000:])
                    self.check_result(result, trace)
                    self.assertTrue(result["correct"], proc.stderr[-2000:])
                    self.assertEqual(result["failed"], 0)
                    if trace:
                        for name in ("trace.unattributed_frac",
                                     "trace.overhead_frac"):
                            self.assertIn(name, result["metrics"])
                    else:
                        for m in SPEC["end_to_end"]:
                            self.assertGreater(
                                result["metrics"][m["name"]]["value"], 0,
                                m["name"])

    def test_motsim_environment_is_cleared(self):
        with tempfile.TemporaryDirectory() as tmp:
            env = dict(os.environ, MOTSIM_SIM3_BACKEND="bitpar")
            code, result, proc = bench(
                "--workload", "x01", "--seed", "1", "--seconds", "5",
                "--trace", "0", "--size", "smoke", "--save", tmp, env=env)
            self.assertEqual(code, 0, proc.stderr[-2000:])
            with open(os.path.join(tmp, "x01-t0-seed1.json")) as f:
                raw = json.load(f)["raw"]
            self.assertIn("MOTSIM_SIM3_BACKEND", raw["env_cleared"])
            self.assertIn("sim3_backend", raw["defaults"])

    def test_goldens_hold_at_held_out_seed(self):
        path = run.golden_path(os.path.join(HERE, "goldens"), "smoke",
                               HELD_OUT_SEED)
        self.assertTrue(os.path.exists(path))
        for workload in ("x01", "serve"):
            with self.subTest(workload=workload):
                code, result, proc = smoke(workload, 0, HELD_OUT_SEED)
                self.assertEqual(code, 0, proc.stderr[-2000:])
                self.assertTrue(result["correct"], proc.stderr[-2000:])

    def test_tampered_golden_is_a_failure(self):
        with tempfile.TemporaryDirectory() as tmp:
            goldens = os.path.join(tmp, "goldens")
            shutil.copytree(os.path.join(HERE, "goldens"), goldens)
            path = run.golden_path(goldens, "smoke", 1)
            with open(path) as f:
                data = json.load(f)
            cell = sorted(data["x01"])[0]
            fields = data["x01"][cell].split()
            fields[0] = "0" * 16  # the X01-stage digest
            data["x01"][cell] = " ".join(fields)
            with open(path, "w") as f:
                json.dump(data, f)
            code, result, proc = smoke("x01", 0, 1, "--goldens", goldens)
            self.assertEqual(code, 0, proc.stderr[-2000:])
            self.assertFalse(result["correct"])
            self.assertGreaterEqual(result["failed"], 1)
            self.assertLess(result["metrics"]["pass_rate"]["value"], 1)
            self.assertIn("golden mismatch", proc.stderr)

    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "motbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, ".bb"))
            proc = subprocess.run(
                [sys.executable, "motbench/run.py", "--workload", "x01",
                 "--seed", "1", "--seconds", "5", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, env=env, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("correct", proc.stdout)


class CompareTest(unittest.TestCase):
    def write_set(self, directory, walls):
        os.makedirs(directory)
        for seed, wall in enumerate(walls, 1):
            metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                       for m in SPEC["end_to_end"]}
            metrics["wall_s"]["value"] = wall
            rec = {"workload": "x01", "seed": seed, "trace": 0,
                   "result": {"metrics": metrics},
                   "raw": {"cells": [{"name": "c/mot/seed1", "strategy": "mot",
                                      "seconds": [wall]}]}}
            with open(os.path.join(directory, f"x01-{seed}.json"), "w") as f:
                json.dump(rec, f)

    def verdict(self, base, change):
        with tempfile.TemporaryDirectory() as tmp:
            a, b = os.path.join(tmp, "a"), os.path.join(tmp, "b")
            self.write_set(a, base)
            self.write_set(b, change)
            out = io.StringIO()
            with redirect_stdout(out):
                code = compare.main(["compare.py", a, b])
        line = next(l for l in out.getvalue().splitlines()
                    if " wall_s " in l)
        return line.split("  ")[-1].strip(), code

    def test_verdicts(self):
        base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02]
        self.assertEqual(self.verdict(base, base), ("within bound", 0))
        self.assertEqual(self.verdict(base, [v * 0.8 for v in base])[0],
                         "better")
        self.assertEqual(self.verdict(base, [v * 1.3 for v in base]),
                         ("worse beyond bound", 1))
        noisy = [5.0, 15.0, 6.0, 14.0, 10.0, 4.0, 16.0, 10.0, 9.0, 11.0]
        self.assertEqual(self.verdict(base, noisy), ("unresolved", 1))


if __name__ == "__main__":
    unittest.main()

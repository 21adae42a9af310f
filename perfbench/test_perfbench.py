#!/usr/bin/env python3
"""Self-check of the benchmark: BENCHMARK.json and the driver agree.

    python3 perfbench/test_perfbench.py

Runs a short smoke run of every workload, untraced and traced, through
run.py, and checks that each prints exactly the metrics
BENCHMARK.json names, each with its declared unit, that every output check
passed, and that end-to-end values are finite and nonzero. Also checks
BENCHMARK.json against the limits its format allows.
"""

import json
import math
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402  (run.py sits next to this file)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# A short run: one round over each flow's designs (3-10 s), one shortened
# fleet epoch (under 1 s) after a single set-up.
SMOKE_SECONDS = "0.5"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload, trace, seed=7):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", SMOKE_SECONDS, "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600, check=False)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class BenchmarkJson(unittest.TestCase):
    def test_format(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(BENCH["workloads"]) <= 8)
        self.assertTrue(1 <= BENCH["run_seconds"] <= 60)
        names = [w["name"] for w in BENCH["workloads"]]
        names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        for n in names:
            self.assertRegex(n, NAME)
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
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in BENCH["end_to_end"]))

    def test_workloads_match_driver(self):
        self.assertEqual(tuple(w["name"] for w in BENCH["workloads"]), WORKLOADS)


class SmokeRuns(unittest.TestCase):
    def check(self, result, declared, nonzero):
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(printed, {m["name"]: m["unit"] for m in declared})
        for name, v in result["metrics"].items():
            self.assertTrue(math.isfinite(v["value"]), name)
            if nonzero:
                self.assertNotEqual(v["value"], 0, name)

    def test_every_workload(self):
        for workload in (w["name"] for w in BENCH["workloads"]):
            with self.subTest(workload=workload, trace=0):
                self.check(run(workload, 0), BENCH["end_to_end"], nonzero=True)
            with self.subTest(workload=workload, trace=1):
                self.check(run(workload, 1), BENCH["per_layer"], nonzero=False)

    def test_quality_metrics_repeat_exactly(self):
        a, b = run("flow_blind", 0, seed=3), run("flow_blind", 0, seed=4)
        for name in ("fmax_geomean_mhz", "guardband_gain_pct", "peak_temp_mean_c"):
            self.assertEqual(a["metrics"][name]["value"], b["metrics"][name]["value"], name)

    def test_rejects_unknown_workload(self):
        done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "nope",
                               "--seed", "1", "--seconds", "1"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()

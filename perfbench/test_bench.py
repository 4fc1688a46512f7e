#!/usr/bin/env python3
"""Self-test of the benchmark: a seconds-long run of every workload with
its output checks, one deliberately corrupted expectation per check to
show that each can fail, the shape of BENCHMARK.json, and the refusal
to run without the library sources.

    python3 perfbench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULTS = os.path.join(BENCH_DIR, "out", "selftest")

# (workload, fault, the checks it must fail and no others)
FAULTS = [
    ("server-alldead", "reply-digest", ["reply_digests_match"]),
    ("server-alldead", "leak-labels",
     ["alldead_verdicts_are_injected_leaks"]),
    ("heap-audit", "audit-sum", ["audits_match_shadow"]),
    ("heap-audit", "verdict-set", ["verdicts_match_shadow"]),
    ("heap-audit", "live-count", ["live_objects_match_shadow"]),
    ("young-churn", "chain-digest", ["chain_digests_match"]),
    ("young-churn", "table-checksum", ["table_checksum_matches_shadow"]),
    # The benchmark's allocation count feeds both accounting checks.
    ("young-churn", "alloc-count",
     ["allocated_equals_swept_plus_live", "allocated_matches_runtime"]),
]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace=0, fault="", seed=1):
    """Quick run through run.py; returns (result line, full record)."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--quick", "--results", RESULTS]
    if fault:
        cmd += ["--fault", fault]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise AssertionError("run.py exited with %d" % proc.returncode)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    tag = "%s-seed%d-trace%d.json" % (workload, seed, trace)
    with open(os.path.join(RESULTS, tag)) as f:
        return line, json.load(f)


class QuickRuns(unittest.TestCase):
    def test_every_workload_passes_its_checks(self):
        s = spec()
        for w in s["workloads"]:
            for trace, metrics in ((0, s["end_to_end"]), (1, s["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    line, rec = run(w["name"], trace)
                    self.assertEqual(sorted(line),
                                     ["attempted", "correct", "failed",
                                      "metrics"])
                    self.assertTrue(line["correct"], rec["notes"])
                    self.assertEqual(line["failed"], 0)
                    self.assertGreater(line["attempted"], 0)
                    self.assertEqual(sorted(line["metrics"]),
                                     sorted(m["name"] for m in metrics))
                    for m in metrics:
                        got = line["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"])
                        if trace == 0:
                            self.assertGreater(got["value"], 0, m["name"])

    def test_each_check_can_fail(self):
        for workload, fault, checks in FAULTS:
            with self.subTest(workload=workload, fault=fault):
                line, rec = run(workload, fault=fault)
                self.assertFalse(line["correct"])
                failed = sorted(k for k, ok in rec["checks"].items() if not ok)
                self.assertEqual(failed, checks)


class Spec(unittest.TestCase):
    def test_benchmark_json(self):
        s = spec()
        self.assertEqual(sorted(s), ["command", "end_to_end", "paths",
                                     "per_layer", "run_seconds", "workloads"])
        self.assertEqual(s["paths"], ["perfbench"])
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        names = [w["name"] for w in s["workloads"]]
        self.assertEqual(names, ["server-alldead", "heap-audit",
                                 "young-churn"])
        e2e = {m["name"]: m for m in s["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(max(m["bound"] for m in e2e.values()),
                         e2e["setup_s"]["bound"])
        for m in s["end_to_end"]:
            self.assertEqual(sorted(m), ["better", "bound", "name", "unit"])
            self.assertLessEqual(m["bound"], 0.25)
        for m in s["per_layer"]:
            self.assertEqual(sorted(m), ["better", "name", "unit"])
        all_names = names + list(e2e) + [m["name"] for m in s["per_layer"]]
        self.assertEqual(len(all_names), len(set(all_names)))

    def test_refuses_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH_DIR, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("out",
                                                          "__pycache__"))
            env = {k: v for k, v in os.environ.items()
                   if k != "CARGO_TARGET_DIR"}
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "young-churn", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)

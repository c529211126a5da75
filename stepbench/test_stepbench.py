#!/usr/bin/env python3
"""Tests of the step benchmark itself, at tiny sizes.

    python3 stepbench/test_stepbench.py

Builds the benchmark like run.py does (first call: about a minute), then
checks that every workload emits every named metric with its unit, that a
planted hash mismatch fails the run loudly, that the cloud pair agrees on
its StateHash, that generated populations depend only on the seed, and that
a directory without the simulator sources exits non-zero without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the module under test)

RUN_PY = os.path.join(HERE, "run.py")


def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


class StepBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        os.makedirs(run.build_dir(), exist_ok=True)
        cls.tmp = tempfile.mkdtemp(prefix="test-", dir=run.build_dir())

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def bench(self, workload, seed, trace, ledger, cwd=ROOT):
        proc = subprocess.run(
            [sys.executable, RUN_PY, "--workload", workload, "--seed",
             str(seed), "--seconds", "1", "--trace", str(trace), "--size",
             "tiny", "--ledger", ledger],
            cwd=cwd, capture_output=True, text=True, timeout=600)
        return proc

    def result(self, proc):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def hash_of(self, proc):
        for line in proc.stdout.splitlines():
            if line.startswith("workload "):
                return line.split("state_hash ")[1].strip()
        self.fail("no state_hash line")

    def test_every_workload_emits_every_metric_with_its_unit(self):
        m = manifest()
        ledger = os.path.join(self.tmp, "smoke.json")
        for w in (x["name"] for x in m["workloads"]):
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    out = self.result(self.bench(w, 7, trace, ledger))
                    self.assertEqual(
                        set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    self.assertGreaterEqual(out["attempted"], 100)
                    want = {x["name"]: x["unit"] for x in m[section]}
                    got = {k: v["unit"] for k, v in out["metrics"].items()}
                    self.assertEqual(got, want)
                    for k, v in out["metrics"].items():
                        self.assertIsInstance(v["value"], (int, float), k)
                    if trace == 0:
                        for k, v in out["metrics"].items():
                            self.assertGreater(v["value"], 0, k)

    def test_traced_run_ends_on_the_timed_runs_hash(self):
        ledger = os.path.join(self.tmp, "traced.json")
        timed = self.bench("tissue_turnover", 11, 0, ledger)
        traced = self.bench("tissue_turnover", 11, 1, ledger)
        self.assertTrue(self.result(traced)["correct"])
        self.assertEqual(self.hash_of(timed), self.hash_of(traced))

    def test_cloud_pair_shares_one_hash(self):
        ledger = os.path.join(self.tmp, "pair.json")
        sparse = self.bench("sparse_cloud", 5, 0, ledger)
        sharded = self.bench("sharded_cloud", 5, 0, ledger)
        self.assertTrue(self.result(sparse)["correct"])
        self.assertTrue(self.result(sharded)["correct"])
        self.assertEqual(self.hash_of(sparse), self.hash_of(sharded))

    def test_planted_hash_mismatch_fails_loudly(self):
        ledger = os.path.join(self.tmp, "planted.json")
        first = self.result(self.bench("sparse_cloud", 3, 0, ledger))
        self.assertTrue(first["correct"])
        with open(ledger, encoding="utf-8") as f:
            recorded = json.load(f)
        self.assertEqual(len(recorded), 1)
        key = next(iter(recorded))
        recorded[key] = "0123456789abcdef"
        with open(ledger, "w", encoding="utf-8") as f:
            json.dump(recorded, f)
        proc = self.bench("sparse_cloud", 3, 0, ledger)
        out = self.result(proc)
        self.assertFalse(out["correct"])
        self.assertEqual(out["failed"], out["attempted"])
        self.assertIn("CHECK FAILED: hash_ledger", proc.stderr)
        self.assertIn("0123456789abcdef", proc.stderr)

    def test_generated_inputs_depend_only_on_the_seed(self):
        def digest(workload, seed):
            out = subprocess.run(
                [self.binary, "--workload", workload, "--seed", str(seed),
                 "--digest-inputs"], capture_output=True, text=True,
                check=True, env=run.child_env()).stdout
            return json.loads(out.strip().splitlines()[-1])["inputs_digest"]

        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(digest(w, 42), digest(w, 42))
                self.assertNotEqual(digest(w, 42), digest(w, 43))
        self.assertEqual(digest("sparse_cloud", 9),
                         digest("sharded_cloud", 9))

    def test_without_sources_exits_nonzero_and_prints_no_result(self):
        bare = os.path.join(self.tmp, "bare")
        shutil.copytree(HERE, os.path.join(bare, "stepbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, "build"))
        proc = subprocess.run(
            [sys.executable, "stepbench/run.py", "--workload", "sparse_cloud",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=300)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""The benchmark's own tests: every metric is emitted with its unit, and the
correctness checks can fail.

    python3 epochbench/test_bench.py

Runs each workload at --tiny size through run.py (building on first use).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def run(workload, trace, *extra, cwd=ROOT, script=RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "3",
           "--seconds", "2", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class EmitsEveryMetric(unittest.TestCase):
    def check(self, workload, trace):
        r = run(workload, trace)
        self.assertEqual(r.returncode, 0, r.stderr[-2000:])
        lines = r.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        spec = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec})
        for m in spec:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        stamp = json.loads(next(l for l in lines if l.startswith("# stamp "))[8:])
        for key in ("nproc", "compiler", "build_type", "commit", "seed"):
            self.assertTrue(stamp.get(key), key)
        self.assertTrue(any(l.startswith("# regime ") for l in lines))
        return lines

    def test_amr_repart(self):
        for trace in (0, 1):
            self.check("amr-repart", trace)

    def test_drift_halo(self):
        for trace in (0, 1):
            self.check("drift-halo", trace)

    def test_serve_mixed(self):
        for trace in (0, 1):
            self.check("serve-mixed", trace)

    def test_traced_run_writes_spans(self):
        lines = self.check("drift-halo", 1)
        path = next(l for l in lines if l.startswith("# trace "))[8:]
        with open(os.path.join(ROOT, path), encoding="utf-8") as f:
            trace = json.load(f)
        names = {s["name"] for s in trace["spans"]}
        self.assertTrue({"epoch", "workload.build", "core.repart", "parallel.migrate",
                         "parallel.halo", "check.validate"} <= names)
        self.assertIn("core.repart", trace["self_seconds"])


class ChecksCanFail(unittest.TestCase):
    def test_wrong_expected_cut_fails_the_identity_check(self):
        r = run("drift-halo", 0, "--cut-offset", "1")
        self.assertEqual(r.returncode, 1)
        self.assertIn("identity violated", r.stderr)
        self.assertFalse(json.loads(r.stdout.strip().splitlines()[-1])["correct"])

    def test_fails_without_the_library_sources(self):
        # Only BENCHMARK.json and the benchmark's own files: nothing to build.
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(tmp, path))
            r = run("amr-repart", 0, cwd=tmp,
                    script=os.path.join(tmp, os.path.basename(BENCH_DIR), "run.py"))
        self.assertNotEqual(r.returncode, 0)
        self.assertFalse(any(l.startswith("{") for l in r.stdout.splitlines()))


class ServeLimitIsFixed(unittest.TestCase):
    def test_limit_matches_benchmark_json(self):
        why = next(w["why"] for w in SPEC["workloads"] if w["name"] == "serve-mixed")
        limit = re.search(r"p99 limit (\d+) ms", why).group(1)
        with open(os.path.join(BENCH_DIR, "serve_workload.cpp"), encoding="utf-8") as f:
            source = f.read()
        self.assertRegex(source, rf"kP99LimitMs = {limit}\.0;")


if __name__ == "__main__":
    unittest.main(verbosity=2)

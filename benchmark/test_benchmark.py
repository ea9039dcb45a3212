"""Tests for the benchmark, registered with ctest in CMakeLists.txt.

CompareTest pins compare.py's verdicts on synthetic result files.
SmokeTest runs the driver named by $M4X4_BENCHMARK_BIN in --smoke mode
with the traced pass and checks that its output names every metric of
BENCHMARK.json with its unit, that the traced pass wrote its files, and
that the run stays within its 30 s budget.
"""

import copy
import json
import os
import subprocess
import tempfile
import time
import unittest

import compare

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def summary(samples):
    ordered = sorted(samples)
    n = len(ordered)
    median = (ordered[(n - 1) // 2] + ordered[n // 2]) / 2
    return {"median": median, "q1": ordered[n // 4], "q3": ordered[(3 * n) // 4],
            "min": ordered[0], "max": ordered[-1], "n": n, "samples": samples}


def result(scale=1.0, jitter=0.01, failed_ratio=0.0, digest="00ff"):
    """A result file whose every metric sits near 10 * scale."""
    samples = [10 * scale * (1 + jitter * k) for k in (-2, -1, 0, 1, 2)]
    metrics = {m["name"]: summary(samples) for m in SPEC["end_to_end"]}
    return {"workloads": {"bulk_tcp": {"metrics": metrics, "failed_ratio": failed_ratio,
                                       "digest": digest}}}


class CompareTest(unittest.TestCase):
    def run_compare(self, parent, change):
        rows, failed = compare.compare(SPEC, parent, change)
        self.assertEqual(len(rows), 1)
        return rows[0], failed

    def test_identical_runs_pass(self):
        row, failed = self.run_compare(result(), result())
        self.assertFalse(failed)
        self.assertNotIn("REGRESSION", row)
        self.assertIn("digest same", row)

    def test_slowdown_beyond_bound_is_a_regression(self):
        bound = max(m["bound"] for m in SPEC["end_to_end"])
        row, failed = self.run_compare(result(), result(scale=1 + 2 * bound))
        self.assertTrue(failed)
        self.assertIn("REGRESSION", row)

    def test_slowdown_within_bound_passes(self):
        bound = min(m["bound"] for m in SPEC["end_to_end"])
        _, failed = self.run_compare(result(), result(scale=1 + bound / 2))
        self.assertFalse(failed)

    def test_wide_spread_is_unresolved_not_a_regression(self):
        bound = max(m["bound"] for m in SPEC["end_to_end"])
        row, failed = self.run_compare(result(jitter=bound), result(scale=1 + 2 * bound, jitter=bound))
        self.assertFalse(failed)
        self.assertIn("unresolved", row)

    def test_wide_spread_with_every_rep_faster_is_better(self):
        bound = max(m["bound"] for m in SPEC["end_to_end"])
        row, failed = self.run_compare(result(jitter=bound), result(scale=0.2, jitter=bound))
        self.assertFalse(failed)
        self.assertIn("better", row)

    def test_higher_is_better_metrics_judge_a_drop(self):
        spec = copy.deepcopy(SPEC)
        for m in spec["end_to_end"]:
            m["better"] = "higher"
        _, failed = compare.compare(spec, result(), result(scale=0.5))
        self.assertTrue(failed)
        _, failed = compare.compare(spec, result(), result(scale=2.0))
        self.assertFalse(failed)

    def test_any_rise_in_failed_ratio_fails(self):
        row, failed = self.run_compare(result(), result(failed_ratio=1e-6))
        self.assertTrue(failed)
        self.assertIn("failed_ratio", row)

    def test_changed_digest_is_reported(self):
        row, failed = self.run_compare(result(), result(digest="0100"))
        self.assertFalse(failed)
        self.assertIn("digest DIFFERS", row)

    def test_main_exit_status(self):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, doc in enumerate((result(), result(scale=3.0))):
                paths.append(os.path.join(tmp, f"{i}.json"))
                with open(paths[-1], "w") as f:
                    json.dump(doc, f)
            self.assertEqual(compare.main([paths[0], paths[0]]), 0)
            self.assertEqual(compare.main([paths[0], paths[1]]), 1)


class SmokeTest(unittest.TestCase):
    def test_smoke_run_names_every_metric_with_its_unit(self):
        binary = os.environ.get("M4X4_BENCHMARK_BIN")
        if not binary:
            self.skipTest("M4X4_BENCHMARK_BIN is not set")
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "smoke.json")
            trace = os.path.join(tmp, "trace")
            start = time.monotonic()
            proc = subprocess.run([binary, "--smoke", "--trace", trace, "--out", out],
                                  capture_output=True, text=True, timeout=60)
            elapsed = time.monotonic() - start
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
            self.assertLessEqual(elapsed, 30.0)

            lines = proc.stdout.splitlines()
            rows = {tuple(line.split()[:2]) for line in lines if line.startswith("  ")}
            for m in SPEC["end_to_end"] + SPEC["per_layer"]:
                self.assertIn((m["name"], m["unit"]), rows, m["name"])

            last = json.loads(lines[-1])
            self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(last["correct"])
            self.assertGreaterEqual(last["attempted"], 1)
            expected = {f"{w}.{m['name']}" for w in WORKLOADS for m in SPEC["per_layer"]}
            self.assertEqual(set(last["metrics"]), expected)

            with open(out) as f:
                doc = json.load(f)
            for key in ("nproc", "effective_parallelism", "cpu_model", "build_type",
                        "git_revision"):
                self.assertIn(key, doc["machine"])
            self.assertEqual(doc["machine"]["build_type"], "Release")
            for w in WORKLOADS:
                self.assertTrue(doc["workloads"][w]["correct"])
                with open(os.path.join(trace, f"{w}.layers.json")) as f:
                    layers = json.load(f)
                for m in SPEC["per_layer"]:
                    self.assertIn(m["name"], layers["metrics"])
                self.assertIn("trace_overhead_pct", layers)
                self.assertTrue(os.path.getsize(os.path.join(trace, f"{w}.perfetto.json")) > 0)


if __name__ == "__main__":
    unittest.main()

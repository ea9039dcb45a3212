#!/usr/bin/env python3
"""Unit tests for the CI gate scripts (PR 8 satellite): the perf
trendline gate (check_perf_trend.py) and the docs-vs-schema gate
(check_docs_schema.py). Both scripts decide whether CI goes red, so
their pass/fail/vacuous edges deserve the same test coverage as the
C++ validators they front.

Runs under plain unittest (no third-party deps):

    python3 bench/test_gate_scripts.py -v

and is wired into ctest as `gate_scripts` so the CI default job runs it.
The scripts are imported as modules and exercised through their main()
entry points; check_docs_schema's `validate_metrics --dump-schema`
dependency is replaced by a tiny shell stub, so these tests pin the
scripts' parsing and exit-code contracts independently of the C++
binary (bench_smoke covers the real-binary integration).
"""

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import check_docs_schema  # noqa: E402
import check_perf_trend  # noqa: E402


def run_main(module, argv):
    """Invoke module.main with stdout/stderr captured.

    Returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = module.main(["prog"] + argv)
    return code, out.getvalue(), err.getvalue()


def perf_doc(*, smoke, scenario_rate=1000.0, city_rate=5000.0,
             traced_pct=None, obs_pct=None, blocks=None, queue_work=None):
    """A minimal BENCH_perf.json document with the fields the gate reads."""
    scenario = {"name": "basic", "baseline": {"events_per_sec": scenario_rate}}
    if queue_work is not None:
        scenario["baseline"].update(queue_work)
    if traced_pct is not None:
        scenario["overhead"] = {"traced_overhead_pct": traced_pct}
    city = {"events_per_sec": city_rate}
    if obs_pct is not None:
        city["observability"] = {"overhead_pct": obs_pct}
    doc = {"kind": "bench_perf", "smoke": smoke,
           "scenarios": [scenario], "city": city}
    for name, rate in (blocks or {}).items():
        doc[name] = {"events_per_sec": rate}
    return doc


class PerfTrendTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        self.dir = Path(self._tmp.name)

    def write(self, name, doc):
        path = self.dir / name
        path.write_text(json.dumps(doc))
        return str(path)

    def check(self, baseline, fresh, extra=None):
        argv = [self.write("baseline.json", baseline),
                self.write("fresh.json", fresh)] + (extra or [])
        return run_main(check_perf_trend, argv)

    def test_usage_error_is_exit_2(self):
        code, _, err = run_main(check_perf_trend, ["only-one-arg"])
        self.assertEqual(code, 2)
        self.assertIn("Usage", err)

    def test_passes_when_rates_hold(self):
        code, out, _ = self.check(perf_doc(smoke=True),
                                  perf_doc(smoke=True, scenario_rate=1100.0))
        self.assertEqual(code, 0)
        self.assertIn("check_perf_trend: OK", out)

    def test_fails_on_regression_beyond_threshold(self):
        code, out, _ = self.check(
            perf_doc(smoke=True, scenario_rate=1000.0),
            perf_doc(smoke=True, scenario_rate=700.0))  # -30% > 20% default
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", out)
        self.assertIn("scenario:basic", out)

    def test_threshold_is_exclusive_at_the_boundary(self):
        # cur == base * (1 - threshold) is NOT a regression; one tick
        # below is. This edge is what --threshold tuning leans on.
        at_edge = self.check(perf_doc(smoke=True, scenario_rate=1000.0),
                             perf_doc(smoke=True, scenario_rate=800.0),
                             ["--threshold=0.20"])
        below = self.check(perf_doc(smoke=True, scenario_rate=1000.0),
                           perf_doc(smoke=True, scenario_rate=799.0),
                           ["--threshold=0.20"])
        self.assertEqual(at_edge[0], 0)
        self.assertEqual(below[0], 1)

    def test_every_block_headline_is_gated(self):
        # Each bench's top-level block names its own events/sec headline
        # (abl_overload's "overload", abl_cc_handoff's "cc"); a block the
        # gate has never seen is gated the same way, with no script edit.
        for name in ("overload", "cc", "some_future_bench"):
            code, out, _ = self.check(
                perf_doc(smoke=True, blocks={name: 3000.0}),
                perf_doc(smoke=True, blocks={name: 1800.0}))  # -40%
            self.assertEqual(code, 1, name)
            self.assertIn(name, out)
            self.assertIn("REGRESSION", out)
            code, _, _ = self.check(
                perf_doc(smoke=True, blocks={name: 3000.0}),
                perf_doc(smoke=True, blocks={name: 2850.0}))
            self.assertEqual(code, 0, name)

    def test_threshold_space_separated_form(self):
        code, _, _ = self.check(perf_doc(smoke=True, scenario_rate=1000.0),
                                perf_doc(smoke=True, scenario_rate=700.0),
                                ["--threshold", "0.35"])
        self.assertEqual(code, 0)

    def test_smoke_mismatch_passes_vacuously(self):
        # A smoke run vs a full baseline says nothing; the gate must not
        # lie in either direction.
        code, out, _ = self.check(
            perf_doc(smoke=False, scenario_rate=1000.0),
            perf_doc(smoke=True, scenario_rate=1.0))
        self.assertEqual(code, 0)
        self.assertIn("vacuously", out)

    def test_added_and_retired_scenarios_are_not_gated(self):
        baseline = perf_doc(smoke=True)
        fresh = perf_doc(smoke=True)
        fresh["scenarios"] = [
            {"name": "brand-new", "baseline": {"events_per_sec": 1.0}}]
        code, out, _ = self.check(baseline, fresh)
        self.assertEqual(code, 0)
        self.assertIn("(new)", out)
        self.assertIn("(gone)", out)

    def test_overhead_budgets_enforced_on_full_documents(self):
        over_traced = self.check(
            perf_doc(smoke=False),
            perf_doc(smoke=False,
                     traced_pct=check_perf_trend.TRACED_BUDGET_PCT + 1.0))
        over_obs = self.check(
            perf_doc(smoke=False),
            perf_doc(smoke=False,
                     obs_pct=check_perf_trend.CITY_OBS_BUDGET_PCT + 1.0))
        self.assertEqual(over_traced[0], 1)
        self.assertIn("traced overhead", over_traced[1])
        self.assertEqual(over_obs[0], 1)
        self.assertIn("sampler overhead", over_obs[1])

    def test_overhead_budgets_pass_within_budget(self):
        code, out, _ = self.check(
            perf_doc(smoke=False),
            perf_doc(smoke=False,
                     traced_pct=check_perf_trend.TRACED_BUDGET_PCT - 1.0,
                     obs_pct=check_perf_trend.CITY_OBS_BUDGET_PCT - 1.0))
        self.assertEqual(code, 0)
        self.assertIn("overhead budget", out)

    def test_overhead_budgets_skipped_on_smoke_documents(self):
        # Smoke ratios are noise-dominated; a huge smoke overhead must
        # not fail the gate.
        code, out, _ = self.check(
            perf_doc(smoke=True),
            perf_doc(smoke=True, traced_pct=400.0, obs_pct=400.0))
        self.assertEqual(code, 0)
        self.assertIn("budgets not enforced", out)

    def test_budgets_enforced_even_when_trendline_is_vacuous(self):
        # Budgets are absolute properties of the fresh run; a smoke
        # baseline must not launder a blown full-run budget.
        code, _, _ = self.check(
            perf_doc(smoke=True),
            perf_doc(smoke=False, obs_pct=99.0))
        self.assertEqual(code, 1)

    def test_queue_work_at_the_bounds_passes(self):
        code, _, _ = self.check(
            perf_doc(smoke=True),
            perf_doc(smoke=True, queue_work=dict(check_perf_trend.QUEUE_WORK_BOUNDS)))
        self.assertEqual(code, 0)

    def test_queue_work_bounds_bind_on_smoke_documents(self):
        # Deterministic counters mean the same at smoke scale, unlike the
        # wall-clock figures, so a smoke document goes red.
        for field, bound in check_perf_trend.QUEUE_WORK_BOUNDS.items():
            code, out, _ = self.check(
                perf_doc(smoke=True),
                perf_doc(smoke=True, queue_work={field: bound + 0.01}))
            self.assertEqual(code, 1, field)
            self.assertIn(field, out)
            self.assertIn("scenario:basic.baseline", out)

    def test_pool_acquires_per_datagram_is_bounded(self):
        # A router that serializes every transit hop again draws about one
        # pool buffer per datagram; forwarding in the received buffer
        # draws one per datagram sent only.
        bound = check_perf_trend.DATAPATH_WORK_BOUNDS["pool_acquires_per_datagram"]
        code, _, _ = self.check(
            perf_doc(smoke=True),
            perf_doc(smoke=True, queue_work={"pool_acquires_per_datagram": bound}))
        self.assertEqual(code, 0)
        code, out, _ = self.check(
            perf_doc(smoke=True),
            perf_doc(smoke=True, queue_work={"pool_acquires_per_datagram": 1.14}))
        self.assertEqual(code, 1)
        self.assertIn("pool_acquires_per_datagram", out)
        self.assertIn("scenario:basic.baseline", out)

    def test_city_queue_work_is_bounded(self):
        # bench_city's seed-1 run: within the bounds passes, past either
        # one fails, smoke document or not.
        fresh = perf_doc(smoke=True)
        fresh["city"].update(check_perf_trend.QUEUE_WORK_BOUNDS)
        code, _, _ = self.check(perf_doc(smoke=True), fresh)
        self.assertEqual(code, 0)
        for field, bound in check_perf_trend.QUEUE_WORK_BOUNDS.items():
            fresh = perf_doc(smoke=True)
            fresh["city"][field] = bound + 0.01
            code, out, _ = self.check(perf_doc(smoke=True), fresh)
            self.assertEqual(code, 1, field)
            self.assertIn(f"city: {field}", out)

    def test_queue_work_checked_on_overhead_legs(self):
        fresh = perf_doc(smoke=True)
        fresh["scenarios"][0]["overhead"] = {"traced": {"shifts_per_push": 100.0}}
        code, out, _ = self.check(perf_doc(smoke=True), fresh)
        self.assertEqual(code, 1)
        self.assertIn("overhead.traced", out)


class DocsSchemaTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        self.dir = Path(self._tmp.name)
        self.docs = self.dir / "docs"
        self.docs.mkdir()

    def make_stub(self, pairs):
        """An executable stand-in for `validate_metrics --dump-schema`."""
        stub = self.dir / "stub_validate_metrics"
        lines = "".join(f"echo '{section} {field}'\n" for section, field in pairs)
        stub.write_text("#!/bin/sh\n" + lines)
        stub.chmod(0o755)
        return str(stub)

    def write_doc(self, name, text):
        (self.docs / name).write_text(text)

    def check(self, stub):
        return run_main(check_docs_schema, [stub, str(self.docs)])

    STUB_PAIRS = [("timeseries", "samples"), ("timeseries", "points"),
                  ("incident", "truncated")]

    def test_usage_error_is_exit_2(self):
        code, _, _ = run_main(check_docs_schema, [])
        self.assertEqual(code, 2)

    def test_no_markdown_files_is_exit_2(self):
        code, _, err = self.check(self.make_stub(self.STUB_PAIRS))
        self.assertEqual(code, 2)
        self.assertIn("no markdown files", err)

    def test_consistent_docs_pass(self):
        self.write_doc("FORMAT.md", "\n".join([
            "| Field | Meaning |",
            "| --- | --- |",
            "| `samples` | ticks taken |",
            "| `points` | per-series rows |",
            "",
        ]))
        code, out, _ = self.check(self.make_stub(self.STUB_PAIRS))
        self.assertEqual(code, 0)
        self.assertIn("2 field reference(s)", out)

    def test_stale_reference_fails_with_location(self):
        self.write_doc("FORMAT.md", "\n".join([
            "| Field | Meaning |",
            "| --- | --- |",
            "| `samples` | fine |",
            "| `renamed_away` | the exporter no longer writes this |",
            "",
        ]))
        code, _, err = self.check(self.make_stub(self.STUB_PAIRS))
        self.assertEqual(code, 1)
        self.assertIn("renamed_away", err)
        self.assertIn("FORMAT.md:4", err)

    def test_dotted_paths_check_every_segment(self):
        # `trace.truncated`-style nesting: each segment must be a real
        # exported field on its own.
        self.write_doc("FORMAT.md", "\n".join([
            "| Field | Meaning |",
            "| --- | --- |",
            "| `points.truncated` | ok: both segments exported |",
            "| `points.missing_leaf` | stale leaf |",
            "",
        ]))
        code, _, err = self.check(self.make_stub(self.STUB_PAIRS))
        self.assertEqual(code, 1)
        self.assertIn("missing_leaf", err)
        self.assertNotIn("`points`", err)

    def test_tables_without_field_column_are_ignored(self):
        self.write_doc("NOTES.md", "\n".join([
            "| Flag | Meaning |",
            "| --- | --- |",
            "| `--definitely-not-a-field` | CLI flag, not schema |",
            "",
            "| Field | Meaning |",
            "| --- | --- |",
            "| `samples` | checked |",
            "",
        ]))
        code, out, _ = self.check(self.make_stub(self.STUB_PAIRS))
        self.assertEqual(code, 0)
        self.assertIn("1 field reference(s)", out)

    def test_empty_schema_dump_is_an_error(self):
        with self.assertRaises(RuntimeError):
            check_docs_schema.dumped_fields(self.make_stub([]))


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Perf trendline gate (ISSUE 6 satellite): compare a freshly measured
BENCH_perf.json against the committed baseline and fail when events/sec
regressed by more than the threshold on any scenario.

Usage: check_perf_trend.py <baseline.json> <fresh.json> [--threshold 0.20]

Rules:
  - Only documents with matching "smoke" flags are compared. A smoke run
    measured against a full-scenario baseline (or vice versa) says
    nothing about performance, so the mismatch is reported and the gate
    passes vacuously rather than lying either way.
  - Compared rates: scenarios[].baseline.events_per_sec (bench_perf's
    ladder, keyed by scenario name) and the events_per_sec of every
    top-level block that names one (bench_city's "city", abl_overload's
    "overload", abl_cc_handoff's "cc", and any block a new bench adds).
    Figures present on only one side are listed but not gated — adding
    or retiring a scenario or bench must not break CI.
  - Wall-clock noise is real even at 2 reps; the default threshold (20%)
    is deliberately loose. Tighten it only with a quieter runner.
  - Tracing-overhead budgets (ISSUE 7): on non-smoke fresh documents,
    scenarios[].overhead.traced_overhead_pct must stay <= 25% and
    city.observability.overhead_pct <= 8% (the delta-feed sampler's
    wall vs sampler-off; measured 5% on the full city, where the run
    is mutation-dominated). Smoke runs are millisecond-
    scale and the ratios are dominated by noise, so the budgets only
    apply to full-scale documents. Budgets are absolute properties of
    the fresh run — no baseline needed — so they are still enforced
    when the trendline comparison passes vacuously.
  - Work-counter bounds: every run object of every scenario row
    (baseline, fault_attached, instrumented and the overhead legs)
    must keep the event queue's shifts_per_push and scans_per_pop
    within QUEUE_WORK_BOUNDS and the datapath's
    pool_acquires_per_datagram within DATAPATH_WORK_BOUNDS; bench_city's
    "city" block (its seed-1 run) must keep its queue work within
    QUEUE_WORK_BOUNDS too. The counters are deterministic, so these
    bounds bind on smoke documents too; rows without the fields (older
    documents) are not checked.

Exit status: 0 = no regression (or vacuous), 1 = regression or budget
exceeded, 2 = usage.
"""

import json
import sys


def rates_of(doc):
    """name -> events/sec for every comparable figure in the document."""
    rates = {}
    for sc in doc.get("scenarios", []):
        base = sc.get("baseline", {})
        if "name" in sc and "events_per_sec" in base:
            rates["scenario:" + sc["name"]] = base["events_per_sec"]
    for name, block in doc.items():
        if isinstance(block, dict) and "events_per_sec" in block:
            rates[name] = block["events_per_sec"]
    return rates


TRACED_BUDGET_PCT = 25.0
CITY_OBS_BUDGET_PCT = 8.0

# Twice the largest value measured on bench_perf's smoke and full rows
# and on the four benchmark/ workloads once the calendar queue sized its
# days from the head of the queue: 3.35 shifts per push (smoke `small`),
# 1.23 scans per pop (full `small`, instrumented).
QUEUE_WORK_BOUNDS = {"shifts_per_push": 6.7, "scans_per_pop": 2.5}
# Twice the largest value measured on bench_perf's smoke and full rows
# once routers forwarded transit datagrams in their received buffer:
# 0.428 buffer-pool acquires per datagram sent or forwarded (full
# `small`). Serializing every transit hop again read 1.14-1.21 on the
# smoke rows.
DATAPATH_WORK_BOUNDS = {"pool_acquires_per_datagram": 0.86}
WORK_BOUNDS = {**QUEUE_WORK_BOUNDS, **DATAPATH_WORK_BOUNDS}
WORK_RUNS = ("baseline", "fault_attached", "instrumented")
WORK_OVERHEAD_RUNS = ("untraced", "traced", "sampled")


def check_work_counters(fresh):
    """Absolute bounds on the per-operation work counters (WORK_BOUNDS).

    Returns a list of violation strings (empty = within bounds). Applies
    to smoke and full documents alike: the counters are deterministic.
    """
    checks = []  # (label, run object, bounds)
    for sc in fresh.get("scenarios", []):
        name = "scenario:" + sc.get("name", "?")
        runs = [(leg, sc.get(leg)) for leg in WORK_RUNS]
        overhead = sc.get("overhead") or {}
        runs += [("overhead." + leg, overhead.get(leg)) for leg in WORK_OVERHEAD_RUNS]
        checks += [(f"{name}.{leg}", run, WORK_BOUNDS) for leg, run in runs]
    checks.append(("city", fresh.get("city"), QUEUE_WORK_BOUNDS))
    violations = []
    for label, run, bounds in checks:
        for field, bound in bounds.items():
            if run and field in run and run[field] > bound:
                violations.append(
                    f"{label}: {field} {run[field]:.2f} exceeds bound {bound:.2f}"
                )
    return violations


def check_overhead_budgets(fresh):
    """Absolute tracing-overhead budgets on a full-scale fresh document.

    Returns a list of violation strings (empty = within budget). Smoke
    documents are skipped by the caller. Documents predating the
    overhead block (schema_version < 3) have nothing to check and pass.
    """
    violations = []
    rows = []
    for sc in fresh.get("scenarios", []):
        overhead = sc.get("overhead")
        if not overhead:
            continue
        name = "scenario:" + sc.get("name", "?")
        pct = overhead.get("traced_overhead_pct")
        if pct is None:
            continue
        rows.append((name, pct, TRACED_BUDGET_PCT))
        if pct > TRACED_BUDGET_PCT:
            violations.append(
                f"{name}: traced overhead {pct:+.1f}% exceeds "
                f"budget {TRACED_BUDGET_PCT:.0f}%"
            )
    obs = fresh.get("city", {}).get("observability")
    if obs and "overhead_pct" in obs:
        pct = obs["overhead_pct"]
        rows.append(("city:observability", pct, CITY_OBS_BUDGET_PCT))
        if pct > CITY_OBS_BUDGET_PCT:
            violations.append(
                f"city:observability: sampler overhead {pct:+.1f}% exceeds "
                f"budget {CITY_OBS_BUDGET_PCT:.0f}%"
            )
    if rows:
        print(f"\n{'overhead budget':<22} {'measured':>10} {'budget':>8}")
        for name, pct, budget in rows:
            mark = "  OVER BUDGET" if pct > budget else ""
            print(f"{name:<22} {pct:>+9.1f}% {budget:>7.0f}%{mark}")
    return violations


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    threshold = 0.20
    for a in argv[1:]:
        if a.startswith("--threshold"):
            threshold = float(a.split("=", 1)[1] if "=" in a else args.pop())
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    baseline_path, fresh_path = args

    with open(baseline_path) as f:
        baseline = json.load(f)
    with open(fresh_path) as f:
        fresh = json.load(f)

    regressions = []
    if baseline.get("smoke") != fresh.get("smoke"):
        print(
            "check_perf_trend: smoke flags differ "
            f"(baseline={baseline.get('smoke')}, fresh={fresh.get('smoke')}); "
            "nothing comparable — trendline passes vacuously."
        )
    else:
        base_rates = rates_of(baseline)
        fresh_rates = rates_of(fresh)
        print(f"{'figure':<20} {'baseline':>14} {'fresh':>14} {'delta':>8}")
        for name in sorted(set(base_rates) | set(fresh_rates)):
            if name not in base_rates:
                print(f"{name:<20} {'-':>14} {fresh_rates[name]:>14.0f}   (new)")
                continue
            if name not in fresh_rates:
                print(f"{name:<20} {base_rates[name]:>14.0f} {'-':>14}   (gone)")
                continue
            base, cur = base_rates[name], fresh_rates[name]
            delta = (cur - base) / base if base > 0 else 0.0
            mark = ""
            if base > 0 and cur < base * (1.0 - threshold):
                regressions.append((name, base, cur, delta))
                mark = "  REGRESSION"
            print(f"{name:<20} {base:>14.0f} {cur:>14.0f} {delta:>+7.1%}{mark}")

    if fresh.get("smoke"):
        print(
            "check_perf_trend: fresh document is a smoke run — "
            "overhead budgets not enforced."
        )
        violations = []
    else:
        violations = check_overhead_budgets(fresh)
    violations += check_work_counters(fresh)

    if regressions or violations:
        if regressions:
            print(
                f"\ncheck_perf_trend: FAIL — {len(regressions)} figure(s) "
                f"regressed more than {threshold:.0%} vs {baseline_path}"
            )
        for v in violations:
            print(f"check_perf_trend: FAIL — {v}")
        return 1
    print(f"\ncheck_perf_trend: OK (threshold {threshold:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

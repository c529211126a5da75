#!/usr/bin/env python3
"""Validate observability artifacts produced by biosim_run.

Checks that a Chrome-trace JSON, a metrics JSONL stream, a run-report
JSON, and a flight-recorder dump are well-formed and match the schemas
documented in docs/observability.md. Used by CI after the traced smoke run;
handy locally too:

    biosim_run cfg.ini --trace t.json --metrics m.jsonl --report r.json
    scripts/validate_obs.py --trace t.json --metrics m.jsonl --report r.json

Given both --trace and --report, it also checks that the views agree: every
profile stage (an "op/<name>/ms" histogram, not counting the device-clock
"... (sim)" rows) is a host trace span name with the same call count and
the same summed time within 1 ns per call, and when perf counters were
available, perf_counters.ops holds exactly those stages.

Report versions 1 and 2 are both accepted (the v1->v2 change is documented
in src/obs/report.h); v2 additionally requires environment.worker_threads
and validates the optional "perf_counters" / "roofline" sections.

Exits non-zero with a message on the first violation.
"""

import argparse
import json
import re
import sys

SUPPORTED_REPORT_VERSIONS = (1, 2)


def fail(msg):
    print(f"validate_obs: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path, what):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{what} {path}: {e}")


def validate_trace(path):
    doc = load(path, "trace")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents missing or empty")
    if "dropped_events" not in doc.get("otherData", {}):
        fail(f"{path}: otherData.dropped_events missing")

    processes = {}  # pid -> name
    spans = 0
    last_ts = {}  # (pid, tid) -> ts
    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph == "M":
            if e.get("name") == "process_name":
                processes[e["pid"]] = e["args"]["name"]
            continue
        if ph != "X":
            fail(f"{path}: event {i} has unexpected phase {ph!r}")
        for key in ("name", "pid", "tid", "ts", "dur"):
            if key not in e:
                fail(f"{path}: span {i} missing {key!r}")
        if e["dur"] < 0:
            fail(f"{path}: span {i} ({e['name']}) has negative duration")
        track = (e["pid"], e["tid"])
        if e["ts"] < last_ts.get(track, float("-inf")):
            fail(f"{path}: timestamps regress on track {track}")
        last_ts[track] = e["ts"]
        spans += 1

    if spans == 0:
        fail(f"{path}: no spans recorded")
    if "host" not in processes.values():
        fail(f"{path}: no 'host' process track")
    print(f"validate_obs: trace OK: {spans} spans, "
          f"{len(processes)} processes ({', '.join(processes.values())}), "
          f"{doc['otherData']['dropped_events']} dropped")


GRID_COUNTERS = ("grid/full_rebuilds", "grid/boxes", "grid/occupied_boxes")
# Exported by the incremental grid patch path, which no longer exists.
REMOVED_GRID_COUNTERS = ("grid/incremental_updates", "grid/rebinned_agents")


def validate_grid_counters(path, lineno, counters):
    """Uniform-grid runs export all three grid/* counters, consistently."""
    for name in REMOVED_GRID_COUNTERS:
        if name in counters:
            fail(f"{path}:{lineno}: removed counter {name} is still exported")
    present = [c for c in GRID_COUNTERS if c in counters]
    if not present:
        return
    if len(present) != len(GRID_COUNTERS):
        missing = sorted(set(GRID_COUNTERS) - set(present))
        fail(f"{path}:{lineno}: grid counters incomplete, missing {missing}")
    if counters["grid/occupied_boxes"] > counters["grid/boxes"]:
        fail(f"{path}:{lineno}: grid/occupied_boxes "
             f"{counters['grid/occupied_boxes']} exceeds grid/boxes "
             f"{counters['grid/boxes']}")


def validate_metrics(path):
    lines = 0
    prev_step = 0
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                fail(f"{path}:{lineno}: blank line in JSONL stream")
            try:
                snap = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{lineno}: {e}")
            step = snap.get("step")
            if not isinstance(step, int) or step <= prev_step:
                fail(f"{path}:{lineno}: step {step!r} not increasing")
            prev_step = step
            if not any(k in snap for k in
                       ("counters", "gauges", "histograms")):
                fail(f"{path}:{lineno}: snapshot has no metric sections")
            validate_grid_counters(path, lineno, snap.get("counters", {}))
            lines += 1
    if lines == 0:
        fail(f"{path}: no snapshots")
    print(f"validate_obs: metrics OK: {lines} snapshots, "
          f"last step {prev_step}")


def validate_perf_counters(path, perf):
    if not isinstance(perf, dict) or "available" not in perf:
        fail(f"{path}: perf_counters.available missing")
    if not perf["available"]:
        if not perf.get("reason"):
            fail(f"{path}: unavailable perf_counters needs a reason")
        return "unavailable"
    ops = perf.get("ops")
    if not isinstance(ops, dict) or not ops:
        fail(f"{path}: perf_counters.ops missing or empty")
    for op, row in ops.items():
        for key in ("samples", "cycles", "instructions", "ipc"):
            if key not in row:
                fail(f"{path}: perf_counters.ops[{op!r}] missing {key!r}")
        if row["samples"] <= 0:
            fail(f"{path}: perf_counters.ops[{op!r}] has no samples")
    return f"{len(ops)} ops"


def validate_roofline(path, roof):
    ops = roof.get("ops")
    if not isinstance(ops, dict) or not ops:
        fail(f"{path}: roofline.ops missing or empty")
    for op, row in ops.items():
        if "wall_ms" not in row:
            fail(f"{path}: roofline.ops[{op!r}].wall_ms missing")
        model = row.get("model")
        if model is not None and "flops" not in model:
            fail(f"{path}: roofline.ops[{op!r}].model.flops missing")


def validate_report(path):
    doc = load(path, "report")
    version = doc.get("report_version")
    if version not in SUPPORTED_REPORT_VERSIONS:
        fail(f"{path}: report_version {version!r}, expected one of "
             f"{SUPPORTED_REPORT_VERSIONS}")
    for key in ("tool", "environment", "config"):
        if key not in doc:
            fail(f"{path}: missing {key!r}")
    env = doc["environment"]
    if "compiler" not in env:
        fail(f"{path}: environment.compiler missing")
    extra = ""
    if version >= 2:
        for key in ("hardware_threads", "worker_threads"):
            if key not in env:
                fail(f"{path}: environment.{key} missing (required in v2)")
        if "perf_counters" in doc:
            extra += ", perf_counters " + validate_perf_counters(
                path, doc["perf_counters"])
        if "roofline" in doc:
            validate_roofline(path, doc["roofline"])
            extra += ", roofline OK"
    print(f"validate_obs: report OK: tool={doc['tool']} "
          f"version={version}{extra}")


STAGE_HIST = re.compile(r"op/(.+)/ms")


def validate_cross_views(trace_path, report_path):
    """One stage instrument feeds the profile, trace and perf views."""
    trace = load(trace_path, "trace")
    report = load(report_path, "report")
    dropped = trace.get("otherData", {}).get("dropped_events", 0)
    if dropped:
        fail(f"{trace_path}: {dropped} dropped events; the trace cannot be "
             f"compared with the profile")
    host = {e["pid"] for e in trace["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "process_name"
            and e["args"]["name"] == "host"}
    spans = {}  # name -> [calls, summed µs]
    for e in trace["traceEvents"]:
        if e.get("ph") == "X" and e["pid"] in host:
            row = spans.setdefault(e["name"], [0, 0.0])
            row[0] += 1
            row[1] += e["dur"]
    stages = {}
    hists = report.get("metrics", {}).get("histograms", {})
    for key, h in hists.items():
        m = STAGE_HIST.fullmatch(key)
        if m and not m.group(1).endswith(" (sim)"):
            stages[m.group(1)] = h
    if not stages:
        fail(f"{report_path}: no op/<stage>/ms histograms")
    for name, h in stages.items():
        if name not in spans:
            fail(f"profile stage {name!r} has no trace span")
        calls, trace_us = spans[name]
        if calls != h["count"]:
            fail(f"stage {name!r}: {calls} trace spans, {h['count']} "
                 f"profile samples")
        gap_ns = abs(trace_us * 1e3 - h["sum"] * 1e6)
        if gap_ns > calls:
            fail(f"stage {name!r}: trace {trace_us:.3f} us vs profile "
                 f"{h['sum'] * 1e3:.3f} us, {gap_ns / calls:.1f} ns per "
                 f"call apart (bound 1 ns)")
    perf = report.get("perf_counters", {})
    if perf.get("available"):
        ops = set(perf.get("ops", {}))
        if ops != set(stages):
            fail(f"perf_counters.ops {sorted(ops)} differs from the profile "
                 f"stages {sorted(stages)}")
    print(f"validate_obs: views agree: {len(stages)} stages in the profile "
          f"and the trace" + (", perf_counters.ops" if perf.get("available")
                              else ""))


def validate_flight(path):
    doc = load(path, "flight recorder dump")
    if doc.get("flight_recorder_version") != 1:
        fail(f"{path}: flight_recorder_version "
             f"{doc.get('flight_recorder_version')!r}, expected 1")
    reason = doc.get("reason")
    if reason not in ("signal", "determinism-divergence", "manual"):
        fail(f"{path}: unexpected reason {reason!r}")
    if reason == "signal" and not isinstance(doc.get("signal"), int):
        fail(f"{path}: signal dump missing the signal number")
    steps = doc.get("steps")
    if not isinstance(steps, list):
        fail(f"{path}: steps missing")
    prev = -1
    for i, s in enumerate(steps):
        for key in ("step", "state_hash", "agents", "wall_ms"):
            if key not in s:
                fail(f"{path}: steps[{i}] missing {key!r}")
        if s["step"] <= prev:
            fail(f"{path}: steps[{i}] not in increasing step order")
        prev = s["step"]
        if not re.fullmatch(r"[0-9a-f]{16}", s["state_hash"]):
            fail(f"{path}: steps[{i}].state_hash not a 16-digit hex string")
    print(f"validate_obs: flight dump OK: reason={reason}, "
          f"{len(steps)} steps held, {doc.get('recorded_steps')} recorded")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", help="Chrome-trace JSON to validate")
    parser.add_argument("--metrics", help="metrics JSONL to validate")
    parser.add_argument("--report", help="run-report JSON to validate")
    parser.add_argument("--flight", help="flight-recorder dump to validate")
    args = parser.parse_args()
    if not (args.trace or args.metrics or args.report or args.flight):
        parser.error(
            "nothing to validate; pass --trace/--metrics/--report/--flight")
    if args.trace:
        validate_trace(args.trace)
    if args.metrics:
        validate_metrics(args.metrics)
    if args.report:
        validate_report(args.report)
    if args.trace and args.report:
        validate_cross_views(args.trace, args.report)
    if args.flight:
        validate_flight(args.flight)


if __name__ == "__main__":
    main()

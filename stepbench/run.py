#!/usr/bin/env python3
"""Step benchmark: build, run one workload, check it, print one metric line.

    python3 stepbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|tiny] [--ledger PATH]

Run from the root of a checkout. The first run builds the simulator from
../src into $CARGO_TARGET_DIR/stepbench (default .bench_build/stepbench).
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1 (names and units from BENCHMARK.json). Exits 2
without a result line when the build or the run fails. BENCH.md defines
the workloads, metrics and checks.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("sparse_cloud", "sharded_cloud", "tissue_turnover", "gpu_cloud")

# Steps per second of each workload on the reference host (BENCH.md). A run
# executes a fixed step count derived from --seconds, so every run of one
# workload, seed and --seconds ends on one StateHash. The cloud pair shares
# one rate: both workloads run the same steps and must end on one hash.
NOMINAL_STEPS_PER_S = {
    "sparse_cloud": 50.0,
    "sharded_cloud": 50.0,
    "tissue_turnover": 45.0,
    "gpu_cloud": 10.0,
}
# Timed steps are measured in windows of this many consecutive steps, so
# every window has ten steps beyond its p90. Throughput and p90 are the
# medians over windows: a burst of host contention moves one window, not
# the run (BENCH.md, "Steadiness").
WINDOW = 100
MIN_STEPS = WINDOW
# Runs of the two cloud workloads share science and must share hashes.
HASH_GROUP = {"sparse_cloud": "cloud", "sharded_cloud": "cloud"}

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"stepbench: error: {msg}", file=sys.stderr)
    sys.exit(2)


def load_manifest():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "stepbench")


def child_env():
    # The benchmark sets its own worker count; nothing inherited may change
    # threads, SIMD dispatch or instrumentation.
    return {k: v for k, v in os.environ.items()
            if not k.startswith(("OMP_", "GOMP_", "KMP_", "BIOSIM_"))}


def build():
    out = build_dir()
    binary = os.path.join(out, "stepbench")
    cmd_cfg = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd_cfg += ["-G", "Ninja"]
    try:
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(cmd_cfg, check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S, env=child_env())
        subprocess.run(["cmake", "--build", out, "-j", "2"], check=True,
                       stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
                       env=child_env())
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"build failed: {e}")
    if not os.path.exists(binary):
        fail(f"build produced no {binary}")
    return binary


def steps_for(workload, seconds):
    return max(MIN_STEPS, round(seconds * NOMINAL_STEPS_PER_S[workload]))


def run_binary(binary, args):
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, env=child_env(),
                              text=True)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"stepbench binary did not finish: {e}")
    if proc.returncode != 0:
        fail(f"stepbench binary exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("stepbench binary printed no result")


def check_ledger(path, key, state_hash):
    """Compare the final StateHash with earlier runs of the same key.

    Returns (ok, detail). The first run of a key records its hash.
    """
    ledger = {}
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as f:
                ledger = json.load(f)
        except (OSError, ValueError) as e:
            return False, f"unreadable hash ledger {path}: {e}"
    known = ledger.get(key)
    if known is not None:
        if known != state_hash:
            return False, (f"{key}: final StateHash {state_hash} differs from "
                           f"{known} recorded by an earlier run")
        return True, f"{key}: final StateHash {state_hash} matches earlier runs"
    ledger[key] = state_hash
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return True, f"{key}: first run, recorded StateHash {state_hash}"


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(raw):
    ms = raw["step_ms"]
    agents = raw["step_agents"]
    setup = {"setup_s": statistics.median(raw["setup_s"]),
             "peak_rss_mb": raw["peak_rss_mb"]}
    if not ms:  # the first timed step threw; the run is marked failed
        return dict(setup, agent_steps_per_s=0.0, step_ms_p50=0.0,
                    step_ms_p90=0.0)
    # A run cut short by a throwing step may hold less than one window.
    windows = [slice(i, i + WINDOW)
               for i in range(0, len(ms) - WINDOW + 1, WINDOW)]
    windows = windows or [slice(0, len(ms))]
    return dict(
        setup,
        agent_steps_per_s=statistics.median(
            sum(agents[w]) / (sum(ms[w]) / 1e3) for w in windows),
        step_ms_p50=statistics.median(ms),
        step_ms_p90=statistics.median(percentile(ms[w], 90)
                                      for w in windows),
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    ap.add_argument("--ledger", default=None,
                    help="hash ledger (default: hashes.json in the build dir)")
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    manifest = load_manifest()
    binary = build()
    steps = steps_for(a.workload, a.seconds)
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--steps", str(steps), "--size", a.size, "--trace", str(a.trace)]
    if a.trace:
        trace_dir = os.path.join(build_dir(), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        args += ["--trace-out", os.path.join(
            trace_dir, f"{a.workload}-{a.size}-seed{a.seed}.json")]
    raw = run_binary(binary, args)

    checks = list(raw["checks"])
    group = HASH_GROUP.get(a.workload, a.workload)
    key = (f"{group}/{a.size}/seed{a.seed}/warmup{raw['warmup_steps']}"
           f"/steps{steps}")
    ledger = a.ledger or os.path.join(build_dir(), "hashes.json")
    ok, detail = check_ledger(ledger, key, raw["state_hash"])
    checks.append({"name": "hash_ledger", "ok": ok, "detail": detail})

    correct = all(c["ok"] for c in checks)
    for c in checks:
        status = "ok" if c["ok"] else "FAILED"
        print(f"check {c['name']}: {status}: {c['detail']}")
        if not c["ok"]:
            print(f"stepbench: CHECK FAILED: {c['name']}: {c['detail']}",
                  file=sys.stderr)
    print(f"workload {a.workload} seed {a.seed} size {a.size} trace {a.trace}"
          f" workers {raw['workers']} shards {raw['shards']} steps {steps}"
          f" final_agents {raw['final_agents']}"
          f" state_hash {raw['state_hash']}")

    section = "per_layer" if a.trace else "end_to_end"
    values = raw["per_layer"] if a.trace else end_to_end(raw)
    wanted = {m["name"]: m["unit"] for m in manifest[section]}
    if set(values) != set(wanted):
        fail(f"{section} metrics {sorted(set(values) ^ set(wanted))} do not "
             "match BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in wanted.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": steps,
        "failed": 0 if correct else steps,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()

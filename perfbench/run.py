#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (and the Volley libraries
it links) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
runs the workload with every VOLLEY_* environment switch removed so the
program runs its shipped defaults, writes the full report with run metadata
to .bench_build/results/, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). Exits non-zero when the build fails, a
correctness check fails or a metric is missing.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

# A seed nobody tunes on: confirm a claimed gain on it as well.
HELD_OUT_SEED = 90017

WORKLOADS = ("fleet_quiet", "fleet_hotspot", "net_alert")

# Per-layer metrics of layers a workload does not drive: the fleets never
# touch the wire, net_alert never ticks a core::Coordinator itself. These
# read 0 in a traced run of that workload; any other missing name fails it.
FLEET_ONLY = ("core.", "shard.", "obs.", "gen.source_ns_per_call",
              "monitor_ticks_per_s", "sampling_ratio",
              "ops_per_detected_episode", "episode_miss_rate",
              "detect_delay_ticks_p50", "detect_delay_ticks_p95")
NET_ONLY = ("net.", "alert.", "gen.lag_p99_us", "alert_p50_ms",
            "alert_p99_ms", "alert_fail_frac", "hb_unacked_frac")
NOT_DRIVEN = {"fleet_quiet": NET_ONLY, "fleet_hotspot": NET_ONLY,
              "net_alert": FLEET_ONLY}
BUILD_TYPE = "Release"


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = (
        ["cmake", "-S", "perfbench", "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
        ["cmake", "--build", build_dir, "-j", jobs],
    )
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build step failed:", " ".join(cmd))
            return False
    return True


def source_id():
    """The commit when run in a git checkout, else a hash of the sources."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def compiler(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    cxx = "c++"
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
    except OSError:
        pass
    try:
        out = subprocess.run([cxx, "--version"], capture_output=True, text=True,
                             timeout=10).stdout
        return out.splitlines()[0] if out else cxx
    except (OSError, subprocess.SubprocessError):
        return cxx


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(target, "perfbench")
    if not build(build_dir):
        return 1

    env = {k: v for k, v in os.environ.items() if not k.startswith("VOLLEY_")}
    out_dir = os.path.join(target, "out")
    cmd = [os.path.join(build_dir, "volley_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        log("perfbench: workload timed out")
        return 1
    lines = done.stdout.splitlines()
    if not lines:
        log("perfbench: workload printed nothing (exit %d)" % done.returncode)
        return 1
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench: workload did not end with a report (exit %d)"
            % done.returncode)
        return 1
    for line in lines[:-1]:
        print(line)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    missing = []
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None:
            if args.trace and m["name"].startswith(NOT_DRIVEN[args.workload]):
                metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
                continue
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if missing:
        log("perfbench: missing metrics:", ", ".join(missing))

    correct = bool(report["correct"]) and done.returncode == 0 and not missing
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "compiler": compiler(build_dir),
        "kernel": platform.release(),
        "build_type": BUILD_TYPE,
        "commit": source_id(),
        "valid": report["valid"],
        "validity_note": report["validity_note"],
    }
    print("meta " + json.dumps(meta))
    if not report["valid"]:
        log("perfbench: run flagged invalid:", report["validity_note"])
    results = os.path.join(target, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s_%d_trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"meta": meta, "report": report}, f, indent=1)

    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

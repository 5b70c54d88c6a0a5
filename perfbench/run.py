#!/usr/bin/env python3
"""Builds and runs the time-to-tuned-heuristic benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

The C++ benchmark (perfbench/perfbench.cpp) and the repository's libraries
are built from source with CMake, optimized, into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). Build output goes to stderr, so the last
line of stdout is the result object. Without the repository's src/ the build
fails and the script exits non-zero without printing a result.

--self-test checks the metric arithmetic (nearest-rank percentiles, ratios
with their bases, span self time), then runs every workload of
BENCHMARK.json at its smallest budget, untraced and traced, and checks each
result line against BENCHMARK.json: exact keys, every metric with its unit,
correct outputs, non-zero end-to-end values and ratios equal to their bases.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    scratch = os.path.join(build_dir, "scratch")
    os.makedirs(scratch, exist_ok=True)
    return os.path.join(build_dir, "perfbench"), scratch


def workload_command(binary, scratch, workload, seed, seconds, trace):
    return [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--recorded", os.path.join(HERE, "recorded.json"),
            "--scratch", scratch]


# Ratios the self-test recomputes from the bases printed beside them.
RATIO_BASES = {
    "tuner.collapse_ratio": ("tuner.params_seen", "tuner.signatures_seen"),
    "opt.probe_inexact_ratio": ("opt.probe_inexact", "opt.probes"),
    "runtime.icache_miss_ratio": ("runtime.icache_misses", "runtime.icache_probes"),
    "serving.slo_violation_ratio": ("serving.slo_violations", "serving.requests"),
    "obs.uncovered_ratio": ("obs.uncovered_s", "obs.traced_wall_s"),
}


def check_result(line, spec, trace, errors, label):
    try:
        result = json.loads(line)
    except ValueError:
        errors.append(f"{label}: last line is not JSON: {line[:200]!r}")
        return
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{label}: result keys {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{label}: correct={result['correct']} attempted={result['attempted']} "
                      f"failed={result['failed']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        missing = {m["name"] for m in wanted} ^ set(metrics)
        errors.append(f"{label}: metric names differ from BENCHMARK.json: {sorted(missing)}")
        return
    for m in wanted:
        got = metrics[m["name"]]
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)) \
                or not math.isfinite(got["value"]):
            errors.append(f"{label}: {m['name']} = {got}")
        elif not trace and got["value"] == 0:
            errors.append(f"{label}: end-to-end metric {m['name']} is 0")
    if trace:
        value = {k: v["value"] for k, v in metrics.items()}
        for name, (num, den) in RATIO_BASES.items():
            expect = value[num] / value[den] if value[den] else 0.0
            if not math.isclose(value[name], expect, rel_tol=1e-9, abs_tol=1e-12):
                errors.append(f"{label}: {name} = {value[name]} but {num}/{den} = {expect}")
        covered = sum(v for k, v in value.items() if k.startswith("share."))
        if not math.isclose(covered + value["obs.uncovered_ratio"], 1.0, rel_tol=1e-6):
            errors.append(f"{label}: layer shares + uncovered = {covered + value['obs.uncovered_ratio']}")


def self_test():
    binary, scratch = build()
    errors = []
    if subprocess.run([binary, "--self-test"], stdout=sys.stderr).returncode != 0:
        errors.append("metric arithmetic self-test failed")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            label = f"{w['name']} trace={trace}"
            before = len(errors)
            proc = subprocess.run(workload_command(binary, scratch, w["name"], 1, 1, trace),
                                  stdout=subprocess.PIPE, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                errors.append(f"{label}: exit code {proc.returncode}")
                continue
            check_result(lines[-1], spec, trace, errors, label)
            print(f"self-test: {label} {'ok' if len(errors) == before else 'FAILED'}",
                  file=sys.stderr)
    for e in errors:
        print("self-test FAILED: " + e, file=sys.stderr)
    return 1 if errors else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            parser.error("--workload is required")
        binary, scratch = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = workload_command(binary, scratch, args.workload, args.seed, args.seconds, args.trace)
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

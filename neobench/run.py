#!/usr/bin/env python3
"""The repository benchmark: builds neobench and runs one workload.

    python3 neobench/run.py --workload train|serve-hot|serve-cold \
        --seed N --seconds S --trace 0|1
    python3 neobench/run.py --workload all --seed N --seconds S

Run it from the root of a checkout. It builds the library and neobench
from source into .bench_build/ (or $CARGO_TARGET_DIR), runs the workload in
its own process, prints every metric by name with its unit, checks the
outputs, and prints the result as one JSON object on the last line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics (and
writes the spans to .bench_build/neobench/traces/).

--workload all runs every workload untraced and then traced, each in its own
process, prints both tables and the tracing overhead, and fails if any
output check failed.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train", "serve-hot", "serve-cold")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "neobench")


def build():
    """Configures once, then builds incrementally. Returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        raise RuntimeError("no repository sources next to %s" % HERE)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr,
        )
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "neobench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (report, exit code)."""
    out = build_dir()
    os.makedirs(os.path.join(out, "tmp"), exist_ok=True)
    os.makedirs(os.path.join(out, "traces"), exist_ok=True)
    cmd = [
        binary, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
        "--tmp-dir", os.path.join(out, "tmp"),
        "--trace-out", os.path.join(out, "traces", "%s-seed%d.json" % (workload, seed)),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s printed no report (exit %d)" % (workload, proc.returncode))
    return json.loads(lines[-1]), proc.returncode


def result_for(report, code, spec, trace):
    """Checks a report and builds the benchmark result object."""
    failed = int(report["failed"])
    attempted = int(report["attempted"])
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = report["layers"] if trace else report["e2e"]
    metrics = {}
    for m in wanted:
        value = source.get(m["name"])
        if value is None and trace:
            value = 0.0  # This layer is not on this workload's path.
        if value is None or not math.isfinite(value) or (not trace and value <= 0):
            log("check failed: metric %s = %r" % (m["name"], value))
            failed += 1
            attempted += 1
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if code != 0 and failed == 0:
        failed, attempted = 1, attempted + 1
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def print_report(report, result):
    host = report["host"]
    print("%s seed %s: nproc %s, kernel %s, build %s" % (
        report["workload"], report["seed"], host["nproc"], host["kernel_arch"],
        host["build_type"]))
    for name, m in result["metrics"].items():
        print("  %-34s %16.6f %s" % (name, m["value"], m["unit"]))
    for key, value in sorted(report.get("info", {}).items()):
        print("  info %-29s %s" % (key, value))
    if report.get("self_ms"):
        print("  self time by span (ms):")
        for name, ms in sorted(report["self_ms"].items(), key=lambda kv: -kv[1]):
            print("    %-30s %12.1f" % (name, ms))
    for note in report.get("notes", []):
        print("  FAILED: %s" % note)
    print("  attempted %d, failed %d" % (result["attempted"], result["failed"]))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    try:
        spec = load_spec()
        binary = build()
    except (OSError, RuntimeError, ValueError, subprocess.CalledProcessError) as e:
        log("neobench: set-up failed: %s" % e)
        return 2

    if args.workload != "all":
        try:
            report, code = run_workload(binary, args.workload, args.seed, args.seconds,
                                        args.trace == 1)
        except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
            log("neobench: %s" % e)
            return 3
        result = result_for(report, code, spec, args.trace == 1)
        print_report(report, result)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    summary = {}
    for workload in WORKLOADS:
        runs = {}
        for trace in (False, True):
            try:
                report, code = run_workload(binary, workload, args.seed, args.seconds, trace)
            except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
                log("neobench: %s" % e)
                return 3
            runs[trace] = (report, result_for(report, code, spec, trace))
            print_report(*runs[trace])
        untraced, traced = runs[False][0]["e2e"], runs[True][0]["e2e"]
        for name in ("qps", "latency_p50_ms"):
            print("  tracing overhead on %s: %+.2f%% (traced %.4f vs untraced %.4f);"
                  " recording cost %.4f%% of the timed phase" % (
                      name, 100.0 * (traced[name] / untraced[name] - 1.0), traced[name],
                      untraced[name], runs[True][0]["layers"]["trace.overhead_pct"]))
        summary[workload] = {k: sum(runs[t][1][k] for t in runs)
                             for k in ("attempted", "failed")}
    ok = all(s["failed"] == 0 for s in summary.values())
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Determinism test for the benchmark's single-threaded workloads.

train and serve-hot each run on one thread, so two runs of one build must
agree exactly on plan quality, the final training loss and the work counts
(score-cache hits and network evaluations, engine memo hits and misses,
oracle subsets, experience states). A mechanism whose results depend on
thread scheduling fails here instead of hiding in the timing noise.

    python3 neobench/test_determinism.py [--seed N]

Exits 0 when every compared value repeats bit for bit.
"""
import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

EXACT = {
    "train": ["quality.neo_vs_expert", "nn.final_loss", "experience.states",
              "engine.memo_hits", "engine.memo_misses", "engine.oracle_subsets"],
    "serve-hot": ["quality.neo_vs_expert", "search.score_hits", "search.evaluations",
                  "search.expansions_per_req", "engine.memo_hits", "engine.memo_misses",
                  "engine.oracle_subsets", "experience.states"],
}
# serve-hot sends a fixed number of requests, so its counts cannot depend on
# how fast the host is.
EXTRA = {"train": [], "serve-hot": ["--requests", "3000"]}


def traced_run(binary, workload, seed):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", "10",
           "--trace", "1"] + EXTRA[workload]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=run.RUN_TIMEOUT_S)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if report["failed"]:
        raise AssertionError("%s: output checks failed: %s" % (workload, report["notes"]))
    return report


def main():
    p = argparse.ArgumentParser(description="determinism test")
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args()
    binary = run.build()
    ok = True
    for workload, keys in EXACT.items():
        first = traced_run(binary, workload, args.seed)
        second = traced_run(binary, workload, args.seed)
        for key in keys:
            a, b = first["layers"][key], second["layers"][key]
            same = a == b and first["attempted"] == second["attempted"]
            ok &= same
            print("%-4s %-10s %-28s %r %r" % ("ok" if same else "FAIL", workload, key, a, b))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run detmt's benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first form builds perfbench/detmt_bench.exe with dune (into _build/)
and runs it; its standard output, whose last line is the JSON result, is
passed through, and so is its exit code.  The second form runs every
workload at a small size and checks that each metric BENCHMARK.json names
is printed with its unit, that a wrong pinned fingerprint is reported as a
failure, that the metrics which must repeat do repeat across processes, and
that a held-out seed passes every output check.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "detmt_bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no detmt source tree here (missing %s)" % need)
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/detmt_bench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed (dune exit %d)" % done.returncode)


def run(args):
    """Run the benchmark executable; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run([EXE] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode, done.stdout.splitlines()


# Metrics that must read the same in every process at a fixed seed.
REPEATABLE = ("minor_words_per_request", "peak_heap_mb", "vt_mean_response_ms",
              "vt_p50_response_ms", "vt_p95_response_ms", "vt_throughput_per_s")


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    units = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    def small(workload, trace, *extra, seed=42):
        code, lines = run(["--workload", workload, "--seed", str(seed),
                           "--seconds", "0", "--trace", str(trace),
                           "--clients", "8", "--requests", "2",
                           "--seeds", "2"] + list(extra))
        return code, lines, json.loads(lines[-1])

    for w in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            code, _, r = small(w, trace)
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            check(code == 0 and r["correct"] and r["failed"] == 0,
                  "%s trace %d passes its output checks" % (w, trace))
            check(got == units[trace],
                  "%s trace %d prints every metric with its unit" % (w, trace))
            check(all(math.isfinite(v["value"])
                      for v in r["metrics"].values()),
                  "%s trace %d values are finite" % (w, trace))
        code, lines, first = small(w, 0)
        fp = [l.split()[-1] for l in lines if l.startswith("fingerprint ")][0]
        code, _, r = small(w, 0, "--pin", fp)
        check(code == 0 and r["correct"], "%s right pin passes" % w)
        wrong = "%x" % (int(fp, 16) ^ 1)
        code, _, r = small(w, 0, "--pin", wrong)
        check(code == 1 and not r["correct"]
              and r["failed"] == r["attempted"],
              "%s wrong pin fails every request" % w)
        _, _, again = small(w, 0)
        check(all(first["metrics"][m] == again["metrics"][m]
                  for m in REPEATABLE),
              "%s repeatable metrics repeat across processes" % w)
        code, _, r = small(w, 0, seed=7)
        check(code == 0 and r["correct"], "%s held-out seed 7 passes" % w)
    print("self-test: %d problem(s)" % len(problems))
    return 1 if problems else 0


def main(argv):
    build()
    if argv == ["--self-test"]:
        return self_test()
    code, lines = run(argv)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

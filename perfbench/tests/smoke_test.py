#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/tests/smoke_test.py

Run from the repository root. It
  1. builds and runs the self-tests (perfbench_selftest),
  2. runs every workload of BENCHMARK.json for one second with --trace 0
     and --trace 1 and checks that each run is correct and prints exactly
     the end-to-end, respectively per-layer, metrics named there, each with
     its unit, and
  3. checks that the benchmark fails, without printing a result, in a
     directory that holds only BENCHMARK.json and the benchmark's files.
Exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(msg):
    sys.exit("smoke_test: FAIL: " + msg)


def selftest():
    for cmd in (["cmake", "-S", BENCH, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                 "--target", "perfbench_selftest"],
                [os.path.join(BUILD, "perfbench_selftest")]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail(" ".join(cmd))


def run(root, workload, trace):
    return subprocess.run(
        ["python3", os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600)


def check_metrics(spec):
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            p = run(ROOT, w["name"], trace)
            if p.returncode != 0:
                fail("%s trace %d exited %d:\n%s" % (w["name"], trace, p.returncode, p.stderr))
            result = json.loads(p.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail("result keys %s" % sorted(result))
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                fail("%s trace %d not correct: %s" % (w["name"], trace, result))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
                fail("%s trace %d: missing %s, extra %s, wrong units %s"
                     % (w["name"], trace, missing, extra, wrong))
            print("ok   %s --trace %d prints its %d metrics" % (w["name"], trace, len(want)))


def check_fails_without_sources(spec):
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    p = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or p.stdout.strip():
        fail("a checkout without the program's sources did not fail cleanly")
    print("ok   fails without the program's sources")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    selftest()
    check_metrics(spec)
    check_fails_without_sources(spec)
    print("smoke_test: all passed")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark is compiled from source
with dune into .bench_build/ (the dune cache is disabled so nothing is
written outside the checkout), then run once; its last stdout line is
the result JSON, checked here against BENCHMARK.json before it is
passed on. --self-test shows that pass_rate falls on a damaged log and
that the deterministic metrics repeat exactly between two runs, and
reports whether the program's known defects still reproduce.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 170
# metrics that are a pure function of the workload and seed
DETERMINISTIC = ("record_overhead_x", "log_z_bytes", "pass_rate")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def check_checkout():
    for path in ("dune-project", "lib/chimera/pipeline.mli",
                 "test/golden/golden_counters.expected", "perfbench/dune",
                 "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, path)):
            fail("not a chimera checkout (missing %s); run from the repo root" % path)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--cache=disabled", "./perfbench/bench.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0:
        fail("build failed (dune exit %d)" % proc.returncode)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(args):
    """Run the benchmark binary: (exit code, result dict or None, raw line)."""
    try:
        proc = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              universal_newlines=True)
    except subprocess.TimeoutExpired:
        # the killed run could not remove its scratch directory
        shutil.rmtree(os.path.join(ROOT, ".bench_tmp"), ignore_errors=True)
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    line = lines[-1] if lines else ""
    try:
        result = json.loads(line)
    except ValueError:
        result = None
    return proc.returncode, result, line


def validate(result, trace):
    """The result carries exactly the metrics BENCHMARK.json names."""
    s = spec()
    want = {m["name"]: m["unit"] for m in s["per_layer" if trace else "end_to_end"]}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys %s" % sorted(result))
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: %s" %
             sorted(set(got.items()) ^ set(want.items())))


def self_test():
    ok = True
    base = ["--workload", "record-logheavy", "--seed", "3", "--seconds", "1"]
    # negative control: a flipped byte in every log must fail the checks
    for workload in ("record-logheavy", "server-sustained"):
        code, res, _ = run_bench(["--workload", workload, "--seed", "3",
                                  "--seconds", "1", "--trace", "0", "--damage"])
        rate = res["metrics"]["pass_rate"]["value"] if res else None
        fell = res is not None and code != 0 and not res["correct"] and rate < 1
        print("self-test: %s damaged log -> pass_rate %s, exit %d: %s"
              % (workload, rate, code, "ok" if fell else "FAIL"))
        ok &= fell
    # two undamaged runs agree exactly on the deterministic metrics
    for trace in ("0", "1"):
        runs = [run_bench(base + ["--trace", trace])[:2] for _ in range(2)]
        if any(code != 0 or res is None or not res["correct"] for code, res in runs):
            print("self-test: undamaged run failed (trace %s): FAIL" % trace)
            ok = False
            continue
        a, b = (res["metrics"] for _, res in runs)
        names = [n for n in a if n in DETERMINISTIC or n.endswith(".alloc_mb")
                 or a[n]["unit"] in ("count", "bytes", "ticks")]
        diff = [n for n in names if a[n]["value"] != b[n]["value"]]
        print("self-test: trace %s: %d deterministic metrics, %d differ %s: %s"
              % (trace, len(names), len(diff), diff, "FAIL" if diff else "ok"))
        ok &= not diff
    # the workloads avoid the program's known defects (README.md); their
    # reproducers are reported here, not counted
    try:
        proc = subprocess.run([EXE, "--known-defects"], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              universal_newlines=True)
        print(proc.stdout, end="")
    except subprocess.TimeoutExpired:
        print("self-test: known-defect probe exceeded %d s" % RUN_TIMEOUT_S)
    print("self-test: " + ("passed" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", choices=("0", "1"), default="0")
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    check_checkout()
    build()
    if a.self_test:
        self_test()
    if not a.workload:
        fail("--workload is required")
    code, result, line = run_bench(["--workload", a.workload, "--seed", str(a.seed),
                                    "--seconds", str(a.seconds), "--trace", a.trace])
    if result is None:
        fail("benchmark printed no result (exit %d)" % code)
    validate(result, a.trace == "1")
    print(line)
    sys.exit(code)


if __name__ == "__main__":
    main()

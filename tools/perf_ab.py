#!/usr/bin/env python3
"""A/B the repository benchmark between an earlier revision and the working tree.

    python3 tools/perf_ab.py --base REV --workload NAME [--seeds 51..56] [--seconds 10]

Run from the root of a checkout (`make perf-ab BASE=REV W=NAME SEEDS=A..B
SECS=S` does). REV is extracted with `git archive` into a temporary
directory; each seed is one pair: `python3 perfbench/run.py` runs once in
each tree with the same workload, seed and run length, and the side that
runs first alternates from pair to pair. Both trees build their own
benchmark binary from their own source, as the benchmark does.

Printed, for every end-to-end metric in BENCHMARK.json: each side's
median and quartiles, the change of the median, the pairs in which the
working tree read better (ties count for neither side), and the value of
every pair in run order, parent/change. A run that exits nonzero or
reports `correct: false` is counted for its side and printed; its pair
is left out of every figure.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def fail(msg):
    print("perf-ab: " + msg, file=sys.stderr)
    sys.exit(2)


def parse_seeds(text):
    """'51..56' or '51,53,60'."""
    try:
        if ".." in text:
            lo, hi = text.split("..")
            seeds = list(range(int(lo), int(hi) + 1))
        else:
            seeds = [int(s) for s in text.split(",") if s]
    except ValueError:
        fail("bad --seeds %r (want A..B or A,B,C)" % text)
    if not seeds:
        fail("--seeds %r names no seed" % text)
    return seeds


def extract(rev, dest):
    """The files of [rev], as git archive writes them, under [dest]."""
    archive = subprocess.Popen(["git", "archive", rev], stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        fail("could not extract %s" % rev)


def run_once(tree, workload, seed, seconds):
    """One benchmark run in [tree]: its metrics, {name: value}, and
    whether it exited 0 and reported a correct result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, universal_newlines=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        fail("no result from %s (seed %d, exit %d)" % (tree, seed, proc.returncode))
    ok = proc.returncode == 0 and result["correct"]
    if not ok:
        sys.stderr.write(proc.stderr)
        print("perf-ab: run in %s, seed %d, exit %d, correct %s"
              % (tree, seed, proc.returncode, result["correct"]), file=sys.stderr)
    return {k: v["value"] for k, v in result["metrics"].items()}, ok


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def fmt(x):
    return "%d" % x if x == int(x) and abs(x) >= 100 else "%.4f" % x


def report(workload, seeds, seconds, spec, base_runs, new_runs, failed):
    n = len(seeds)
    print("\n%s: %d pairs of %d-s runs, seeds %s" % (workload, n, seconds, seeds))
    print("failed or incorrect runs: parent %d, change %d"
          % (failed["parent"], failed["change"]))
    if failed["pairs"]:
        print("dropped pairs (a side failed), seeds %s" % failed["pairs"])
    print("| metric | parent median | change median | change | pairs won "
          "| parent quartiles (IQR) |")
    print("|---|---|---|---|---|---|")
    pairs = []
    for m in spec:
        name = m["name"]
        a = [r[name] for r in base_runs]
        b = [r[name] for r in new_runs]
        lower = m["better"] == "lower"
        won = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
        ma, mb = statistics.median(a), statistics.median(b)
        pct = "%+.1f%%" % (100.0 * (mb - ma) / ma) if ma else "n/a"
        q1, q3 = quartiles(a)
        same = sum(1 for x, y in zip(a, b) if x == y)
        won_text = "identical %d/%d" % (same, n) if same == n else "%d/%d" % (won, n)
        print("| `%s` | %s | %s | %s | %s | %s / %s (%s) |"
              % (name, fmt(ma), fmt(mb), pct, won_text, fmt(q1), fmt(q3), fmt(q3 - q1)))
        pairs.append("%s: %s" % (name, ", ".join(
            "%s/%s (%+.1f%%)" % (fmt(x), fmt(y), 100.0 * (y - x) / x if x else 0.0)
            for x, y in zip(a, b))))
    print("\nPer pair (parent/change), in seed order:")
    for line in pairs:
        print("- " + line)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision to compare against")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1..5")
    p.add_argument("--seconds", type=int, default=10)
    a = p.parse_args()
    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "perfbench", "run.py")):
        fail("run from the root of a checkout")
    seeds = parse_seeds(a.seeds)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)["end_to_end"]
    base_dir = tempfile.mkdtemp(prefix="chimera-perf-ab-")
    try:
        extract(a.base, base_dir)
        base_runs, new_runs, kept = [], [], []
        failed = {"parent": 0, "change": 0, "pairs": []}
        for i, seed in enumerate(seeds):
            order = [(base_dir, "parent"), (root, "change")]
            if i % 2:
                order.reverse()
            pair, pair_ok = {}, True
            for tree, side in order:
                pair[side], ok = run_once(tree, a.workload, seed, a.seconds)
                if not ok:
                    failed[side] += 1
                    pair_ok = False
            # a pair with a failed or incorrect run counts in no median,
            # quartile or pairs-won figure; the report gives the counts
            if pair_ok:
                kept.append(seed)
                base_runs.append(pair["parent"])
                new_runs.append(pair["change"])
            else:
                failed["pairs"].append(seed)
            print("perf-ab: pair %d/%d (seed %d) done" % (i + 1, len(seeds), seed),
                  file=sys.stderr)
        if not kept:
            fail("every pair had a failed or incorrect run")
        report(a.workload, kept, a.seconds, spec, base_runs, new_runs, failed)
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)


if __name__ == "__main__":
    main()

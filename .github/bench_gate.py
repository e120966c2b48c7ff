#!/usr/bin/env python3
"""Paired end-to-end regression gate for the tatsbench benchmark.

Usage: python3 .github/bench_gate.py <base-revision>

Checks out `git merge-base <base-revision> HEAD` as a detached worktree in
.bench_build/base, then runs BENCHMARK.json's command in both trees: 10
pairs per workload, pair i at seed i, the side that runs first
alternating. Each run is `<command> --workload W --seed i --seconds
<run_seconds> --trace 0`, and its last stdout line is the result.

Exits 1 when a change-side run is not correct, when the change fails a
larger share of operations than the base, or when an end-to-end metric's
change median is worse than the base median by more than its bound. A
metric whose base quartile spread exceeds its bound is reported as
`unresolved` and does not fail the gate: the runs cannot tell it apart.
"""

import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
BASE = Path(".bench_build/base")


def git(root, *args):
    return subprocess.run(
        ["git", *args], cwd=root, check=True, stdout=subprocess.PIPE, text=True
    ).stdout.strip()


def run(tree, command, workload, seed, seconds):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    lines = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, text=True).stdout.splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"bench_gate: {workload} seed {seed} in {tree} printed no result line")


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def ratio(part, whole):
    if whole == 0:
        return 0.0 if part == 0 else math.copysign(math.inf, part)
    return part / abs(whole)


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: bench_gate.py <base-revision>")
    root = Path(git(".", "rev-parse", "--show-toplevel"))
    base_sha = git(root, "merge-base", sys.argv[1], "HEAD")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    command, seconds = spec["command"], spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    git(root, "worktree", "add", "--detach", str(BASE), base_sha)
    trees = {"base": root / BASE, "change": root}
    results = {(side, w): [] for side in trees for w in workloads}
    try:
        for workload in workloads:
            for seed in range(PAIRS):
                order = ["base", "change"] if seed % 2 == 0 else ["change", "base"]
                for side in order:
                    result = run(trees[side], command, workload, seed, seconds)
                    results[side, workload].append(result)
                    print(f"{workload} seed {seed} {side}: correct={result['correct']}",
                          file=sys.stderr, flush=True)
    finally:
        git(root, "worktree", "remove", "--force", str(BASE))

    failed = False
    print(f"base {base_sha[:12]} vs change, {PAIRS} pairs of {seconds} s per workload")
    print(f"{'workload':<17} {'metric':<16} {'base median [q1, q3]':<33} "
          f"{'change median [q1, q3]':<33} {'change':>8} {'bound':>6}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            base = summary([r["metrics"][name]["value"] for r in results["base", workload]])
            change = summary([r["metrics"][name]["value"] for r in results["change", workload]])
            delta = ratio(change[0] - base[0], base[0])
            worse = delta if metric["better"] == "lower" else -delta
            if ratio(base[2] - base[1], base[0]) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSED"
                failed = True
            else:
                verdict = "ok"
            cells = ["{:.4g} [{:.4g}, {:.4g}]".format(*s) for s in (base, change)]
            print(f"{workload:<17} {name:<16} {cells[0]:<33} {cells[1]:<33} "
                  f"{delta:>+8.1%} {bound:>6.0%}  {verdict}")

    for workload in workloads:
        wrong = [r for r in results["change", workload] if r["correct"] is not True]
        if wrong:
            print(f"{workload}: {len(wrong)} change-side run(s) not correct")
            failed = True
    shares = {}
    for side in trees:
        runs = [r for w in workloads for r in results[side, w]]
        shares[side] = sum(r["failed"] for r in runs) / max(sum(r["attempted"] for r in runs), 1)
    print(f"failed share: base {shares['base']:.6g}, change {shares['change']:.6g}")
    if shares["change"] > shares["base"]:
        failed = True
    print("bench gate:", "FAILED" if failed else "passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

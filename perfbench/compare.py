#!/usr/bin/env python3
"""Compare two checkouts (parent vs change) on the repository benchmark.

    python3 perfbench/compare.py --base ../parent --change . [--held-out] [--trace]

Each checkout's benchmark is built into its own `.bench_build` directory.
For every workload of BENCHMARK.json the script runs ten alternating
pairs (parent first in even pairs, change first in odd ones) of
`run_seconds` each, on one seed: the default seed, or with `--held-out`
the held-out seed that no change was tuned on. It prints one row per
workload and metric: each side's median and quartiles, the share of
pairs the change won (ties count for neither), and a verdict:

  gain        the change won at least 9 of the 10 pairs, and the medians
              differ by more than the parent's own quartile spread
  regression  the change's median is worse than the parent's by more
              than the metric's bound in BENCHMARK.json
  unresolved  the parent's spread exceeds the bound and not every change
              run beat every parent run
  same        none of the above

A run during which the host stole more than 5% of the machine's CPU time
(the `host steal during run` line the benchmark prints) is run again, up
to three times; such stalls inflate tail latency far beyond what the
code does, and last for minutes on a shared host. The count of re-runs
is printed per workload.

Per-layer metrics (`--trace`) have no bound; their rows carry no verdict.
It also flags any rise in failed operations (error rate) and any change
in `sim_digest`, which must stay identical for the same seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
PAIRS = 10
STEAL_SHARE = 0.05
RETRIES = 3
HERE = os.path.dirname(os.path.abspath(__file__))


def build(checkout):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(checkout, "perfbench", "Cargo.toml")],
        check=True, env=env)
    return os.path.join(checkout, ".bench_build", "release", "perfbench")


def run(binary, checkout, workload, seed, seconds, trace):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        cwd=checkout, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    digest = next((l.split()[-1] for l in lines if l.startswith("sim_digest ")), None)
    steal = next((float(l.split()[-2]) for l in lines
                  if l.startswith("host steal during run:")), 0.0)
    if result is None:
        sys.stderr.write(f"{binary}: no result\n{out.stdout[-2000:]}{out.stderr[-2000:]}")
    return result, digest, steal


def quiet_run(binary, checkout, workload, seed, seconds, trace):
    """`run`, again while the host stole more than STEAL_SHARE of the CPU
    time; returns the last attempt and the number of re-runs."""
    limit = STEAL_SHARE * (os.cpu_count() or 1) * seconds
    for attempt in range(RETRIES + 1):
        result, digest, steal = run(binary, checkout, workload, seed, seconds, trace)
        if steal <= limit:
            break
    return result, digest, attempt


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(spec, base, change):
    better = spec.get("better")
    bound = spec.get("bound")
    if better is None or bound is None:
        return ""
    sign = 1.0 if better == "higher" else -1.0
    bq1, bmed, bq3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    if wins >= 0.9 * len(base) and abs(cmed - bmed) > (bq3 - bq1):
        if sign * (cmed - bmed) > 0:
            return "gain"
    if sign * (bmed - cmed) > bound * abs(bmed):
        return "regression"
    every_better = all(sign * (c - b) > 0 for c in change for b in base)
    if bmed and (bq3 - bq1) / abs(bmed) > bound and not every_better:
        return "unresolved"
    return "same"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="changed checkout")
    ap.add_argument("--held-out", action="store_true", help="use the held-out seed")
    ap.add_argument("--trace", action="store_true", help="compare per-layer metrics")
    args = ap.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seed = HELD_OUT_SEED if args.held_out else DEFAULT_SEED
    sides = {"base": os.path.abspath(args.base), "change": os.path.abspath(args.change)}
    binaries = {name: build(path) for name, path in sides.items()}

    print(f"seed {seed}, {PAIRS} pairs, {seconds} s per run, "
          f"{'per-layer' if args.trace else 'end-to-end'} metrics")
    header = ("workload", "metric", "parent median [q1, q3]", "change median [q1, q3]",
              "delta", "won", "verdict")
    print("{:<12} {:<34} {:<36} {:<36} {:>8} {:>6}  {}".format(*header))
    for workload in workloads:
        values = {"base": {}, "change": {}}
        failed = {"base": 0, "change": 0}
        digests = {"base": set(), "change": set()}
        reruns = 0
        for i in range(PAIRS):
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            for side in order:
                result, digest, again = quiet_run(binaries[side], sides[side], workload,
                                                  seed, seconds, args.trace)
                reruns += again
                digests[side].add(digest)
                if result is None:
                    failed[side] += 1
                    continue
                failed[side] += result["failed"]
                for name, m in result["metrics"].items():
                    values[side].setdefault(name, []).append(m["value"])
        for name, base in values["base"].items():
            change = values["change"].get(name, [])
            if len(change) != len(base):
                print(f"{workload:<12} {name:<34} missing on one side")
                continue
            spec = specs.get(name, {})
            bq1, bmed, bq3 = quartiles(base)
            cq1, cmed, cq3 = quartiles(change)
            sign = 1.0 if spec.get("better", "higher") == "higher" else -1.0
            wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
            delta = (cmed - bmed) / abs(bmed) if bmed else 0.0
            print("{:<12} {:<34} {:<36} {:<36} {:>+8.2%} {:>6}  {}".format(
                workload, name,
                f"{bmed:.5g} [{bq1:.5g}, {bq3:.5g}]",
                f"{cmed:.5g} [{cq1:.5g}, {cq3:.5g}]",
                delta, f"{wins}/{len(base)}", verdict(spec, base, change)))
        print(f"{workload:<12} {reruns} runs repeated for host steal")
        if failed["change"] > failed["base"]:
            print(f"{workload:<12} ERROR RATE ROSE: {failed['base']} -> {failed['change']} failed")
        if digests["base"] != digests["change"] or len(digests["base"]) != 1:
            print(f"{workload:<12} SIM_DIGEST CHANGED: {sorted(map(str, digests['base']))}"
                  f" -> {sorted(map(str, digests['change']))}")


if __name__ == "__main__":
    main()

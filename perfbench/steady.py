#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the benchmark in two separated sets of runs of the same code (each
set runs every workload once per seed, the same seeds in both sets), then
prints, for every end-to-end metric and workload, each set's median and
quartiles and the spread (Q3 - Q1) / median against the metric's bound in
BENCHMARK.json, and the shift of the second set's median against the
first's. Deterministic metrics must repeat exactly for each seed, and the
share of failed operations must be the same in every run.

    python3 perfbench/steady.py                      # 2 sets x 10 seeds, all workloads
    python3 perfbench/steady.py --sets 1 --runs 5 --workloads app-search

Run it from the repository root. Exits 1 if any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys

DETERMINISTIC = {"ev_per_campaign", "sim_analysis_h", "found_speedup_geomean"}


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit {out.returncode}\n{out.stderr[-2000:]}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit(f"{' '.join(cmd)}: correct is false\n{out.stdout[-3000:]}")
    return res


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10, help="runs (seeds) per workload per set")
    ap.add_argument("--seed0", type=int, default=1, help="first seed; run i uses seed0 + i")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    # results[set][workload] = list of (seed, result)
    results = []
    for s in range(args.sets):
        sets = {}
        for w in workloads:
            sets[w] = []
            for i in range(args.runs):
                seed = args.seed0 + i
                r = run_once(w, seed, args.seconds)
                sets[w].append((seed, r))
                print(f"set {s + 1} {w} seed {seed}: attempted {r['attempted']} failed {r['failed']}",
                      file=sys.stderr, flush=True)
        results.append(sets)

    ok = True
    for w in workloads:
        print(f"\n== {w}")
        shares = {r["failed"] / r["attempted"] for sets in results for _, r in sets[w]}
        print(f"failed share: {sorted(shares)}" + ("" if len(shares) == 1 else "  <-- DIFFERS"))
        ok &= len(shares) == 1
        print(f"{'metric':24} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, sets in enumerate(results):
                vals = [r["metrics"][name]["value"] for _, r in sets[w]]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else float("inf")
                medians.append(med)
                if name == "setup_s":
                    verdict = "(set-up: spread not bounded)"
                elif spread > bound:
                    verdict, ok = "SPREAD OVER BOUND", False
                elif spread > bound / 3:
                    verdict = "within bound, above a third of it"
                else:
                    verdict = "steady"
                print(f"{name:24} {s + 1:>3} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} {bound:6.3f}  {verdict}")
            if len(medians) > 1:
                worse = (medians[1] - medians[0]) / medians[0]
                if m["better"] == "higher":
                    worse = -worse
                verdict = "ok" if worse <= bound else "SECOND MEDIAN WORSE BY MORE THAN BOUND"
                ok &= worse <= bound
                print(f"{name:24} shift of set 2 against set 1: {worse:+.3f} (worse if positive)  {verdict}")
            if name in DETERMINISTIC and len(results) > 1:
                for i in range(args.runs):
                    vs = {sets[w][i][1]["metrics"][name]["value"] for sets in results}
                    if len(vs) != 1:
                        print(f"{name:24} seed {results[0][w][i][0]}: NOT REPEATED EXACTLY {sorted(vs)}")
                        ok = False
    print("\nsteady" if ok else "\nNOT STEADY")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

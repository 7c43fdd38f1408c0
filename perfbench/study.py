#!/usr/bin/env python3
"""Noise study: run workloads N times with distinct seeds and compare the
spread of every metric with its bound.

    python3 perfbench/study.py [--runs 10] [--workloads a,b] [--trace 0|1]

Run i uses seed i, for i = 1..runs.  For each workload and metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)), the spread
(Q3 - Q1) / median and the metric's bound from BENCHMARK.json, and
flags a spread at or above a third of the bound.  It also prints the
share of failed operations, which must be the same in every run, and,
for untraced runs, the range of the host calibration loop's times, so
that a slow phase of the host shows.  All results are kept in
perfbench_out/study_<trace>.json.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0:
        sys.stderr.write(f"{workload} seed {seed}: exit {r.returncode}\n" +
                         "".join(l + "\n" for l in r.stderr.splitlines() if "perfbench" in l))
    if not lines:
        raise SystemExit(f"{workload} seed {seed}: no result")
    res = json.loads(lines[-1])
    calib = re.search(r"host\.calib_ms ([\d.]+) before, ([\d.]+) after", r.stderr)
    return res, [float(x) for x in calib.groups()] if calib else []


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    metrics = bench["per_layer" if args.trace else "end_to_end"]
    results = {}
    for w in args.workloads.split(","):
        runs, calibs = [], []
        for seed in range(1, args.runs + 1):
            res, calib = run_once(w, seed, bench["run_seconds"], args.trace)
            runs.append(res)
            calibs += calib
            print(f"{w} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} host.calib_ms={calib}",
                  file=sys.stderr, flush=True)
        results[w] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{w}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}, "
              f"failed shares: {sorted(shares)}")
        if calibs:
            print(f"  host.calib_ms: min {min(calibs):.2f}, median {statistics.median(calibs):.2f}, "
                  f"max {max(calibs):.2f}")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s" and spread >= bound / 3:
                flag = "  <-- spread >= bound/3"
            print(f"  {m['name']:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    out = ROOT / "perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"study_{args.trace}.json").write_text(json.dumps(results, indent=1))


if __name__ == "__main__":
    main()

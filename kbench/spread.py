#!/usr/bin/env python3
"""Runs one workload once per seed and reports each metric's run-to-run spread.

    python3 kbench/spread.py --workload serve_full --seeds 1-10 [--trace 0]

Each run goes through run.py with BENCHMARK.json's run_seconds (override
with --seconds). For every metric the script prints the median of the runs'
values and (Q3 - Q1) / median, with the quartiles from
statistics.quantiles(values, n=4). For end-to-end metrics it also prints
the bound from BENCHMARK.json and flags a spread above a third of it.
Each seed's line shows host.steal_pct, the CPU time the hypervisor gave
other guests during that run; a set with runs above 2% was taken on a busy
host and is flagged as not comparable. Raw results are appended to
.bench_out/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MAX_STEAL_PCT = 2.0  # kMaxComparableStealPct in workloads.h


def steal_pct(stdout):
    for line in stdout.splitlines():
        fields = line.split()
        if fields[:2] == ["info", "host.steal_pct"]:
            return float(fields[2])
    return None


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    steals = []
    log_path = os.path.join(ROOT, ".bench_out",
                            "spread-%s.jsonl" % args.workload)
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             check=False)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit("seed %d failed (exit %d):\n%s" %
                     (seed, out.returncode, out.stderr[-2000:]))
        result = json.loads(lines[-1])
        steal = steal_pct(out.stdout)
        steals.append(steal)
        with open(log_path, "a") as f:
            f.write(json.dumps({"seed": seed, "trace": args.trace,
                                "seconds": seconds, "steal_pct": steal,
                                "result": result}) + "\n")
        print("seed %-3d correct=%s attempted=%d failed=%d steal=%s%%" %
              (seed, result["correct"], result["attempted"],
               result["failed"], steal), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print("%-28s %14s %9s %7s  %s" % ("metric", "median", "spread", "bound",
                                      "verdict"))
    for name, vals in values.items():
        median = statistics.median(vals)
        spread = 0.0
        if len(vals) >= 2 and median:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / abs(median)
        bound = bounds.get(name)
        verdict = ""
        if bound is not None and name != "setup_s":
            verdict = "ok" if spread < bound / 3 else "WIDE (>= bound/3)"
        print("%-28s %14.6g %8.2f%% %7s  %s" %
              (name, median, 100 * spread,
               "" if bound is None else "%g" % bound, verdict))
    busy = [s for s in steals if s is None or s > MAX_STEAL_PCT]
    if busy:
        print("NOT COMPARABLE: %d of %d runs had host.steal_pct above %g%% "
              "or unreadable" % (len(busy), len(steals), MAX_STEAL_PCT))


if __name__ == "__main__":
    main()

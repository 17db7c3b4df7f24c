#!/usr/bin/env python3
"""Steadiness report: runs two sets of the benchmark on the same code and
checks every (workload, end-to-end metric) pair against its bound.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--workloads a,b]

Each run uses its own seed. For every pair the report prints, per set, the
median and the spread (the distance between the first and third quartile,
statistics.quantiles(n=4), as a share of the median), and the set-to-set
delta of the medians (positive when worse). A pair is flagged when any
set's spread exceeds the metric's bound, or when a later set's median moves
away from the first set's, in either direction, by more than the bound. The report is also written to
.bench_build/steadiness.json. Exit status 1 when any pair is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()

    metrics = bench["end_to_end"]
    report, flagged = [], 0
    seed = 1
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = []
            for _ in range(args.runs):
                r = run_once(workload, seed, bench["run_seconds"])
                seed += 1
                if not r["correct"]:
                    print(f"{workload} seed {seed - 1}: {r['failed']} of "
                          f"{r['attempted']} operations failed", flush=True)
                runs.append(r)
            sets.append(runs)
            print(f"{workload}: set {s + 1} done", file=sys.stderr, flush=True)
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sign = 1 if m["better"] == "lower" else -1
            per_set = [[r["metrics"][name]["value"] for r in runs]
                       for runs in sets]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            deltas = [sign * (md / medians[0] - 1) for md in medians[1:]]
            bad = max(spreads) > bound or any(abs(d) > bound for d in deltas)
            flagged += bad
            report.append({"workload": workload, "metric": name,
                           "bound": bound, "medians": medians,
                           "spreads": spreads, "deltas": deltas,
                           "flagged": bad})
            print(f"{'FLAG' if bad else 'ok  '} {workload:15s} {name:17s} "
                  f"bound {bound:.2f}  medians "
                  + " ".join(f"{x:.6g}" for x in medians)
                  + "  spreads " + " ".join(f"{x:.4f}" for x in spreads)
                  + "  deltas " + " ".join(f"{x:+.4f}" for x in deltas),
                  flush=True)
    out = ROOT / ".bench_build" / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"{flagged} flagged pair(s); report in {out.relative_to(ROOT)}")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()

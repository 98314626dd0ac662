#!/usr/bin/env python3
"""Runs bench_e2e sets and compares them against BENCHMARK.json's bounds.

  ledger.py run --out FILE [--seeds 1,2] [--trace 0,1] [--workloads a,b]
      One run per (seed, workload, trace mode), in that order; writes every
      result record plus the machine record to FILE.
  ledger.py report FILE [FILE2]
      Per workload and end-to-end metric: median, quartiles and the
      quartile spread as a share of the median, against the metric's bound
      and a third of it (setup_s is exempt from the spread check). With a
      second set of runs of the same code, also whether its median is worse
      than the first set's by more than the bound.
  ledger.py compare PARENT_DIR CHANGE_DIR --workload W [--pairs 10]
      Alternating pairs of runs of two checkouts (the parent first in even
      pairs), same seed within a pair; prints each side's median and
      quartiles, the change's wins, and whether the gain rule of the
      choosing-metrics method holds (wins >= 9/10 of pairs and a median
      difference beyond the parent's quartile spread).

Run from the repository root. Every run measures BENCHMARK.json's
run_seconds (the parent's, in a comparison, for both sides). Each run goes
through bench/e2e/run.sh of its checkout, which builds that checkout's
library on first use.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def load_spec(checkout="."):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, workload, seed, seconds, trace):
    record = os.path.abspath(os.path.join(
        checkout, ".bench_build", f"ledger-{workload}-{seed}-{trace}.json"))
    cmd = ["bash", "bench/e2e/run.sh", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--json", record]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit {out.returncode}\n{out.stderr}")
    with open(record) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_run(args):
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    runs = []
    for seed in [int(s) for s in args.seeds.split(",")]:
        for w in workloads:
            for trace in [int(t) for t in args.trace.split(",")]:
                r = run_once(".", w, seed, spec["run_seconds"], trace)
                print(f"seed {seed} {w} trace {trace}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']}", flush=True)
                runs.append(r)
    machine = runs[0]["machine"] if runs else ""
    with open(args.out, "w") as f:
        json.dump({"machine": machine, "seconds": spec["run_seconds"],
                   "runs": runs}, f, indent=1)
        f.write("\n")


def worse_by(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    if metric["better"] == "lower":
        return (second - first) / first
    return (first - second) / first


def cmd_report(args):
    spec = load_spec()
    sets = []
    for path in args.files:
        with open(path) as f:
            sets.append([r for r in json.load(f)["runs"] if r["trace"] == 0])
    print(f"machine: {sets[0][0]['machine'] if sets[0] else ''}")
    ok = True
    for w in sorted({r["workload"] for r in sets[0]}):
        medians = []
        for n, runs in enumerate(sets, 1):
            mine = [r for r in runs if r["workload"] == w]
            for m in spec["end_to_end"]:
                vals = [r["metrics"][m["name"]]["value"] for r in mine]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med
                flag = ""
                if len(vals) >= 4 and m["name"] != "setup_s":
                    if spread > m["bound"]:
                        flag, ok = "  SPREAD > bound", False
                    elif spread > m["bound"] / 3:
                        flag = "  spread > bound/3"
                medians.append((m, n, med))
                print(f"set {n} {w:9} {m['name']:20} n={len(vals):2} "
                      f"median={med:10.5g} q1={q1:10.5g} q3={q3:10.5g} "
                      f"spread={spread:7.2%} bound={m['bound']:.0%}{flag}")
            fails = sum(r["failed"] for r in mine)
            print(f"set {n} {w:9} failed {fails} of "
                  f"{sum(r['attempted'] for r in mine)}")
            ok = ok and fails == 0
        for m in spec["end_to_end"] if len(sets) > 1 else []:
            first, second = [med for mm, _, med in medians if mm is m]
            worse = worse_by(m, first, second)
            flag = "  SETS DISAGREE" if worse > m["bound"] else ""
            ok = ok and not flag
            print(f"sets {w:9} {m['name']:20} second worse by {worse:7.2%} "
                  f"bound={m['bound']:.0%}{flag}")
    return 0 if ok else 1


def cmd_compare(args):
    spec = load_spec(args.parent)
    sides = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ["parent", "change"] if pair % 2 == 0 else \
            ["change", "parent"]
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            sides[side].append(run_once(checkout, args.workload, 100 + pair,
                                        spec["run_seconds"], 0))
    for m in spec["end_to_end"]:
        p = [r["metrics"][m["name"]]["value"] for r in sides["parent"]]
        c = [r["metrics"][m["name"]]["value"] for r in sides["change"]]
        better = (lambda a, b: b < a) if m["better"] == "lower" else \
            (lambda a, b: b > a)
        wins = sum(better(a, b) for a, b in zip(p, c))
        pq1, pmed, pq3 = quartiles(p)
        cq1, cmed, cq3 = quartiles(c)
        gain = wins >= 0.9 * len(p) and abs(cmed - pmed) > pq3 - pq1
        worse = worse_by(m, pmed, cmed)
        print(f"{m['name']:17} parent {pmed:.6g} [{pq1:.6g}, {pq3:.6g}]  "
              f"change {cmed:.6g} [{cq1:.6g}, {cq3:.6g}]  "
              f"wins {wins}/{len(p)}  gain={'yes' if gain else 'no'}  "
              f"regression={'yes' if worse > m['bound'] else 'no'}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--out", required=True)
    r.add_argument("--seeds", default="1,2")
    r.add_argument("--trace", default="0,1")
    r.add_argument("--workloads", default="")
    p = sub.add_parser("report")
    p.add_argument("files", nargs="+", metavar="FILE")
    c = sub.add_parser("compare")
    c.add_argument("parent")
    c.add_argument("change")
    c.add_argument("--workload", required=True)
    c.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    return {"run": cmd_run, "report": cmd_report,
            "compare": cmd_compare}[args.cmd](args) or 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Smoke test for bench_e2e (ctest bench_e2e_smoke, label bench).

Runs every workload BENCHMARK.json names at --smoke size, once with tracing
off and once with it on, and checks that each run
  - exits 0 and ends with the result JSON line, correct, with no failed
    operation;
  - reports every metric BENCHMARK.json lists for its mode, with the listed
    unit, finite and non-negative;
  - (traced) writes a trace that parses as Chrome trace-event JSON and holds
    the spans the per-layer metrics are computed from.

Usage, from the repository root: python3 bench/e2e/smoke.py PATH/TO/bench_e2e
Exits 77 (skipped) when the native tier cannot compile on this machine.
"""
import json
import math
import os
import subprocess
import sys

SPANS = {"setup", "frontend", "core.legality", "codegen.scan",
         "parallel.plan", "parallel.partition", "parallel.dag",
         "native.compile", "native.cc", "decompose", "parallel.undo_capture",
         "parallel.checksum", "native.kernel", "parallel.poison_scan",
         "parallel.run", "kernels.baseline"}


def run(exe, workload, trace, trace_file):
    cmd = [exe, "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--trace-file", trace_file, "--smoke"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=100)
    if out.returncode != 0:
        raise AssertionError(f"{cmd}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(spec, workload, trace, result):
    where = f"{workload} --trace {trace}"
    assert result["correct"] is True, f"{where}: not correct: {result}"
    assert result["failed"] == 0, f"{where}: failed operations"
    assert result["attempted"] >= 1, f"{where}: nothing attempted"
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, where
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{where}: {m['name']} unit"
        value = got["value"]
        assert math.isfinite(value) and value >= 0, \
            f"{where}: {m['name']} = {value}"


def check_trace(workload, path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events), path
    missing = SPANS - {e["name"] for e in events}
    assert not missing, f"{workload}: trace lacks spans {sorted(missing)}"


def main():
    exe = os.path.abspath(sys.argv[1])
    if subprocess.run([exe, "--native-probe"]).returncode == 77:
        print("native tier unavailable; skipping")
        return 77
    os.makedirs(".bench_build/tmp", exist_ok=True)
    os.environ["TMPDIR"] = os.path.abspath(".bench_build/tmp")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            trace_file = f".bench_build/smoke-{w['name']}.trace.json"
            check(spec, w["name"], trace, run(exe, w["name"], trace,
                                              trace_file))
            if trace:
                check_trace(w["name"], trace_file)
        print(f"{w['name']}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

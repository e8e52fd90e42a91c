#!/usr/bin/env python3
"""Repeated and traced runs of the benchmark, summarised.

    python3 perfbench/report.py steady [--runs 10] [--seed0 1] [--workload W ...]
        Runs each workload --runs times with seeds seed0, seed0+1, ... and
        prints, for each end-to-end metric, the median, the quartiles, the
        spread (Q3 - Q1) / median against the metric's bound in
        BENCHMARK.json, and the share of failed operations.

    python3 perfbench/report.py traced [--untraced 3] [--seed0 1] [--workload W ...]
        Runs each workload --untraced times with tracing off, then once with
        tracing on, and prints every per-layer metric of the traced run, the
        benchmark's layer notes (runtime probe, cost-model prediction) and the
        tracing overhead: the traced run's median operation latency against
        the median of the untraced runs' latency_p50_ms.

Both run from the root of a checkout and use the run length in
BENCHMARK.json unless --seconds is given.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    """One benchmark run; returns (result dict, the program's stderr lines)."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit("run failed (%s seed %d): %s" % (workload, seed, p.stderr[-2000:]))
    notes = [l for l in p.stderr.splitlines() if not l.startswith(("[", "--"))]
    return json.loads(lines[-1]), notes


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def steady(args, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for w in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for i in range(args.runs):
            res, _ = run_once(w, args.seed0 + i, args.seconds, 0)
            runs.append(res)
            print("  %s seed %d: %s" % (w, args.seed0 + i, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in sorted(res["metrics"].items()))),
                flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        print("%s: %d runs, correct=%s, failed share %s" % (w, len(runs), correct, shares))
        print("  %-16s %12s %12s %12s %8s %6s %s" % ("metric", "q1", "median", "q3", "spread",
                                                   "bound", "spread/bound"))
        for name, m in bounds.items():
            q1, med, q3 = spread([r["metrics"][name]["value"] for r in runs])
            s = (q3 - q1) / med
            print("  %-16s %12.5g %12.5g %12.5g %8.4f %6.2f %.2f" % (name, q1, med, q3, s,
                                                                  m["bound"], s / m["bound"]))
            if name != "setup_s" and s > m["bound"]:
                ok = False
        ok = ok and correct and len(shares) == 1
    return 0 if ok else 1


def traced(args, spec):
    for w in args.workload or [w["name"] for w in spec["workloads"]]:
        untraced = [run_once(w, args.seed0 + i, args.seconds, 0)[0]["metrics"]["latency_p50_ms"]
                    ["value"] for i in range(args.untraced)]
        res, notes = run_once(w, args.seed0, args.seconds, 1)
        base = statistics.median(untraced)
        lat = res["metrics"]["trace.latency_p50_ms"]["value"]
        print("== %s (traced seed %d, correct=%s, attempted %d, failed %d)" % (
            w, args.seed0, res["correct"], res["attempted"], res["failed"]))
        for note in notes:
            print("   note: " + note)
        for name, m in sorted(res["metrics"].items()):
            print("   %-32s %14.6g %s" % (name, m["value"], m["unit"]))
        print("   tracing overhead: traced p50 %.1f ms vs untraced median %.1f ms -> %+.1f%%"
              % (lat, base, 100.0 * (lat / base - 1.0)), flush=True)
    return 0


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=["steady", "traced"])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--untraced", type=int, default=3)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    return steady(args, spec) if args.mode == "steady" else traced(args, spec)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Checks how steady the benchmark is across seeds.

Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [-o out.json]

Runs the benchmark command of BENCHMARK.json once per (workload, seed) with
tracing off and prints, for every end-to-end metric, the median of the runs
and their spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound.  A spread within a third of the bound is marked "ok".
With -o the runs and summaries are also written as JSON.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workload", action="append")
    ap.add_argument("-o", dest="out")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    doc = {"seeds": seed_list(args.seeds), "workloads": {}}
    steady = True
    for w in workloads:
        runs = []
        for seed in doc["seeds"]:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.monotonic()
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.monotonic() - t0
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(p.stdout + p.stderr, file=sys.stderr)
                sys.exit(f"{w} seed {seed}: exit {p.returncode}")
            result = json.loads(lines[-1])
            doc.setdefault("machine", next(
                (ln[len("machine: "):] for ln in lines
                 if ln.startswith("machine: ")), "unknown"))
            runs.append({"seed": seed, "wall_s": wall, "result": result})
            print(f"{w} seed {seed}: {wall:.1f}s correct={result['correct']}",
                  file=sys.stderr)
        summary = {}
        for m in bench["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = spread <= m["bound"] / 3
            if m["name"] != "setup_s":
                steady &= ok
            summary[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                  "spread": spread, "bound": m["bound"],
                                  "unit": m["unit"]}
            print(f"{w:11s} {m['name']:18s} median {med:14.6f} {m['unit']:7s}"
                  f" spread {spread:7.4f} bound {m['bound']:.3f}"
                  f" {'ok' if ok else 'WIDE'}")
        walls = [r["wall_s"] for r in runs]
        print(f"{w:11s} run wall median {statistics.median(walls):.1f}s "
              f"max {max(walls):.1f}s")
        doc["workloads"][w] = {"summary": summary, "runs": runs}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

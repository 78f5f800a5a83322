#!/usr/bin/env python3
"""Steadiness report: run one workload N times, with seeds 1 to N, and
print for every end-to-end metric the median, the quartiles and min/max
relative to the median, next to the bound BENCHMARK.json gives it.

    python3 perfbench/steady.py --workload memory --runs 10 --seconds 20

Used to set the bounds, and later to re-check them on a new host.  The
spread is the one the acceptance rule uses: (Q3 - Q1) / median, with the
quartiles of `statistics.quantiles(values, n=4)`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()

    bench_file = ROOT / "BENCHMARK.json"
    bench = json.loads(bench_file.read_text()) if bench_file.exists() else {}
    seconds = args.seconds or bench.get("run_seconds", 10)
    bounds = {m["name"]: m.get("bound") for m in bench.get("end_to_end", [])}

    values, units, failed = {}, {}, 0
    for seed in range(1, args.runs + 1):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
        try:
            doc = json.loads(done.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            sys.exit(f"seed {seed} printed no result:\n{done.stderr}")
        failed += doc["failed"]
        line = " ".join(f"{k}={v['value']:.6g}" for k, v in doc["metrics"].items())
        print(f"seed {seed}: correct={doc['correct']} attempted={doc['attempted']} "
              f"failed={doc['failed']} {line}", file=sys.stderr, flush=True)
        for name, m in doc["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"workload {args.workload}: {args.runs} runs, seeds 1..{args.runs}, "
          f"{seconds} s each, nproc {os.cpu_count()}, failed runs {failed}")
    print(f"{'metric':32} {'unit':9} {'median':>12} {'q1/med':>7} {'q3/med':>7} "
          f"{'min/med':>7} {'max/med':>7} {'spread':>7} {'bound':>6}")
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
        rel = (lambda x: x / med) if med else (lambda x: 0.0)
        bound = bounds.get(name)
        print(f"{name:32} {units[name]:9} {med:12.6g} {rel(q1):7.3f} {rel(q3):7.3f} "
              f"{rel(min(xs)):7.3f} {rel(max(xs)):7.3f} {rel(q3) - rel(q1):7.3f} "
              f"{bound if bound is not None else '':>6}")


if __name__ == "__main__":
    main()

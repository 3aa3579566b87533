"""Repeat workloads over seeds and print each metric's median and spread.

    python3 perfbench/steady.py --runs 10 --first-seed 1 [--workloads a,b]

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time,
and prints per workload and metric the median, the first and third
quartiles (``statistics.quantiles(n=4)``), the spread ``(q3 - q1) /
median``, and that spread as a share of the metric's bound in
``BENCHMARK.json``.  The last lines are one JSON object with every run's
result, for comparing two sets of runs.  Bounds are set from this output:
every spread except ``setup_s``'s should stay below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One untraced run; adds ``wall_s``, the run's whole duration."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return {"error": f"exit {p.returncode}"}
    return {**json.loads(lines[-1]), "wall_s": time.monotonic() - t0}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    results = {}
    for wl in args.workloads.split(","):
        runs = []
        for k in range(args.runs):
            seed = args.first_seed + k
            r = run_once(wl, seed, bench["run_seconds"])
            runs.append(r)
            print(f"{wl} seed {seed}: {json.dumps(r)}", file=sys.stderr, flush=True)
        results[wl] = runs
        ok = [r for r in runs if "metrics" in r]
        print(f"\n{wl}: {len(ok)}/{len(runs)} runs completed, "
              f"failed/attempted {sum(r['failed'] for r in ok)}/{sum(r['attempted'] for r in ok)}, "
              f"correct {all(r['correct'] for r in ok)}, "
              f"median run wall {statistics.median(r['wall_s'] for r in ok):.1f} s")
        print(f"  {'metric':36s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'of bound':>8s}")
        names = sorted({n for r in ok for n in r["metrics"]})
        for name in names:
            vals = [r["metrics"][name]["value"] for r in ok if name in r["metrics"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            b = bounds.get(name)
            share = f"{spread / b:8.2f}" if b else f"{'-':>8s}"
            print(f"  {name:36s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} {share}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Repeat the benchmark over seeds and report each metric's median and spread.

    python3 bench/prove.py [--workloads W ...] [--runs 10] [--trace 0]
                           [--out FILE]

Runs ``bench/run.py`` once per seed (seeds 1 to ``--runs``), one run at a
time, each for BENCHMARK.json's ``run_seconds``, and prints for every
metric the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread (q3 - q1) / median.  With ``--out`` the summary, the raw values
and the environment are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=["rigid-study", "vortex-study", "invariants"])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]

    import numpy
    import scipy

    result = {"env": {"nproc": os.cpu_count(),
                      "python": platform.python_version(),
                      "numpy": numpy.__version__, "scipy": scipy.__version__},
              "seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        raw = {}
        runs = []
        for seed in range(1, args.runs + 1):
            out, elapsed = run_once(workload, seed, seconds, args.trace)
            if not out["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: incorrect run {out}")
            runs.append({"seed": seed, "attempted": out["attempted"],
                         "failed": out["failed"], "run_s": elapsed})
            for name, m in out["metrics"].items():
                raw.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {out['attempted']} ops, "
                  f"{elapsed:.1f}s", file=sys.stderr, flush=True)
        summary = {name: summarize(v) for name, v in raw.items()}
        result["workloads"][workload] = {"runs": runs, "values": raw,
                                         "summary": summary}
        print(f"== {workload}")
        for name, s in summary.items():
            print(f"  {name:36s} median {s['median']:.6g}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()

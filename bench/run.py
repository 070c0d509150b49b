"""vvlab benchmark: time `study rates` and `check` from the config to verified
results on disk.

    python3 bench/run.py --workload {rigid-study,vortex-study,invariants} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  Operations run back to back in this process
(closed loop, one client, ``jobs=1``) until ``--seconds`` have passed, so
the last one may end up to one operation time later.  Every operation
passes a correctness gate or counts as failed.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics from
the span tracer with ``--trace 1``).  See bench/README.md for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = {"rigid-study": "rigid-annulus",
             "vortex-study": "vortex-annulus",
             "invariants": "rigid-annulus"}
# base-flow amplitude picked by the seed: powers of two scale every norm
# value exactly, so errors.csv divided by it must equal the reference bit for bit
AMPLITUDES = (0.25, 0.5, 1.0, 2.0, 4.0)
SETUP_PROBES = 4
# slope acceptance bands of criterion 3 (tests/test_acceptance.py)
RIGID_BANDS = {"l2": (0.70, 0.90), "h1": (0.20, 0.40),
               "linf": (0.45, 0.65), "lp:4": (0.57, 0.77)}
MAX_REL_DRIFT = 1e-12          # ROADMAP aim 2, relative to |u - u0|
N_BASE_CHECKS = 9

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# period of the in-operation speed samples, and the typical time of each
# kind of sample on the machine the benchmark was defined on (2 cores,
# Python 3.11.7, numpy 2.4.6, scipy 1.17.1); wall_s is expressed at that
# machine speed
SAMPLE_PERIOD_S = 0.2
SAMPLE_REF_S = {"vector": 0.0023, "scalar": 0.0020}
# the kind of sample that tracks each workload's speed: the studies spend
# their time in vectorised numpy and SuperLU, the invariant suite about two
# thirds in check_gronwall_dominates_rk4's scalar RK4 loop
SAMPLE_KIND = {"rigid-study": "vector", "vortex-study": "vector",
               "invariants": "scalar"}
# the same for one `setup_probe.py deps` probe (fresh-process third-party
# imports); setup_s is expressed at that machine speed
DEPS_REF_S = 0.78


class GateError(Exception):
    """An operation produced output that fails the correctness gate."""


def import_vvlab():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "vvlab", "__init__.py")):
        raise SystemExit(f"bench: no vvlab sources under {SRC}")
    sys.path.insert(0, SRC)
    import vvlab

    if os.path.dirname(os.path.dirname(os.path.abspath(vvlab.__file__))) != SRC:
        raise SystemExit(f"bench: imported vvlab from {vvlab.__file__}, not {SRC}")
    import vvlab.checks
    import vvlab.study

    return vvlab


def amplitude_for(seed: int) -> float:
    return random.Random(seed).choice(AMPLITUDES)


def build_config(workload: str, amp: float):
    from vvlab.study import get_preset

    config = get_preset(WORKLOADS[workload])
    if workload == "invariants":
        return config                                   # fixed inputs
    if config.euler.family == "rigid":
        config.euler.omega = amp
    else:
        config.euler.circulation = amp
    return config


# ---------------------------------------------------------------------------
# one operation and its correctness gate
# ---------------------------------------------------------------------------


def run_op(workload: str, config):
    """The timed operation: one study including export, or the whole suite."""
    import vvlab.checks
    import vvlab.study

    if workload == "invariants":
        return vvlab.checks.run_all(config)
    report = vvlab.study.run_convergence_study(config, jobs=1)
    out_dir = os.path.join(OUT, workload)
    vvlab.study.export_report(report, out_dir)
    return report


def _read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0], [ln.split(",") for ln in lines[1:]]


def errors_drift(path: str, ref_path: str, amp: float) -> float:
    """Max drift of errors.csv / amp against the reference, relative to the
    |u - u0| norm of the same (nu, t, norm); remainder rows R = (u - a)/nu
    are scaled back to velocity by nu first."""
    head, rows = _read_csv(path)
    ref_head, ref = _read_csv(ref_path)
    if head != ref_head or len(rows) != len(ref):
        raise GateError(f"errors.csv layout differs from {ref_path}")
    u_norm = {(r[0], r[1], r[2]): abs(float(r[3])) for r in ref if r[4] == "u"}
    worst = 0.0
    for got, want in zip(rows, ref):
        if got[:3] + got[4:] != want[:3] + want[4:]:
            raise GateError(f"errors.csv row key {got} != reference {want}")
        diff = abs(float(got[3]) / amp - float(want[3]))
        if diff == 0.0:
            continue
        if want[4].startswith("R:"):
            diff *= float(want[0])
        base = u_norm[(want[0], want[1], want[2])]
        worst = max(worst, diff / base if base > 0.0 else float("inf"))
    return worst


def gate(workload: str, result, amp: float) -> float:
    """Raise GateError unless the operation's output is correct; return the
    errors.csv drift (0.0 for the invariant suite)."""
    if workload == "invariants":
        failed = [r.name for r in result if not r.passed]
        if len(result) != N_BASE_CHECKS or failed:
            raise GateError(f"checks failed: {failed} of {len(result)}")
        return 0.0
    report = result
    if report.meta.get("failed_rows"):
        raise GateError(f"failed rows: {report.meta['failed_rows']}")
    out_dir = os.path.join(OUT, workload)
    with open(os.path.join(out_dir, "rates.json")) as fh:
        rates = json.load(fh)
    if workload == "rigid-study":
        for label, (lo, hi) in RIGID_BANDS.items():
            entry = rates["norms"][label]
            if entry["status"] != "pass" or not lo <= entry["slope"] <= hi:
                raise GateError(f"{label}: status {entry['status']}, "
                                f"slope {entry['slope']} outside [{lo}, {hi}]")
        rem = rates["remainder"]
        scaled = [v for _, v in rem["h1_times_sqrt_nu"]]
        if not (rem["lp4_ratio_max_min"] < 2.0 and not rem["lp4_monotone_growth"]
                and max(scaled) <= 1.5 * scaled[0]):
            raise GateError(f"criterion-4 remainder conditions fail: {rem}")
    else:
        worst_u = max(v for e in report.norm_results.values() for _, v in e["rows"])
        worst_r = max(v for (_, _, _, v, part) in report.rows if part.startswith("R:"))
        if not (rates["exact_regime"] and worst_u < 1e-8 * amp
                and worst_r < 1e-6 * amp):
            raise GateError(f"exact regime fails: velocity {worst_u:.3e}, "
                            f"remainder {worst_r:.3e} at amplitude {amp}")
    ref = os.path.join(HERE, "reference", f"{WORKLOADS[workload]}_errors.csv")
    drift = errors_drift(os.path.join(out_dir, "errors.csv"), ref, amp)
    if drift > MAX_REL_DRIFT:
        raise GateError(f"errors.csv drift {drift:.3e} > {MAX_REL_DRIFT:g}")
    return drift


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


class SpeedSampler:
    """Samples the machine's speed while an operation runs.

    The shared host's CPU speed switches between levels up to 1.8x apart
    every few seconds, about as often as an operation takes, so probes run
    between operations misjudge the speed during one.  Instead SIGALRM
    fires every SAMPLE_PERIOD_S while the operation runs, and its handler
    times a fixed probe of about 2 ms that does not touch vvlab.  The
    ``vector`` probe runs tridiagonal SuperLU solves and vectorised numpy,
    the kernels the studies spend their time in.  The ``scalar`` probe is
    an RK4 loop whose right-hand side calls ``np.interp`` on one point,
    the work of the invariant suite's Gronwall check, which slows down more
    than vector code when the host is busy.  A sample's speed factor is
    its time over SAMPLE_REF_S, 1.0 at the reference machine speed.  The
    handler's own time is taken out of the operation's time.
    """

    def __init__(self, kind: str):
        import numpy as np
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        n = 2048
        self.np = np
        self.lu = spla.splu(sp.diags(
            [np.full(n - 1, -1.0), np.full(n, 2.5), np.full(n - 1, -1.0)],
            [-1, 0, 1], format="csc"))
        self.rhs = np.ones(n)
        self.a0 = np.linspace(0.0, 1.0, 20000)
        self.tt = np.linspace(0.0, 2.0, 2001)
        self.hv = 1.0 + np.sin(3.0 * self.tt) ** 2
        self.work = {"vector": self._vector, "scalar": self._scalar}[kind]
        self.ref_s = SAMPLE_REF_S[kind]
        self.factors = []
        self.spent = 0.0
        for _ in range(20):                    # warm the probe itself
            self._probe()

    def _vector(self):
        np = self.np
        a = self.a0
        for _ in range(10):
            a = np.sqrt(a * a + 1.0)
        for _ in range(25):
            self.lu.solve(self.rhs)            # fixed right side: finite work

    def _scalar(self):
        np, tt, hv = self.np, self.tt, self.hv

        def rhs(t, y):
            return np.interp(t, tt, hv) + 0.5 * max(y, 0.0) ** 1.5

        y, dt = 0.1, 1e-3
        for k in range(150):
            t = k * dt
            k1 = rhs(t, y)
            k2 = rhs(t + dt / 2, y + dt * k1 / 2)
            k3 = rhs(t + dt / 2, y + dt * k2 / 2)
            k4 = rhs(t + dt, y + dt * k3)
            y += dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0

    def _probe(self) -> float:
        t0 = time.perf_counter()
        self.work()
        return (time.perf_counter() - t0) / self.ref_s

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.factors.append(self._probe())
        self.spent += time.perf_counter() - t0

    def time(self, fn, *args):
        """Run ``fn(*args)``; return its result, its time without the
        samples, and the mean speed factor while it ran."""
        self.factors = []
        self.spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            dt = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        factors = self.factors or [self._probe()]   # shorter than a period
        return result, dt - self.spent, statistics.fmean(factors)


def _setup_probe(*args: str) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def measure_setup(workload: str, amp: float) -> float:
    """Median over fresh processes of import + preset build + base-flow build,
    each scaled by DEPS_REF_S / (a fresh process's fixed third-party imports,
    run right after it).  Set-up time is almost all numpy and scipy import;
    its noise follows that probe (log correlation about 0.7) and not an
    in-process numpy and SuperLU speed probe (about 0.1).  The bytecode and
    page caches are already warm: this process has imported the same
    modules."""
    times = []
    for _ in range(SETUP_PROBES):
        t = _setup_probe(workload, repr(amp))
        times.append(t * DEPS_REF_S / _setup_probe("deps"))
    return statistics.median(times)


def measure(workload: str, seed: int, seconds: float, trace: bool):
    amp = amplitude_for(seed)
    config = build_config(workload, amp)
    os.makedirs(OUT, exist_ok=True)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    sampler = SpeedSampler(SAMPLE_KIND[workload])
    walls = {"plain": [], "traced": []}
    speeds = {"plain": [], "traced": []}
    drifts = []
    attempted = failed = 0
    t_start = time.perf_counter()
    while True:
        traced = tracer is not None and attempted % 2 == 0
        attempted += 1
        if traced:
            tracer.install()
        try:
            try:
                if traced:
                    result, dt, speed = sampler.time(
                        tracer.run_op, attempted, run_op, workload, config)
                else:
                    result, dt, speed = sampler.time(run_op, workload, config)
            finally:
                if traced:
                    tracer.uninstall()
            drifts.append(gate(workload, result, amp))
            kind = "traced" if traced else "plain"
            walls[kind].append(dt)
            speeds[kind].append(speed)
        except Exception:                     # any failure counts, run goes on
            failed += 1
            traceback.print_exc(file=sys.stderr)
        # the traced run needs one traced and one plain operation at least
        if (time.perf_counter() - t_start >= seconds
                and (tracer is None or attempted >= 2)):
            break
    return amp, config, tracer, walls, speeds, drifts, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    vvlab = import_vvlab()
    import numpy
    import scipy

    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "vvlab": vvlab.__version__}
    print(f"env {json.dumps(env, sort_keys=True)}")

    amp, config, tracer, walls, speeds, drifts, attempted, failed = measure(
        args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload} seed {args.seed} amplitude {amp} "
          f"ops {attempted} failed {failed} "
          f"max_rel_drift {max(drifts, default=0.0):.3e}")
    scaled = {k: [w / f for w, f in zip(walls[k], speeds[k])] for k in walls}
    for kind, ts in walls.items():
        if ts:
            print(f"{kind} op walls (s): {' '.join(f'{t:.3f}' for t in ts)}; "
                  f"machine speed factors "
                  f"{' '.join(f'{s:.3f}' for s in speeds[kind])}; "
                  f"raw median {statistics.median(ts):.4f}s")

    metrics = {}
    if tracer is None:
        values = {
            "wall_s": statistics.median(scaled["plain"]) if scaled["plain"] else 0.0,
            "setup_s": measure_setup(args.workload, amp),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
    else:
        from tracer import PER_LAYER

        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}.json"))
        ops = sorted({s["op"] for s in tracer.spans if s["name"] == "op"})
        per_op = [tracer.reduce_op(op) for op in ops]
        absent = tracer.absent_metrics()
        values = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]} \
            if per_op else {k: 0.0 for k in PER_LAYER}
        values["trace.overhead_frac"] = (
            statistics.median(scaled["traced"]) / statistics.median(scaled["plain"])
            - 1.0 if scaled["traced"] and scaled["plain"] else 0.0)
        values["trace.absent"] = len(tracer.absent)
        if tracer.absent:
            print(f"absent targets {tracer.absent}; absent metrics {absent}")
        for name, (unit, _, _) in PER_LAYER.items():
            metrics[name] = {"value": 0.0 if name in absent else values[name],
                             "unit": unit}
        print(f"traced ops {len(per_op)}, span coverage "
              f"{values['trace.coverage']:.4f} of wall {values['trace.wall_s']:.3f}s")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

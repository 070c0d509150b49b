"""Runnable invariant suite behind the ``check`` CLI subcommand.

Each check returns a CheckResult; the suite is deterministic (seeded RNG)
and designed to finish in well under a minute.  When the selected preset is
an exact-regime configuration the full trivial chain (viscous solve equals
the base flow, remainder at round-off) is run as an additional check.  The
checks run on every core this process may use: this process and the
workers that ``study.run_forked`` forks take them from one queue
(``run_all``).
"""

from __future__ import annotations

import functools
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .euler import LaurentProfile, ShearProfile, rigid_rotation
from .expansion import leray_project
from .layer import solve_layer
from .ns import bc_residual, energy_identity_residual, solve_ns
from .spaces import (
    FastGrid,
    gronwall_rk4_trials,
    hardy_ratio,
    profile_from_callable,
    scaling_exponent_check,
)
from .study import StudyConfig, _died, run_convergence_study, run_forked, usable_cores


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _timed(fn):
    def run(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            passed, detail = fn(*args, **kwargs)
        except Exception as exc:
            # any failure stays local to its check, so the rest still run
            passed, detail = False, f"error: {type(exc).__name__}: {exc}"
        return CheckResult(name=fn.__name__.removeprefix("check_"),
                           passed=bool(passed), detail=detail,
                           seconds=time.perf_counter() - t0)
    return run


@_timed
def check_geometry_invariants():
    """The geometry a study reads.  Each wall distance is exact: 0 on its
    wall, with difference slope ``into_domain`` on a 401-node grid.  The
    collar cutoff is exactly 1 on [0, eta/2] and exactly 0 from eta, and its
    central first and second differences at both joins, scaled by eta and
    eta^2, stay below 1: a C^2 join reads O(h / eta), a C^1-only one O(1).
    The two collars share no node."""
    geom = geo.annulus_gap(1.0, 2.0, eta=0.45)
    r = geom.volume_grid(401)
    dists = [geo.wall_distance(geom, w.wall_id, r) for w in geom.walls()]
    worst_d = 0.0
    for w, d in zip(geom.walls(), dists):
        slope = np.diff(d) / np.diff(r)
        worst_d = max(worst_d, abs(float(geo.wall_distance(geom, w.wall_id, w.coord))),
                      float(np.abs(slope - w.into_domain).max()))
    eta = geom.eta
    a = geo.CUTOFF_PLATEAU * eta
    plateau = bool(np.all(geo.collar_cutoff(geom, np.linspace(0.0, a, 101)) == 1.0))
    tail = bool(np.all(geo.collar_cutoff(geom, np.linspace(eta, geom.gap, 101)) == 0.0))
    h = 1e-3 * eta
    chi = geo.collar_cutoff(geom, np.add.outer([a, eta], [-h, 0.0, h]))
    joins = max(float(np.abs(chi[:, 2] - chi[:, 0]).max()) / (2.0 * h) * eta,
                float(np.abs(chi[:, 2] - 2.0 * chi[:, 1] + chi[:, 0]).max())
                / h**2 * eta**2)
    disjoint = not np.any((dists[0] <= eta) & (dists[1] <= eta))
    ok = worst_d < 1e-9 and plateau and tail and joins < 1.0 and disjoint
    return ok, (f"wall distance error {worst_d:.2e}, cutoff 1 on [0, eta/2] "
                f"{plateau}, 0 from eta {tail}, scaled join differences "
                f"{joins:.2e} (tol 1), collars disjoint {disjoint}")


@_timed
def check_projector():
    rng = np.random.default_rng(7)
    geom = geo.annulus_gap(1.0, 2.0, eta=0.45)
    r = geom.volume_grid(401)
    w = geom.quadrature_weights(r)
    worst_idem = 0.0
    worst_orth = 0.0
    worst_wall = 0.0
    for _ in range(20):
        vals = rng.normal(size=(3, len(r)))
        p1, g1 = leray_project(geom, vals)
        p2, _ = leray_project(geom, p1)
        worst_idem = max(worst_idem, float(np.abs(p2 - p1).max()))
        inner = float(np.sum(w * np.sum(p1 * g1, axis=0)))
        norm2 = float(np.sum(w * np.sum(vals**2, axis=0)))
        worst_orth = max(worst_orth, abs(inner) / norm2)
        worst_wall = max(worst_wall, abs(p1[0, 0]), abs(p1[0, -1]))
    ok = worst_idem < 1e-10 and worst_orth < 1e-10 and worst_wall < 1e-12
    return ok, (f"idem {worst_idem:.1e}, orth {worst_orth:.1e}, "
                f"wall-normal {worst_wall:.1e}")


@_timed
def check_energy_identity_order():
    # nu and dt chosen so the O(dt^2) trapezoid term dominates the O(h^2)
    # floor of the discrete curl
    geom = geo.flat_channel(1.0, eta=0.25)
    prof = ShearProfile(cosines=((1.0, 1),), h=1.0)
    res = []
    for dt in (5e-2, 2.5e-2):
        sol = solve_ns(geom, prof, nu=0.1, n=2048, dt=dt, t_end=2.0,
                       store_times=dt * np.arange(round(2.0 / dt) + 1), rannacher=0)
        res.append(float(np.max(energy_identity_residual(sol))))
    ratio = res[0] / res[1]
    ok = 3.0 < ratio < 5.5
    return ok, f"dt-halving residual ratio {ratio:.2f} (want about 4)"


@_timed
def check_erfc_oracle():
    geom = geo.annulus_gap(1.0, 2.0, eta=0.45)
    flow = rigid_rotation(1.0, geom)
    t = 0.25
    profile = solve_layer(flow, geom, FastGrid(nz=512), dt=1e-4, t_end=t,
                          store_times=[t])
    worst = 0.0
    for wall_id in ("inner", "outer"):
        g = profile.walls[wall_id].g
        got = profile.profile(wall_id, 0).values[0]
        want = 2.0 * g * math.sqrt(t / math.pi)
        worst = max(worst, abs(got - want) / abs(want))
    ok = worst < 1e-4
    return ok, f"wall value rel err {worst:.2e} (tol 1e-4)"


@_timed
def check_scaling_exponents():
    geom = geo.flat_channel(1.0, eta=0.45)
    grid = FastGrid(nz=512)
    pf = profile_from_callable(lambda z: np.exp(-z), grid)
    # one layer evaluation per nu gives every p; the bound takes p = 4's norms
    ps = (2.0, 4.0, 6.0)
    results = scaling_exponent_check(pf, geom, [1e-2, 1e-3, 1e-4, 1e-5], p=ps,
                                     n_points=8193)
    worst = 0.0
    details = []
    for p, res in zip(ps, results):
        err = abs(res.slope - 1.0 / (2.0 * p))
        worst = max(worst, err)
        details.append(f"p={p:g}: slope {res.slope:.4f}")
    bounded = results[ps.index(4.0)]
    # nu_list is sorted ascending; the reference ratio sits at the largest nu
    cap = bounded.ratios[-1] * 1.1 + 1e-12
    ok = worst < 0.02 and max(bounded.ratios) <= cap
    return ok, "; ".join(details) + f"; worst dev {worst:.3f} (tol 0.02)"


def _hardy_oracle(eta: float, n: int) -> tuple:
    """Trapezoid values of int u^2 / s^2 and int u'^2 over [1e-9, eta] for
    the collar bump u = sin(pi s / eta)^2, on ``n`` nodes.

    The Euler-Maclaurin corrections of the rule are the integrands' odd
    derivatives at the two ends.  At s = eta they vanish (u^2 to fourth
    order, u'^2 is a sin^2 of period eta / 2), and at s = 1e-9 they are of
    size 1e-9, so 2,001 nodes meet the closed forms
    (pi/eta)(Si(2 pi) - Si(4 pi)/2) and pi^2 / (2 eta) to about 1e-14
    relative.
    """
    s = np.linspace(1e-9, eta, n)
    u = np.sin(np.pi * s / eta) ** 2
    du = (np.pi / eta) * np.sin(2.0 * np.pi * s / eta)
    return float(np.trapezoid(u**2 / s**2, s)), float(np.trapezoid(du**2, s))


@_timed
def check_hardy():
    """The discrete Hardy ratio of a collar bump matches the ratio of its
    one-dimensional integrals to 5% and stays below 6/pi^2.  The oracle
    integrals take the check's own 2,001 nodes; see _hardy_oracle for why
    that is enough."""
    geom = geo.flat_channel(1.0, eta=0.45)
    y = geom.volume_grid(2001)
    d = geo.min_wall_distance(geom, y)
    bump = np.where(d < geom.eta, np.sin(np.pi * np.minimum(d, geom.eta)
                                         / geom.eta) ** 2, 0.0)
    ratio = hardy_ratio(geom, y, bump)
    lhs, rhs = _hardy_oracle(geom.eta, len(y))
    oracle = lhs / rhs
    bound = 4.0 / math.pi**2 * 1.5
    ok = abs(ratio - oracle) / oracle < 0.05 and ratio <= bound
    return ok, f"ratio {ratio:.4f}, oracle {oracle:.4f}, bound {bound:.4f}"


@_timed
def check_gronwall_dominates_rk4():
    """The local Gronwall bound dominates RK4 on 100 seeded trials.

    The trials march together as one array RK4 (spaces.gronwall_rk4_trials):
    the same draws and the same per-trial operations as a scalar loop, so
    the solutions agree with it to the last bit or two.  h is interpolated
    a block of steps at a time, bit for bit the lookup step by step.
    """
    trials = gronwall_rk4_trials(seed=11, n_trials=100, n_samples=2001,
                                 n_steps=2000)
    # a NaN or infinite solution or bound fails its trial
    held = ((trials.bound >= trials.y * (1.0 - 1e-9) - 1e-12)
            & np.isfinite(trials.bound) & np.isfinite(trials.y))
    failures = int(np.count_nonzero(~held))
    worst_gap = float(np.min(trials.bound - trials.y))
    ok = failures == 0
    return ok, f"failures {failures}/100, smallest bound-minus-solution {worst_gap:.3e}"


@_timed
def check_bc_residual_refinement():
    geom = geo.annulus_gap(1.0, 2.0, eta=0.45)
    prof = LaurentProfile({1: 1.0})
    res = []
    for nr in (128, 256):
        sol = solve_ns(geom, prof, nu=1e-2, n=nr, dt=2e-4, t_end=0.2,
                       store_times=[0.1, 0.2])
        res.append(float(np.max(bc_residual(sol))))
    order = math.log2(res[0] / res[1])
    ok = order >= 1.5
    return ok, f"bc residual order {order:.2f} (want >= 1.5)"


@_timed
def check_layer_zero_data():
    geom = geo.annulus_gap(1.0, 2.0, eta=0.45)
    from .euler import potential_vortex

    flow = potential_vortex(1.0, geom)
    profile = solve_layer(flow, geom, FastGrid(nz=128), dt=1e-3,
                          t_end=0.1, store_times=[0.05, 0.1])
    worst = max(float(np.abs(w.ub).max()) for w in profile.walls.values())
    ok = worst == 0.0
    return ok, f"max |u_b| {worst:.1e} with zero wall data"


@_timed
def check_exact_regime_chain(config: StudyConfig):
    report = run_convergence_study(config)
    worst_u = max(v for e in report.norm_results.values() for _, v in e["rows"])
    worst_r = max(v for (nu, t, lab, v, part) in report.rows
                  if part.startswith("R:"))
    ok = report.exact_regime and worst_u < 1e-8 and worst_r < 1e-6
    return ok, f"max velocity error {worst_u:.2e}, max remainder {worst_r:.2e}"


# the order the shared queue hands the checks out: longest first, so the
# last to start is a short one (per-check medians of 9 suites on 2 cores, in
# ms: Gronwall 66, erfc 31, energy identity 13, bc residual 10, scaling 6,
# the rest under 2 each), the exact-regime chain, when it runs, before all
LONGEST_FIRST = ("exact_regime_chain", "gronwall_dominates_rk4", "erfc_oracle",
                 "energy_identity_order", "bc_residual_refinement",
                 "scaling_exponents")


def _drain(queue: int, calls: list, send=lambda record: None) -> dict:
    """Run the checks whose indices this process takes from the ``queue``
    pipe, one byte at a time, until it is empty; return their results by
    index.  A forked worker also ``send``s each index as it takes it, and
    (index, result) as soon as the check finishes."""
    results = {}
    while taken := os.read(queue, 1):
        i = taken[0]
        send(i)
        results[i] = calls[i]()
        send((i, results[i]))
    return results


def run_all(config: StudyConfig | None = None) -> list:
    """Run the invariant suite; append the exact chain for exact presets.
    The results come in that order.

    One worker process is forked for each core past the first that this
    process may use (``usable_cores``, ``run_forked``).  Every worker, this
    process included, takes the checks one at a time from a shared pipe of
    check indices, longest first (``LONGEST_FIRST``), and sends each result
    back as that check finishes, so a check's ``seconds`` are measured in
    the worker that ran it.  A worker that dies fails the check it had
    taken, naming its exit status.  On one core, or when no worker can be
    forked, this process drains the queue alone.
    """
    suite = {"geometry_invariants": check_geometry_invariants,
             "projector": check_projector,
             "energy_identity_order": check_energy_identity_order,
             "erfc_oracle": check_erfc_oracle,
             "scaling_exponents": check_scaling_exponents,
             "hardy": check_hardy,
             "gronwall_dominates_rk4": check_gronwall_dominates_rk4,
             "bc_residual_refinement": check_bc_residual_refinement,
             "layer_zero_data": check_layer_zero_data}
    if config is not None and config.exact_regime_expected:
        suite["exact_regime_chain"] = functools.partial(check_exact_regime_chain,
                                                        config)
    names, calls = list(suite), list(suite.values())
    order = [names.index(name) for name in LONGEST_FIRST if name in suite] + [
        i for i, name in enumerate(names) if name not in LONGEST_FIRST]
    queue, write = os.pipe()
    os.write(write, bytes(order))
    os.close(write)
    try:
        results, workers = run_forked(usable_cores(),
                                      lambda i, send: _drain(queue, calls, send),
                                      lambda forked: _drain(queue, calls))
    finally:
        os.close(queue)
    taken = {}
    for records, status in workers.values():
        for record in records:
            if isinstance(record, int):
                taken[record] = status
            else:
                results[record[0]] = record[1]
    dead = [status for _, status in workers.values() if status]
    for i, name in enumerate(names):
        if i not in results:
            # no worker names a check taken by one killed before it could
            # send the index; that worker is one that did not exit cleanly
            status = taken[i] if i in taken else dead[0]
            results[i] = CheckResult(name, False, f"error: {_died(status)}", 0.0)
    return [results[i] for i in range(len(names))]

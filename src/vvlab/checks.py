"""Runnable invariant suite behind the ``check`` CLI subcommand.

Each check returns a CheckResult; the suite is deterministic (seeded RNG)
and designed to finish in well under a minute.  When the selected preset is
an exact-regime configuration the full trivial chain (viscous solve equals
the base flow, remainder at round-off) is run as an additional check.  The
checks run on every core this process may use: this process and the
workers that ``study.run_forked`` forks take them from one queue
(``run_all``).

The analytic tools the suite tests live here, its one reader, and load with
it alone: Hardy's ratio (``hardy_ratio``), the local Gronwall bound and its
seeded RK4 trials (``gronwall_local_bound``, ``gronwall_rk4_trials``) and
the layer's nu^(1/(2p)) scaling (``scaling_exponent_check``).
"""

from __future__ import annotations

import functools
import math
import os
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import BlowupHorizonError, ConfigError, InvalidParameterError
from .euler import LaurentProfile, ShearProfile, rigid_rotation
from .expansion import leray_project
from .layer import solve_layer
from .ns import bc_residual, energy_identity_residual, solve_ns
from .spaces import (
    AnisotropicIndex,
    FastGrid,
    NormSpec,
    ProfileField,
    VolumeGrid,
    _not_a_knot_fit,
    _spline_on_wall,
    diff_along,
    profile_from_callable,
    weighted_norm,
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


@dataclass
class ScalingResult:
    nu_list: tuple
    norms: tuple
    slope: float
    intercept: float
    ratios: tuple
    reference_norm: float


def scaling_exponent_check(pf: ProfileField, geom: geo.GeometryDescriptor,
                           nu_list, ps, n_points: int) -> tuple:
    """Fit the nu-exponent of the layer evaluation norms and give the ratios
    that check the nu-uniform bound: one ScalingResult per p of ``ps``, in
    order (math.inf for the sup norm).

    The layer evaluation x -> U(phi(x)/sqrt(nu)) times the collar cutoff is
    the sum over the walls of _spline_on_wall, each with its own exact
    distance; the collars are disjoint, so the contributions never overlap.
    The slope is the least-squares fit of its log ||.||_p versus log nu
    (expected 1/(2p)); the ratios are the norms over the anisotropic (k=1,
    l=1, p=2) profile norm, which must stay bounded.  One spline fit and one
    volume grid of ``n_points`` nodes serve every nu, and one norms call per
    nu every p.
    """
    nu_list = sorted(float(v) for v in nu_list)
    if len(nu_list) < 3:
        raise ConfigError("need at least 3 viscosity values")
    if not all(0 < nu < math.inf for nu in nu_list):
        raise InvalidParameterError(f"nu must be positive and finite, got {nu_list}")
    if math.log10(nu_list[-1] / nu_list[0]) < 2.0 - 1e-9:
        raise ConfigError("viscosity values must span at least 2 decades")
    if math.sqrt(nu_list[-1]) > geom.eta / 4.0:
        warnings.warn("sqrt(nu) exceeds eta/4: asymptotic collar regime violated")
    spline = _not_a_knot_fit(pf.grid.z, pf.values)
    grid = VolumeGrid(geom, geom.volume_grid(n_points))
    specs = [NormSpec(label=f"p={p}", kind="linf" if math.isinf(p) else "lp", p=p)
             for p in map(float, ps)]
    rows = []
    for nu in nu_list:
        total = np.zeros(len(grid.coords))
        for w in geom.walls():
            total += _spline_on_wall(spline, geom, w.wall_id, grid.coords, nu)
        rows.append(grid.norms(total, specs))
    ref = weighted_norm(pf, AnisotropicIndex(k=1, l=1, p=2.0))
    x = np.log(np.asarray(nu_list))
    results = []
    for norms in zip(*rows):
        slope, intercept = np.polyfit(x, np.log(np.asarray(norms)), 1)
        results.append(ScalingResult(
            nu_list=tuple(nu_list), norms=norms, slope=float(slope),
            intercept=float(intercept), reference_norm=ref,
            ratios=tuple(n / ref for n in norms)))
    return tuple(results)


def hardy_ratio(geom: geo.GeometryDescriptor, coords: np.ndarray,
                u: np.ndarray) -> float:
    """Ratio int |u|^2 / d^2 over int |grad u|^2: Hardy's inequality with
    p = 2 and no distance weight (beta = 0).

    ``u`` is one component on the cross coordinates ``coords``; ``d`` is
    the raw distance to the nearest wall.  The field must vanish at the wall
    nodes (compact support up to quadratic contact is enough for the
    quadrature).  Gradients are plain cross-coordinate derivatives.
    """
    coords = np.asarray(coords, dtype=float)
    d = geo.min_wall_distance(geom, coords)
    mag = np.abs(u)
    at_wall = d <= 0
    if np.any(mag[at_wall] != 0.0):
        raise InvalidParameterError("field must vanish on the wall nodes")
    if np.all(mag == 0.0):
        return 0.0
    w = geom.quadrature_weights(coords)
    interior = ~at_wall
    lhs = float(np.sum(w[interior] * mag[interior] ** 2 / d[interior] ** 2))
    rhs = float(np.sum(w * diff_along(u, coords) ** 2))
    return lhs / rhs


def gronwall_local_bound(y0: float, h_times, h_values, c0: float,
                         alpha: float, t) -> np.ndarray | float:
    """Closed-form local bound for y' <= h(t) + c0 * y^(1+alpha), y(0) = y0.

    H(t) = y0 + int_0^t h by trapezoid on the sampled h; the bound is
    H + H*((1 - alpha*c0*H^alpha*t)^(-1/alpha) - 1), valid while the
    argument stays positive.  Beyond the horizon a BlowupHorizonError with
    the critical time is raised.
    """
    if y0 < 0 or c0 <= 0 or alpha <= 0:
        raise InvalidParameterError("need y0 >= 0, c0 > 0, alpha > 0")
    h_times = np.asarray(h_times, dtype=float)
    h_values = np.asarray(h_values, dtype=float)
    if np.any(h_values < 0):
        raise InvalidParameterError("h must be nonnegative")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < 0) or np.any(t_arr > h_times[-1] + 1e-12):
        raise InvalidParameterError("t outside the sampled range of h")

    cum = np.concatenate([[0.0], np.cumsum(
        0.5 * (h_values[1:] + h_values[:-1]) * np.diff(h_times))])

    def big_h(tt):
        return y0 + np.interp(tt, h_times, cum)

    guard = alpha * c0 * big_h(t_arr) ** alpha * t_arr
    if np.any(guard >= 1.0):
        fine = np.linspace(0.0, float(np.max(t_arr)), 20001)
        g = alpha * c0 * big_h(fine) ** alpha * fine
        bad = np.nonzero(g >= 1.0)[0]
        tc = float(fine[bad[0]]) if len(bad) else float(np.max(t_arr))
        raise BlowupHorizonError(
            f"bound invalid: alpha*c0*H^alpha*t >= 1 near t = {tc:.6g}",
            critical_time=tc,
        )
    hh = big_h(t_arr)
    out = hh + hh * ((1.0 - guard) ** (-1.0 / alpha) - 1.0)
    return out if np.ndim(t) else float(out[0])


@dataclass
class GronwallTrials:
    """RK4 solutions of seeded Gronwall trials next to their local bounds."""

    t_star: np.ndarray             # (n_trials,) end time, 0.7 of the horizon
    y: np.ndarray                  # (n_trials,) RK4 solution at t_star
    bound: np.ndarray              # (n_trials,) gronwall_local_bound at t_star


# draw ranges of (y0, c0, alpha, h amplitude, h frequency), in draw order
_GRONWALL_LOW = np.array([0.0, 0.1, 0.3, 0.0, 0.5])
_GRONWALL_HIGH = np.array([1.5, 2.0, 2.0, 1.5, 4.0])
# RK4 steps whose h is interpolated in one call: the per-call overhead is paid
# once per block, and the tables stay small where one for the whole march
# raised the suite's peak memory by about 9%
_GRONWALL_BLOCK = 250
# trials whose guard is formed at a time: the cumulative table stays intact
# for the bounds while the guard needs only this many rows
_GRONWALL_ROWS = 8


def _uniform_bracket(tt: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Segment index j of ``t`` on the uniform knots ``tt``, clipped to
    [0, len(tt) - 2]: np.clip(np.searchsorted(tt, t, side="right") - 1, 0,
    len(tt) - 2) without the search.

    The scaled position floor((t - tt[0]) / step) is within one of the
    largest j with tt[j] <= t, since it and the knots are each a few
    rounding errors from exact; one comparison with the knot on each side
    corrects it.
    """
    last = len(tt) - 2
    scale = (last + 1) / (tt[-1] - tt[0])
    j = np.clip((t - tt[0]) * scale, 0, last).astype(np.intp)
    j -= tt[j] > t
    j += tt[j + 1] <= t
    return np.clip(j, 0, last)


def _gronwall_bounds(y0, tt, hv, cum, c0, alpha, t) -> np.ndarray:
    """gronwall_local_bound of each trial at its own time t < tt[-1], bit
    for bit, from the trials' samples ``hv`` of h on the uniform ``tt`` and
    their cumulative trapezoids ``cum``, both (n_trials, n_samples).

    H(t) is y0 plus np.interp's interpolant of the trial's row of cum (the
    segment from _uniform_bracket, np.interp's slope formula) and the bound
    the scalar expression over the trials.  A trial whose guard reaches 1
    takes the scalar path, which raises its BlowupHorizonError.
    """
    rows = np.arange(len(t))
    j = _uniform_bracket(tt, t)
    left = cum[rows, j]
    slope = (cum[rows, j + 1] - left) / (tt[j + 1] - tt[j])
    big_h = y0 + (slope * (t - tt[j]) + left)
    guard = alpha * c0 * big_h ** alpha * t
    for i in np.flatnonzero(guard >= 1.0):
        gronwall_local_bound(y0[i], tt, hv[i], c0[i], alpha[i], t[i])
    return big_h + big_h * ((1.0 - guard) ** (-1.0 / alpha) - 1.0)


def gronwall_rk4_trials(seed: int, n_trials: int, n_samples: int,
                        n_steps: int) -> GronwallTrials:
    """Solve y' = h(t) + c0 max(y, 0)^(1+alpha), y(0) = y0, for random trials.

    Each trial draws y0, c0, alpha and h(t) = amp (1 + sin(freq t)^2),
    sampled at ``n_samples`` points of [0, 2], and runs ``n_steps`` RK4 steps
    to 0.7 of the horizon where alpha c0 H^alpha t reaches 1.  All trials
    march together as arrays.  Each floating-point operation is the one a
    scalar loop per trial would do (commuted, or scaled by an exact power
    of two, only where that changes no bit), and h is the piecewise-linear
    interpolant that np.interp evaluates; only numpy's vector power may
    differ from the scalar one in the last bit.  The bounds at t_star come
    from the cumulative trapezoid the horizon is found with
    (_gronwall_bounds), each gronwall_local_bound's bits.

    h is interpolated at the stage times of a block of steps in one call,
    bit for bit the lookup one step at a time: its segment comes from
    _uniform_bracket, which is searchsorted's index on the uniform samples,
    and its two knot values are gathered from the flat samples at
    row * n_samples + j.  The stage tables are (step, trial), so a step
    reads one contiguous row of each; no slope table is kept.  The stages
    are formed in place in a few (n_trials,) buffers.  The mid stages are
    carried doubled, K2 = 2 k2 and K3 = 2 k3, as (2 c0) P + 2 h_mid:
    scaling by 2 is exact, so (dt/4) K2 and (dt/2) K3 are the scalar
    loop's stage increments and ((k1 + K2) + K3) + k4 its sum
    k1 + (k2 + k2) + (k3 + k3) + k4.  y0, amp >= 0 and c0 > 0, so h,
    every stage and y stay >= 0, and the clamp max(., 0) would return its
    input: it is not applied.
    """
    if n_trials < 1 or n_samples < 2 or n_steps < 1:
        raise InvalidParameterError(
            "need n_trials >= 1, n_samples >= 2 and n_steps >= 1")
    rng = np.random.default_rng(seed)
    y0, c0, alpha, amp, freq = rng.uniform(
        _GRONWALL_LOW, _GRONWALL_HIGH, size=(n_trials, 5)).T
    tt = np.linspace(0.0, 2.0, n_samples)
    # updates in place keep at most two (n_trials, n_samples) arrays alive
    hv = freq[:, None] * tt
    np.sin(hv, out=hv)
    hv **= 2
    hv += 1.0
    hv *= amp[:, None]
    # the cumulative trapezoid of h, H - y0, formed in place; it gives the
    # horizon and then the bounds at t_star, and goes before the march
    cum = np.empty((n_trials, n_samples))
    cum[:, 0] = 0.0
    seg = cum[:, 1:]
    np.add(hv[:, 1:], hv[:, :-1], out=seg)
    seg *= 0.5
    seg *= np.diff(tt)
    np.cumsum(seg, axis=1, out=seg)
    # the guard alpha c0 H^alpha t a few trials at a time, so that it needs
    # no second full table; it is 0 at t = 0, so the horizon is at least
    # tt[1] and t_star > 0
    horizon = np.empty(n_trials)
    for lo in range(0, n_trials, _GRONWALL_ROWS):
        part = slice(lo, lo + _GRONWALL_ROWS)
        guard = cum[part] + y0[part, None]
        guard **= alpha[part, None]
        guard *= (alpha * c0)[part, None]
        guard *= tt
        beyond = guard >= 1.0
        horizon[part] = np.where(beyond.any(axis=1), tt[np.argmax(beyond, axis=1)],
                                 tt[-1])
    t_star = 0.7 * horizon
    bound = _gronwall_bounds(y0, tt, hv, cum, c0, alpha, t_star)
    del cum, seg
    dt = t_star / n_steps
    half_dt = dt / 2
    quarter_dt = dt / 4

    flat = hv.ravel()
    row_start = np.arange(n_trials) * n_samples
    gap = np.diff(tt)                   # gap[j] is tt[j + 1] - tt[j]

    def h_at(t):
        # np.interp's interpolant at t, (block, n_trials): the slope
        # (hv[j + 1] - hv[j]) / (tt[j + 1] - tt[j]) times (t - tt[j]), plus hv[j]
        j = _uniform_bracket(tt, t)
        at = j + row_start
        left = np.take(flat, at)
        at += 1
        slope = np.take(flat, at)
        slope -= left
        slope /= np.take(gap, j)
        h = t - np.take(tt, j)
        h *= slope
        h += left
        return h

    power = 1.0 + alpha
    c0_2 = 2.0 * c0
    six = np.full(n_trials, 6.0)
    y = y0.copy()
    arg, p, k, acc = (np.empty(n_trials) for _ in range(4))
    # a step is two dozen calls on n_trials numbers, so their overhead is
    # its cost: the ufuncs are bound locally, and 6 is an array, which
    # divides faster than a Python float does
    mul, pow_ = np.multiply, np.power
    for lo in range(0, n_steps, _GRONWALL_BLOCK):
        # h at the stage times of a block of steps, (block, n_trials)
        tk = np.arange(lo, min(lo + _GRONWALL_BLOCK, n_steps))[:, None] * dt
        h_start = h_at(tk)
        h_mid2 = h_at(tk + half_dt)
        h_mid2 *= 2.0
        h_end = h_at(tk + dt)
        for hs, hm2, he in zip(h_start, h_mid2, h_end):
            # acc = k1 = h + c0 y^power
            pow_(y, power, p)
            mul(p, c0, acc)
            acc += hs
            # k = K2 = 2 h_mid + (2 c0) (y + (dt/2) k1)^power
            mul(acc, half_dt, arg)
            arg += y
            pow_(arg, power, p)
            mul(p, c0_2, k)
            k += hm2
            # k = K3 = 2 h_mid + (2 c0) (y + (dt/4) K2)^power; acc = k1 + K2
            mul(k, quarter_dt, arg)
            arg += y
            acc += k
            pow_(arg, power, p)
            mul(p, c0_2, k)
            k += hm2
            # p = k4 = h_end + c0 (y + (dt/2) K3)^power; acc = (k1 + K2) + K3
            mul(k, half_dt, arg)
            arg += y
            acc += k
            pow_(arg, power, p)
            p *= c0
            p += he
            # y += dt (((k1 + K2) + K3) + k4) / 6
            acc += p
            acc *= dt
            acc /= six
            y += acc
    return GronwallTrials(t_star=t_star, y=y, bound=bound)


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
    results = scaling_exponent_check(pf, geom, [1e-2, 1e-3, 1e-4, 1e-5], ps,
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
    """The local Gronwall bound dominates RK4 on 100 seeded trials
    (gronwall_rk4_trials)."""
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
# last to start is a short one (per-check medians of 9 suites on one core,
# in ms: Gronwall 45, erfc 15, energy identity 12, bc residual 6, scaling 5,
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

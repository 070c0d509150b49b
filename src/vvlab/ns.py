"""Viscous reference solutions with vorticity-free slip walls.

The studied flows are exact invariant manifolds of the slip-wall problem,
so the solver reduces to one parabolic equation in the cross coordinate:

* annulus swirl:  d/dt u_th = nu (u_th'' + u_th'/r - u_th/r^2), with
  (1/r) d(r u_th)/dr = 0 at r1 and r2 (zero wall vorticity);
* channel shear:  d/dt u_x = nu u_x'', with u_x' = 0 at both walls.

One solver, ``solve_ns``, serves both: the geometry picks the operator, the
drive and the velocity slot, everything else is shared.

Time stepping is Crank-Nicolson, second order in space; the wall condition
is folded into the operator through a ghost node eliminated with the
second-order centered stencil of the vorticity (channel: mirror ghost).
The first steps may be taken as backward-Euler half steps to damp the
incompatible start (the initial vorticity does not satisfy the wall
condition), which keeps the scheme second order globally.

Both the reference solve and the layer march (layer.py) step with
``_cn_march``.  Their tridiagonal operators S have positive off-diagonal
products, so a diagonal scaling makes I - a S symmetric positive definite.
Every Crank-Nicolson step is w <- 2 (I - a S)^{-1} (w + dt/2 src) - w,
which is exact Crank-Nicolson because I + a S = 2 I - (I - a S).  The
kernel factors B = (I - a S) / 2 once as L D L^T (LAPACK dpttrf); halving
is exact, so a solve with B is the doubled solve bit for bit, and a step
is one in-place solve between an addition and a subtraction into
preallocated arrays.  The march runs one store segment at a time and stops
at the last stored step.

Pressure is recovered as d(pi)/dr = u_th^2 / r when needed and not stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from . import geometry as geo
from .errors import AlignmentError, ConfigError, SolverError, StepSizeError
from .spaces import VolumeField, curl_volume

MIN_POINTS = 32


@dataclass
class ViscousSolution:
    nu: float
    geom: geo.GeometryDescriptor
    coords: np.ndarray
    times: np.ndarray
    values: np.ndarray             # (n_t, 3, n) in the geometry frame

    def field_at(self, it: int) -> VolumeField:
        return VolumeField(geom=self.geom, coords=self.coords,
                           values=self.values[it])


def _swirl_operator(r: np.ndarray):
    """u'' + u'/r - u/r^2 with the zero-vorticity ghost rows folded in, as
    the (sub, main, super) diagonals."""
    n = len(r)
    h = r[1] - r[0]
    lo = np.empty(n - 1)
    di = np.empty(n)
    up = np.empty(n - 1)
    ri = r[1:-1]
    lo[:-1] = 1.0 / h**2 - 1.0 / (2.0 * h * ri)
    di[1:-1] = -2.0 / h**2 - 1.0 / ri**2
    up[1:] = 1.0 / h**2 + 1.0 / (2.0 * h * ri)
    # ghost from (u_1 - u_{-1})/(2h) + u_0/r_0 = 0
    di[0] = -2.0 / h**2 + 2.0 / (h * r[0]) - 2.0 / r[0] ** 2
    up[0] = 2.0 / h**2
    # ghost from (u_N - u_{N-2})/(2h) + u_{N-1}/r_{N-1} = 0
    di[-1] = -2.0 / h**2 - 2.0 / (h * r[-1]) - 2.0 / r[-1] ** 2
    lo[-1] = 2.0 / h**2
    return lo, di, up


def _channel_operator(y: np.ndarray):
    """u'' with mirror-ghost Neumann rows (u' = 0 at both walls)."""
    n = len(y)
    h = y[1] - y[0]
    lo = np.full(n - 1, 1.0 / h**2)
    di = np.full(n, -2.0 / h**2)
    up = np.full(n - 1, 1.0 / h**2)
    up[0] = 2.0 / h**2
    lo[-1] = 2.0 / h**2
    return lo, di, up


def _drive_swirl(r, prof) -> np.ndarray:
    """nu-free drive L(u0) for the deviation-form march, swirl case.

    Interior rows use the exact profile derivatives (the centered stencil
    applied to order-one values loses all significant digits on fine grids
    because the true residual is O(h^2)); the ghost wall rows, whose values
    are genuinely large for incompatible data, use the discrete formula.
    """
    h = r[1] - r[0]
    v = prof.value(r)
    out = prof.deriv(r, 2) + prof.deriv(r, 1) / r - v / r**2
    out[0] = 2.0 * (v[1] - v[0]) / h**2 + 2.0 * v[0] / (h * r[0]) - 2.0 * v[0] / r[0] ** 2
    out[-1] = 2.0 * (v[-2] - v[-1]) / h**2 - 2.0 * v[-1] / (h * r[-1]) \
        - 2.0 * v[-1] / r[-1] ** 2
    return out


def _drive_channel(y, prof) -> np.ndarray:
    h = y[1] - y[0]
    v = prof.value(y)
    out = prof.deriv(y, 2)
    out[0] = 2.0 * (v[1] - v[0]) / h**2
    out[-1] = 2.0 * (v[-2] - v[-1]) / h**2
    return out


def _resolve_store_steps(dt, t_end, store_times, store_every):
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * max(t_end, 1.0):
        raise ConfigError("t_end must be an integer multiple of dt")
    if store_times is not None:
        steps = []
        for t in store_times:
            k = int(round(t / dt))
            if abs(k * dt - t) > 1e-9 * max(t_end, 1.0) or not (0 <= k <= n_steps):
                raise ConfigError(f"store time {t} is not a step multiple within [0, t_end]")
            steps.append(k)
        return n_steps, sorted(set(steps))
    every = store_every or max(1, n_steps // 8)
    steps = list(range(0, n_steps + 1, every))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return n_steps, steps


def time_index(times: np.ndarray, t: float) -> int:
    """Index of the stored stamp ``t`` in ``times``, to 1e-10; a time that
    was not stored is an AlignmentError."""
    idx = np.nonzero(np.isclose(times, t, rtol=0.0, atol=1e-10))[0]
    if len(idx) == 0:
        raise AlignmentError(f"time {t} not among stored stamps {times}")
    return int(idx[0])


def _cn_march(op, a, dt, store_steps, source, where, rannacher=0,
              columns=None):
    """Crank-Nicolson march of dw/dt = (2 a / dt) S w + src from w(0) = 0.

    ``op`` holds the (sub, main, super) diagonals of the tridiagonal S, so
    each step solves (I - a S) w_new = (I + a S) w + dt src.  ``source`` is
    either the constant src, shape (n,) or (n, m) for m columns sharing S,
    or a callable ``source(k, w)`` giving the (n, columns) src of step k
    from the current (n, columns) iterate.  The first ``rannacher`` steps
    are two backward-Euler half steps each.  ``store_steps`` is sorted; the
    march runs one store segment at a time and stops at the last one.
    Returns w at ``store_steps``, shape (n_store,) + the shape of src.

    With d_{i+1} / d_i = sqrt(up_i / lo_i), D (I - a S) D^{-1} is symmetric
    with off-diagonal -a sqrt(up_i lo_i); the march runs on D w against
    one dpttrf factorisation of B = (I - a S) / 2.  Halving is exact, so
    B's factors are exactly half of those of I - a S and a dpttrs solve
    with B returns 2 (I - a S)^{-1} v bit for bit: a step is
    buf <- w + dt/2 src, buf <- B^{-1} buf, w <- buf - w, in place, and a
    half step scales the solve by 0.5.  ``where`` names the stage, nu and
    n in the errors: a non-positive off-diagonal product (ConfigError), a
    failed factorisation or a non-finite stored iterate (SolverError).
    """
    lo, di, up = (np.asarray(x, dtype=float) for x in op)
    n = len(di)
    prod = lo * up
    bad = np.nonzero(~(prod > 0.0))[0]
    if len(bad):
        raise ConfigError(
            f"{where}: off-diagonal product up*lo = {prod[bad[0]]:.3g} <= 0 "
            f"at row {bad[0]}; the operator cannot be symmetrised")
    diag, off, info = dpttrf(0.5 * (1.0 - a * di), -0.5 * a * np.sqrt(prod))
    if info != 0:
        raise SolverError(
            f"{where}: dpttrf failed (info = {info}); I - a S is not "
            f"positive definite at a = {a:.3g}")
    scale = np.concatenate(([1.0], np.cumprod(np.sqrt(up / lo))))

    varying = callable(source)
    half = 0.5 * dt
    # a flat source marches 1-D arrays; columns march Fortran-ordered, the
    # layout dpttrs solves in place and the fast one for numpy to combine
    w = np.zeros((n, columns) if varying else np.shape(source), order="F")
    if w.ndim == 2:
        scale = scale[:, None]
    if not varying:
        hsrc = np.asfortranarray(half * scale * np.asarray(source, dtype=float))
    buf = np.empty_like(w)
    out = np.zeros((len(store_steps),) + w.shape)
    k = 0
    for i, stop in enumerate(store_steps):
        for k in range(k, stop):
            if varying:
                hsrc = half * scale * source(k, w / scale)
            np.add(w, hsrc, out=buf)
            x, _ = dpttrs(diag, off, buf, overwrite_b=True)
            if k < rannacher:
                np.multiply(x, 0.5, out=w)
                np.add(w, hsrc, out=buf)
                x, _ = dpttrs(diag, off, buf, overwrite_b=True)
                np.multiply(x, 0.5, out=w)
            else:
                np.subtract(x, w, out=w)
        k = stop
        np.divide(w, scale, out=out[i])
        if not np.all(np.isfinite(out[i])):
            raise SolverError(
                f"{where}: non-finite iterate at step {stop} "
                f"(t = {stop * dt:.6g})")
    return out


def solve_ns(geom: geo.GeometryDescriptor, u0_profile, nu: float, n: int,
             dt: float, t_end: float, store_times=None, store_every=None,
             rannacher: int = 2) -> ViscousSolution:
    """Reference solve with zero wall vorticity: azimuthal swirl u_theta in
    the annulus, parallel shear u_x in the channel (u_x' = 0 at both walls).

    ``u0_profile`` is the initial profile, U(r) (a LaurentProfile) in the
    annulus or U(y) (a ShearProfile) in the channel; the other two velocity
    components stay zero.  The march runs in deviation form u = u0 + w,
    w(0) = 0, with the constant drive nu*L(u0) as the source, built from
    the profile's exact derivatives, so w carries full relative precision
    even when it stays many orders below u0 (exact steady states then
    deviate only by the scheme's truncation, not by round-off of order-one
    arithmetic).
    """
    swirl = geom.kind == geo.ANNULUS_GAP
    where = f"ns {'swirl' if swirl else 'channel'} (nu={nu:g}, n={n})"
    if n < MIN_POINTS:
        raise ConfigError(f"{where}: n must be >= {MIN_POINTS}")
    if dt <= 0:
        raise StepSizeError(f"{where}: dt must be positive")
    operator, drive_of, slot = (_swirl_operator, _drive_swirl, 1) if swirl \
        else (_channel_operator, _drive_channel, 0)
    x = geom.volume_grid(n)
    u0 = u0_profile.value(x)
    drive = drive_of(x, u0_profile)
    _, store_steps = _resolve_store_steps(dt, t_end, store_times, store_every)
    w = _cn_march(operator(x), 0.5 * nu * dt, dt, store_steps, nu * drive,
                  where, rannacher=rannacher)
    values = np.zeros((len(store_steps), 3, n))
    values[:, slot] = u0 + w
    return ViscousSolution(nu=nu, geom=geom, coords=x,
                           times=np.array([k * dt for k in store_steps]),
                           values=values)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def energy_identity_residual(sol: ViscousSolution) -> np.ndarray:
    """Per stored interval: |d(E)/dt + nu ||curl u||^2| / E_0.

    The dissipation is the trapezoid average of the two endpoint values, so
    the residual is O(dt_store^2) plus the O(h^2) error of the discrete
    curl.  The solution must be stored densely enough in time.
    """
    w = sol.geom.quadrature_weights(sol.coords)
    n_t = len(sol.times)
    energy = np.array([
        0.5 * float(np.sum(w * np.sum(sol.values[i] ** 2, axis=0)))
        for i in range(n_t)
    ])
    diss = np.array([
        float(np.sum(w * np.sum(curl_volume(sol.field_at(i)) ** 2, axis=0)))
        for i in range(n_t)
    ])
    e0 = energy[0] if energy[0] > 0 else 1.0
    dts = np.diff(sol.times)
    res = np.abs(np.diff(energy) / dts
                 + sol.nu * 0.5 * (diss[1:] + diss[:-1]))
    return res / e0


def _one_sided_deriv(u: np.ndarray, h: float, left: bool) -> float:
    """Fourth-order 5-point one-sided first derivative at the boundary."""
    if left:
        c = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12.0 * h)
        return float(c @ u[:5])
    c = np.array([3.0, -16.0, 36.0, -48.0, 25.0]) / (12.0 * h)
    return float(c @ u[-5:])


def bc_residual(sol: ViscousSolution) -> np.ndarray:
    """Max over walls of |u . n| + |curl u x n| per stored time.

    Measured with fourth-order one-sided stencils (a different stencil than
    the one imposing the condition, so this reflects the solution's true
    boundary error, not the scheme's algebraic identity).
    """
    h = sol.coords[1] - sol.coords[0]
    geom = sol.geom
    out = np.zeros(len(sol.times))
    n_comp = geom.normal_comp
    for it in range(len(sol.times)):
        vals = sol.values[it]
        worst = 0.0
        for left, wall in zip((True, False), geom.walls()):
            i = 0 if left else -1
            un = abs(vals[n_comp, i])
            if geom.kind == geo.ANNULUS_GAP:
                du = _one_sided_deriv(vals[1], h, left)
                omega = du + vals[1, i] / sol.coords[i]
                tang = abs(omega)
            else:
                dux = _one_sided_deriv(vals[0], h, left)
                duz = _one_sided_deriv(vals[2], h, left)
                tang = math.hypot(dux, duz)
            worst = max(worst, un + tang)
        out[it] = worst
    return out


def angular_momentum(sol: ViscousSolution, it: int) -> float:
    """Total angular momentum int u_theta r dV (annulus only)."""
    w = sol.geom.quadrature_weights(sol.coords)
    return float(np.sum(w * sol.coords * sol.values[it, 1]))


def radial_pressure_gradient(sol: ViscousSolution, it: int) -> np.ndarray:
    """Recovered pressure gradient d(pi)/dr = u_theta^2 / r of a swirl state.

    Not stored with the solution; the swirl manifold eliminates the pressure
    from the evolution and this is its pointwise reconstruction.
    """
    if sol.geom.kind != geo.ANNULUS_GAP:
        raise ConfigError("pressure recovery applies to the annulus swirl")
    return sol.values[it, 1] ** 2 / sol.coords

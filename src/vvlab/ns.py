"""Viscous reference solutions with vorticity-free slip walls.

The studied flows are exact invariant manifolds of the slip-wall problem,
so the solver reduces to one parabolic equation in the cross coordinate:

    d/dt u = nu (u'' + u'/r - u/r^2),  u' + u/r = 0 at both walls,

zero wall vorticity, with r the frame's radius: the cross coordinate for
the swirl u_theta of the annulus, +inf for the shear u_x of the channel
(u_x'' with u_x' = 0), where every 1/r term is +-0.0.  So one operator,
one drive and one solver, ``solve_ns``, serve both.  The solution stores
only the one component the flow carries (``GeometryDescriptor.flow_comp``),
an (n_t, n) history; the other two velocity components are exactly zero
and are never formed.  Its vorticity is the axial one alone,
``vorticity``.

Time stepping is Crank-Nicolson, second order in space; the wall condition
is folded into the operator through a ghost node eliminated with the
second-order centered stencil of the vorticity (a mirror ghost when
r = +inf).  The first steps may be taken as backward-Euler half steps to
damp the incompatible start (the initial vorticity does not satisfy the
wall condition), which keeps the scheme second order globally.

Both the reference solve and the layer's one march of the unit datum
(layer.py) step with ``_cn_steps``, whose iterate is one (m n,) array,
the concatenation of m blocks of n rows (m = 1 for the layer), and whose
source is one constant array.  Their tridiagonal operators S have
positive off-diagonal products, so a diagonal scaling makes I - a S
symmetric positive definite (``_symmetrise``, which does not depend on
the viscosity).
Every Crank-Nicolson step is w <- 2 (I - a S)^{-1} (w + dt/2 src) - w,
which is exact Crank-Nicolson because I + a S = 2 I - (I - a S).  The
kernel factors B = (I - a S) / 2 once as L D L^T (LAPACK dpttrf); halving
is exact, so a solve with B is the doubled solve bit for bit, and a step
is one in-place solve between an addition and a subtraction in the
caller's arrays.  The march runs one store segment at a time, stops at the
last stored step and hands each stored iterate to a callback, its one
store path.  The solve is f2py's ``dpttrs`` with ``overwrite_b``, in place
in the caller's buf; f2py would solve a copy of a buf that is not a
writeable contiguous float64 array and leave buf as it was, so the kernel
refuses such a work array before its first step.

A study solves at many viscosities on one grid, so the viscosity-free part
of a reference solve (u0 on the grid, the drive L(u0), the symmetrised
operator and the march's work arrays) is a ``ReferenceSetup`` made once;
``solve_ns`` is one solve on a set-up of its own.

A set-up marches a group of viscosities together, as one tridiagonal
system of m n rows: the blocks I - a_j S on the diagonal, each factored
alone by dpttrf, joined with an exact 0.0 off-diagonal.  No bit moves.
dpttrs solves one right-hand side with dptts2, which at a join computes
b_i - b_{i-1} * 0 forward and b_i / d_i - b_{i+1} * 0 backward, that is
b_i and b_i / d_i exactly, so every block takes its own operations; the
additions, subtractions, divisions and checks are per entry.  A step is
then one np.add, one dpttrs and one np.subtract over the group, not one
of each per viscosity, which saves their per-call overhead.  A non-finite
value does cross a join (inf * 0 is NaN), so a study re-marches a group
that fails one viscosity at a time.  The gain lasts while the group's
five (m n,) arrays a step reads (w, buf, the half source and the two
factors) stay in cache.  Joint against separate march time at m = 5,
medians of 5 on a 2-core host with 2 MiB of L2 per core: 0.74 at
n = 512, 0.88 at 2048, 0.98 at 4096, 1.02 at 8192, 1.04 at 16384 and 1.12
at 65,536 (1.00 for m = 4 at 8192 and m = 2 at 16384).  So a group joins
at most max(1, 2**15 // n) viscosities (``group_size``), at most 1.25 MiB
of march arrays: the rigid and flat-shear presets (n = 2048) march their
five viscosities together, the vortex preset (n = 65,536) one at a time.
The set-up's two work arrays start on a 64-byte cache line: dpttrs solves
in place in buf, and with buf 16 or 48 bytes off the line a step of the
joint rigid march took about 6% longer (medians of 9 x 1,000 steps, 97
against 91 us); numpy's allocator gives no such alignment.

A study marches its parts at once, each in a process of its own forked
from the one that made the set-up (``study.run_forked``), so each part
marches on its own copy-on-write copy of the set-up and every bit is the
one-process march's.  A march may stop at any step and resume from the
kernel's iterate there, its half steps keyed on the absolute step, so a
viscosity cut between two parts keeps its bits too.
``ReferenceSetup.solve`` hands each stored time to its caller as the march
reaches it, as the stored (m, n) block with u0 added in place, one row per
viscosity, and keeps no (n_t, m n) history, so a part holds one stored row.
Only ``solve_ns`` builds a ``ViscousSolution``, its (n_t, n) history.

The pressure drops out of both manifolds' evolution and is not stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import geometry as geo
from ._lapack import dpttrf, dpttrs
from .errors import (
    AlignmentError,
    ConfigError,
    InvalidParameterError,
    SolverError,
    StepSizeError,
)
from .spaces import diff_along

MIN_POINTS = 32
# a reference march joins at most GROUP_POINTS // n viscosities (module
# docstring): the five (m n,) arrays a step reads then fit a 2 MiB L2 cache
GROUP_POINTS = 2**15
# the flow each geometry carries, as the solver's errors name it
_FLOW_NAMES = {geo.ANNULUS_GAP: "swirl", geo.FLAT_CHANNEL: "channel"}


@dataclass
class ViscousSolution:
    nu: float
    geom: geo.GeometryDescriptor
    coords: np.ndarray
    times: np.ndarray
    u: np.ndarray                  # (n_t, n): the flow component, geom.flow_comp


def _operator(x: np.ndarray, r: np.ndarray):
    """u'' + u'/r - u/r^2 on ``x``, of radius ``r``, with the
    zero-vorticity ghost rows folded in, as the (sub, main, super)
    diagonals; at r = +inf, exactly u'' with mirror ghost rows."""
    n = len(x)
    h = x[1] - x[0]
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


def _drive(x, r, prof) -> np.ndarray:
    """nu-free drive L(u0) for the deviation-form march, on ``x`` of
    radius ``r`` (``_operator``).

    Interior rows use the exact profile derivatives (the centered stencil
    applied to order-one values loses all significant digits on fine grids
    because the true residual is O(h^2)); the ghost wall rows, whose values
    are genuinely large for incompatible data, use the discrete formula.
    At r = +inf the 1/r terms add +-0.0 to values never -0.0: the bits of
    U'' with ghost rows 2 (v_1 - v_0) / h^2.
    """
    h = x[1] - x[0]
    v = prof.value(x)
    out = prof.deriv(x, 2) + prof.deriv(x, 1) / r - v / r**2
    out[0] = 2.0 * (v[1] - v[0]) / h**2 + 2.0 * v[0] / (h * r[0]) - 2.0 * v[0] / r[0] ** 2
    out[-1] = 2.0 * (v[-2] - v[-1]) / h**2 - 2.0 * v[-1] / (h * r[-1]) \
        - 2.0 * v[-1] / r[-1] ** 2
    return out


def _resolve_store_steps(dt, t_end, store_times):
    if not 0 <= t_end < math.inf:
        raise ConfigError(f"t_end must be finite and >= 0, got {t_end}")
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * max(t_end, 1.0):
        raise ConfigError("t_end must be an integer multiple of dt")
    steps = []
    for t in store_times:
        if not math.isfinite(t):
            raise ConfigError(f"store time {t} is not finite")
        k = int(round(t / dt))
        if abs(k * dt - t) > 1e-9 * max(t_end, 1.0) or not (0 <= k <= n_steps):
            raise ConfigError(f"store time {t} is not a step multiple within [0, t_end]")
        steps.append(k)
    return sorted(set(steps))


def time_index(times: np.ndarray, t: float) -> int:
    """Index of the stored stamp ``t`` in ``times``, to 1e-10; a time that
    was not stored is an AlignmentError."""
    idx = np.nonzero(np.abs(times - t) <= 1e-10)[0]
    if len(idx) == 0:
        raise AlignmentError(f"time {t} not among stored stamps {times}")
    return int(idx[0])


def _symmetrise(op, where):
    """The viscosity-free part of the kernel's operator: the main diagonal
    of the tridiagonal S, whose (sub, main, super) diagonals ``op`` holds,
    the off-diagonal sqrt(up_i lo_i) of D S D^{-1} and the scale d,
    d_{i+1} / d_i = sqrt(up_i / lo_i), that makes D S D^{-1} symmetric.  A
    non-positive off-diagonal product is a ConfigError naming ``where``."""
    lo, di, up = (np.asarray(x, dtype=float) for x in op)
    prod = lo * up
    bad = np.nonzero(~(prod > 0.0))[0]
    if len(bad):
        raise ConfigError(
            f"{where}: off-diagonal product up*lo = {prod[bad[0]]:.3g} <= 0 "
            f"at row {bad[0]}; the operator cannot be symmetrised")
    return di, np.sqrt(prod), np.concatenate(([1.0], np.cumprod(np.sqrt(up / lo))))


def _cn_steps(sym, a, dt, store_steps, source, where, work, each, rannacher=0,
              resume=None, stop=None):
    """Crank-Nicolson march of dw/dt = (2 a / dt) S w + src from w(0) = 0.

    ``sym`` is ``_symmetrise`` of the tridiagonal S, so each step solves
    (I - a S) w_new = (I + a S) w + dt src, with ``source`` the constant
    src.  ``a`` is a sequence of m coefficients, a group: the m systems
    I - a_j S are one block-diagonal system of m n rows, and ``source`` and
    every iterate are the blocks' (m n,) concatenation; a single march is
    the group of one.  The march runs in the caller's ``work``, (w, buf,
    stored) of that shape, and calls ``each(i, stored)`` with the stored w
    as it reaches store i; the next store overwrites it.  The first
    ``rannacher`` steps are two backward-Euler half steps each.
    ``store_steps`` is sorted; the march runs one store segment at a time
    and stops at the last one.  ``resume`` (k, w) starts the march at step k
    from the kernel's own iterate w (D w, below), which an earlier march
    left in its ``work``, the returned view of that w included, and
    ``stop`` ends it at that step, by default the last store; a store is
    taken when it lies in (k, stop], or at step 0 of a march from 0.  The
    half steps are those of the absolute steps below ``rannacher``, so a
    march cut anywhere and resumed takes the bits of one march.

    D (I - a S) D^{-1} is symmetric with off-diagonal -a sqrt(up_i lo_i);
    the march runs on D w against one dpttrf factorisation of
    B = (I - a S) / 2.  Halving is exact, so B's factors are exactly half of
    those of I - a S and a dpttrs solve with B returns 2 (I - a S)^{-1} v
    bit for bit: a step is buf <- w + dt/2 src, buf <- B^{-1} buf,
    w <- buf - w, in place, and a half step scales the solve by 0.5.  Each
    block is factored alone and the factors are joined with a 0.0
    off-diagonal at each join, which keeps every block's bits (module
    docstring).  ``where`` names the stage, nu and n in the errors: a failed
    factorisation or a non-finite stored iterate (SolverError).
    """
    di, sym_off, scale = sym
    n = len(di)
    # each block's factors go straight into their slice of the joined ones,
    # with no second copy kept; the joins stay 0.0
    diag = np.empty(len(a) * n)
    off = np.zeros(len(a) * n - 1)
    for j, aj in enumerate(a):
        diag[j * n:(j + 1) * n], off[j * n:(j + 1) * n - 1], info = dpttrf(
            0.5 * (1.0 - aj * di), -0.5 * aj * sym_off, overwrite_d=True, overwrite_e=True)
        if info != 0:
            raise SolverError(
                f"{where}: dpttrf failed (info = {info}); I - a S is not "
                f"positive definite at a = {aj:.3g}")

    half = 0.5 * dt
    w, buf, stored = work
    if not (buf.dtype == np.float64 and buf.flags.c_contiguous and buf.flags.writeable):
        raise InvalidParameterError(
            f"{where}: the work array buf must be a writeable contiguous "
            f"float64 array, which dpttrs solves in place")
    start, w0 = resume or (0, 0.0)
    # w0 may be w itself, the iterate an earlier march returned
    w[...] = w0
    hsrc = (half * scale * source.reshape(-1, n)).ravel()

    stop = store_steps[-1] if stop is None else stop
    # the stores this march takes: those in (start, stop], and step 0 from 0
    ends = [(i, s) for i, s in enumerate(store_steps) if start < s <= stop or s == start == 0]
    solve = partial(dpttrs, diag, off, buf, overwrite_b=True)
    k = start
    for i, end in ends + [(None, stop)]:
        for k in range(k, end):
            np.add(w, hsrc, out=buf)
            solve()
            if k < rannacher:
                np.multiply(buf, 0.5, out=w)
                np.add(w, hsrc, out=buf)
                solve()
                np.multiply(buf, 0.5, out=w)
            else:
                np.subtract(buf, w, out=w)
        k = end
        if i is None:
            break
        np.divide(w.reshape(-1, n), scale, out=stored.reshape(-1, n))
        if not np.all(np.isfinite(stored)):
            raise SolverError(
                f"{where}: non-finite iterate at step {end} "
                f"(t = {end * dt:.6g})")
        each(i, stored)


@dataclass(eq=False)
class ReferenceSetup:
    """The viscosity-free part of a reference solve on one grid.

    A study solves at every viscosity on the same grid, time step and store
    times, so it builds this once (``reference_setup``) and calls ``solve``
    per group of viscosities: u0 on the grid, the drive L(u0), the
    symmetrised operator (``_symmetrise``) and the store steps are shared,
    and every solve marches in the set-up's two (group n,) work arrays and
    stores into its one stored row.
    """

    geom: geo.GeometryDescriptor
    coords: np.ndarray
    u0: np.ndarray                 # the profile on coords
    drive: np.ndarray              # L(u0), the nu-free drive
    sym: tuple                     # _symmetrise of the operator
    dt: float
    store_steps: list
    times: np.ndarray              # the stored times, k dt for each store step k
    rannacher: int
    work: tuple                    # (w, buf, stored w); free between solves

    def solve(self, nus, each, resume=None, stop=None) -> np.ndarray:
        """March the reference solutions at the viscosities ``nus`` as one
        group (module docstring): for each nu, u0 plus the march of the
        drive nu*L(u0) at a = nu dt / 2.  At each store i in turn,
        ``each(i, u)`` receives the stored (m, n) block, one row per nu in
        order, a view of this set-up's stored row, which the next store
        overwrites.  Returns the kernel's iterate at the march's last step,
        a view of this set-up's w, which the next solve overwrites;
        ``resume`` (k, that iterate) marches on from step k, and ``stop``
        ends a march early, each seeing only the stores in between
        (``_cn_steps``)."""
        n = len(self.coords)
        w, buf, stored = self.work
        m = len(nus)
        if not 0 < m <= len(w) // n:
            raise ConfigError(
                f"a reference group marches 1 to {len(w) // n} viscosities, got {m}")
        where = (f"ns {_FLOW_NAMES[self.geom.kind]}"
                 f" (nu={','.join(f'{nu:g}' for nu in nus)}, n={n})")

        def hook(i, x):
            u = x.reshape(m, n)
            u += self.u0                     # in place: w + u0 is u0 + w exactly
            each(i, u)

        # the source nu*L(u0) of each block is formed in buf, which the
        # kernel reads once, before its first step writes there
        source = buf[:m * n]
        np.multiply.outer(nus, self.drive, out=source.reshape(m, n))
        _cn_steps(self.sym, [0.5 * nu * self.dt for nu in nus], self.dt,
                  self.store_steps, source, where, (w[:m * n], source, stored[:m * n]),
                  hook, rannacher=self.rannacher, resume=resume, stop=stop)
        return w[:m * n]


def _aligned_empty(size: int) -> np.ndarray:
    """An uninitialised (size,) float array whose data starts on a 64-byte
    cache line (module docstring)."""
    raw = np.empty(size + 7)
    start = (-raw.__array_interface__["data"][0] % 64) // 8
    return raw[start:start + size]


def _march_arrays(n: int, group: int) -> tuple:
    """(w, buf, stored w) of a march of up to ``group`` viscosities on
    ``n`` points, at most ``group_size(n)``, the two work arrays on a cache
    line."""
    size = min(group, group_size(n)) * n
    return _aligned_empty(size), _aligned_empty(size), np.empty(size)


def group_size(n: int) -> int:
    """The most viscosities one reference march joins on ``n`` points, at
    least one (module docstring)."""
    return max(1, GROUP_POINTS // n)


def reference_setup(geom: geo.GeometryDescriptor, u0_profile, n: int,
                    dt: float, t_end: float, store_times,
                    rannacher: int = 2, group: int = 1) -> ReferenceSetup:
    """Build the viscosity-free part of ``solve_ns`` on ``n`` points, with
    the march's arrays for groups of up to ``group`` viscosities, at most
    ``group_size(n)``: the operator and drive at the geometry's radius,
    a bad n, dt or store time refused here, before any viscosity."""
    where = f"ns {_FLOW_NAMES[geom.kind]} (n={n})"
    if n < MIN_POINTS:
        raise ConfigError(f"{where}: n must be >= {MIN_POINTS}")
    if not 0 < dt < math.inf:
        raise StepSizeError(f"{where}: dt must be finite and positive, got {dt}")
    x = geom.volume_grid(n)
    r = geom.radius(x)
    store_steps = _resolve_store_steps(dt, t_end, store_times)
    return ReferenceSetup(geom=geom, coords=x, u0=u0_profile.value(x),
                          drive=_drive(x, r, u0_profile),
                          sym=_symmetrise(_operator(x, r), where), dt=dt,
                          store_steps=store_steps,
                          times=np.array([k * dt for k in store_steps]),
                          rannacher=rannacher, work=_march_arrays(n, group))


def solve_ns(geom: geo.GeometryDescriptor, u0_profile, nu: float, n: int,
             dt: float, t_end: float, store_times,
             rannacher: int = 2) -> ViscousSolution:
    """Reference solve with zero wall vorticity: azimuthal swirl u_theta in
    the annulus, parallel shear u_x in the channel (u_x' = 0 at both walls).

    ``u0_profile`` is the initial profile, U(r) (a LaurentProfile) in the
    annulus or U(y) (a ShearProfile) in the channel; the other two velocity
    components stay zero.  The march runs in deviation form u = u0 + w,
    w(0) = 0, with the constant drive nu*L(u0) as the source, formed from
    the profile's exact derivatives, so w carries full relative precision
    even when it stays many orders below u0 (exact steady states then
    deviate only by the scheme's truncation, not by round-off of order-one
    arithmetic).  It is one ``ReferenceSetup.solve`` on a set-up of its
    own, a group of one, whose stores are copied into the (n_t, n) history.
    """
    ref = reference_setup(geom, u0_profile, n, dt, t_end, store_times=store_times,
                          rannacher=rannacher)
    u = np.empty((len(ref.times), n))

    def keep(i, block):
        u[i] = block[0]

    ref.solve([nu], keep)
    return ViscousSolution(nu=nu, geom=geom, coords=ref.coords, times=ref.times, u=u)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def vorticity(geom: geo.GeometryDescriptor, coords: np.ndarray,
              u: np.ndarray) -> np.ndarray:
    """Axial vorticity of the flow component u on ``coords``, the only
    nonzero component of its curl: orientation (u' + u/r), that is
    (1/r) d(r u)/dr in the annulus and -u' (r = +inf) in the channel, where
    an exact zero may take either sign."""
    return geom.orientation * (diff_along(u, coords) + u / geom.radius(coords))


def energy_identity_residual(sol: ViscousSolution) -> np.ndarray:
    """Per stored interval: |d(E)/dt + nu ||curl u||^2| / E_0.

    The dissipation is the trapezoid average of the two endpoint values, so
    the residual is O(dt_store^2) plus the O(h^2) error of the discrete
    curl.  The solution must be stored densely enough in time.  Energy and
    dissipation are taken in one pass over the (n_t, n) history; each row's
    sum runs over that row alone, so the values are the bits of one time at
    a time.
    """
    w = sol.geom.quadrature_weights(sol.coords)
    # the other components are zero: |u|^2 is u^2 and |curl u|^2 is omega^2
    energy = 0.5 * np.sum(w * sol.u**2, axis=1)
    diss = np.sum(w * vorticity(sol.geom, sol.coords, sol.u) ** 2, axis=1)
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
    boundary error, not the scheme's algebraic identity).  u is the flow
    component alone, which no wall normal has, so u . n = 0 and
    |curl u x n| is the wall vorticity's magnitude |u' + u/r| (r = +inf in
    the channel).
    """
    h = sol.coords[1] - sol.coords[0]
    r = sol.geom.radius(sol.coords)
    out = np.zeros(len(sol.times))
    for it, u in enumerate(sol.u):
        for left, i in ((True, 0), (False, -1)):
            omega = _one_sided_deriv(u, h, left) + u[i] / r[i]
            out[it] = max(out[it], abs(omega))
    return out

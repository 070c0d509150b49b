"""Boundary-layer profile solver.

The tangential profile u_b(t, z) is marched as one column per wall.  The
evolution coefficients g, f, the coupling and any manufactured forcing are
evaluated at the wall, so u_b does not vary along the collar and a wall
whose data vanish produces the zero layer exactly.  The layer's pressure
corrector is not computed: the ansatz u0 + sqrt(nu) u_b uses u_b alone.
The evolution is

    d/dt u_b = d2/dz2 u_b - f z d/dz u_b - A_eff u_b + F,

with the wall datum d/dz u_b|_{z=0} = -g, g = curl(u0) x n in the wall
frame, decay u_b(Z_max) = 0, and zero initial data.  Diffusion is treated
with Crank-Nicolson (unconditionally stable); the stretching term f z d/dz
and the zeroth-order coupling are explicit, so the scheme is second order
in z and first order in t whenever those terms are active.  The walls
share one operator, so the two tangential components of every wall step
together, as the columns of one march of the symmetrised tridiagonal
kernel of ns.py on the nodes below Z_max (the Dirichlet node stays zero).
The explicit terms are formed only when the flow has a nonzero f, a nonzero
coupling or a manufactured forcing; otherwise they would add exact zeros,
and a steady flow marches only the components whose datum g is nonzero
(the others stay exactly +0.0).
The coupling enters as A_eff = J A, the cross product of the coupling
vector with n, where J is a quarter turn in the wall frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import ConfigError, SolverError, StepSizeError
from .euler import _CROSS_J, BaseFlow, boundary_data_g
from .ns import _cn_steps, _resolve_store_steps, _symmetrise
from .spaces import (
    FastGrid,
    ProfileField,
    _apply_first_deriv,
    _first_deriv_matrix_weights,
    weighted_norm,
)


def _fast_diffusion_operator(z: np.ndarray):
    """Nonuniform 3-point second derivative on the nodes below Z_max.

    Row 0 assumes a mirror ghost eliminated through dz u(0) = -g; the g part
    enters as the separate source (2 g / h0) e_0.  The node at Z_max holds
    the homogeneous Dirichlet value and is not an unknown.  Returns the
    (sub, main, super) diagonals over nodes 0 .. n_z - 2, and h0.
    """
    hm = z[1:-1] - z[:-2]
    hp = z[2:] - z[1:-1]
    h0 = z[1] - z[0]
    lo = 2.0 / (hm * (hm + hp))
    di = np.concatenate(([-2.0 / h0**2], -2.0 / (hm * hp)))
    up = np.concatenate(([2.0 / h0**2], (2.0 / (hp * (hm + hp)))[:-1]))
    return (lo, di, up), h0


@dataclass
class WallLayerSeries:
    """Stored layer data for one wall.

    ``ub`` is one column per wall: the coefficients are frozen at the wall,
    so the layer is the same at every collar sample.
    """

    wall_id: str
    tangent_names: tuple
    ub: np.ndarray                 # (n_t, 2, n_z)
    g_used: np.ndarray             # (n_t, 2)


@dataclass
class LayerProfile:
    """Layer solution bundle: the tangential profile of every wall.

    The order sqrt(nu) layer pressure is identically zero for this system
    and is not stored.
    """

    geom: geo.GeometryDescriptor
    grid: FastGrid
    times: np.ndarray
    walls: dict

    def profile(self, wall: str, it) -> ProfileField:
        """u_b on one wall as a column weighted by the collar measure.  A
        sequence of stored indices ``it`` stacks those times on a leading
        axis."""
        w = self.walls[wall]
        return ProfileField(grid=self.grid, values=w.ub[it],
                            weight=self.geom.collar_measure(wall),
                            comp_names=w.tangent_names)


@dataclass
class _WallTerms:
    """One wall's layer coefficients at every step k = 0 .. n_steps: the
    datum g (n_steps + 1, 2), the stretching f and A_eff = J A; a steady
    flow broadcasts its t = 0 values.  ``explicit`` says whether f, A or a
    manufactured forcing adds anything."""

    wall: geo.Wall
    g: np.ndarray
    f: np.ndarray
    a: np.ndarray
    explicit: bool


def _wall_terms(flow: BaseFlow, w: geo.Wall, dt: float, n_steps: int) -> _WallTerms:
    """g, f and A_eff of the wall ``w`` at every step of the march."""
    def coeffs(t):
        g = boundary_data_g(flow, w, t=t)
        f = float(flow.f_stretch(t))
        a = flow.coupling_matrix(t, w.wall_id)
        return g, f, np.einsum("ij,jk->ik", _CROSS_J, a)

    steps = [coeffs(k * dt) for k in range(1 if flow.steady else n_steps + 1)]
    g, f, a = (np.broadcast_to(np.array(col), (n_steps + 1,) + np.shape(col[0]))
               for col in zip(*steps))
    explicit = flow.layer_forcing is not None or np.any(f != 0.0) or np.any(a != 0.0)
    return _WallTerms(wall=w, g=g, f=f, a=a, explicit=bool(explicit))


def _march_walls(flow: BaseFlow, terms: list, z: np.ndarray, dt: float,
                 store_steps) -> np.ndarray:
    """March the walls ``terms`` together on the nodes below Z_max.

    The walls share one operator, so their columns, two a wall side by
    side, are the right-hand sides of one _cn_steps march in Fortran-ordered
    arrays of its own, and dpttrs solves each column with the operations of
    its own march.  Returns u_b at ``store_steps``, (n_store, n_z - 1,
    2 len(terms)).  Without explicit terms a steady flow has a constant
    source; a column whose g is exactly 0 then stays exactly +0.0, so only
    the live columns march, and none when every datum vanishes.  Otherwise
    each step's source is filled, Fortran-ordered like the iterate, from
    each wall's slice of it.
    """
    op, h0 = _fast_diffusion_operator(z)
    n, cols = len(z) - 1, 2 * len(terms)
    where = f"layer {','.join(t.wall.wall_id for t in terms)} (nu-free, n={len(z)})"
    out = np.zeros((len(store_steps), n, cols))
    live = np.arange(cols)
    if flow.steady and not any(t.explicit for t in terms):
        # CN average of the ghost Neumann source 2 g / h0 at node 0
        src = np.zeros((n, cols))
        src[0] = np.concatenate([t.g[0] + t.g[1] for t in terms]) / h0
        live = np.flatnonzero(src.any(axis=0))
        if not len(live):
            return out
        source = src[:, live]
    else:
        dz_weights = _first_deriv_matrix_weights(z)

        def source(k, b):
            src = np.zeros((n, cols), order="F")
            for i, t in enumerate(terms):
                part = src[:, 2 * i:2 * i + 2]
                part[0] = (t.g[k] + t.g[k + 1]) / h0
                if t.explicit:
                    col = np.zeros((2, len(z)))
                    col[:, :-1] = b[:, 2 * i:2 * i + 2].T
                    expl = -(t.f[k] * z) * _apply_first_deriv(dz_weights, col)
                    expl -= np.einsum("ij,jz->iz", t.a[k], col)
                    if flow.layer_forcing is not None:
                        expl += flow.layer_forcing(k * dt + 0.5 * dt, t.wall.wall_id, z)
                    part += expl[:, :-1].T
            return src

    def each(i, x):
        out[i][:, live] = x

    _cn_steps(_symmetrise(op, where), 0.5 * dt, dt, store_steps, source, where,
              tuple(np.zeros((n, len(live)), order="F") for _ in range(3)), each)
    return out


def solve_layer(flow: BaseFlow, geom: geo.GeometryDescriptor,
                grid: FastGrid, dt: float, t_end: float,
                store_times=None) -> LayerProfile:
    """March the tangential layer system on every wall.

    Each wall marches one column whose coefficients are evaluated at the
    wall, and all walls march in one kernel call (``_march_walls``).
    Without ``store_times`` about eight evenly spaced steps are stored,
    t = 0 included.  Stability of the explicit stretching term requires
    max |f| z dt / dz_loc <= 1 over the grid nodes (checked; the
    benchmarks have f = 0).  A non-finite iterate names the wall at fault:
    the joint march that hits one is re-run a wall at a time.
    """
    if not 0 < dt < math.inf:
        raise StepSizeError(f"dt must be finite and positive, got {dt}")
    n_steps, store_steps = _resolve_store_steps(dt, t_end, store_times)
    z = grid.z

    # explicit advection stability factor: max z_j / local spacing
    h_loc = np.minimum(z[1:-1] - z[:-2], z[2:] - z[1:-1])
    cfl_factor = float(np.max(z[1:-1] / h_loc))

    terms = [_wall_terms(flow, w, dt, n_steps) for w in geom.walls()]
    for t in terms:
        cfl = np.max(np.abs(t.f[:-1]), initial=0.0) * cfl_factor * dt
        if cfl > 1.0:
            raise StepSizeError(
                f"explicit stretching term unstable: |f| z dt / dz = "
                f"{cfl:.3g} > 1"
            )
    try:
        series = _march_walls(flow, terms, z, dt, store_steps)
    except SolverError:
        # the columns are independent, so the wall at fault fails alone
        for t in terms:
            _march_walls(flow, [t], z, dt, store_steps)
        raise

    walls = {}
    for i, t in enumerate(terms):
        ub = np.zeros((len(store_steps), 2, grid.nz))
        ub[:, :, :-1] = series[..., 2 * i:2 * i + 2].transpose(0, 2, 1)
        walls[t.wall.wall_id] = WallLayerSeries(
            wall_id=t.wall.wall_id,
            tangent_names=t.wall.tangent_names,
            ub=ub,
            g_used=t.g[store_steps],
        )
    times = np.array([k * dt for k in store_steps])
    return LayerProfile(geom=geom, grid=grid, times=times, walls=walls)


# ---------------------------------------------------------------------------
# wall traces
# ---------------------------------------------------------------------------


def slow_curl_at_wall(profile: LayerProfile, wall_id: str, it: int) -> float:
    """Axial component of curl_x of the tangential profile at z = 0, its
    only nonzero one.

    u_b does not vary along the collar, so only the curvature term of the
    annulus remains: b_th / r.  The channel gives zero.
    """
    if profile.geom.kind != geo.ANNULUS_GAP:
        return 0.0
    w = profile.walls[wall_id]
    b_th = w.ub[it][w.tangent_names.index("theta"), 0]
    return float(b_th / profile.geom.wall(wall_id).coord)


def wall_value(profile: LayerProfile, wall_id: str, it: int) -> np.ndarray:
    """Tangential components of u_b at z = 0, shape (2,)."""
    return profile.walls[wall_id].ub[it][:, 0]


# ---------------------------------------------------------------------------
# monitoring and output
# ---------------------------------------------------------------------------


@dataclass
class MonitorReport:
    times: np.ndarray
    series: dict                   # label -> (n_t,) array
    flagged: dict                  # label -> bool, growth beyond 10x first value


def layer_norm_monitor(profile: LayerProfile, idx_list) -> MonitorReport:
    """Weighted norms of the layer at every stored time.

    Norms of the two walls combine in the p-mean.  A label is flagged when
    any later value exceeds 10 times the value at the first stored time
    (plus a round-off floor), the discrete non-blow-up check.
    """
    series = {}
    flagged = {}
    for idx in idx_list:
        if isinstance(idx, str):
            from .spaces import parse_norm
            spec = parse_norm(idx)
            if spec.kind != "aniso":
                raise ConfigError("layer monitor takes aniso norm strings")
            label, aidx = idx, spec.idx
        else:
            aidx = idx
            label = f"aniso:{aidx.k},{aidx.m},{aidx.l},{aidx.p:g}"
        vals = np.zeros(len(profile.times))
        for it in range(len(profile.times)):
            per_wall = [weighted_norm(profile.profile(wid, it), aidx)
                        for wid in profile.walls]
            if math.isinf(aidx.p):
                vals[it] = max(per_wall)
            else:
                vals[it] = sum(v**aidx.p for v in per_wall) ** (1.0 / aidx.p)
        series[label] = vals
        ref = vals[0]
        flagged[label] = bool(np.any(vals > 10.0 * ref + 1e-12))
    return MonitorReport(times=profile.times.copy(), series=series, flagged=flagged)


def write_profile_snapshots(profile: LayerProfile, path) -> None:
    """Columnar text dump: wall, t, s, z, tangential components.

    One s per wall, the wall coordinate: the layer does not vary along the
    collar.  Floats are written with repr (shortest round trip), so
    identical runs produce bit-identical files.
    """
    lines = ["# wall t s z " + " ".join(
        f"c{i}" for i in range(2))]
    for wall_id in sorted(profile.walls):
        w = profile.walls[wall_id]
        s = float(profile.geom.wall(wall_id).coord)
        for it, t in enumerate(profile.times):
            for kz, zz in enumerate(profile.grid.z):
                comps = " ".join(repr(float(w.ub[it][c, kz])) for c in range(2))
                lines.append(f"{wall_id} {float(t)!r} {s!r} {float(zz)!r} {comps}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

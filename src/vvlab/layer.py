"""Boundary-layer profile solver.

The tangential profile u_b(t, z) is marched as one column per wall.  A
studied flow is steady and parallel, so its layer is the heat equation

    d/dt u_b = d2/dz2 u_b,

with the constant wall datum d/dz u_b|_{z=0} = -g, g = curl(u0) x n, one
number along the flow component (``GeometryDescriptor.flow_comp``), decay
u_b(Z_max) = 0, and zero initial data: u_b is that component alone, does
not vary along the collar, and a wall whose datum vanishes produces the
zero layer exactly.  The layer's pressure corrector is not computed: the
ansatz u0 + sqrt(nu) u_b uses u_b alone.  The walls share one operator, so
their columns step together, as the columns of one Crank-Nicolson march of
the symmetrised tridiagonal kernel of ns.py on the nodes below Z_max (the
Dirichlet node stays zero); only the walls whose datum g is nonzero march,
the others stay exactly +0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import SolverError, StepSizeError
from .euler import boundary_data_g
from .ns import _cn_steps, _resolve_store_steps, _symmetrise
from .spaces import FastGrid, ProfileField, weighted_norm


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
    """Stored layer data for one wall: ``ub`` is the flow component's
    column, the same at every collar sample, marched from the wall's datum
    ``g``."""

    wall_id: str
    ub: np.ndarray                 # (n_t, n_z)
    g: float


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
        """The flow component (``geom.flow_comp``) of u_b on one wall as a
        column weighted by the collar measure.  A sequence of stored indices
        ``it`` stacks those times on a leading axis."""
        return ProfileField(grid=self.grid, values=self.walls[wall].ub[it],
                            weight=self.geom.collar_measure(wall))


def _march_walls(walls: list, gs: list, z: np.ndarray, dt: float,
                 store_steps) -> np.ndarray:
    """March the ``walls``, of constant data ``gs``, together on the nodes
    below Z_max.

    The walls share one operator, so their columns, one a wall, are the
    right-hand sides of one _cn_steps march in Fortran-ordered arrays of its
    own, and dpttrs solves each column with the operations of its own march.
    Returns u_b at ``store_steps``, (n_store, n_z - 1, len(walls)).  The
    source is constant; a column whose g is exactly 0 stays exactly +0.0, so
    only the live columns march, and none when every datum vanishes.
    """
    op, h0 = _fast_diffusion_operator(z)
    n = len(z) - 1
    where = f"layer {','.join(w.wall_id for w in walls)} (nu-free, n={len(z)})"
    out = np.zeros((len(store_steps), n, len(walls)))
    # CN average of the ghost Neumann source 2 g / h0 at node 0
    src = np.zeros((n, len(walls)))
    src[0] = 2.0 * np.array(gs) / h0
    live = np.flatnonzero(src.any(axis=0))
    if not len(live):
        return out

    def each(i, x):
        out[i][:, live] = x

    _cn_steps(_symmetrise(op, where), 0.5 * dt, dt, store_steps, src[:, live], where,
              tuple(np.zeros((n, len(live)), order="F") for _ in range(3)), each)
    return out


def solve_layer(u0_profile, geom: geo.GeometryDescriptor,
                grid: FastGrid, dt: float, t_end: float, store_times) -> LayerProfile:
    """March the tangential layer of the base flow ``u0_profile`` on every
    wall to ``store_times``.

    Each wall marches one column driven by its datum g, evaluated once at
    the wall, and all walls march in one kernel call (``_march_walls``).  A
    non-finite iterate names the wall at fault: the joint march that hits
    one is re-run a wall at a time.
    """
    if not 0 < dt < math.inf:
        raise StepSizeError(f"dt must be finite and positive, got {dt}")
    _, store_steps = _resolve_store_steps(dt, t_end, store_times)
    walls = geom.walls()
    gs = [boundary_data_g(u0_profile, geom, w) for w in walls]
    try:
        series = _march_walls(walls, gs, grid.z, dt, store_steps)
    except SolverError:
        # the columns are independent, so the wall at fault fails alone
        for w, g in zip(walls, gs):
            _march_walls([w], [g], grid.z, dt, store_steps)
        raise

    out = {}
    for i, (w, g) in enumerate(zip(walls, gs)):
        ub = np.zeros((len(store_steps), grid.nz))
        ub[:, :-1] = series[..., i]
        out[w.wall_id] = WallLayerSeries(wall_id=w.wall_id, ub=ub, g=g)
    times = np.array([k * dt for k in store_steps])
    return LayerProfile(geom=geom, grid=grid, times=times, walls=out)


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
    b_th = profile.profile(wall_id, it).values[0]
    return float(b_th / profile.geom.wall(wall_id).coord)


# ---------------------------------------------------------------------------
# monitoring and output
# ---------------------------------------------------------------------------


@dataclass
class MonitorReport:
    times: np.ndarray
    series: dict                   # label -> (n_t,) array
    flagged: dict                  # label -> bool, growth beyond 10x first value


def layer_norm_monitor(profile: LayerProfile, idx_list) -> MonitorReport:
    """Weighted norms of the layer at every stored time, one series per
    AnisotropicIndex of ``idx_list``, labelled ``aniso:k,l,p``.

    Norms of the two walls combine in the p-mean.  A label is flagged when
    any later value exceeds 10 times the value at the first stored time
    (plus a round-off floor), the discrete non-blow-up check.
    """
    series = {}
    flagged = {}
    for idx in idx_list:
        label = f"aniso:{idx.k},{idx.l},{idx.p:g}"
        vals = np.zeros(len(profile.times))
        for it in range(len(profile.times)):
            per_wall = [weighted_norm(profile.profile(wid, it), idx)
                        for wid in profile.walls]
            if math.isinf(idx.p):
                vals[it] = max(per_wall)
            else:
                vals[it] = sum(v**idx.p for v in per_wall) ** (1.0 / idx.p)
        series[label] = vals
        ref = vals[0]
        flagged[label] = bool(np.any(vals > 10.0 * ref + 1e-12))
    return MonitorReport(times=profile.times.copy(), series=series, flagged=flagged)


def write_profile_snapshots(profile: LayerProfile, path) -> None:
    """Columnar text dump: wall, t, s, z, tangential components c0 c1 in
    the order of ``Wall.tangent_names``.

    The flow component's column is written in its tangent slot and the
    other component, exactly zero, as 0.0.  One s per wall, the wall
    coordinate: the layer does not vary along the collar.  Floats are
    written with repr (shortest round trip), so identical runs produce
    bit-identical files.
    """
    name = profile.geom.comp_names[profile.geom.flow_comp]
    lines = ["# wall t s z c0 c1"]
    for wall_id in sorted(profile.walls):
        wall = profile.geom.wall(wall_id)
        s = float(wall.coord)
        head, tail = ("", " 0.0") if wall.tangent_names.index(name) == 0 else ("0.0 ", "")
        for t, ub in zip(profile.times.tolist(), profile.walls[wall_id].ub):
            for zz, v in zip(profile.grid.z.tolist(), ub.tolist()):
                lines.append(f"{wall_id} {t!r} {s!r} {zz!r} {head}{v!r}{tail}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

"""Boundary-layer profile solver.

The tangential profile u_b(t, z) is one column per wall.  A studied flow
is steady and parallel, so its layer is the heat equation

    d/dt u_b = d2/dz2 u_b,

with the constant wall datum d/dz u_b|_{z=0} = -g, g = curl(u0) x n, one
number along the flow component (``GeometryDescriptor.flow_comp``), decay
u_b(Z_max) = 0, and zero initial data: u_b is that component alone and
does not vary along the collar.  The layer's pressure corrector is not
computed: the ansatz u0 + sqrt(nu) u_b uses u_b alone.  The problem is
linear in g, so u_b = g U_1, with U_1 the layer of the unit datum,
2 sqrt(t) ierfc(z / (2 sqrt(t))) in the continuum.  U_1 is marched once,
by the Crank-Nicolson kernel of ns.py (``_cn_steps``) on the nodes below
Z_max (the Dirichlet node stays zero), and only when some wall's datum is
nonzero; a wall whose datum vanishes keeps the zero layer exactly.
Scaling by a power of two is exact, so the rigid layer's u_b (g = +-2)
has the bits of a march of its own datum.

The layer's wall curl ``slow_curl_at_wall`` and its norm monitor
``layer_norm_monitor`` (with ``MonitorReport``) are test oracles in
``tests/manufactured.py``: no command reports them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import SolverError, StepSizeError
from .euler import boundary_data_g
from .ns import _cn_steps, _resolve_store_steps, _symmetrise
from .spaces import FastGrid, ProfileField, _not_a_knot_fit, _Spline


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
    column, the same at every collar sample, the wall's datum ``g`` times
    the unit layer U_1 (``solve_layer``), and ``spline`` the one not-a-knot
    fit to its columns at every stored time that the ansatz evaluates, None
    when they are all zero."""

    wall_id: str
    ub: np.ndarray                 # (n_t, n_z)
    g: float
    spline: _Spline | None


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

    def profile(self, wall: str, it: int) -> ProfileField:
        """The flow component (``geom.flow_comp``) of u_b on one wall at the
        stored index ``it``, as a column weighted by the collar measure."""
        return ProfileField(grid=self.grid, values=self.walls[wall].ub[it],
                            weight=self.geom.collar_measure(wall))


def solve_layer(u0_profile, geom: geo.GeometryDescriptor,
                grid: FastGrid, dt: float, t_end: float, store_times) -> LayerProfile:
    """March the tangential layer of the base flow ``u0_profile`` on every
    wall to ``store_times``.

    The layer is linear in the wall datum g, evaluated once at each wall,
    so u_b = g U_1 with U_1 the layer of the unit datum, marched once, in
    one kernel call of source (2 / h0) e_0, when some wall's g is nonzero.
    A wall whose g is not finite is named before any march, and a wall
    whose g is 0 keeps u_b = +0.0 exactly.  Each wall with a nonzero
    column is fitted once, at every stored time, for the ansatz of every
    viscosity.
    """
    if not 0 < dt < math.inf:
        raise StepSizeError(f"dt must be finite and positive, got {dt}")
    store_steps = _resolve_store_steps(dt, t_end, store_times)
    walls = geom.walls()
    gs = [boundary_data_g(u0_profile, geom, w) for w in walls]
    for w, g in zip(walls, gs):
        if not math.isfinite(g):
            raise SolverError(f"layer {w.wall_id} (nu-free, n={grid.nz}): "
                              f"wall datum g = {g} is not finite")
    unit = np.zeros((len(store_steps), grid.nz - 1))
    if any(gs):
        op, h0 = _fast_diffusion_operator(grid.z)
        where = f"layer (nu-free, n={grid.nz})"
        # CN average of the ghost Neumann source 2 g / h0 at node 0, g = 1
        src = np.zeros(grid.nz - 1)
        src[0] = 2.0 / h0

        def each(i, x):
            unit[i] = x

        _cn_steps(_symmetrise(op, where), [0.5 * dt], dt, store_steps, src, where,
                  tuple(np.zeros_like(src) for _ in range(3)), each)

    out = {}
    for w, g in zip(walls, gs):
        # the Dirichlet node at Z_max stays +0.0, and so does a zero datum's layer
        ub = np.zeros((len(store_steps), grid.nz))
        if g:
            np.multiply(g, unit, out=ub[:, :-1])
        spline = _not_a_knot_fit(grid.z, ub) if ub.any() else None
        out[w.wall_id] = WallLayerSeries(wall_id=w.wall_id, ub=ub, g=g, spline=spline)
    times = np.array([k * dt for k in store_steps])
    return LayerProfile(geom=geom, grid=grid, times=times, walls=out)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


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

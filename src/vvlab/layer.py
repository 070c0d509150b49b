"""Boundary-layer profile solver and pressure corrector.

The tangential profile u_b(t, z) is marched as one column per wall.  The
evolution coefficients g, f, the coupling and any manufactured forcing are
evaluated at the wall, so u_b does not vary along the collar and a wall
whose data vanish produces the zero layer exactly.  The pressure corrector
q(t, s, z) is not part of the solve: it is evaluated on demand at the
collar samples passed in, where it varies through the normal-coupling
coefficients c(s).  The evolution is

    d/dt u_b = d2/dz2 u_b - f z d/dz u_b - A_eff u_b + F,

with the wall datum d/dz u_b|_{z=0} = -g, g = curl(u0) x n in the wall
frame, decay u_b(Z_max) = 0, and zero initial data.  Diffusion is treated
with Crank-Nicolson (unconditionally stable); the stretching term f z d/dz
and the zeroth-order coupling are explicit, so the scheme is second order
in z and first order in t whenever those terms are active.  Both tangential
components of a wall step together through the symmetrised tridiagonal
kernel of ns.py on the nodes below Z_max (the Dirichlet node stays zero).
The explicit terms are built only when the flow has a nonzero f, a nonzero
coupling or a manufactured forcing; otherwise they would add exact zeros.

The coupling vector (u0 . grad u_b + u_b . grad u0) enters the tangential
equation either as a literal cross product with n ("cross" mode, the
operator J A with J a quarter turn in the wall frame) or as the orthogonal
projection ("project" mode, A itself).  Both vanish for the symmetric
benchmark flows; manufactured runs report the discrepancy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import ConfigError, StepSizeError
from .euler import _CROSS_J, BaseFlow, boundary_data_g
from .ns import _cn_march, _resolve_store_steps
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
    f_used: np.ndarray             # (n_t,)


@dataclass
class LayerProfile:
    """Layer solution bundle: the tangential profile of every wall.

    The order sqrt(nu) layer pressure is identically zero for this system
    and is not stored; the corrector q comes from pressure_corrector_q.
    """

    geom: geo.GeometryDescriptor
    grid: FastGrid
    times: np.ndarray
    walls: dict

    def profile(self, wall: str, it) -> ProfileField:
        """u_b as a one-sample field at the wall coordinate, weighted by the
        whole collar so slow integrals cover the collar.  A sequence of
        stored indices ``it`` stacks those times on a leading axis."""
        w = self.walls[wall]
        return ProfileField(grid=self.grid, s=self.geom.wall(wall).coord,
                            s_weights=self.geom.collar_measure(wall),
                            values=w.ub[it][..., None, :],
                            comp_names=w.tangent_names)


def solve_layer(flow: BaseFlow, geom: geo.GeometryDescriptor,
                grid: FastGrid, dt: float, t_end: float,
                store_times=None,
                coupling_mode: str = "cross") -> LayerProfile:
    """March the tangential layer system on every wall.

    Each wall marches one column whose coefficients are evaluated at the
    wall.  Without ``store_times`` about eight evenly spaced steps are
    stored, t = 0 included.  Stability of the explicit stretching term
    requires max |f| z dt / dz_loc <= 1 over the grid nodes (checked; the
    benchmarks have f = 0).
    """
    if dt <= 0:
        raise StepSizeError("dt must be positive")
    if coupling_mode not in ("cross", "project"):
        raise ConfigError("coupling_mode must be 'cross' or 'project'")
    n_steps, store_steps = _resolve_store_steps(dt, t_end, store_times, None)
    z = grid.z
    op, h0 = _fast_diffusion_operator(z)
    dz_weights = _first_deriv_matrix_weights(z)

    # explicit advection stability factor: max z_j / local spacing
    h_loc = np.minimum(np.diff(z, prepend=z[0] - (z[1] - z[0])),
                       np.diff(z, append=z[-1] + (z[-1] - z[-2])))
    cfl_factor = float(np.max(z[1:-1] / h_loc[1:-1])) if grid.nz > 2 else 0.0

    times = np.array([k * dt for k in store_steps])
    walls = {}
    for w in geom.walls():
        def coeffs(t):
            g = boundary_data_g(flow, w, t=t)
            f = float(flow.f_stretch(t))
            a = flow.coupling_matrix(t, w.wall_id)
            if coupling_mode == "cross":
                a = np.einsum("ij,jk->ik", _CROSS_J, a)
            return g, f, a

        # g, f and A at every step; a steady flow repeats its t = 0 values
        steps = [coeffs(0.0)] * (n_steps + 1) if flow.steady \
            else [coeffs(k * dt) for k in range(n_steps + 1)]
        g_all = np.array([c[0] for c in steps])
        f_all = np.array([c[1] for c in steps])
        a_all = np.array([c[2] for c in steps])
        cfl = np.max(np.abs(f_all[:-1]), initial=0.0) * cfl_factor * dt
        if cfl > 1.0:
            raise StepSizeError(
                f"explicit stretching term unstable: |f| z dt / dz = "
                f"{cfl:.3g} > 1"
            )
        explicit = flow.layer_forcing is not None \
            or np.any(f_all != 0.0) or np.any(a_all != 0.0)

        def step_source(k, b):
            # CN average of the ghost Neumann source 2 g / h0 at node 0
            src = np.zeros((grid.nz - 1, 2))
            src[0] = (g_all[k] + g_all[k + 1]) / h0
            if explicit:
                col = np.zeros((2, grid.nz))
                col[:, :-1] = b.T
                expl = -(f_all[k] * z) * _apply_first_deriv(dz_weights, col)
                expl -= np.einsum("ij,jz->iz", a_all[k], col)
                if flow.layer_forcing is not None:
                    expl += flow.layer_forcing(k * dt + 0.5 * dt, w.wall_id, z)
                src += expl[:, :-1].T
            return src

        # without explicit terms a steady flow has a constant source
        source = step_source(0, None) if flow.steady and not explicit \
            else step_source
        series = _cn_march(op, 0.5 * dt, dt, store_steps, source,
                           f"layer {w.wall_id} (nu-free, n={grid.nz})",
                           columns=2)
        ub_store = np.zeros((len(store_steps), 2, grid.nz))
        ub_store[:, :, :-1] = series.transpose(0, 2, 1)

        walls[w.wall_id] = WallLayerSeries(
            wall_id=w.wall_id,
            tangent_names=w.tangent_names,
            ub=ub_store,
            g_used=g_all[store_steps],
            f_used=f_all[store_steps],
        )

    return LayerProfile(geom=geom, grid=grid, times=times, walls=walls)


# ---------------------------------------------------------------------------
# pressure corrector and wall traces
# ---------------------------------------------------------------------------


def _tail_integral(values: np.ndarray, z: np.ndarray) -> np.ndarray:
    """int_z^{Zmax} values dz' by trapezoid, evaluated at every node."""
    wz = np.diff(z)
    seg = 0.5 * (values[..., 1:] + values[..., :-1]) * wz
    tail = np.zeros_like(values)
    tail[..., :-1] = np.cumsum(seg[..., ::-1], axis=-1)[..., ::-1]
    return tail


def _coupling_tail(profile: LayerProfile, coeff, collars: dict) -> dict:
    """-int_z^inf coeff(t, wall, s) . u_b dz' per wall at the collar samples,
    shape (n_t, n_s, n_z); integrating from Z_max downward pins the decay."""
    z = profile.grid.z
    out = {}
    for wall_id, w in profile.walls.items():
        s = collars[wall_id].s_grid
        out[wall_id] = np.stack([
            -_tail_integral(np.einsum("cs,cz->sz", coeff(t, wall_id, s), w.ub[it]), z)
            for it, t in enumerate(profile.times)])
    return out


def pressure_corrector_q(profile: LayerProfile, flow: BaseFlow,
                         collars: dict) -> dict:
    """q(t, s, z) = -int_z^inf (coupling . n) dz' per wall, (n_t, n_s, n_z).

    The integrand is c(s) . u_b with the flow's normal coupling
    coefficients, at the samples of ``collars`` (geometry.build_collar); q
    varies along s through c(s) alone.
    """
    return _coupling_tail(profile, flow.normal_coupling, collars)


def grad_q_x(profile: LayerProfile, flow: BaseFlow, collars: dict) -> dict:
    """Slow gradient of the pressure corrector, per wall, (n_t, 3, n_s, n_z).

    grad_x q = -int_z^inf (d/ds c) . u_b dz' at the collar samples, which
    run along the extended normal; u_b itself does not vary along them.
    The result is a 3-component profile in the geometry frame.
    """
    out = {}
    for wall_id, dq in _coupling_tail(profile, flow.normal_coupling_deriv,
                                      collars).items():
        # d/ds runs along the cross coordinate; grad q = (dq/ds) e_coord
        # and the coordinate direction is into_domain * n
        grads = np.zeros((dq.shape[0], 3) + dq.shape[1:])
        grads[:, profile.geom.normal_comp] = dq
        out[wall_id] = grads
    return out


def slow_curl_at_wall(profile: LayerProfile, wall_id: str, it: int) -> np.ndarray:
    """curl_x of the tangential profile at z = 0 on the wall, shape (3,).

    u_b does not vary along the collar, so only the curvature term of the
    annulus remains: curl_x = (0, 0, b_th / r).  The channel gives zero.
    """
    out = np.zeros(3)
    if profile.geom.kind == geo.ANNULUS_GAP:
        w = profile.walls[wall_id]
        b_th = w.ub[it][w.tangent_names.index("theta"), 0]
        out[2] = b_th / profile.geom.wall(wall_id).coord
    return out


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
                lines.append(f"{wall_id} {t!r} {s!r} {float(zz)!r} {comps}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

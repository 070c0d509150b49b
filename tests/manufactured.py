"""Manufactured layer cases and the explicit march that runs them.

A studied layer is driven by a constant wall datum g alone (``vvlab.layer``).
The layer equation of the paper also has a stretching f z d/dz b, a
coupling J A b and, for a manufactured solution, a forcing F:

    d/dt b = d2/dz2 b - f z d/dz b - J A b + F,   d/dz b(t, 0) = -g(t),

with J the quarter turn (a, b) -> (b, -a) of the wall frame.
``march_layer`` marches it on the layer's own operator and Crank-Nicolson
kernel with the diffusion implicit and the other terms explicit, so it is
second order in z and first order in t.  Criterion 8, test_layer and
test_cn_kernel run it.

``ERFC_SQ_NORMS`` holds the closed forms of the erfc layer's norms, which
test_layer checks the weighted norms against and test_study predicts the
rigid study's rows with.
"""

import math
from dataclasses import dataclass

import numpy as np

from vvlab import layer, ns
from vvlab.spaces import _apply_first_deriv, _first_deriv_matrix_weights

CROSS_J = np.array([[0.0, 1.0], [-1.0, 0.0]])

# squared L2 norms over the half-line of u_b = 2 g sqrt(t) ierfc(z / (2 sqrt(t))),
# the layer of a constant datum g, and of its first two z derivatives, per
# unit g^2 and collar weight; they use int_0^inf ierfc^2 = (sqrt(2) - 1) /
# (3 sqrt(pi)) and int_0^inf erfc^2 = (2 - sqrt(2)) / sqrt(pi)
ERFC_SQ_NORMS = (
    lambda t: 8.0 * (math.sqrt(2.0) - 1.0) * t**1.5 / (3.0 * math.sqrt(math.pi)),
    lambda t: 2.0 * (2.0 - math.sqrt(2.0)) * math.sqrt(t) / math.sqrt(math.pi),
    lambda t: 1.0 / math.sqrt(2.0 * math.pi * t),
)


@dataclass
class LayerCase:
    """A layer's coefficients at an array of times t, on a leading axis:
    the datum g(t, wall) (n_t, 2), the stretching f(t) (n_t,), the coupling
    A(t, wall) (n_t, 2, 2) and the forcing F(t, wall, z) (n_t, 2, n_z);
    ``exact(t, z)`` is the solution where it is known."""

    g: callable
    f: callable = np.zeros_like
    a: callable = lambda t, wall: np.zeros((len(t), 2, 2))
    forcing: callable = None
    exact: callable = None


def steady_case(u0_profile, geom) -> LayerCase:
    """The layer of a studied flow: its constant datum alone, the curl
    (0, 0, omega) crossed with the wall's normal in the geometry's frame,
    in the wall's two tangential components."""
    def g(t, wall):
        omega = u0_profile.vorticity(np.array([wall.coord]))[0]
        cross = dict(zip(geom.comp_names, np.cross([0.0, 0.0, omega], wall.normal)))
        return np.tile([cross[name] for name in wall.tangent_names], (len(t), 1))

    return LayerCase(g=g)


def march_layer(case: LayerCase, walls, z, dt, store_steps) -> np.ndarray:
    """The walls' layers at ``store_steps``, (n_store, n_z - 1, 2 len(walls)),
    both tangential components of a wall side by side, the walls' columns
    in the order ``layer._march_walls`` marches them.  The coefficients
    are formed for every step before the march; a step's explicit term is
    formed for every wall at once."""
    op, h0 = layer._fast_diffusion_operator(z)
    n, cols = len(z) - 1, 2 * len(walls)
    where = f"layer {','.join(w.wall_id for w in walls)} (nu-free, n={len(z)})"
    t = dt * np.arange(store_steps[-1] + 1)
    g = np.concatenate([case.g(t, w) for w in walls], axis=1)
    ghost = (g[:-1] + g[1:]) / h0
    stretch = -(case.f(t)[:, None] * z)
    a_eff = np.stack([np.einsum("ij,tjk->tik", CROSS_J, case.a(t, w)) for w in walls], 1)
    forcing = None if case.forcing is None else np.stack(
        [case.forcing(t[:-1] + 0.5 * dt, w, z) for w in walls], 1)
    weights = _first_deriv_matrix_weights(z)
    col = np.zeros((len(walls), 2, len(z)))

    def source(k, b):
        col[..., :-1] = b.T.reshape(len(walls), 2, n)
        expl = stretch[k] * _apply_first_deriv(weights, col)
        expl -= np.einsum("wij,wjz->wiz", a_eff[k], col)
        if forcing is not None:
            expl += forcing[k]
        src = np.zeros((n, cols))
        src[0] = ghost[k]
        src += expl[..., :-1].reshape(cols, n).T
        return src

    out = np.zeros((len(store_steps), n, cols))

    def each(i, x):
        out[i] = x

    ns._cn_steps(ns._symmetrise(op, where), 0.5 * dt, dt, store_steps, source, where,
                 tuple(np.zeros((n, cols), order="F") for _ in range(3)), each)
    return out


def march_profiles(case: LayerCase, geom, grid, dt, t_end, store_times) -> dict:
    """``march_layer`` on every wall of ``geom`` to ``store_times``: wall id
    -> u_b, (n_store, 2, n_z), in the order of ``Wall.tangent_names``, with
    the Dirichlet node at Z_max zero as ``solve_layer`` stores it."""
    _, steps = ns._resolve_store_steps(dt, t_end, store_times)
    series = march_layer(case, geom.walls(), grid.z, dt, steps)
    out = {}
    for i, w in enumerate(geom.walls()):
        out[w.wall_id] = np.zeros((len(steps), 2, grid.nz))
        out[w.wall_id][..., :-1] = series[..., 2 * i:2 * i + 2].transpose(0, 2, 1)
    return out


def oscillating_shear_case(geom, amp=1.0, omega=2.0, f0=0.4) -> LayerCase:
    """The layer of the unsteady shear amp cos(omega t) cos(pi y/H) e_x in
    the channel, with the wall vorticity cos(2 t) (1 + y) added so that
    its datum g(t) is nonzero, a stretching f0 cos(omega t) and a constant
    coupling."""
    def g(t, wall):
        # (omega e_z) x n = omega (-n_y, 0, n_x) in the channel's (x, y, z)
        y, n = wall.coord, wall.normal
        vort = amp * np.cos(omega * t) * math.pi / geom.h * math.sin(math.pi * y / geom.h)
        datum = {"x": -n[1], "z": n[0]}
        return np.multiply.outer(vort + np.cos(2.0 * t) * (1.0 + y),
                                 [datum[name] for name in wall.tangent_names])

    return LayerCase(g=g, f=lambda t: f0 * np.cos(omega * t),
                     a=lambda t, wall: np.tile([[0.3, 0.1], [0.0, -0.2]], (len(t), 1, 1)))


def layer_mms_case(omega: float, f0: float, a_mat) -> LayerCase:
    """The manufactured layer solution b(t, z) = sin(omega t) exp(-z^2) w.

    Zero initial data and zero wall datum (d/dz b(t,0) = 0).  The forcing
    closes the layer equation with the stretching f0 cos(omega t) and the
    coupling J A, so the march must converge to b at its orders.
    """
    w_dir = np.array([1.0, 0.5])
    a_mat = np.asarray(a_mat, dtype=float)
    a_w = (CROSS_J @ a_mat) @ w_dir

    def exact(t, z):
        return math.sin(omega * t) * np.exp(-np.asarray(z) ** 2)[None, :] * w_dir[:, None]

    def forcing(t, wall, z):
        # F = db/dt - d2b/dz2 + f z db/dz + A_eff b for the exact profile
        a = np.sin(omega * t)[:, None, None]
        da = omega * np.cos(omega * t)[:, None, None]
        shape = np.exp(-(z**2))
        core = da - a * (4.0 * z**2 - 2.0) - 2.0 * f0 * np.cos(omega * t)[:, None, None] \
            * z**2 * a
        return core * w_dir[:, None] * shape + a * a_w[:, None] * shape

    return LayerCase(g=lambda t, wall: np.zeros((len(t), 2)),
                     f=lambda t: f0 * np.cos(omega * t),
                     a=lambda t, wall: np.broadcast_to(a_mat, (len(t), 2, 2)),
                     forcing=forcing, exact=exact)

"""Manufactured layer cases and the explicit march that runs them.

A studied layer is driven by a constant wall datum g alone (``vvlab.layer``).
The layer equation of the paper also has a stretching f z d/dz b, a
coupling J A b and, for a manufactured solution, a forcing F:

    d/dt b = d2/dz2 b - f z d/dz b - J A b + F,   d/dz b(t, 0) = -g(t),

with J the quarter turn (a, b) -> (b, -a) of the wall frame.
``march_layer`` marches it on the layer's own operator with the diffusion
implicit and the other terms explicit, so it is second order in z and
first order in t.  It steps with the tests' step oracle,
``_oracle_cn_march``, the Crank-Nicolson loop the package kernel
``ns._cn_steps`` replaced, which takes a source formed from the current
iterate a step at a time, as no package march does.  Criterion 8,
test_layer and test_cn_kernel run it.

``ERFC_SQ_NORMS`` holds the closed forms of the erfc layer's norms, which
test_layer checks the weighted norms against and test_study predicts the
rigid study's rows with.  ``ierfc`` and ``i2erfc`` are erfc's first two
repeated integrals, ``erfc_solution`` is the erfc layer of a constant
datum, 2 g sqrt(t) ierfc(z / (2 sqrt(t))), and ``remainder_limit`` is R_1,
the O(nu) term of u - u0 beyond the layer's sqrt(nu) b, with which
test_study predicts the rigid study's u and R rows.

Three oracles read the package's records and no command reports them:
``remainder_bc_residual``, the wall identity of the remainder R =
(u_nu - u0 - sqrt(nu) u_b)/nu, with the layer's wall curl
``slow_curl_at_wall``; and ``layer_norm_monitor``, the layer's weighted
norms at every stored time in a ``MonitorReport``.  The ansatz's order-nu
corrector v is zero in the studied geometries (``vvlab.expansion``), so
the identity has no v term.  test_expansion, test_layer, test_ns and
criterion 6 read them.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.special import erfc

from vvlab import geometry as geo
from vvlab import layer, ns
from vvlab.errors import ConfigError
from vvlab.layer import LayerProfile
from vvlab.ns import ViscousSolution, time_index, vorticity
from vvlab.spaces import _apply_first_deriv, _first_deriv_matrix_weights, weighted_norm

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


def ierfc(s):
    """int_s^inf erfc = e^(-s^2) / sqrt(pi) - s erfc(s) (Abramowitz & Stegun
    7.2)."""
    return np.exp(-s**2) / math.sqrt(math.pi) - s * erfc(s)


def i2erfc(s):
    """int_s^inf ierfc = ((1 + 2 s^2) erfc(s) - 2 s e^(-s^2) / sqrt(pi)) / 4
    (Abramowitz & Stegun 7.2)."""
    return ((1.0 + 2.0 * s**2) * erfc(s)
            - 2.0 * s * np.exp(-s**2) / math.sqrt(math.pi)) / 4.0


def erfc_solution(g, t, z):
    """Half-line heat solution with dz u(t, 0) = -g, zero initial data."""
    return 2.0 * g * np.sqrt(t) * ierfc(z / (2.0 * np.sqrt(t)))


def remainder_limit(profile, geom, nu, t, x):
    """R_1(x, t), the limit of (u - u0 - sqrt(nu) b) / nu as nu -> 0, on the
    cross coordinates ``x`` of ``geom``, for the base flow ``profile``:

        R_1 = t L U0 + sum_w (omega0(r_w) / r_w) 2 t [i2erfc(eta_w) - eta_w ierfc(eta_w)],

    with L U0 = U0'' + U0'/r - U0/r^2 the reference's operator, omega0 =
    U0' + U0/r, r_w the radius of wall w and eta_w = d_w / (2 sqrt(nu t)).
    The first term is the interior's O(nu) drift; the second is the wall
    curvature's corrector c = t F(eta), which solves d/dt c = d2/dz2 c +
    (n / r_w) d/dz b with d/dz c(0) = -n b(0) / r_w from zero.  In the
    channel r = +inf and R_1 = t U0''.
    """
    r = geom.radius(x)
    out = t * (profile.deriv(x, 2) + profile.deriv(x, 1) / r - profile.value(x) / r**2)
    for w in geom.walls():
        at = np.array([w.coord])
        r_w = geom.radius(at)
        curl = float(((profile.deriv(at, 1) + profile.value(at) / r_w) / r_w)[0])
        eta = geo.wall_distance(geom, w.wall_id, x) / (2.0 * math.sqrt(nu * t))
        out = out + curl * 2.0 * t * (i2erfc(eta) - eta * ierfc(eta))
    return out


def slow_curl_at_wall(profile: LayerProfile, wall_id: str, it: int) -> float:
    """Axial component of curl_x of the tangential profile at z = 0, its
    only nonzero one.

    u_b does not vary along the collar, so only the curvature term
    remains: b / r at the wall, +-0.0 in the channel (r = +inf).
    """
    geom = profile.geom
    b = profile.profile(wall_id, it).values[0]
    return float(b / geom.radius(geom.wall(wall_id).coord))


def remainder_bc_residual(sol: ViscousSolution, u_approx: np.ndarray, times,
                          profile: LayerProfile) -> float:
    """Max-norm residual of the remainder's tangential wall identity.

    R = (u_nu - ansatz)/nu is formed at each of ``times`` from the
    solution's stored time (an AlignmentError if it was not stored) and the
    matching row of ``u_approx``, the (n_t, n) ansatz on the solution's
    grid.  The identity is curl R x n + nu^{-1/2} curl_x u_b|_{z=0} x n
    + curl_x v|_{z=0} x n = 0; the corrector v is zero here (see the module
    docstring).  Both curls are axial and n is a unit wall normal, so the
    residual is |omega_R + b_theta / (r sqrt(nu))|, with omega_R the axial
    vorticity of R and the layer term zero in the channel.  The normal
    identity R . n + v . n = 0 holds exactly: R is the flow component
    alone, which no wall normal has.
    """
    times = np.asarray(times, dtype=float)
    if np.shape(u_approx) != (len(times), len(sol.coords)):
        raise ConfigError(
            f"ansatz of shape {np.shape(u_approx)} does not match "
            f"{len(times)} times on the solution's {len(sol.coords)} points")
    res = 0.0
    for it, t in enumerate(times):
        ip = time_index(profile.times, t)
        rem = (sol.u[time_index(sol.times, t)] - u_approx[it]) / sol.nu
        omega = vorticity(sol.geom, sol.coords, rem)
        for i, w in zip((0, -1), sol.geom.walls()):
            layer = slow_curl_at_wall(profile, w.wall_id, ip) / math.sqrt(sol.nu)
            res = max(res, abs(float(omega[i]) + layer))
    return res


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


def _oracle_cn_march(op, a, dt, n_steps, store_steps, source, rannacher=0,
                     columns=None):
    """The package kernel's loop before it factored (I - a S) / 2 and
    marched by store segment: one I - a S factorisation, a fresh
    w + dt/2 src, a doubling and a subtraction per step, and a march to
    n_steps.  ``source`` is the constant src, (n,) or (n, m), or a callable
    ``source(k, w)`` giving the (n, columns) src of step k from the current
    iterate.  Returns w at ``store_steps``, (n_store,) + w's shape."""
    lo, di, up = (np.asarray(x, dtype=float) for x in op)
    n = len(di)
    diag, off, info = dpttrf(1.0 - a * di, -a * np.sqrt(lo * up))
    assert info == 0
    scale = np.concatenate(([1.0], np.cumprod(np.sqrt(up / lo))))[:, None]

    varying = callable(source)
    half = 0.5 * dt
    if varying:
        flat = False
        w = np.zeros((n, columns), order="F")
    else:
        source = np.asarray(source, dtype=float)
        flat = source.ndim == 1
        hsrc = half * scale * source.reshape(n, -1)
        w = np.zeros(hsrc.shape, order="F")
    out = np.zeros((len(store_steps),) + w.shape)
    out_idx = {k: i for i, k in enumerate(store_steps)}
    for k in range(n_steps):
        if varying:
            hsrc = half * scale * source(k, w / scale)
        if k < rannacher:
            w, _ = dpttrs(diag, off, w + hsrc, overwrite_b=True)
            w, _ = dpttrs(diag, off, w + hsrc, overwrite_b=True)
        else:
            y, _ = dpttrs(diag, off, w + hsrc, overwrite_b=True)
            y *= 2.0
            y -= w
            w = y
        if (k + 1) in out_idx:
            out[out_idx[k + 1]] = w / scale
    return out[..., 0] if flat else out


def march_layer(case: LayerCase, walls, z, dt, store_steps) -> np.ndarray:
    """The walls' layers at ``store_steps``, (n_store, n_z - 1, 2 len(walls)),
    both tangential components of a wall side by side, the walls' columns
    in the order of ``walls``, marched together by the step oracle.  The
    coefficients are formed for every step before the march; a step's
    explicit term is formed for every wall at once."""
    op, h0 = layer._fast_diffusion_operator(z)
    n, cols = len(z) - 1, 2 * len(walls)
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

    return _oracle_cn_march(op, 0.5 * dt, dt, store_steps[-1], store_steps, source,
                            columns=cols)


def march_profiles(case: LayerCase, geom, grid, dt, t_end, store_times) -> dict:
    """``march_layer`` on every wall of ``geom`` to ``store_times``: wall id
    -> u_b, (n_store, 2, n_z), in the order of ``Wall.tangent_names``, with
    the Dirichlet node at Z_max zero as ``solve_layer`` stores it."""
    steps = ns._resolve_store_steps(dt, t_end, store_times)
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

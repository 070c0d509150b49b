"""The symmetric tridiagonal Crank-Nicolson kernel against its oracles.

The sparse oracles are the SuperLU marches the kernel replaced: the
reference solve's deviation-form march and the layer's CN step with the
Dirichlet row edited into the matrix.  The kernel takes the same steps in
a different arithmetic, so the two agree to round-off.

The step oracle is the kernel's earlier loop, which factored I - a S,
allocated w + dt/2 src each step and marched to n_steps.  The lean kernel
does the same floating-point work, so the two agree bit for bit.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.lapack import dpttrf, dpttrs

from vvlab import geometry as geo
from vvlab import layer, ns
from vvlab.errors import ConfigError, SolverError
from vvlab.euler import (
    LaurentProfile,
    ShearProfile,
    boundary_data_g,
    layer_mms_case,
    oscillating_shear_case,
    rigid_rotation,
)
from vvlab.layer import _CROSS_J, solve_layer
from vvlab.spaces import FastGrid, diff_along

# ---------------------------------------------------------------------------
# oracles: the sparse marches as they were before the kernel
# ---------------------------------------------------------------------------


def _oracle_ns_march(op, u0, nu, dt, n_steps, store_steps, rannacher, drive):
    n = len(u0)
    eye = sp.identity(n, format="csc")
    lu = spla.splu((eye - 0.5 * nu * dt * op).tocsc())
    m_plus = eye + 0.5 * nu * dt * op
    drive = nu * drive

    out = np.zeros((len(store_steps), n))
    out_idx = {k: i for i, k in enumerate(store_steps)}
    w = np.zeros(n)
    if 0 in out_idx:
        out[out_idx[0]] = u0
    for k in range(n_steps):
        if k < rannacher:
            w = lu.solve(w + 0.5 * dt * drive)
            w = lu.solve(w + 0.5 * dt * drive)
        else:
            w = lu.solve(m_plus @ w + dt * drive)
        if (k + 1) in out_idx:
            out[out_idx[k + 1]] = u0 + w
    return out


def _oracle_fast_diffusion_matrix(z):
    n = len(z)
    hm = z[1:-1] - z[:-2]
    hp = z[2:] - z[1:-1]
    lo = np.zeros(n - 1)
    di = np.zeros(n)
    up = np.zeros(n - 1)
    lo[:-1] = 2.0 / (hm * (hm + hp))
    di[1:-1] = -2.0 / (hm * hp)
    up[1:] = 2.0 / (hp * (hm + hp))
    h0 = z[1] - z[0]
    di[0] = -2.0 / h0**2
    up[0] = 2.0 / h0**2
    lo[-1] = 0.0
    di[-1] = 0.0
    return sp.diags([lo, di, up], [-1, 0, 1], format="csr"), h0


def _oracle_layer_march(flow, geom, grid, dt, n_steps, store_steps,
                        coupling_mode="cross"):
    """ub per wall, (n_store, 2, n_z), from the sparse CN step."""
    z = grid.z
    d2, h0 = _oracle_fast_diffusion_matrix(z)
    eye = sp.identity(grid.nz, format="csr")
    m_minus = (eye - 0.5 * dt * d2).tolil()
    m_minus[-1, :] = 0.0
    m_minus[-1, -1] = 1.0
    lu = spla.splu(m_minus.tocsc())
    m_plus = eye + 0.5 * dt * d2
    out = {}
    for w in geom.walls():
        def coeffs(t):
            g = boundary_data_g(flow, w, t=t)
            f = float(flow.f_stretch(t))
            a = flow.coupling_matrix(t, w.wall_id)
            if coupling_mode == "cross":
                a = np.einsum("ij,jk->ik", _CROSS_J, a)
            return g, f, a

        b = np.zeros((2, grid.nz))
        ub = np.zeros((len(store_steps), 2, grid.nz))
        out_idx = {k: i for i, k in enumerate(store_steps)}
        g_now, f_now, a_now = coeffs(0.0)
        for k in range(n_steps):
            t_now = k * dt
            g_next, f_next, a_next = (g_now, f_now, a_now) if flow.steady \
                else coeffs((k + 1) * dt)
            expl = -(f_now * z) * diff_along(b, z, axis=-1)
            expl -= np.einsum("ij,jz->iz", a_now, b)
            if flow.layer_forcing is not None:
                expl += flow.layer_forcing(t_now + 0.5 * dt, w.wall_id, z)
            rhs = (m_plus @ b.T).T
            rhs += dt * expl
            rhs[:, 0] += dt * (g_now + g_next) / h0
            rhs[:, -1] = 0.0
            b = lu.solve(rhs.T).T
            g_now, f_now, a_now = g_next, f_next, a_next
            if (k + 1) in out_idx:
                ub[out_idx[k + 1]] = b
        out[w.wall_id] = ub
    return out


def _oracle_cn_march(op, a, dt, n_steps, store_steps, source, where,
                     rannacher=0, columns=None):
    """The kernel's loop before it factored (I - a S) / 2 and marched by
    store segment: one I - a S factorisation, a fresh w + dt/2 src, a
    doubling and a subtraction per step, and a march to n_steps."""
    lo, di, up = (np.asarray(x, dtype=float) for x in op)
    n = len(di)
    prod = lo * up
    diag, off, info = dpttrf(1.0 - a * di, -a * np.sqrt(prod))
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
            i = out_idx[k + 1]
            out[i] = w / scale
    return out[..., 0] if flat else out


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

# (store steps, n_steps): with step 0 and ending at n_steps, without step 0
# and ending before it
STORE_SETS = [([0, 3, 50, 100], 100), ([7, 40], 100)]


def _swirl_march_case(columns):
    geom = geo.annulus_gap(1.0, 2.0, eta=0.45)
    x = geom.volume_grid(256)
    nu, dt = 1e-2, 1e-3
    drive = nu * ns._drive_swirl(x, LaurentProfile({1: 1.0, -1: 0.5}))
    src = drive if columns is None else np.stack(
        [drive, 0.3 * drive + np.cos(4.0 * x)], axis=1)
    return ns._swirl_operator(x), 0.5 * nu * dt, dt, src


@pytest.mark.parametrize("store", STORE_SETS)
@pytest.mark.parametrize("rannacher", [0, 2])
@pytest.mark.parametrize("columns", [None, 2])
def test_kernel_matches_step_oracle_constant_source(columns, rannacher, store):
    op, a, dt, src = _swirl_march_case(columns)
    steps, n_steps = store
    got = ns._cn_march(op, a, dt, steps, src, "test", rannacher=rannacher)
    want = _oracle_cn_march(op, a, dt, n_steps, steps, src, "test",
                            rannacher=rannacher)
    assert got.shape == want.shape == (len(steps),) + src.shape
    assert np.any(got != 0.0)
    assert np.array_equal(got, want)


def _layer_kernel_calls(monkeypatch, flow, geom, store_times):
    """Run solve_layer and return the arguments of each of its kernel
    calls; the layer's source is a callable of (k, w) alone."""
    calls = []
    real = layer._cn_march

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(layer, "_cn_march", spy)
    solve_layer(flow, geom, FastGrid(nz=64, zmax=12.0), dt=1e-3, t_end=0.1,
                store_times=store_times)
    return calls


@pytest.mark.parametrize("store_times", [[0.0, 0.003, 0.05, 0.1], [0.007, 0.04]])
@pytest.mark.parametrize("case", ["oscillating-shear", "layer-mms"])
def test_kernel_matches_step_oracle_callable_source(monkeypatch, case, store_times):
    flow, geom, _ = _layer_cases()[case]
    calls = _layer_kernel_calls(monkeypatch, flow, geom, store_times)
    assert len(calls) == 2
    for (op, a, dt, steps, source, where), kwargs in calls:
        assert callable(source)
        for rannacher in (0, 2):
            got = ns._cn_march(op, a, dt, steps, source, where,
                               rannacher=rannacher, columns=kwargs["columns"])
            want = _oracle_cn_march(op, a, dt, 100, steps, source, where,
                                    rannacher=rannacher,
                                    columns=kwargs["columns"])
            assert np.any(got != 0.0)
            assert np.array_equal(got, want)


@pytest.mark.parametrize("rannacher", [0, 2])
@pytest.mark.parametrize("store", STORE_SETS)
def test_march_stops_at_last_store_step(monkeypatch, store, rannacher):
    # one solve per step, two per Rannacher step, none past the last store
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return dpttrs(*args, **kwargs)

    monkeypatch.setattr(ns, "dpttrs", counting)
    op, a, dt, src = _swirl_march_case(None)
    steps, _ = store
    ns._cn_march(op, a, dt, steps, src, "test", rannacher=rannacher)
    assert len(calls) == steps[-1] + rannacher


NS_CASES = {
    "swirl": (geo.annulus_gap(1.0, 2.0, eta=0.45), LaurentProfile({1: 1.0, -1: 0.5}),
              ns._swirl_operator, ns._drive_swirl, 1),
    "channel": (geo.flat_channel(1.0, eta=0.45),
                ShearProfile(poly=(0.2, 1.0), cosines=((1.0, 1),)),
                ns._channel_operator, ns._drive_channel, 0),
}


@pytest.mark.parametrize("rannacher", [0, 2])
@pytest.mark.parametrize("case", sorted(NS_CASES))
# the solve takes u0 as a profile only, so its drive is always the one built
# from the profile's exact derivatives
@pytest.mark.parametrize("with_drive", [True])
def test_reference_solve_matches_sparse_march(case, rannacher, with_drive):
    geom, prof, operator, drive_of, comp = NS_CASES[case]
    n, nu, dt, t_end = 256, 1e-2, 1e-3, 0.1
    x = geom.volume_grid(n)
    op = operator(x)
    # some modes have a * lambda < -1: the CN amplification is negative
    lam = eigvalsh_tridiagonal(op[1], np.sqrt(op[0] * op[2]))
    assert 0.5 * nu * dt * lam.min() < -1.0
    store = [0.0, 0.003, 0.05, 0.1]
    sol = ns.solve_ns(geom, prof, nu, n, dt, t_end, store_times=store,
                      rannacher=rannacher)
    u0 = prof.value(x)
    want = _oracle_ns_march(sp.diags(op, [-1, 0, 1], format="csc"), u0, nu,
                            dt, int(round(t_end / dt)),
                            [int(round(t / dt)) for t in store], rannacher,
                            drive=drive_of(x, prof))
    got = sol.values[:, comp, :]
    assert np.array_equal(got[0], u0)
    scale = float(np.max(np.abs(want - u0)))
    assert scale > 0.0
    assert float(np.max(np.abs(got - want))) <= 1e-12 * scale


def _layer_cases():
    annulus = geo.annulus_gap(1.0, 2.0, eta=0.45)
    channel = geo.flat_channel(1.0, eta=0.45)
    mms = layer_mms_case(channel, omega=3.0, f0=0.4,
                         a_mat=np.array([[0.3, 0.1], [-0.05, -0.2]]))
    shear = oscillating_shear_case(channel)
    base_curl = shear.curl

    def curl(t, coords):
        # nonzero wall vorticity, so the unsteady datum g(t) drives the layer
        out = base_curl(t, coords)
        out[2] += math.cos(2.0 * t) * (1.0 + np.asarray(coords, dtype=float))
        return out

    shear.curl = curl
    return {
        "rigid": (rigid_rotation(1.0, annulus), annulus, 5.0 * math.sqrt(2)),
        "oscillating-shear": (shear, channel, None),
        "layer-mms": (mms, channel, 12.0),
    }


@pytest.mark.parametrize("case", ["rigid", "oscillating-shear", "layer-mms"])
def test_layer_march_matches_sparse_march(case):
    flow, geom, zmax = _layer_cases()[case]
    grid = FastGrid(nz=128) if zmax is None else FastGrid(nz=128, zmax=zmax)
    dt, t_end = 1e-3, 0.2
    store = [0.0, 0.05, 0.2]
    profile = solve_layer(flow, geom, grid, dt=dt,
                          t_end=t_end, store_times=store)
    want = _oracle_layer_march(flow, geom, grid, dt, int(round(t_end / dt)),
                               [int(round(t / dt)) for t in store])
    for wall_id, ub in want.items():
        got = profile.walls[wall_id].ub
        scale = float(np.max(np.abs(ub)))
        assert scale > 0.0
        assert float(np.max(np.abs(got - ub))) <= 1e-12 * scale
        assert np.all(got[:, :, -1] == 0.0)


# ---------------------------------------------------------------------------
# loud failures
# ---------------------------------------------------------------------------


def test_non_positive_off_diagonal_product_is_a_config_error():
    n = 8
    lo = np.full(n - 1, 1.0)
    lo[3] = -0.5
    op = (lo, np.full(n, -2.0), np.full(n - 1, 1.0))
    with pytest.raises(ConfigError, match=r"ns swirl \(nu=0.01, n=8\).*row 3"):
        ns._cn_march(op, 0.01, 0.1, [4], np.zeros(n), "ns swirl (nu=0.01, n=8)")


def test_failed_factorisation_is_a_solver_error(channel):
    # negative viscosity: I - a S has a negative diagonal once |a| 4/h^2 > 1
    with pytest.raises(SolverError, match=r"ns channel \(nu=-1, n=64\).*dpttrf"):
        ns.solve_ns(channel, ShearProfile(poly=(0.0, 1.0)), nu=-1.0,
                    n=64, dt=1e-2, t_end=0.1)


def test_non_finite_iterate_is_a_solver_error(annulus):
    u0 = LaurentProfile({1: np.nan})
    with pytest.raises(SolverError, match=r"ns swirl \(nu=0.001, n=64\).*step 50"), \
            np.errstate(invalid="ignore"):
        ns.solve_ns(annulus, u0, nu=1e-3, n=64, dt=1e-3, t_end=0.1,
                    store_times=[0.0, 0.05, 0.1])


def test_non_finite_layer_iterate_names_the_wall(channel):
    flow = layer_mms_case(channel)
    flow.layer_forcing = lambda t, wall, z: np.full((2, len(z)), np.inf)
    with pytest.raises(SolverError, match=r"layer lower \(nu-free, n=32\).*step 10"), \
            np.errstate(invalid="ignore"):
        solve_layer(flow, channel, FastGrid(nz=32), dt=1e-2,
                    t_end=0.1, store_times=[0.1])

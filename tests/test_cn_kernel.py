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

from manufactured import (
    CROSS_J,
    layer_mms_case,
    march_layer,
    march_profiles,
    oscillating_shear_case,
    steady_case,
)
from vvlab import geometry as geo
from vvlab import layer, ns, study
from vvlab.errors import ConfigError, InvalidParameterError, SolverError
from vvlab.euler import (
    LaurentProfile,
    ShearProfile,
    boundary_data_g,
    rigid_rotation,
    steady_base_flow,
)
from vvlab.layer import solve_layer
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


def _oracle_layer_march(case, geom, grid, dt, n_steps, store_steps):
    """ub per wall, (n_store, 2, n_z), from the sparse CN step of the
    manufactured layer ``case``, its coefficients taken a step at a time."""
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
            t = np.array([t])
            return (case.g(t, w)[0], case.f(t)[0],
                    np.einsum("ij,jk->ik", CROSS_J, case.a(t, w)[0]))

        b = np.zeros((2, grid.nz))
        ub = np.zeros((len(store_steps), 2, grid.nz))
        out_idx = {k: i for i, k in enumerate(store_steps)}
        g_now, f_now, a_now = coeffs(0.0)
        for k in range(n_steps):
            t_now = k * dt
            g_next, f_next, a_next = coeffs((k + 1) * dt)
            expl = -(f_now * z) * diff_along(b, z)
            expl -= np.einsum("ij,jz->iz", a_now, b)
            if case.forcing is not None:
                expl += case.forcing(np.array([t_now + 0.5 * dt]), w, z)[0]
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


def kernel_history(sym, a, dt, steps, source, where, columns=None, **kwargs):
    """``ns._cn_steps`` in arrays of its own, Fortran-ordered for columns,
    its stores collected: (n_store,) + the iterate's shape."""
    shape = (len(sym[0]), columns) if callable(source) else np.shape(source)
    out = np.empty((len(steps),) + shape)

    def keep(i, x):
        out[i] = x

    ns._cn_steps(sym, a, dt, steps, source, where,
                 tuple(np.zeros(shape, order="F") for _ in range(3)), keep, **kwargs)
    return out


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
    drive = nu * ns._drive(x, x, LaurentProfile({1: 1.0, -1: 0.5}))
    src = drive if columns is None else np.stack(
        [drive, 0.3 * drive + np.cos(4.0 * x)], axis=1)
    return ns._operator(x, x), 0.5 * nu * dt, dt, src


@pytest.mark.parametrize("store", STORE_SETS)
@pytest.mark.parametrize("rannacher", [0, 2])
@pytest.mark.parametrize("columns", [None, 2])
def test_kernel_matches_step_oracle_constant_source(columns, rannacher, store):
    op, a, dt, src = _swirl_march_case(columns)
    steps, n_steps = store
    got = kernel_history(ns._symmetrise(op, "test"), a, dt, steps, src, "test",
                         rannacher=rannacher)
    want = _oracle_cn_march(op, a, dt, n_steps, steps, src, "test",
                            rannacher=rannacher)
    assert got.shape == want.shape == (len(steps),) + src.shape
    assert np.any(got != 0.0)
    assert np.array_equal(got, want)


GROUP_NUS = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)


@pytest.mark.parametrize("store", STORE_SETS)
@pytest.mark.parametrize("rannacher", [0, 2])
@pytest.mark.parametrize("m", [1, 2, 5])
def test_grouped_march_equals_separate_marches(m, rannacher, store):
    # m viscosities joined block-diagonally with 0.0 off-diagonals at the
    # joins: every block is bit for bit its own march
    geom = geo.annulus_gap(1.0, 2.0, eta=0.45)
    x = geom.volume_grid(256)
    op, dt = ns._operator(x, x), 1e-3
    drive = ns._drive(x, x, LaurentProfile({1: 1.0, -1: 0.5}))
    nus = GROUP_NUS[:m]
    steps, _ = store
    sym = ns._symmetrise(op, "test")
    got = kernel_history(sym, [0.5 * nu * dt for nu in nus], dt, steps,
                         np.multiply.outer(nus, drive).ravel(), "test",
                         rannacher=rannacher)
    assert got.shape == (len(steps), m * len(x))
    for j, nu in enumerate(nus):
        want = kernel_history(sym, 0.5 * nu * dt, dt, steps, nu * drive, "test",
                              rannacher=rannacher)
        assert np.any(want != 0.0)
        assert np.array_equal(got[:, j * len(x):(j + 1) * len(x)], want)


def test_non_finite_block_spreads_across_joins():
    # inf * 0.0 is NaN at a join, so one block's overflow fails the whole
    # group (a study then re-marches the group one viscosity at a time)
    op, a, dt, src = _swirl_march_case(None)
    n = len(src)
    joined = np.concatenate([src, src])
    joined[n // 2] = np.inf
    work = tuple(np.empty(2 * n) for _ in range(3))
    with pytest.raises(SolverError, match="test: non-finite iterate at step 1"), \
            np.errstate(invalid="ignore"):
        ns._cn_steps(ns._symmetrise(op, "test"), [a, a], dt, [1], joined, "test",
                     work, lambda i, x: None)
    assert np.all(np.isnan(work[2][n:]))


def _group_case(m):
    """The swirl operator, m coefficients and their joint (m n,) source."""
    geom = geo.annulus_gap(1.0, 2.0, eta=0.45)
    x = geom.volume_grid(256)
    dt = 1e-3
    drive = ns._drive(x, x, LaurentProfile({1: 1.0, -1: 0.5}))
    nus = GROUP_NUS[:m]
    return (ns._symmetrise(ns._operator(x, x), "test"),
            [0.5 * nu * dt for nu in nus], dt,
            np.multiply.outer(nus, drive).ravel())


def _march_parts_forked(sym, a, dt, steps, src, parts):
    """The group's blocks cut into at most ``parts`` contiguous parts, as a
    study cuts its viscosities, each marched at once in arrays of its own:
    the first here, each other in a worker forked for it
    (``study.run_forked``); the parts' results and errors, in order."""
    n = len(src) // len(a)
    blocks = np.array_split(np.arange(len(a)), min(parts, len(a)))

    def march(i):
        rows = slice(blocks[i][0] * n, (blocks[i][-1] + 1) * n)
        try:
            return kernel_history(sym, [a[j] for j in blocks[i]], dt, steps,
                                  src[rows].copy(), "test", rannacher=2)
        except SolverError as exc:
            return exc

    first, workers = study.run_forked(len(blocks), lambda i, send: send(march(i)),
                                      lambda forked: march(0))
    # every worker sent its one result, exited cleanly and was reaped
    assert sorted(workers) == list(range(1, len(blocks)))
    assert all(len(records) == 1 and status == 0
               for records, status in workers.values())
    return [first] + [workers[i][0][0] for i in sorted(workers)]


@pytest.mark.parametrize("parts", [2, 3, 8])
@pytest.mark.parametrize("m", [2, 3, 5])
def test_split_march_equals_one_process_march(m, parts):
    # each part of the blocks marches whole in a process of its own, at the
    # same time as the others, in arrays of its own; every bit is the joint
    # one-process march's, zeros' signs included, with Rannacher steps and
    # a store at step 0
    sym, a, dt, src = _group_case(m)
    steps = STORE_SETS[0][0]
    assert steps[0] == 0
    one = kernel_history(sym, a, dt, steps, src, "test", rannacher=2)
    split = np.concatenate(_march_parts_forked(sym, a, dt, steps, src, parts),
                           axis=1)
    assert np.any(one != 0.0)
    assert np.array_equal(split, one)
    assert np.array_equal(np.signbit(split), np.signbit(one))


def test_non_finite_block_of_a_later_part_raises_after_every_part_ends():
    # blocks 0-1 march here, block 2 in a forked worker whose source
    # overflows: its SolverError comes back from the worker, which exits
    # cleanly, and the first part, marched apart at the same time, keeps
    # the joint march's bits
    sym, a, dt, src = _group_case(3)
    n = len(src) // 3
    want = kernel_history(sym, a[:2], dt, [1], src[:2 * n], "test", rannacher=2)
    src[2 * n + n // 2] = np.inf
    with np.errstate(invalid="ignore"):
        first, last = _march_parts_forked(sym, a, dt, [1], src, 2)
    assert np.array_equal(first, want)
    assert isinstance(last, SolverError)
    assert str(last).startswith("test: non-finite iterate at step 1")


def _dpttrs_case(nrhs):
    """dpttrf's factors of a random (n, n) system and a right-hand side,
    (n,) or Fortran-ordered (n, nrhs)."""
    rng = np.random.default_rng(5)
    n = 300
    d, e, info = dpttrf(1.0 + rng.random(n), 0.4 * rng.standard_normal(n - 1))
    assert info == 0
    return d, e, np.asfortranarray(rng.standard_normal((n,) if nrhs is None else (n, nrhs)))


@pytest.mark.parametrize("nrhs", [None, 2])
def test_dpttrs_binding_equals_scipys_dpttrs(monkeypatch, nrhs):
    # the kernel's dpttrs is scipy's, and solves in place in the kernel's
    # buf, (n,) or Fortran (n, m): every solution it returns shares buf's
    # memory, so the march reads it there
    d, e, b = _dpttrs_case(nrhs)
    assert ns.dpttrs is dpttrs
    got, info = ns.dpttrs(d, e, b.copy(order="F"))
    want, info = dpttrs(d, e, b)
    assert info == 0 and not np.array_equal(want, b)
    assert np.array_equal(got, want)
    shared = []

    def spy(d, e, buf, **kw):
        x, info = dpttrs(d, e, buf, **kw)
        shared.append(np.shares_memory(x, buf) and info == 0)
        return x, info

    monkeypatch.setattr(ns, "dpttrs", spy)
    op, a, dt, src = _swirl_march_case(nrhs)
    kernel_history(ns._symmetrise(op, "test"), a, dt, [0, 3], src, "test", rannacher=2)
    assert shared == [True] * 5


@pytest.mark.parametrize("bad", ["strided", "c-order", "float32"])
def test_dpttrs_binding_refuses_a_buffer_it_cannot_solve_in_place(bad):
    # f2py would solve a copy of such a buf and leave buf as it was; the
    # kernel refuses it by name before its first step
    op, a, dt, src = _swirl_march_case(None if bad != "c-order" else 2)
    n = len(src)
    buf = {"strided": np.zeros(2 * n)[::2], "c-order": np.zeros((n, 2)),
           "float32": np.zeros(n, dtype=np.float32)}[bad]
    work = (np.zeros_like(buf, dtype=float, order="F"), buf,
            np.zeros_like(buf, dtype=float, order="F"))
    with pytest.raises(InvalidParameterError,
                       match="test: the work array buf must be a writeable float64"):
        ns._cn_steps(ns._symmetrise(op, "test"), a, dt, [3], src, "test", work,
                     lambda i, x: pytest.fail("a step was taken"))
    assert not np.any(buf)


def test_reference_group_larger_than_its_arrays_is_a_config_error(annulus):
    setup = ns.reference_setup(annulus, LaurentProfile({1: 1.0}), n=64, dt=1e-3,
                               t_end=0.01, store_times=[0.01], group=2)
    assert len(setup.work[0]) == 2 * 64
    with pytest.raises(ConfigError, match="1 to 2 viscosities, got 3"):
        setup.solve([1e-2, 1e-3, 1e-4], lambda i, u: None)
    with pytest.raises(ConfigError, match="got 0"):
        setup.solve([], lambda i, u: None)


@pytest.mark.parametrize("cut", [1, 3, 40, 50, 99])
def test_march_resumed_at_any_step_stores_the_bits_of_one_march(annulus, cut):
    # a march stopped at a half step, on a store or between stores, and
    # resumed on another set-up from the kernel's iterate there, takes each
    # store once, with the bits of one march
    setup = ns.reference_setup(annulus, LaurentProfile({1: 1.0, -1: 0.5}), n=256,
                               dt=1e-3, t_end=0.1, store_times=(0.003, 0.05, 0.1))
    whole, pieces = {}, {}
    setup.solve([1e-3], lambda i, u: whole.setdefault(i, u[0].copy()))

    def keep(i, u):
        assert i not in pieces
        pieces[i] = u[0].copy()

    iterate = setup.solve([1e-3], keep, stop=cut).copy()
    assert sorted(pieces) == [i for i, k in enumerate(setup.store_steps) if k <= cut]
    other = ns.reference_setup(annulus, LaurentProfile({1: 1.0, -1: 0.5}), n=256,
                               dt=1e-3, t_end=0.1, store_times=(0.003, 0.05, 0.1))
    other.solve([1e-3], keep, resume=(cut, iterate))
    assert sorted(pieces) == sorted(whole) == [0, 1, 2]
    for i, u in whole.items():
        assert np.any(u != setup.u0)
        assert np.array_equal(pieces[i], u)


def test_group_size_keeps_the_march_arrays_in_cache():
    assert [ns.group_size(n) for n in (512, 2048, 8192, 16384, 65536, 131072)] \
        == [64, 16, 4, 2, 1, 1]
    setup = ns.reference_setup(geo.flat_channel(1.0, eta=0.45),
                               ShearProfile(poly=(0.0, 1.0)), n=16384, dt=1e-3,
                               t_end=0.01, store_times=[0.01], group=5)
    assert len(setup.work[0]) == 2 * 16384
    # dpttrs is faster on a buf that starts on a cache line (ns docstring)
    assert all(a.ctypes.data % 64 == 0 for a in setup.work[:2])


def _layer_kernel_calls(monkeypatch, case, geom, grid, store_times):
    """Run the manufactured march and return the arguments of each of its
    kernel calls; its source is a callable of (k, w) alone."""
    calls = []
    real = ns._cn_steps

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ns, "_cn_steps", spy)
    march_profiles(case, geom, grid, 1e-3, 0.1, store_times)
    return calls


@pytest.mark.parametrize("store_times", [[0.0, 0.003, 0.05, 0.1], [0.007, 0.04]])
@pytest.mark.parametrize("case", ["oscillating-shear", "layer-mms"])
def test_kernel_matches_step_oracle_callable_source(monkeypatch, case, store_times):
    layer_case, geom, _ = _layer_cases()[case]
    grid = FastGrid(nz=64, zmax=12.0)
    calls = _layer_kernel_calls(monkeypatch, layer_case, geom, grid, store_times)
    # both walls march as the four columns of one call, in Fortran-ordered
    # arrays of the march's own
    assert len(calls) == 1
    sym, a, dt, steps, source, where, work, _ = calls[0]
    assert all(x.shape == (grid.nz - 1, 4) and x.flags.f_contiguous for x in work)
    assert callable(source)
    op, _ = layer._fast_diffusion_operator(grid.z)
    for rannacher in (0, 2):
        got = kernel_history(sym, a, dt, steps, source, where, columns=4,
                             rannacher=rannacher)
        want = _oracle_cn_march(op, a, dt, steps[-1], steps, source, where,
                                rannacher=rannacher, columns=4)
        assert np.any(got != 0.0)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("rannacher", [0, 2])
@pytest.mark.parametrize("store", STORE_SETS)
def test_march_stops_at_last_store_step(monkeypatch, store, rannacher):
    # one solve per step, two per Rannacher step, none past the last store
    calls = []
    real = ns.dpttrs

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(ns, "dpttrs", counting)
    op, a, dt, src = _swirl_march_case(None)
    steps, _ = store
    kernel_history(ns._symmetrise(op, "test"), a, dt, steps, src, "test",
                   rannacher=rannacher)
    assert len(calls) == steps[-1] + rannacher


NS_CASES = {
    "swirl": (geo.annulus_gap(1.0, 2.0, eta=0.45), LaurentProfile({1: 1.0, -1: 0.5}), 1),
    "channel": (geo.flat_channel(1.0, eta=0.45),
                ShearProfile(poly=(0.2, 1.0), cosines=((1.0, 1),)), 0),
}


@pytest.mark.parametrize("rannacher", [0, 2])
@pytest.mark.parametrize("case", sorted(NS_CASES))
# the solve takes u0 as a profile only, so its drive is always the one built
# from the profile's exact derivatives
@pytest.mark.parametrize("with_drive", [True])
def test_reference_solve_matches_sparse_march(case, rannacher, with_drive):
    geom, prof, comp = NS_CASES[case]
    n, nu, dt, t_end = 256, 1e-2, 1e-3, 0.1
    x = geom.volume_grid(n)
    op = ns._operator(x, geom.radius(x))
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
                            drive=ns._drive(x, geom.radius(x), prof))
    assert geom.flow_comp == comp
    got = sol.u
    assert np.array_equal(got[0], u0)
    scale = float(np.max(np.abs(want - u0)))
    assert scale > 0.0
    assert float(np.max(np.abs(got - want))) <= 1e-12 * scale


def _layer_cases():
    """Each case's layer, geometry and zmax (None: the default); rigid is
    a studied flow, marched by ``solve_layer``, and the others are
    manufactured, marched by the tests' own march."""
    annulus = geo.annulus_gap(1.0, 2.0, eta=0.45)
    channel = geo.flat_channel(1.0, eta=0.45)
    return {
        "rigid": (rigid_rotation(1.0, annulus), annulus, 5.0 * math.sqrt(2)),
        "oscillating-shear": (oscillating_shear_case(channel), channel, None),
        "layer-mms": (layer_mms_case(omega=3.0, f0=0.4,
                                     a_mat=np.array([[0.3, 0.1], [-0.05, -0.2]])),
                      channel, 12.0),
    }


@pytest.mark.parametrize("case", ["rigid", "oscillating-shear", "layer-mms"])
def test_layer_march_matches_sparse_march(case):
    flow, geom, zmax = _layer_cases()[case]
    grid = FastGrid(nz=128) if zmax is None else FastGrid(nz=128, zmax=zmax)
    dt, t_end = 1e-3, 0.2
    store = [0.0, 0.05, 0.2]
    if case == "rigid":
        # the layer stores the theta column alone; the oracle marches both
        # tangential components, and the axial one must stay zero
        walls = solve_layer(flow, geom, grid, dt=dt, t_end=t_end, store_times=store).walls
        got = {}
        for w in geom.walls():
            got[w.wall_id] = np.zeros((len(store), 2, grid.nz))
            got[w.wall_id][:, w.tangent_names.index("theta")] = walls[w.wall_id].ub
        flow = steady_case(flow, geom)
    else:
        got = march_profiles(flow, geom, grid, dt, t_end, store)
    want = _oracle_layer_march(flow, geom, grid, dt, int(round(t_end / dt)),
                               [int(round(t / dt)) for t in store])
    for wall_id, ub in want.items():
        scale = float(np.max(np.abs(ub)))
        assert scale > 0.0
        assert float(np.max(np.abs(got[wall_id] - ub))) <= 1e-12 * scale
        assert np.all(got[wall_id][:, :, -1] == 0.0)


@pytest.mark.parametrize("case", ["rigid", "oscillating-shear", "layer-mms"])
def test_joint_wall_march_equals_per_wall_marches(case):
    # the walls march as the columns of one call; each wall's columns are
    # bit for bit the march of that wall alone, the signs of zeros included.
    # Rigid takes the layer's own march, one column a wall, the other two
    # the tests' explicit one, two columns a wall; the manufactured forcing
    # is made to differ between the walls
    flow, geom, zmax = _layer_cases()[case]
    if case == "layer-mms":
        forcing = flow.forcing
        flow.forcing = lambda t, wall, z: (
            -0.5 if wall.wall_id == "upper" else 1.0) * forcing(t, wall, z)
    grid = FastGrid(nz=128) if zmax is None else FastGrid(nz=128, zmax=zmax)
    dt, steps = 1e-3, [0, 7, 50, 200]
    walls = geom.walls()
    if case == "rigid":
        def march(ws):
            return layer._march_walls(ws, [boundary_data_g(flow, geom, w) for w in ws],
                                      grid.z, dt, steps)
    else:
        def march(ws):
            return march_layer(flow, ws, grid.z, dt, steps)
    joint = march(walls)
    per = 1 if case == "rigid" else 2
    assert joint.shape == (len(steps), grid.nz - 1, per * len(walls))
    for i, w in enumerate(walls):
        alone = march([w])
        assert np.any(alone != 0.0)
        got = joint[..., per * i:per * (i + 1)]
        assert np.array_equal(got, alone)
        assert np.array_equal(np.signbit(got), np.signbit(alone))
    if case == "layer-mms":
        assert not np.array_equal(joint[..., :2], joint[..., 2:])


# ---------------------------------------------------------------------------
# loud failures
# ---------------------------------------------------------------------------


def test_non_positive_off_diagonal_product_is_a_config_error():
    n = 8
    lo = np.full(n - 1, 1.0)
    lo[3] = -0.5
    op = (lo, np.full(n, -2.0), np.full(n - 1, 1.0))
    with pytest.raises(ConfigError, match=r"ns swirl \(nu=0.01, n=8\).*row 3"):
        ns._symmetrise(op, "ns swirl (nu=0.01, n=8)")


def test_failed_factorisation_is_a_solver_error(channel):
    # negative viscosity: I - a S has a negative diagonal once |a| 4/h^2 > 1
    with pytest.raises(SolverError, match=r"ns channel \(nu=-1, n=64\).*dpttrf"):
        ns.solve_ns(channel, ShearProfile(poly=(0.0, 1.0)), nu=-1.0,
                    n=64, dt=1e-2, t_end=0.1, store_times=[0.1])


def test_non_finite_iterate_is_a_solver_error(annulus):
    u0 = LaurentProfile({1: np.nan})
    with pytest.raises(SolverError, match=r"ns swirl \(nu=0.001, n=64\).*step 50"), \
            np.errstate(invalid="ignore"):
        ns.solve_ns(annulus, u0, nu=1e-3, n=64, dt=1e-3, t_end=0.1,
                    store_times=[0.0, 0.05, 0.1])


def _non_finite_on(channel, walls):
    """A steady channel flow whose curl is infinite on the ``walls``."""
    coords = [channel.wall(w).coord for w in walls]

    class NonFinite(ShearProfile):
        def vorticity(self, y):
            return np.where(np.isin(y, coords), np.inf, super().vorticity(y))

    return steady_base_flow(NonFinite(poly=(0.0, 1.0)), channel)


def test_non_finite_layer_iterate_names_the_wall(channel):
    flow = _non_finite_on(channel, ["lower", "upper"])
    with pytest.raises(SolverError, match=r"layer lower \(nu-free, n=32\).*step 10"), \
            np.errstate(invalid="ignore"):
        solve_layer(flow, channel, FastGrid(nz=32), dt=1e-2,
                    t_end=0.1, store_times=[0.1])


def test_non_finite_layer_iterate_names_the_one_wall_at_fault(channel):
    # the joint march fails as a whole; re-marched a wall at a time, only
    # the upper wall fails, and the error names it
    flow = _non_finite_on(channel, ["upper"])
    with pytest.raises(SolverError, match=r"^layer upper \(nu-free, n=32\).*step 10"), \
            np.errstate(invalid="ignore"):
        solve_layer(flow, channel, FastGrid(nz=32), dt=1e-2,
                    t_end=0.1, store_times=[0.1])

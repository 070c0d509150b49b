import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vvlab.errors import AlignmentError, ConfigError, StepSizeError
from vvlab.euler import LaurentProfile, ShearProfile
from vvlab.ns import (
    _resolve_store_steps,
    angular_momentum,
    bc_residual,
    energy_identity_residual,
    solve_ns,
    time_index,
)


def test_vortex_preserved(annulus):
    # the only drift is the O(h^2) wall response of the discrete vorticity
    # condition; at this resolution it sits below 1e-10 over the full horizon
    prof = LaurentProfile({-1: 1.0})
    sol = solve_ns(annulus, prof, nu=1e-2, n=32768, dt=2.5e-3,
                   t_end=0.5, store_times=[0.5])
    err = np.abs(sol.values[-1, 1] - 1.0 / sol.coords).max()
    assert err < 1e-10


def test_constant_shear_preserved(channel):
    prof = ShearProfile(poly=(0.7,))
    sol = solve_ns(channel, prof, nu=1e-2, n=512, dt=1e-3, t_end=0.5,
                   store_times=[0.5])
    assert np.abs(sol.values[-1, 0] - 0.7).max() < 1e-12


def test_channel_eigenmode_exact(channel):
    nu, k = 1e-2, 1
    prof = ShearProfile(cosines=((1.0, k),), h=channel.h)
    sol = solve_ns(channel, prof, nu=nu, n=2048, dt=1e-4, t_end=0.5,
                   store_times=[0.5])
    exact = math.exp(-nu * (k * math.pi / channel.h) ** 2 * 0.5) \
        * np.cos(k * math.pi * sol.coords / channel.h)
    assert np.abs(sol.values[-1, 0] - exact).max() < 1e-6


def test_rigid_rotation_flux_balance(annulus):
    # d/dt int u r dV = -2 nu (r2 u(r2) - r1 u(r1)) when the wall vorticity
    # vanishes: angular momentum changes only through the wall flux
    prof = LaurentProfile({1: 1.0})
    nu = 1e-3
    sol = solve_ns(annulus, prof, nu=nu, n=2048, dt=1e-4, t_end=0.2,
                   store_every=100)
    times = sol.times
    mom = np.array([angular_momentum(sol, i) for i in range(len(times))])
    mid = slice(3, len(times) - 1)
    dmdt = (mom[2:] - mom[:-2]) / (times[2:] - times[:-2])
    r1, r2 = sol.coords[0], sol.coords[-1]
    flux = np.array([
        -2.0 * nu * 2.0 * math.pi * (r2 * sol.values[i, 1, -1]
                                     - r1 * sol.values[i, 1, 0])
        for i in range(1, len(times) - 1)
    ])
    scale = np.abs(dmdt).max()
    assert np.abs(dmdt - flux).max() < 2e-2 * scale


def test_space_self_convergence_order(annulus):
    prof = LaurentProfile({1: 1.0})
    sols = {}
    for nr in (256, 512, 1024):
        sols[nr] = solve_ns(annulus, prof, nu=1e-2, n=nr, dt=5e-5,
                            t_end=0.1, store_times=[0.1])
    errs = []
    for nr in (256, 512):
        a, b = sols[nr], sols[2 * nr]
        fine = np.interp(a.coords, b.coords, b.values[-1, 1])
        errs.append(np.abs(a.values[-1, 1] - fine).max())
    order = math.log2(errs[0] / errs[1])
    assert order == pytest.approx(2.0, abs=0.2)


def test_time_order_on_eigenmode(channel):
    nu = 0.1
    prof = ShearProfile(cosines=((1.0, 1),), h=channel.h)
    errs = []
    for dt in (4e-2, 2e-2, 1e-2):
        sol = solve_ns(channel, prof, nu=nu, n=4096, dt=dt,
                       t_end=0.4, store_times=[0.4], rannacher=0)
        exact = math.exp(-nu * math.pi**2 * 0.4) * np.cos(math.pi * sol.coords)
        errs.append(np.abs(sol.values[-1, 0] - exact).max())
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for order in orders:
        assert order == pytest.approx(2.0, abs=0.2)


def test_energy_nonincreasing(annulus):
    prof = LaurentProfile({1: 1.0})
    for dt in (1e-3, 1e-2, 5e-2):
        sol = solve_ns(annulus, prof, nu=1e-2, n=256, dt=dt, t_end=0.5,
                       store_every=1)
        w = annulus.quadrature_weights(sol.coords)
        e = np.array([float(np.sum(w * sol.values[i, 1] ** 2))
                      for i in range(len(sol.times))])
        assert np.all(np.diff(e) <= 1e-12 * e[0])


def test_energy_identity_vortex_trivial(annulus):
    # exact c/r samples: the energy difference vanishes identically and the
    # discrete curl is zero to stencil truncation, so both sides are zero
    from vvlab.ns import ViscousSolution

    r = annulus.volume_grid(512)
    vals = np.zeros((3, 3, len(r)))
    vals[:, 1] = 1.0 / r
    sol = ViscousSolution(nu=1e-2, geom=annulus, coords=r,
                          times=np.array([0.0, 0.05, 0.1]), values=vals)
    assert np.max(energy_identity_residual(sol)) < 1e-12
    # a solved run adds only the transient wall-defect decay, O(nu h^2)
    prof = LaurentProfile({-1: 1.0})
    solved = solve_ns(annulus, prof, nu=1e-2, n=512, dt=1e-3,
                      t_end=0.1, store_every=10)
    assert np.max(energy_identity_residual(solved)) < 1e-6


def test_energy_identity_cn_order(channel):
    prof = ShearProfile(cosines=((1.0, 1),), h=channel.h)
    res = []
    for dt in (5e-2, 2.5e-2):
        sol = solve_ns(channel, prof, nu=0.1, n=2048, dt=dt,
                       t_end=2.0, store_every=1, rannacher=0)
        res.append(np.max(energy_identity_residual(sol)))
    assert res[0] / res[1] == pytest.approx(4.0, abs=1.0)


def test_energy_identity_rigid_defaults(annulus):
    # the impulsive start (wall vorticity jumps to zero at t = 0+) makes the
    # first stored intervals stiff; past it the identity holds to 1e-6
    prof = LaurentProfile({1: 1.0})
    sol = solve_ns(annulus, prof, nu=1e-2, n=2048, dt=2.5e-5,
                   t_end=0.05, store_every=40)
    res = energy_identity_residual(sol)
    assert np.max(res[5:]) < 1e-6
    assert np.all(np.isfinite(res))


def test_bc_residual_zero_flow(annulus):
    prof = LaurentProfile({})
    sol = solve_ns(annulus, prof, nu=1e-2, n=128, dt=1e-2, t_end=0.1,
                   store_every=5)
    assert np.max(bc_residual(sol)) == 0.0


def test_bc_residual_exact_vortex_samples(annulus):
    # the exact c/r field has zero wall vorticity; the fourth-order
    # measurement stencil sees only its own tiny truncation
    from vvlab.ns import ViscousSolution

    r = annulus.volume_grid(2048)
    vals = np.zeros((1, 3, len(r)))
    vals[0, 1] = 1.0 / r
    sol = ViscousSolution(nu=1e-2, geom=annulus, coords=r,
                          times=np.array([0.0]), values=vals)
    assert np.max(bc_residual(sol)) < 1e-10


def test_bc_residual_refinement_order(annulus):
    prof = LaurentProfile({1: 1.0})
    res = []
    for nr in (128, 256):
        sol = solve_ns(annulus, prof, nu=1e-2, n=nr, dt=2e-4,
                       t_end=0.2, store_times=[0.1, 0.2])
        res.append(np.max(bc_residual(sol)))
    assert math.log2(res[0] / res[1]) >= 1.5


def test_config_errors(annulus, channel):
    prof = LaurentProfile({1: 1.0})
    with pytest.raises(ConfigError):
        solve_ns(annulus, prof, nu=1e-2, n=16, dt=1e-3, t_end=0.1)
    with pytest.raises(StepSizeError):
        solve_ns(annulus, prof, nu=1e-2, n=64, dt=0.0, t_end=0.1)
    with pytest.raises(ConfigError):
        solve_ns(channel, ShearProfile(poly=(1.0,)), nu=1e-2, n=64,
                 dt=1e-3, t_end=0.1, store_times=[0.0333])


def test_non_flow_components_stay_zero(annulus, channel):
    # the geometry picks the velocity slot; the other two are never written
    for geom, prof, slot in ((annulus, LaurentProfile({1: 1.0, -1: 0.5}), 1),
                             (channel, ShearProfile(poly=(0.2, 1.0)), 0)):
        sol = solve_ns(geom, prof, nu=1e-2, n=64, dt=1e-3, t_end=0.1,
                       store_every=10)
        assert np.any(sol.values[1:, slot] != sol.values[0, slot])
        others = [c for c in range(3) if c != slot]
        assert np.all(sol.values[:, others] == 0.0)


def test_compatible_shear_semigroup_rate(channel):
    # U'(0) = U'(H) = 0: u_nu = heat semigroup of U0, error O(nu t ||U0''||)
    prof = ShearProfile(cosines=((1.0, 1),), h=channel.h)
    errs = []
    nus = (1e-2, 1e-3, 1e-4)
    for nu in nus:
        sol = solve_ns(channel, prof, nu=nu, n=1024, dt=2e-4,
                       t_end=0.5, store_times=[0.5])
        u0 = np.cos(math.pi * sol.coords / channel.h)
        errs.append(np.abs(sol.values[-1, 0] - u0).max())
    slope = np.polyfit(np.log(nus), np.log(errs), 1)[0]
    assert slope >= 0.9
    # magnitude matches the first semigroup correction nu t |U0''|
    want = (1.0 - math.exp(-1e-2 * math.pi**2 * 0.5))
    assert errs[0] == pytest.approx(want, rel=1e-3)


# ---------------------------------------------------------------------------
# store steps and stored-time lookup
# ---------------------------------------------------------------------------

STEP_SIZES = st.sampled_from([1e-4, 1e-3, 2.5e-3, 0.1])


@st.composite
def store_grids(draw):
    """(dt, n_steps, store steps): steps on the grid, in any order, with
    repeats."""
    dt = draw(STEP_SIZES)
    n_steps = draw(st.integers(1, 1000))
    ks = draw(st.lists(st.integers(0, n_steps), min_size=1, max_size=12))
    return dt, n_steps, ks


@settings(derandomize=True, max_examples=80, deadline=None)
@given(grid=store_grids())
def test_store_steps_sorted_unique(grid):
    dt, n_steps, ks = grid
    t_end = n_steps * dt
    got_n, steps = _resolve_store_steps(dt, t_end, [k * dt for k in ks], None)
    assert got_n == n_steps
    assert steps == sorted(set(ks))
    _, with_zero = _resolve_store_steps(dt, t_end, [0.0] + [k * dt for k in ks],
                                        None)
    assert with_zero[0] == 0


@settings(derandomize=True, max_examples=80, deadline=None)
@given(grid=store_grids(), frac=st.floats(0.01, 0.99), past=st.integers(1, 50))
def test_store_time_off_grid_or_past_end_is_config_error(grid, frac, past):
    dt, n_steps, ks = grid
    t_end = n_steps * dt
    with pytest.raises(ConfigError):
        _resolve_store_steps(dt, t_end, [k * dt for k in ks] + [(ks[0] + frac) * dt],
                             None)
    with pytest.raises(ConfigError):
        _resolve_store_steps(dt, t_end, [(n_steps + past) * dt], None)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(grid=store_grids(), extra=st.integers(0, 1000))
def test_time_index_finds_every_stored_stamp(grid, extra):
    dt, n_steps, ks = grid
    _, steps = _resolve_store_steps(dt, n_steps * dt, [k * dt for k in ks], None)
    times = np.array([k * dt for k in steps])
    for i, t in enumerate(times):
        assert time_index(times, float(t)) == i
    if extra not in steps:
        with pytest.raises(AlignmentError):
            time_index(times, extra * dt)
    with pytest.raises(AlignmentError):
        time_index(times, (steps[0] + 0.5) * dt)


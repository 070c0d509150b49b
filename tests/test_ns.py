import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vvlab.errors import AlignmentError, ConfigError, StepSizeError
from vvlab.euler import LaurentProfile, ShearProfile
from vvlab.layer import slow_curl_at_wall, solve_layer
from vvlab.ns import (
    _drive,
    _one_sided_deriv,
    _operator,
    _resolve_store_steps,
    bc_residual,
    energy_identity_residual,
    solve_ns,
    time_index,
    vorticity,
)
from vvlab.spaces import FastGrid, diff_along


def _every(k, dt, t_end):
    """The store times of every k-th step from 0 to t_end."""
    return k * dt * np.arange(round(t_end / (k * dt)) + 1)


def test_vortex_preserved(annulus):
    # the only drift is the O(h^2) wall response of the discrete vorticity
    # condition; at this resolution it sits below 1e-10 over the full horizon
    prof = LaurentProfile({-1: 1.0})
    sol = solve_ns(annulus, prof, nu=1e-2, n=32768, dt=2.5e-3,
                   t_end=0.5, store_times=[0.5])
    err = np.abs(sol.u[-1] - 1.0 / sol.coords).max()
    assert err < 1e-10


def test_constant_shear_preserved(channel):
    prof = ShearProfile(poly=(0.7,))
    sol = solve_ns(channel, prof, nu=1e-2, n=512, dt=1e-3, t_end=0.5,
                   store_times=[0.5])
    assert np.abs(sol.u[-1] - 0.7).max() < 1e-12


def test_channel_eigenmode_exact(channel):
    nu, k = 1e-2, 1
    prof = ShearProfile(cosines=((1.0, k),), h=channel.h)
    sol = solve_ns(channel, prof, nu=nu, n=2048, dt=1e-4, t_end=0.5,
                   store_times=[0.5])
    exact = math.exp(-nu * (k * math.pi / channel.h) ** 2 * 0.5) \
        * np.cos(k * math.pi * sol.coords / channel.h)
    assert np.abs(sol.u[-1] - exact).max() < 1e-6


def test_rigid_rotation_flux_balance(annulus):
    # d/dt int u r dV = -2 nu (r2 u(r2) - r1 u(r1)) when the wall vorticity
    # vanishes: angular momentum changes only through the wall flux
    prof = LaurentProfile({1: 1.0})
    nu = 1e-3
    sol = solve_ns(annulus, prof, nu=nu, n=2048, dt=1e-4, t_end=0.2,
                   store_times=_every(100, 1e-4, 0.2))
    times = sol.times
    w = annulus.quadrature_weights(sol.coords)
    mom = np.array([np.sum(w * sol.coords * sol.u[i]) for i in range(len(times))])
    mid = slice(3, len(times) - 1)
    dmdt = (mom[2:] - mom[:-2]) / (times[2:] - times[:-2])
    r1, r2 = sol.coords[0], sol.coords[-1]
    flux = np.array([
        -2.0 * nu * 2.0 * math.pi * (r2 * sol.u[i, -1]
                                     - r1 * sol.u[i, 0])
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
        fine = np.interp(a.coords, b.coords, b.u[-1])
        errs.append(np.abs(a.u[-1] - fine).max())
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
        errs.append(np.abs(sol.u[-1] - exact).max())
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for order in orders:
        assert order == pytest.approx(2.0, abs=0.2)


def test_energy_nonincreasing(annulus):
    prof = LaurentProfile({1: 1.0})
    for dt in (1e-3, 1e-2, 5e-2):
        sol = solve_ns(annulus, prof, nu=1e-2, n=256, dt=dt, t_end=0.5,
                       store_times=_every(1, dt, 0.5))
        w = annulus.quadrature_weights(sol.coords)
        e = np.array([float(np.sum(w * sol.u[i] ** 2))
                      for i in range(len(sol.times))])
        assert np.all(np.diff(e) <= 1e-12 * e[0])


def test_energy_identity_vortex_trivial(annulus):
    # exact c/r samples: the energy difference vanishes identically and the
    # discrete curl is zero to stencil truncation, so both sides are zero
    from vvlab.ns import ViscousSolution

    r = annulus.volume_grid(512)
    sol = ViscousSolution(nu=1e-2, geom=annulus, coords=r,
                          times=np.array([0.0, 0.05, 0.1]),
                          u=np.tile(1.0 / r, (3, 1)))
    assert np.max(energy_identity_residual(sol)) < 1e-12
    # a solved run adds only the transient wall-defect decay, O(nu h^2)
    prof = LaurentProfile({-1: 1.0})
    solved = solve_ns(annulus, prof, nu=1e-2, n=512, dt=1e-3,
                      t_end=0.1, store_times=_every(10, 1e-3, 0.1))
    assert np.max(energy_identity_residual(solved)) < 1e-6


def test_energy_identity_cn_order(channel):
    prof = ShearProfile(cosines=((1.0, 1),), h=channel.h)
    res = []
    for dt in (5e-2, 2.5e-2):
        sol = solve_ns(channel, prof, nu=0.1, n=2048, dt=dt,
                       t_end=2.0, store_times=_every(1, dt, 2.0), rannacher=0)
        res.append(np.max(energy_identity_residual(sol)))
    assert res[0] / res[1] == pytest.approx(4.0, abs=1.0)


def _energy_identity_loop(sol):
    """energy_identity_residual one stored time at a time, the reference
    for its one pass over the history."""
    w = sol.geom.quadrature_weights(sol.coords)
    energy = np.array([0.5 * float(np.sum(w * u**2)) for u in sol.u])
    diss = np.array([float(np.sum(w * vorticity(sol.geom, sol.coords, u) ** 2))
                     for u in sol.u])
    res = np.abs(np.diff(energy) / np.diff(sol.times)
                 + sol.nu * 0.5 * (diss[1:] + diss[:-1]))
    return res / (energy[0] if energy[0] > 0 else 1.0)


@pytest.mark.parametrize("geom_name, prof", [
    ("annulus", LaurentProfile({1: 1.0})),
    ("channel", ShearProfile(cosines=((1.0, 1),), h=1.0)),
])
def test_energy_identity_pass_equals_per_time_loop(request, geom_name, prof):
    geom = request.getfixturevalue(geom_name)
    sol = solve_ns(geom, prof, nu=0.1, n=2048, dt=5e-2, t_end=1.0,
                   store_times=_every(1, 5e-2, 1.0), rannacher=0)
    assert np.array_equal(energy_identity_residual(sol),
                          _energy_identity_loop(sol))


def test_energy_identity_rigid_defaults(annulus):
    # the impulsive start (wall vorticity jumps to zero at t = 0+) makes the
    # first stored intervals stiff; past it the identity holds to 1e-6
    prof = LaurentProfile({1: 1.0})
    sol = solve_ns(annulus, prof, nu=1e-2, n=2048, dt=2.5e-5,
                   t_end=0.05, store_times=_every(40, 2.5e-5, 0.05))
    res = energy_identity_residual(sol)
    assert np.max(res[5:]) < 1e-6
    assert np.all(np.isfinite(res))


def test_bc_residual_zero_flow(annulus):
    prof = LaurentProfile({})
    sol = solve_ns(annulus, prof, nu=1e-2, n=128, dt=1e-2, t_end=0.1,
                   store_times=_every(5, 1e-2, 0.1))
    assert np.max(bc_residual(sol)) == 0.0


def test_bc_residual_exact_vortex_samples(annulus):
    # the exact c/r field has zero wall vorticity; the fourth-order
    # measurement stencil sees only its own tiny truncation
    from vvlab.ns import ViscousSolution

    r = annulus.volume_grid(2048)
    sol = ViscousSolution(nu=1e-2, geom=annulus, coords=r,
                          times=np.array([0.0]), u=(1.0 / r)[None])
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
        solve_ns(annulus, prof, nu=1e-2, n=16, dt=1e-3, t_end=0.1, store_times=[0.1])
    with pytest.raises(StepSizeError):
        solve_ns(annulus, prof, nu=1e-2, n=64, dt=0.0, t_end=0.1, store_times=[0.1])
    with pytest.raises(ConfigError):
        solve_ns(channel, ShearProfile(poly=(1.0,)), nu=1e-2, n=64,
                 dt=1e-3, t_end=0.1, store_times=[0.0333])


@pytest.mark.parametrize("t_end, store_times, named", [
    (-0.1, None, "t_end must be finite and >= 0, got -0.1"),
    (math.inf, None, "t_end must be finite and >= 0, got inf"),
    pytest.param(0.1, [0.05, 0.2], r"store time 0.2 is not a step multiple within",
                 id="store-time-past-t_end"),
])
def test_bad_store_steps_are_config_errors_naming_the_value(channel, t_end,
                                                            store_times, named):
    with pytest.raises(ConfigError, match=named):
        solve_ns(channel, ShearProfile(poly=(1.0,)), nu=1e-2, n=64, dt=1e-3,
                 t_end=t_end, store_times=store_times)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_store_time_is_a_config_error_naming_it(channel, t):
    with pytest.raises(ConfigError, match=f"store time {t} is not finite"):
        solve_ns(channel, ShearProfile(poly=(1.0,)), nu=1e-2, n=64, dt=1e-3,
                 t_end=0.1, store_times=[0.05, t])


@pytest.mark.parametrize("dt", [math.nan, math.inf, -1e-3])
def test_bad_dt_is_a_step_size_error_naming_it(channel, dt):
    with pytest.raises(StepSizeError, match=f"dt must be finite and positive, got {dt}"):
        solve_ns(channel, ShearProfile(poly=(1.0,)), nu=1e-2, n=64, dt=dt,
                 t_end=0.1, store_times=[0.1])


def test_non_flow_components_stay_zero(annulus, channel):
    # the geometry names the flow component, and the solution is that one
    # component's (n_t, n) history; the other two are never formed
    for geom, prof, slot in ((annulus, LaurentProfile({1: 1.0, -1: 0.5}), 1),
                             (channel, ShearProfile(poly=(0.2, 1.0)), 0)):
        sol = solve_ns(geom, prof, nu=1e-2, n=64, dt=1e-3, t_end=0.1,
                       store_times=_every(10, 1e-3, 0.1))
        assert geom.flow_comp == slot
        assert sol.u.shape == (len(sol.times), len(sol.coords))
        assert np.array_equal(sol.u[0], prof.value(sol.coords))
        assert np.any(sol.u[1:] != sol.u[0])


@pytest.mark.parametrize("geom_name, prof", [
    ("annulus", LaurentProfile({1: 1.0, -1: 0.5})),
    ("channel", ShearProfile(poly=(0.2, 1.0), h=1.0))])
def test_vorticity_is_the_axial_curl(request, geom_name, prof):
    # (1/r) d(r u)/dr in the annulus, -du/dy in the channel: the exact
    # profile derivative to the stencil's O(h^2)
    geom = request.getfixturevalue(geom_name)
    x = geom.volume_grid(2049)
    want = prof.deriv(x, 1) + prof.value(x) / x if geom_name == "annulus" \
        else -prof.deriv(x, 1)
    assert np.abs(vorticity(geom, x, prof.value(x)) - want).max() < 1e-5


# ---------------------------------------------------------------------------
# the channel is the annulus's flat limit: at r = +inf every 1/r term is
# +-0.0, and the one operator, drive and vorticity give the channel's own
# formulas bit for bit
# ---------------------------------------------------------------------------

SHEARS = [ShearProfile(poly=(0.2, 1.0)),
          ShearProfile(poly=(0.0, 0.0, 1.0, -0.5)),
          ShearProfile(cosines=((1.0, 1), (0.3, 3))),
          ShearProfile(poly=(0.7,), cosines=((-0.4, 2),))]


def _bits_up_to_zero_sign(x):
    """The bits of ``x`` with -0.0 read as +0.0 (x + 0.0 moves no other bit)."""
    return (np.asarray(x, dtype=float) + 0.0).view(np.int64)


@pytest.mark.parametrize("n", [33, 256, 4097])
def test_flat_operator_is_the_mirror_ghost_second_difference(channel, n):
    y = channel.volume_grid(n)
    h = y[1] - y[0]
    lo, di, up = _operator(y, channel.radius(y))
    want_lo = np.full(n - 1, 1.0 / h**2)
    want_up = np.full(n - 1, 1.0 / h**2)
    want_lo[-1] = want_up[0] = 2.0 / h**2
    for got, want in ((lo, want_lo), (di, np.full(n, -2.0 / h**2)), (up, want_up)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("n", [33, 256, 4097])
@pytest.mark.parametrize("prof", SHEARS)
def test_flat_drive_is_the_profile_second_derivative(channel, prof, n):
    y = channel.volume_grid(n)
    h = y[1] - y[0]
    v = prof.value(y)
    want = prof.deriv(y, 2)
    want[0] = 2.0 * (v[1] - v[0]) / h**2
    want[-1] = 2.0 * (v[-2] - v[-1]) / h**2
    got = _drive(y, channel.radius(y), prof)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("prof", SHEARS)
def test_flat_vorticity_and_bc_residual_are_the_channel_formulas(channel, prof):
    # -u' and max |u'| at the walls, up to the sign of an exact zero, which
    # every caller squares or takes the absolute value of
    sol = solve_ns(channel, prof, nu=1e-2, n=64, dt=1e-3, t_end=0.05,
                   store_times=[0.0, 0.05])
    y, h = sol.coords, sol.coords[1] - sol.coords[0]
    got = vorticity(channel, y, sol.u)
    want = -diff_along(sol.u, y)
    assert np.array_equal(_bits_up_to_zero_sign(got), _bits_up_to_zero_sign(want))
    want = [max(abs(_one_sided_deriv(u, h, left)) for left in (True, False))
            for u in sol.u]
    assert np.array_equal(bc_residual(sol).view(np.int64),
                          np.array(want).view(np.int64))


def test_flat_slow_curl_is_zero(channel):
    # b / r at r = +inf: an exact zero where the old channel gave 0.0, on a
    # layer whose wall columns are nonzero
    profile = solve_layer(SHEARS[0], channel, FastGrid(nz=64), dt=1e-3, t_end=0.05,
                          store_times=[0.0, 0.05])
    for wall_id, series in profile.walls.items():
        assert series.ub[-1, 0] != 0.0
        for it in range(len(profile.times)):
            got = slow_curl_at_wall(profile, wall_id, it)
            assert _bits_up_to_zero_sign(got) == _bits_up_to_zero_sign(0.0)


def test_compatible_shear_semigroup_rate(channel):
    # U'(0) = U'(H) = 0: u_nu = heat semigroup of U0, error O(nu t ||U0''||)
    prof = ShearProfile(cosines=((1.0, 1),), h=channel.h)
    errs = []
    nus = (1e-2, 1e-3, 1e-4)
    for nu in nus:
        sol = solve_ns(channel, prof, nu=nu, n=1024, dt=2e-4,
                       t_end=0.5, store_times=[0.5])
        u0 = np.cos(math.pi * sol.coords / channel.h)
        errs.append(np.abs(sol.u[-1] - u0).max())
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
    steps = _resolve_store_steps(dt, t_end, [k * dt for k in ks])
    assert steps == sorted(set(ks))
    # t_end itself resolves to the last step, and must be a step multiple
    assert _resolve_store_steps(dt, t_end, [t_end]) == [n_steps]
    with pytest.raises(ConfigError, match="integer multiple of dt"):
        _resolve_store_steps(dt, t_end + 0.5 * dt, [])
    with_zero = _resolve_store_steps(dt, t_end, [0.0] + [k * dt for k in ks])
    assert with_zero[0] == 0


@settings(derandomize=True, max_examples=80, deadline=None)
@given(grid=store_grids(), frac=st.floats(0.01, 0.99), past=st.integers(1, 50))
def test_store_time_off_grid_or_past_end_is_config_error(grid, frac, past):
    dt, n_steps, ks = grid
    t_end = n_steps * dt
    with pytest.raises(ConfigError):
        _resolve_store_steps(dt, t_end, [k * dt for k in ks] + [(ks[0] + frac) * dt])
    with pytest.raises(ConfigError):
        _resolve_store_steps(dt, t_end, [(n_steps + past) * dt])


@settings(derandomize=True, max_examples=80, deadline=None)
@given(grid=store_grids(), extra=st.integers(0, 1000))
def test_time_index_finds_every_stored_stamp(grid, extra):
    dt, n_steps, ks = grid
    steps = _resolve_store_steps(dt, n_steps * dt, [k * dt for k in ks])
    times = np.array([k * dt for k in steps])
    for i, t in enumerate(times):
        assert time_index(times, float(t)) == i
    if extra not in steps:
        with pytest.raises(AlignmentError):
            time_index(times, extra * dt)
    with pytest.raises(AlignmentError):
        time_index(times, (steps[0] + 0.5) * dt)


def test_time_index_tolerance_edge():
    # a stamp matches within 1e-10 inclusive; the next double beyond is an
    # AlignmentError naming the time (differences from 0.0 are exact)
    times = np.array([0.0, 0.25, 0.5])
    assert time_index(times, 1e-10) == 0
    assert time_index(times, -1e-10) == 0
    assert time_index(times, 0.5) == 2
    for t in (np.nextafter(1e-10, 1.0), np.nextafter(-1e-10, -1.0), 0.375):
        with pytest.raises(AlignmentError, match="not among stored stamps"):
            time_index(times, float(t))
    # two stamps within the tolerance: the first is returned
    assert time_index(np.array([0.0, 5e-11]), 5e-11) == 0

import itertools
import math
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.interpolate import CubicSpline

from vvlab import geometry as geo
from vvlab import spaces
from vvlab.errors import (
    BlowupHorizonError,
    ConfigError,
    InvalidParameterError,
    UnsupportedCombinationError,
)
from vvlab.spaces import (
    AnisotropicIndex,
    FastGrid,
    ProfileField,
    VolumeGrid,
    _GRONWALL_BLOCK,
    _GRONWALL_HIGH,
    _GRONWALL_LOW,
    _gronwall_bounds,
    _live_spans,
    _not_a_knot_eval,
    _not_a_knot_fit,
    _spline_on_wall,
    _uniform_bracket,
    diff_along,
    eval_profile_on_wall,
    gronwall_local_bound,
    gronwall_rk4_trials,
    hardy_ratio,
    parse_norm,
    profile_from_callable,
    scaling_exponent_check,
    weighted_norm,
)

A_SLOW = 3.0  # slow-domain measure used in the closed-form norm oracles


@pytest.fixture(scope="module")
def grid():
    return FastGrid(nz=512)


@pytest.fixture(scope="module")
def exp_field(grid):
    return ProfileField(grid=grid, values=np.exp(-grid.z), weight=A_SLOW)


def test_fast_grid_invariants(grid):
    assert grid.z[0] == 0.0
    assert np.all(np.diff(grid.z) > 0)
    assert math.exp(-grid.z[-1]) < 1e-14


def test_fast_grid_refuses_nodes_rounded_together():
    # 1 - exp(-zmax / L) rounds to 0, so every node but the last sits at
    # 0.0; the grid is refused where it is made, naming both its sizes
    with pytest.raises(ConfigError, match=r"zmax = 1e-20 and nz = 8 does not increase"):
        FastGrid(nz=8, zmax=1e-20)


@pytest.mark.parametrize("name, value", [("zmax", math.nan), ("zmax", math.inf)])
def test_fast_grid_needs_finite_positive_zmax_and_stretch(name, value):
    # the stretch is the constant DEFAULT_FAST_L: zmax is the one checked
    with pytest.raises(ConfigError, match=f"{name} must be finite and positive, got {value}"):
        FastGrid(nz=64, **{name: value})


def test_profile_field_is_a_column_or_stacked_columns(grid):
    for shape in ((grid.nz - 1,), (2, 2, grid.nz), ()):
        with pytest.raises(ConfigError, match="is neither"):
            ProfileField(grid=grid, values=np.zeros(shape))


def test_zero_field_all_indices(grid):
    pf = profile_from_callable(lambda z: 0.0 * z, grid)
    for idx in (AnisotropicIndex(0, 0, 2.0), AnisotropicIndex(1, 1, 4.0),
                AnisotropicIndex(0, 1, math.inf)):
        assert weighted_norm(pf, idx) == 0.0


def test_exponential_l2_norm(exp_field):
    # int_0^inf exp(-2z) dz = 1/2
    want = math.sqrt(A_SLOW / 2.0)
    got = weighted_norm(exp_field, AnisotropicIndex(0, 0, 2.0))
    assert got == pytest.approx(want, rel=1e-5)


def test_exponential_weighted_norm(exp_field):
    # int (1+z^2) exp(-2z) dz = 1/2 + Gamma(3)/2^3 = 3/4
    want = math.sqrt(A_SLOW * 0.75)
    got = weighted_norm(exp_field, AnisotropicIndex(1, 0, 2.0))
    assert got == pytest.approx(want, rel=1e-5)


def test_sup_norm_with_weight_rejected(exp_field):
    with pytest.raises(UnsupportedCombinationError):
        weighted_norm(exp_field, AnisotropicIndex(1, 0, math.inf))


def test_homogeneity(grid):
    rng = np.random.default_rng(3)
    base = rng.normal(size=grid.nz)
    pf = ProfileField(grid=grid, values=base)
    pf5 = ProfileField(grid=grid, values=5.0 * base)
    for idx in (AnisotropicIndex(0, 0, 2.0), AnisotropicIndex(2, 1, 3.0)):
        assert weighted_norm(pf5, idx) == pytest.approx(
            5.0 * weighted_norm(pf, idx), rel=1e-13)


def test_index_monotonicity(grid):
    # raising k or l adds to the norm
    z = grid.z
    pf = ProfileField(grid=grid, values=np.exp(-z) * np.cos(z) + z * np.exp(-z),
                      weight=0.1)
    small = weighted_norm(pf, AnisotropicIndex(0, 0, 2.0))
    for idx in (AnisotropicIndex(1, 0, 2.0), AnisotropicIndex(0, 1, 2.0),
                AnisotropicIndex(2, 1, 2.0)):
        assert weighted_norm(pf, idx) > small


@pytest.mark.parametrize("idx", [AnisotropicIndex(0, 0, 2.0), AnisotropicIndex(1, 1, 1.0),
                                 AnisotropicIndex(2, 2, 3.5),
                                 AnisotropicIndex(0, 2, math.inf)])
def test_weighted_norm_of_minus_profile_is_its_own(grid, idx):
    # |.| of a column and of its negative agree, and so do their
    # derivatives' (each operation is sign-symmetric): the same bits
    rng = np.random.default_rng(5)
    values = rng.normal(size=grid.nz)
    pf = ProfileField(grid=grid, values=values, weight=0.7)
    neg = ProfileField(grid=grid, values=-values, weight=0.7)
    assert weighted_norm(neg, idx) == weighted_norm(pf, idx)


def test_invalid_index():
    with pytest.raises(InvalidParameterError):
        AnisotropicIndex(-1, 0, 2.0)
    with pytest.raises(InvalidParameterError):
        AnisotropicIndex(0, 0, 0.5)


def _oracle_weighted_norm(values, s_weights, z, idx):
    """weighted_norm before a profile became one wall column: ``values``
    (1, n_z) on a one-sample slow grid with quadrature ``s_weights``."""
    if math.isinf(idx.p):
        worst = 0.0
        d_z = values
        for b in range(idx.l + 1):
            worst = max(worst, float(np.abs(d_z).max(initial=0.0)))
            if b < idx.l:
                d_z = diff_along(d_z, z)
        return worst
    weight = 1.0 + z ** (2 * idx.k) if idx.k > 0 else np.ones_like(z)
    wz = geo.trapezoid_weights(z) * weight
    total = 0.0
    d_z = values
    for b in range(idx.l + 1):
        total += float(np.einsum("s,z,sz->", s_weights, wz, np.abs(d_z)**idx.p))
        if b < idx.l:
            d_z = diff_along(d_z, z)
    return total ** (1.0 / idx.p)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(data=st.data(), nz=st.integers(8, 64),
       weight=st.floats(0.1, 10.0), k=st.integers(0, 2),
       l=st.integers(0, 2), p=st.sampled_from([1.0, 2.0, 3.5, math.inf]))
def test_column_norm_matches_slow_grid_oracle(data, nz, weight, k, l, p):
    # one column equals the old norm of the same values as a one-sample
    # collar at the wall, weighted by the collar measure
    if math.isinf(p):
        k = 0
    grid = FastGrid(nz=nz)
    values = data.draw(arrays(np.float64, nz, elements=st.floats(
        -10.0, 10.0, allow_nan=False, allow_infinity=False)))
    idx = AnisotropicIndex(k, l, p)
    got = weighted_norm(ProfileField(grid=grid, values=values, weight=weight), idx)
    want = _oracle_weighted_norm(values[None, :], np.array([weight]),
                                 grid.z, idx)
    assert abs(got - want) <= 1e-14 * abs(want)


def test_two_node_grid_is_a_config_error(channel):
    x = np.array([0.0, 1.0])
    values = np.ones((3, 2))
    with pytest.raises(ConfigError, match="at least 3 nodes"):
        diff_along(values, x)
    with pytest.raises(ConfigError, match="at least 3 nodes"):
        VolumeGrid(channel, x).norms(values[0], [parse_norm("h1")])


# ---------------------------------------------------------------------------
# boundary layer evaluation
# ---------------------------------------------------------------------------


def _layer_on_grid(pf, geom, coords, nu):
    """The layer evaluation the scaling check measures: the sum over the
    walls of eval_profile_on_wall."""
    return sum(eval_profile_on_wall(pf, geom, w.wall_id, coords, nu)
               for w in geom.walls())


def _norm(geom, coords, u, label):
    """One volume norm of ``u``, from a one-spec VolumeGrid.norms call."""
    return VolumeGrid(geom, coords).norms(u, [parse_norm(label)])[0]


def test_eval_zero_profile(channel, grid):
    pf = profile_from_callable(lambda z: 0.0 * z, grid)
    coords = channel.volume_grid(4097)
    values = _layer_on_grid(pf, channel, coords, 1e-3)
    assert np.all(values == 0.0)
    assert _norm(channel, coords, values, "l2") == 0.0


def test_eval_exponential_squared_norm(channel, grid):
    # two walls, each contributing int exp(-2 d/sqrt(nu)) dd ~ sqrt(nu)/2;
    # sqrt(nu) <= eta/4 at every nu, so the check does not warn
    pf = profile_from_callable(lambda z: np.exp(-z), grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res, = scaling_exponent_check(pf, channel, [1e-2, 1e-3, 1e-4], (2.0,),
                                      n_points=8193)
    nu = res.nu_list[0]
    assert nu == 1e-4
    assert res.norms[0]**2 == pytest.approx(2.0 * math.sqrt(nu) / 2.0, rel=1e-3)


def test_eval_support_halves_with_sqrt_nu(channel, grid):
    pf = profile_from_callable(lambda z: np.exp(-z), grid)
    res, = scaling_exponent_check(pf, channel, [1e-4, 4e-4, 1e-2], (2.0,),
                                  n_points=8193)
    n2, n1 = res.norms[:2]
    # squared norm scales with the support width, i.e. with sqrt(nu)
    assert (n1 / n2) ** 2 == pytest.approx(2.0, rel=1e-3)


def test_eval_z_independent_field_is_cutoff(channel, grid):
    pf = profile_from_callable(lambda z: 1.0 + 0.0 * z, grid)
    coords = channel.volume_grid(513)
    values = _layer_on_grid(pf, channel, coords, 1e-3)
    want = geo.collar_cutoff(channel, geo.min_wall_distance(channel, coords))
    assert values.shape == (513,)
    assert np.allclose(values, want, atol=1e-12)


@pytest.mark.parametrize("geom_name", ["channel", "annulus"])
def test_eval_restriction_matches_full_grid(request, geom_name, grid):
    # evaluating only the collar nodes below Z_max gives the spline on the
    # whole grid times the cutoff, zeros elsewhere, bit for bit; at nu = 1e-2
    # the collar edge bounds the support, at nu = 1e-4 Z_max does.  One fit
    # over a wall's profiles stacked at several times gives each time's
    # evaluation bit for bit.
    geom = request.getfixturevalue(geom_name)
    per_time = [
        profile_from_callable(lambda z, t=t: np.exp(-z / (1.0 + t)) * np.cos(z)
                              + (1.0 + t) * z * np.exp(-z), grid)
        for t in (0.0, 0.125, 0.3, 1.0)
    ]
    stacked = ProfileField(grid=grid, values=np.stack([pf.values for pf in per_time]))
    assert stacked.values.shape == (len(per_time), grid.nz)
    assert np.array_equal(stacked.values[2], per_time[2].values)
    coords = geom.volume_grid(4097)
    for nu in (1e-2, 1e-4):
        for w in geom.walls():
            d = geo.wall_distance(geom, w.wall_id, coords)
            got_stacked = eval_profile_on_wall(stacked, geom, w.wall_id, coords, nu)
            assert got_stacked.shape == (len(per_time), len(coords))
            for jt, pf in enumerate(per_time):
                spl = CubicSpline(grid.z, pf.values, axis=-1, extrapolate=False)
                full = np.nan_to_num(spl(d / math.sqrt(nu)), nan=0.0)
                want = full * geo.collar_cutoff(geom, d)
                got = eval_profile_on_wall(pf, geom, w.wall_id, coords, nu)
                assert np.any(want != 0.0)
                assert np.array_equal(got, want)
                assert np.array_equal(got_stacked[jt], want)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(nz=st.integers(8, 600), fast_knots=st.booleans(),
       lead=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       scale=st.sampled_from([1e-300, 1e-8, 1.0, 1e8]),
       zeros=st.sampled_from(["none", "some", "all"]), seed=st.integers(0, 2**32 - 1))
def test_not_a_knot_is_scipy_cubic_spline_bit_for_bit(nz, fast_knots, lead, scale,
                                                      zeros, seed):
    # the numpy spline repeats CubicSpline's operations, so every value and
    # every sign bit (signed zeros included) must match
    rng = np.random.default_rng(seed)
    if fast_knots:
        x = FastGrid(nz=nz).z
    else:
        x = np.concatenate(([0.0], np.cumsum(rng.uniform(1e-3, 2.0, nz - 1))))
    y = scale * rng.standard_normal((*lead, nz))
    if zeros == "some":
        y[..., ::3] = 0.0
        y[..., 1::5] = -0.0
    elif zeros == "all":
        y[...] = -0.0 if seed % 2 else 0.0
    xq = np.concatenate((x, [x[0], x[-1]], x[-1] * rng.uniform(0.0, 1.0, 257)))
    got = _not_a_knot_eval(_not_a_knot_fit(x, y), xq)
    want = CubicSpline(x, y, axis=-1, extrapolate=False)(xq)
    assert got.shape == want.shape == (*lead, len(xq))
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("geom_name", ["channel", "annulus"])
def test_one_spline_fit_gives_the_per_call_values(request, geom_name, grid):
    # a fit made once and evaluated at each nu gives eval_profile_on_wall's
    # values, which fits on every call
    geom = request.getfixturevalue(geom_name)
    pf = profile_from_callable(lambda z: np.exp(-z) * np.cos(z) + z * np.exp(-z), grid)
    stacked = ProfileField(grid=grid, values=np.stack([pf.values, 2.0 * pf.values]))
    fit, fit_stacked = (_not_a_knot_fit(grid.z, f.values) for f in (pf, stacked))
    coords = geom.volume_grid(2049)
    for nu in (1e-2, 1e-3, 1e-4, 1e-5):
        for w in geom.walls():
            assert np.array_equal(_spline_on_wall(fit, geom, w.wall_id, coords, nu),
                                  eval_profile_on_wall(pf, geom, w.wall_id, coords, nu))
            assert np.array_equal(
                _spline_on_wall(fit_stacked, geom, w.wall_id, coords, nu),
                eval_profile_on_wall(stacked, geom, w.wall_id, coords, nu))


def test_scaling_check_fits_its_profile_once(monkeypatch, channel, grid):
    # one spline fit and one volume grid serve every nu
    fits, grids = [], []

    def counted(x, y):
        fits.append(y.shape)
        return _not_a_knot_fit(x, y)

    def counted_grid(geom, coords):
        grids.append(len(coords))
        return VolumeGrid(geom, coords)

    monkeypatch.setattr(spaces, "_not_a_knot_fit", counted)
    monkeypatch.setattr(spaces, "VolumeGrid", counted_grid)
    pf = profile_from_callable(lambda z: np.exp(-z), grid)
    scaling_exponent_check(pf, channel, [1e-2, 1e-3, 1e-4, 1e-5], (2.0, 4.0),
                           n_points=2049)
    assert fits == [pf.values.shape]
    assert grids == [2049]


def test_weighted_norm_refuses_stacked_profiles(grid):
    pf = profile_from_callable(lambda z: np.exp(-z), grid)
    stacked = ProfileField(grid=grid, values=np.stack([pf.values, pf.values]))
    with pytest.raises(ConfigError):
        weighted_norm(stacked, AnisotropicIndex(k=0, l=0, p=2.0))


def test_eval_warns_when_nu_too_large(channel, grid):
    # sqrt(0.05) > eta/4: the collar regime is not asymptotic
    pf = profile_from_callable(lambda z: np.exp(-z), grid)
    with pytest.warns(UserWarning, match="eta/4"):
        scaling_exponent_check(pf, channel, [5e-2, 5e-3, 5e-4], (2.0,), n_points=513)


def test_scaling_check_needs_positive_viscosities(channel, grid):
    pf = profile_from_callable(lambda z: np.exp(-z), grid)
    with pytest.raises(InvalidParameterError, match="nu must be positive"):
        scaling_exponent_check(pf, channel, [0.0, 1e-3, 1e-2], (2.0,), n_points=513)


def test_scaling_exponent(channel, grid):
    pf = profile_from_callable(lambda z: np.exp(-z), grid)
    for p, want in ((2.0, 0.25), (4.0, 0.125)):
        res, = scaling_exponent_check(pf, channel, [1e-2, 1e-3, 1e-4], (p,),
                                      n_points=8193)
        assert res.slope == pytest.approx(want, abs=0.02)


def test_scaling_needs_three_values(channel, grid):
    pf = profile_from_callable(lambda z: np.exp(-z), grid)
    with pytest.raises(ConfigError):
        scaling_exponent_check(pf, channel, [1e-2, 1e-4], (2.0,), n_points=513)


def test_scaling_bounded_mode(channel, grid):
    pf = profile_from_callable(lambda z: np.exp(-z), grid)
    res, = scaling_exponent_check(pf, channel, [1e-2, 1e-3, 1e-4], (2.0,),
                                  n_points=8193)
    # ratios decrease as nu does (nu ascending in the result)
    assert max(res.ratios) <= res.ratios[-1] * 1.1
    assert all(np.isfinite(res.ratios))


@pytest.mark.parametrize("part", ["rate", "bounded"])
def test_multi_p_scaling_check_gives_the_single_p_results(channel, grid, part):
    # one layer evaluation per nu serves every p: each p's rate part (norms
    # and fit) and bounded part (reference norm and ratios) are exactly
    # those of its own check and of their oracles, the norm of the walls'
    # summed evaluation at that p alone
    pf = profile_from_callable(lambda z: np.exp(-z), grid)
    nus = [1e-2, 1e-3, 1e-4, 1e-5]
    ps = (2.0, 4.0, 6.0, math.inf)
    multi = scaling_exponent_check(pf, channel, nus, ps, n_points=2049)
    assert len(multi) == len(ps)
    ref = weighted_norm(pf, AnisotropicIndex(k=1, l=1, p=2.0))
    coords = channel.volume_grid(2049)
    for p, res in zip(ps, multi):
        single, = scaling_exponent_check(pf, channel, nus, (p,), n_points=2049)
        if part == "rate":
            assert (res.nu_list, res.norms, res.slope, res.intercept) == (
                single.nu_list, single.norms, single.slope, single.intercept)
            label = "linf" if math.isinf(p) else f"lp:{p}"
            assert res.norms == tuple(
                _norm(channel, coords, _layer_on_grid(pf, channel, coords, nu), label)
                for nu in sorted(nus))
        else:
            assert (res.reference_norm, res.ratios) == (single.reference_norm,
                                                        single.ratios)
            assert res.reference_norm == ref
            assert res.ratios == tuple(n / ref for n in res.norms)


# ---------------------------------------------------------------------------
# Hardy
# ---------------------------------------------------------------------------


def _bump_field(geom, n):
    """Grid and a one-component bump that vanishes at both walls."""
    x = geom.volume_grid(n)
    d = geo.min_wall_distance(geom, x)
    u = np.where(d < geom.eta,
                 np.sin(np.pi * np.minimum(d, geom.eta) / geom.eta) ** 2, 0.0)
    return x, u


def test_hardy_zero_field(channel):
    x = channel.volume_grid(101)
    assert hardy_ratio(channel, x, np.zeros(101)) == 0.0


def test_hardy_bump_bounded(channel):
    ratio = hardy_ratio(channel, *_bump_field(channel, 4001))
    assert ratio <= 4.0 / math.pi**2 * 1.5
    # dense quadrature oracle of the same 1d integrals
    s = np.linspace(1e-9, channel.eta, 200001)
    u = np.sin(np.pi * s / channel.eta) ** 2
    du = (np.pi / channel.eta) * np.sin(2 * np.pi * s / channel.eta)
    oracle = np.trapezoid(u**2 / s**2, s) / np.trapezoid(du**2, s)
    assert ratio == pytest.approx(oracle, rel=0.05)


def test_hardy_grid_stability(channel):
    r1 = hardy_ratio(channel, *_bump_field(channel, 2001))
    r2 = hardy_ratio(channel, *_bump_field(channel, 4001))
    assert abs(r1 - r2) / r2 < 0.05


# ---------------------------------------------------------------------------
# Gronwall
# ---------------------------------------------------------------------------


def test_gronwall_zero_data():
    t = np.linspace(0, 1, 101)
    out = gronwall_local_bound(0.0, t, np.zeros_like(t), 1.0, 1.0, t[1:])
    assert np.all(out == 0.0)


def test_gronwall_linear_limit():
    t = np.linspace(0, 1, 2001)
    out = gronwall_local_bound(0.0, t, np.ones_like(t), 1e-8, 1.0, 1.0)
    assert out == pytest.approx(1.0, rel=1e-6)


def test_gronwall_exact_riccati():
    # y' = y^2, y(0) = 1: y(0.5) = 2 and the bound is exact when h = 0
    t = np.linspace(0, 0.6, 61)
    out = gronwall_local_bound(1.0, t, np.zeros_like(t), 1.0, 1.0, 0.5)
    assert out == pytest.approx(2.0, rel=1e-12)


def test_gronwall_blowup_horizon():
    t = np.linspace(0, 2.0, 201)
    with pytest.raises(BlowupHorizonError) as err:
        gronwall_local_bound(1.0, t, np.zeros_like(t), 1.0, 1.0, 1.5)
    assert err.value.critical_time == pytest.approx(1.0, abs=1e-3)


def test_gronwall_dominates_rk4_batch():
    trials = gronwall_rk4_trials(seed=42, n_trials=100, n_samples=1001,
                                 n_steps=800)
    assert np.all(trials.bound >= trials.y * (1 - 1e-9) - 1e-12)


def _gronwall_rk4_scalar_oracle(seed, n_samples, n_steps, n_trials=100):
    """One scalar RK4 loop per trial with np.interp, the reference for the
    batched march; returns (t_star, y, bound) per trial."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_trials):
        y0 = rng.uniform(0.0, 1.5)
        c0 = rng.uniform(0.1, 2.0)
        alpha = rng.uniform(0.3, 2.0)
        h_amp = rng.uniform(0.0, 1.5)
        h_freq = rng.uniform(0.5, 4.0)
        tt = np.linspace(0.0, 2.0, n_samples)
        hv = h_amp * (1.0 + np.sin(h_freq * tt) ** 2)
        big_h = y0 + np.concatenate([[0.0], np.cumsum(
            0.5 * (hv[1:] + hv[:-1]) * np.diff(tt))])
        guard = alpha * c0 * big_h**alpha * tt
        horizon = tt[-1] if np.all(guard < 1.0) else tt[np.argmax(guard >= 1.0)]
        t_star = 0.7 * horizon
        dt = t_star / n_steps

        def rhs(t, yv):
            hval = np.interp(t, tt, hv)
            return hval + c0 * max(yv, 0.0) ** (1.0 + alpha)

        y = y0
        for k in range(n_steps):
            tk = k * dt
            k1 = rhs(tk, y)
            k2 = rhs(tk + dt / 2, y + dt * k1 / 2)
            k3 = rhs(tk + dt / 2, y + dt * k2 / 2)
            k4 = rhs(tk + dt, y + dt * k3)
            y += dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        out.append((t_star, y, gronwall_local_bound(y0, tt, hv, c0, alpha, t_star)))
    return tuple(np.array(v) for v in zip(*out))


def test_gronwall_batch_matches_scalar_oracle():
    # the draws, sample count and step count of check_gronwall_dominates_rk4
    t_star, y, bound = _gronwall_rk4_scalar_oracle(11, 2001, 2000)
    trials = gronwall_rk4_trials(seed=11, n_trials=100, n_samples=2001,
                                 n_steps=2000)
    # the guard vanishes at t = 0, so no trial has an empty interval
    assert np.all(t_star > 0.0)
    assert np.array_equal(trials.t_star, t_star)
    assert np.all(np.abs(trials.y - y) <= 1e-14 * np.abs(y))
    failures = lambda b, yv: int(np.count_nonzero(b < yv * (1 - 1e-9) - 1e-12))
    assert failures(trials.bound, trials.y) == failures(bound, y)
    assert np.min(trials.bound - trials.y) == pytest.approx(
        np.min(bound - y), rel=1e-12)


def test_gronwall_blocks_match_scalar_oracle_across_block_boundaries():
    # two full blocks of interpolated h and a last block of one step
    n_steps = 2 * _GRONWALL_BLOCK + 1
    t_star, y, _ = _gronwall_rk4_scalar_oracle(5, 201, n_steps, n_trials=10)
    trials = gronwall_rk4_trials(seed=5, n_trials=10, n_samples=201,
                                 n_steps=n_steps)
    assert np.array_equal(trials.t_star, t_star)
    assert np.all(np.abs(trials.y - y) <= 1e-14 * np.abs(y))


def test_gronwall_check_trials_are_pinned_bit_for_bit():
    # float.hex of (t_star, y, bound) per trial of check_gronwall_dominates_rk4
    golden = pathlib.Path(__file__).parent / "golden" / "gronwall_check.txt"
    rows = [line.split() for line in golden.read_text().splitlines()
            if not line.startswith("#")]
    trials = gronwall_rk4_trials(seed=11, n_trials=100, n_samples=2001,
                                 n_steps=2000)
    got = [[v.hex() for v in map(float, row)]
           for row in zip(trials.t_star, trials.y, trials.bound)]
    assert got == rows


def test_gronwall_march_edges_are_pinned_bit_for_bit():
    # float.hex of (t_star, y, bound) per trial where the march's blocks
    # end: two full blocks and a block of one step, one trial in exactly
    # one full block, and a single short block; each case follows its
    # "case seed n_trials n_samples n_steps" line
    golden = pathlib.Path(__file__).parent / "golden" / "gronwall_edges.txt"
    cases = {}
    for line in golden.read_text().splitlines():
        if line.startswith("case "):
            rows = cases.setdefault(tuple(map(int, line.split()[1:])), [])
        elif not line.startswith("#"):
            rows.append(line.split())
    assert list(cases) == [(5, 10, 201, 2 * _GRONWALL_BLOCK + 1),
                           (2, 1, 51, _GRONWALL_BLOCK), (4, 3, 101, 7)]
    for (seed, n_trials, n_samples, n_steps), rows in cases.items():
        trials = gronwall_rk4_trials(seed=seed, n_trials=n_trials,
                                     n_samples=n_samples, n_steps=n_steps)
        got = [[v.hex() for v in map(float, row)]
               for row in zip(trials.t_star, trials.y, trials.bound)]
        assert got == rows, (seed, n_trials, n_samples, n_steps)


@pytest.mark.parametrize("seed, n_trials, n_samples, n_steps",
                         [(11, 100, 2001, 2000), (5, 10, 201, 2 * _GRONWALL_BLOCK + 1)])
def test_gronwall_batch_bounds_equal_scalar_bounds(seed, n_trials, n_samples, n_steps):
    # the bounds come from the march's cumulative trapezoid, bit for bit
    # gronwall_local_bound of each trial's draws at its t_star
    trials = gronwall_rk4_trials(seed=seed, n_trials=n_trials,
                                 n_samples=n_samples, n_steps=n_steps)
    y0, c0, alpha, amp, freq = np.random.default_rng(seed).uniform(
        _GRONWALL_LOW, _GRONWALL_HIGH, size=(n_trials, 5)).T
    tt = np.linspace(0.0, 2.0, n_samples)
    want = [gronwall_local_bound(y0[i], tt, amp[i] * (1.0 + np.sin(freq[i] * tt) ** 2),
                                 c0[i], alpha[i], trials.t_star[i])
            for i in range(n_trials)]
    assert np.array_equal(trials.bound, want)


def test_gronwall_batch_bound_past_its_horizon_raises_the_scalar_error():
    # H = y0 + 0.3 t and guard = H t: the second trial's guard reaches 1
    # before t = 1.5, so the batch raises the scalar path's error
    tt = np.linspace(0.0, 2.0, 201)
    hv = np.full((2, len(tt)), 0.3)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (hv[0, 1:] + hv[0, :-1]) * np.diff(tt))])
    y0, c0, alpha = np.array([0.2, 1.0]), np.array([0.5, 1.0]), np.array([1.0, 1.0])
    t = np.array([0.5, 1.5])
    with pytest.raises(BlowupHorizonError) as scalar:
        gronwall_local_bound(1.0, tt, hv[1], 1.0, 1.0, 1.5)
    with pytest.raises(BlowupHorizonError) as batch:
        _gronwall_bounds(y0, tt, hv, np.stack([cum, cum]), c0, alpha, t)
    assert str(batch.value) == str(scalar.value)
    assert batch.value.critical_time == scalar.value.critical_time < 1.5
    # below its horizon the first trial alone is bounded, as the scalar one
    assert _gronwall_bounds(y0[:1], tt, hv[:1], cum[None], c0[:1], alpha[:1], t[:1]) \
        == gronwall_local_bound(0.2, tt, hv[0], 0.5, 1.0, 0.5)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n_samples=st.sampled_from([2, 3, 7, 201, 1001, 2001]),
       data=st.data())
def test_uniform_bracket_is_searchsorted(n_samples, data):
    # the segment index h_at takes: searchsorted's, clipped the same way,
    # at t = 0, on every knot, one ulp either side of it, in the last
    # segment, beyond both ends and at drawn times
    tt = np.linspace(0.0, 2.0, n_samples)
    drawn = data.draw(arrays(np.float64, st.integers(1, 40),
                             elements=st.floats(-0.5, 2.5)))
    last_seg = data.draw(arrays(np.float64, 5, elements=st.floats(
        float(tt[-2]), float(tt[-1]))))
    t = np.concatenate([[0.0], tt, np.nextafter(tt, -np.inf),
                        np.nextafter(tt, np.inf), last_seg, drawn])
    want = np.clip(np.searchsorted(tt, t, side="right") - 1, 0, n_samples - 2)
    assert np.array_equal(_uniform_bracket(tt, t), want)
    # the (n_trials, block) layout of the march
    assert np.array_equal(_uniform_bracket(tt, t[None, :]), want[None, :])


@pytest.mark.parametrize("n_trials, n_samples, n_steps",
                         [(0, 11, 5), (5, 1, 5), (5, 11, 0)])
def test_gronwall_trials_reject_degenerate_sizes(n_trials, n_samples, n_steps):
    with pytest.raises(InvalidParameterError):
        gronwall_rk4_trials(seed=1, n_trials=n_trials, n_samples=n_samples,
                            n_steps=n_steps)


# ---------------------------------------------------------------------------
# norm strings
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("label", ["lp:inf", "lp:Infinity", "lp:-inf", "lp:nan"])
def test_parse_norm_rejects_non_finite_exponents(label):
    # lp:inf used to read 1.0 for every field and a NaN exponent NaN; the
    # sup norm has its own label
    with pytest.raises(ConfigError, match="linf"):
        parse_norm(label)


@pytest.mark.parametrize("label", ["lp:abc"])
def test_non_numeric_norm_exponent_is_a_config_error(label):
    # a bare ValueError from float() escaped both the parser and a
    # StudyConfig built in code; only the config-file path converted it
    import dataclasses

    from vvlab.study import get_preset

    with pytest.raises(ConfigError, match="bad norm string"):
        parse_norm(label)
    with pytest.raises(ConfigError, match="bad norm string"):
        dataclasses.replace(get_preset("flat-shear"), norms=(label,))


def test_parse_norm_strings():
    assert parse_norm("l2").p == 2.0
    assert parse_norm("linf").kind == "linf"
    assert parse_norm("lp:4").p == 4.0
    for label in ("h7", "aniso:0,0,0,2"):
        with pytest.raises(ConfigError, match="unknown norm string"):
            parse_norm(label)


def test_volume_norms(channel):
    x = channel.volume_grid(4001)
    grid = VolumeGrid(channel, x)
    l2, linf, h1, lp4 = grid.norms(np.sin(np.pi * x),
                                   [parse_norm(s) for s in ("l2", "linf", "h1", "lp:4")])
    assert l2 == pytest.approx(math.sqrt(0.5), rel=1e-5)
    assert linf == pytest.approx(1.0, rel=1e-5)
    # |u|^2 + |u'|^2 integrates to 1/2 + pi^2/2
    assert h1 == pytest.approx(math.sqrt(0.5 + math.pi**2 / 2.0), rel=1e-4)
    # lp:4 of sin: (int sin^4)^(1/4) = (3/8)^(1/4)
    assert lp4 == pytest.approx((3.0 / 8.0) ** 0.25, rel=1e-5)


def _embed(geom, u, rows=(0.0, 0.0, 0.0)):
    """The (3, n) field that is ``u`` in the flow component and the value
    of ``rows`` (+0.0 or -0.0) in each other row."""
    values = np.empty((3, len(u)))
    values[:] = np.reshape(rows, (3, 1))
    values[geom.flow_comp] = u
    return values


def _volume_norm_oracle(geom, x, values, spec):
    """The volume norm formulas over all three components of a (3, n)
    field, with every grid constant rebuilt per call."""
    w = np.zeros_like(x)
    d = np.diff(x)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    w = w * geom.measure(x)
    mag = np.sqrt(np.sum(values**2, axis=0))
    if spec.kind == "linf":
        return float(mag.max(initial=0.0))
    if spec.kind == "lp":
        return float(np.sum(w * mag**spec.p) ** (1.0 / spec.p))
    return float(np.sqrt(np.sum(w * (mag**2 + _grad_sq_oracle(geom, x, values)))))


def _grad_sq_oracle(geom, x, values):
    """|grad u|^2 summed over all three components, zero ones included."""
    out = np.sum(diff_along(values, x) ** 2, axis=0)
    if geom.kind == geo.ANNULUS_GAP:
        out = out + (values[0] ** 2 + values[1] ** 2) / x**2
    return out


@pytest.mark.parametrize("geom_name", ["channel", "annulus"])
@pytest.mark.parametrize("n", [3, 101, 4097])
def test_volume_grid_matches_per_call_norms(request, geom_name, n):
    # one grid, many flow components: bit for bit the per-call formulas
    geom = request.getfixturevalue(geom_name)
    coords = geom.volume_grid(n)
    grid = VolumeGrid(geom, coords)
    specs = [parse_norm(s) for s in ("l2", "lp:4", "linf", "h1")]
    rng = np.random.default_rng(n)
    for _ in range(3):
        u = rng.normal(size=n) * rng.uniform(0.1, 10.0)
        expected = [_volume_norm_oracle(geom, coords, _embed(geom, u), spec)
                    for spec in specs]
        assert grid.norms(u, specs) == expected
    # runs of +0.0 and -0.0, which the powers skip, and one NaN or inf,
    # which must still reach every norm it reaches in the formulas (repr
    # compares NaN as NaN)
    live = rng.normal(size=n)
    zeros = np.where(np.arange(n) % 7 < 3, 0.0, -0.0)
    signed_zeros = np.where(np.arange(n) % 5 < 3, zeros, live)
    fields = {"zeros": signed_zeros}
    for bad in ("nan", "inf"):
        fields[bad] = signed_zeros.copy()
        fields[bad][n // 2] = float(bad)
    got = {}
    for name, u in fields.items():
        with np.errstate(invalid="ignore"):
            expected = [_volume_norm_oracle(geom, coords, _embed(geom, u), spec)
                        for spec in specs]
            got[name] = grid.norms(u, specs)
        assert list(map(repr, got[name])) == list(map(repr, expected))
    assert all(math.isnan(v) for v in got["nan"])
    assert got["inf"][:3] == [math.inf] * 3


@settings(derandomize=True, max_examples=150, deadline=None)
@given(kind=st.sampled_from([geo.FLAT_CHANNEL, geo.ANNULUS_GAP]),
       n=st.integers(3, 48),
       flow=st.sampled_from(["live", "zero", "-zero"]),
       rows=st.tuples(*[st.sampled_from([0.0, -0.0])] * 3),
       seed=st.integers(0, 2**32 - 1))
@example(kind=geo.ANNULUS_GAP, n=17, flow="zero", rows=(-0.0, 0.0, -0.0), seed=0)
@example(kind=geo.FLAT_CHANNEL, n=17, flow="-zero", rows=(0.0, -0.0, -0.0), seed=0)
@example(kind=geo.ANNULUS_GAP, n=17, flow="live", rows=(-0.0, 0.0, -0.0), seed=1)
@example(kind=geo.FLAT_CHANNEL, n=17, flow="live", rows=(0.0, -0.0, -0.0), seed=1)
def test_live_component_norms_equal_all_component_formula(kind, n, flow, rows, seed):
    # norms and grad_sq of the flow component alone give the bits of the
    # formula over all three components of the embedded (3, n) field whose
    # other rows are +0.0 or -0.0: sqrt(u^2) is |u| exactly while u^2 does
    # not underflow, here for magnitudes from 1e-12 to 1e6 and the zero field
    geom = geo.flat_channel(1.0, eta=0.45) if kind == geo.FLAT_CHANNEL \
        else geo.annulus_gap(1.0, 2.0, eta=0.45)
    x = geom.volume_grid(n)
    rng = np.random.default_rng(seed)
    u = rng.normal(size=n) * 10.0 ** rng.uniform(-12, 6)
    if flow != "live":
        u[:] = 0.0 if flow == "zero" else -0.0
    values = _embed(geom, u, rows)
    specs = [parse_norm(s) for s in ("l2", "lp:4", "lp:3.5", "linf", "h1")]
    grid = VolumeGrid(geom, x)
    assert grid.norms(u, specs) == [_volume_norm_oracle(geom, x, values, spec)
                                    for spec in specs]
    want = _grad_sq_oracle(geom, x, values)
    got = grid.grad_sq(u)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


_LABELS = ("l2", "h1", "linf", "lp:4")
_GEOMS = {geo.FLAT_CHANNEL: geo.flat_channel(1.0, eta=0.45),
          geo.ANNULUS_GAP: geo.annulus_gap(1.0, 2.0, eta=0.45)}


def _zero_run_field(n, a, b, zeros, seed):
    """A field of n nonzero nodes but for [a, b), which holds exact zeros:
    +0.0, -0.0 or the two alternating.  Magnitudes from 1e-3 to 1e3 keep
    u^2 from underflowing, so |u| is the oracle's sqrt(u^2) exactly."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3, 3)
    u[a:b] = {"+0": 0.0, "-0": -0.0, "+-0": np.where(np.arange(b - a) % 2, -0.0, 0.0)}[zeros]
    return u


def _assert_norms_are_the_formulas(kind, u):
    """Every order of l2, h1, linf and lp:4 of u gives the oracle's bits
    (repr compares NaN as NaN and keeps a zero's sign).  One scratch, all
    NaN at first, serves every order, so a term never written, or one left
    by an earlier spec or call, shows.  Returns the norms by label."""
    geom, n = _GEOMS[kind], len(u)
    x = geom.volume_grid(n)
    grid = VolumeGrid(geom, x)
    scratch = np.full((4, n), np.nan)
    with np.errstate(invalid="ignore"):
        want = {label: _volume_norm_oracle(geom, x, _embed(geom, u), parse_norm(label))
                for label in _LABELS}
        for order in itertools.permutations(_LABELS):
            got = grid.norms(u, [parse_norm(label) for label in order], scratch)
            assert list(map(repr, got)) == [repr(want[label]) for label in order], order
    return want


def test_live_spans_skip_one_run_of_zeros():
    # the one run of zeros [a, b) is skipped but for _HALO = 2 nodes at
    # each end; a run at an end leaves one span, an all-zero field none;
    # two runs, a run shorter than the two halos and a field without zeros
    # are computed whole
    def mask(n, *runs):
        zero = np.zeros(n, dtype=bool)
        for a, b in runs:
            zero[a:b] = True
        return zero

    assert _live_spans(mask(40, (10, 30))) == [slice(0, 12), slice(28, 40)]
    assert _live_spans(mask(40, (0, 30))) == [slice(28, 40)]
    assert _live_spans(mask(40, (10, 40))) == [slice(0, 12)]
    assert _live_spans(mask(40, (0, 4))) == [slice(2, 40)]
    assert _live_spans(mask(40, (36, 40))) == [slice(0, 38)]
    assert _live_spans(mask(40, (0, 40))) == []
    for runs in [(), ((20, 21),), ((0, 3),), ((37, 40),), ((10, 13),),
                 ((5, 10), (20, 30)), ((0, 10), (39, 40))]:
        assert _live_spans(mask(40, *runs)) == [slice(0, 40)]


_N_RUN = 40


@pytest.mark.parametrize("kind", [geo.FLAT_CHANNEL, geo.ANNULUS_GAP])
@pytest.mark.parametrize("a, b", [
    # the run starts 0 to 3 nodes from the first node or ends 0 to 3 nodes
    # from the last, or both (0, 40: the whole field); it is 1 to 4 nodes
    # at either end, where the one-sided rows reach 2 nodes in; one node
    *[(a, 30) for a in range(4)],
    *[(10, _N_RUN - e) for e in range(4)],
    *[(a, _N_RUN - e) for a in range(4) for e in range(4)],
    *[(0, b) for b in range(1, 5)], *[(_N_RUN - b, _N_RUN) for b in range(2, 5)],
    (20, 21),
])
@pytest.mark.parametrize("zeros", ["+0", "-0", "+-0"])
def test_norms_skip_a_run_of_zeros_bit_for_bit(kind, a, b, zeros):
    # the run's terms are skipped and the field's norms keep the bits of
    # the formulas over every node, in every order of the specs
    u = _zero_run_field(_N_RUN, a, b, zeros, seed=a * _N_RUN + b)
    got = _assert_norms_are_the_formulas(kind, u)
    if (a, b) == (0, _N_RUN):
        assert got == dict.fromkeys(_LABELS, 0.0)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(kind=st.sampled_from([geo.FLAT_CHANNEL, geo.ANNULUS_GAP]),
       n=st.integers(3, 64), zeros=st.sampled_from(["+0", "-0", "+-0"]),
       bad=st.sampled_from([None, math.nan, math.inf, -math.inf]),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_norms_of_a_run_of_zeros_keep_nan_and_inf(kind, n, zeros, bad, seed, data):
    # any run of zeros, and a NaN or +-inf before or past it, in the first
    # or the second span: linf is an array max over the spans, so it is NaN
    # for a NaN in either (the builtin max could drop one in the second)
    a = data.draw(st.integers(0, n - 1), label="a")
    b = data.draw(st.integers(a + 1, n), label="b")
    u = _zero_run_field(n, a, b, zeros, seed)
    live = [i for i in range(n) if not a <= i < b]
    if bad is not None and live:
        u[data.draw(st.sampled_from(live), label="at")] = bad
    got = _assert_norms_are_the_formulas(kind, u)
    if bad is not None and live:
        assert math.isnan(got["linf"]) if math.isnan(bad) else got["linf"] == math.inf


@pytest.mark.parametrize("kind", [geo.FLAT_CHANNEL, geo.ANNULUS_GAP])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, 9, 30, 39])
def test_norms_keep_a_nan_or_inf_in_either_span(kind, bad, at):
    # a run of zeros on [10, 30) and a NaN or +-inf at an end or an edge of
    # the first span or the second
    u = _zero_run_field(_N_RUN, 10, 30, "+0", seed=at)
    u[at] = bad
    got = _assert_norms_are_the_formulas(kind, u)
    assert math.isnan(got["linf"]) if math.isnan(bad) else got["linf"] == math.inf


def test_volume_norms_allocate_less_than_one_field(annulus):
    # with the scratch given, a call at a study's n = 65,536 allocates less
    # than one (n,) float array, the zero mask included (it lives in the
    # scratch): intermediates allocated per call were handed back to the
    # system and faulted in again at every call
    n = 65_536
    grid = VolumeGrid(annulus, annulus.volume_grid(n))
    scratch = np.empty((4, n))
    specs = [parse_norm(label) for label in _LABELS]
    rng = np.random.default_rng(0)
    run = rng.normal(size=n)
    run[n // 50:-n // 50] = 0.0
    for u in (run, rng.normal(size=n)):
        grid.norms(u, specs, scratch)
        tracemalloc.start()
        try:
            grid.norms(u, specs, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * 8

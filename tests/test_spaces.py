import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from vvlab import geometry as geo
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
    VolumeField,
    VolumeGrid,
    boundary_layer_eval,
    diff_along,
    eval_profile_on_wall,
    gronwall_local_bound,
    gronwall_rk4_trials,
    hardy_ratio,
    parse_norm,
    profile_from_callable,
    scaling_exponent_check,
    volume_norm,
    weighted_norm,
)

A_SLOW = 3.0  # slow-domain measure used in the closed-form norm oracles


@pytest.fixture(scope="module")
def grid():
    return FastGrid(nz=512)


@pytest.fixture(scope="module")
def exp_field(grid):
    return profile_from_callable(lambda s, z: np.exp(-z), grid, s_weight=A_SLOW)


def test_fast_grid_invariants(grid):
    assert grid.z[0] == 0.0
    assert np.all(np.diff(grid.z) > 0)
    assert math.exp(-grid.z[-1]) < 1e-14


def test_zero_field_all_indices(grid):
    pf = profile_from_callable(lambda s, z: 0.0 * z, grid)
    for idx in (AnisotropicIndex(0, 0, 0, 2.0), AnisotropicIndex(1, 1, 1, 4.0),
                AnisotropicIndex(0, 0, 1, math.inf)):
        assert weighted_norm(pf, idx) == 0.0


def test_exponential_l2_norm(exp_field):
    # int_0^inf exp(-2z) dz = 1/2
    want = math.sqrt(A_SLOW / 2.0)
    got = weighted_norm(exp_field, AnisotropicIndex(0, 0, 0, 2.0))
    assert got == pytest.approx(want, rel=1e-5)


def test_exponential_weighted_norm(exp_field):
    # int (1+z^2) exp(-2z) dz = 1/2 + Gamma(3)/2^3 = 3/4
    want = math.sqrt(A_SLOW * 0.75)
    got = weighted_norm(exp_field, AnisotropicIndex(1, 0, 0, 2.0))
    assert got == pytest.approx(want, rel=1e-5)


def test_sup_norm_with_weight_rejected(exp_field):
    with pytest.raises(UnsupportedCombinationError):
        weighted_norm(exp_field, AnisotropicIndex(1, 0, 0, math.inf))


def test_homogeneity(grid):
    rng = np.random.default_rng(3)
    base = rng.normal(size=(1, 1, grid.nz))
    pf = ProfileField(grid=grid, s=[0.0], s_weights=[1.0], values=base)
    pf5 = ProfileField(grid=grid, s=[0.0], s_weights=[1.0], values=5.0 * base)
    for idx in (AnisotropicIndex(0, 0, 0, 2.0), AnisotropicIndex(2, 0, 1, 3.0)):
        assert weighted_norm(pf5, idx) == pytest.approx(
            5.0 * weighted_norm(pf, idx), rel=1e-13)


def test_index_monotonicity(grid):
    pf = profile_from_callable(lambda s, z: np.exp(-z) * (1 + np.sin(s)),
                               grid, s=np.linspace(0, 1, 9), s_weight=0.1)
    small = weighted_norm(pf, AnisotropicIndex(0, 0, 0, 2.0))
    for idx in (AnisotropicIndex(1, 0, 0, 2.0), AnisotropicIndex(0, 1, 0, 2.0),
                AnisotropicIndex(0, 0, 1, 2.0), AnisotropicIndex(2, 1, 1, 2.0)):
        assert weighted_norm(pf, idx) >= small


def test_invalid_index():
    with pytest.raises(InvalidParameterError):
        AnisotropicIndex(-1, 0, 0, 2.0)
    with pytest.raises(InvalidParameterError):
        AnisotropicIndex(0, 0, 0, 0.5)


# ---------------------------------------------------------------------------
# boundary layer evaluation
# ---------------------------------------------------------------------------


def test_eval_zero_profile(channel, grid):
    pf = profile_from_callable(lambda s, z: 0.0 * z, grid)
    res = boundary_layer_eval(pf, channel, 1e-3)
    assert np.all(res.field.values == 0.0)
    assert res.norm == 0.0


def test_eval_exponential_squared_norm(channel, grid):
    # two walls, each contributing int exp(-2 d/sqrt(nu)) dd ~ sqrt(nu)/2
    pf = profile_from_callable(lambda s, z: np.exp(-z), grid)
    nu = 1e-4
    res = boundary_layer_eval(pf, channel, nu, p=2.0, n_points=8193)
    assert res.norm**2 == pytest.approx(2.0 * math.sqrt(nu) / 2.0, rel=1e-3)
    assert not res.asymptotic_warning


def test_eval_support_halves_with_sqrt_nu(channel, grid):
    pf = profile_from_callable(lambda s, z: np.exp(-z), grid)
    n1 = boundary_layer_eval(pf, channel, 4e-4, p=2.0, n_points=8193).norm
    n2 = boundary_layer_eval(pf, channel, 1e-4, p=2.0, n_points=8193).norm
    # squared norm scales with the support width, i.e. with sqrt(nu)
    assert (n1 / n2) ** 2 == pytest.approx(2.0, rel=1e-3)


def test_eval_z_independent_field_is_cutoff(channel, grid):
    pf = profile_from_callable(lambda s, z: 1.0 + 0.0 * z, grid)
    coords = channel.volume_grid(513)
    res = boundary_layer_eval(pf, channel, 1e-3, coords=coords)
    d = geo.min_wall_distance(channel, coords)
    want = geo.collar_cutoff(channel, d)
    assert np.allclose(res.field.values[0], want, atol=1e-12)


@pytest.mark.parametrize("geom_name", ["channel", "annulus"])
def test_eval_restriction_matches_full_grid(request, geom_name, grid):
    # evaluating only the collar nodes below Z_max gives the spline on the
    # whole grid times the cutoff, zeros elsewhere, bit for bit; at nu = 1e-2
    # the collar edge bounds the support, at nu = 1e-4 Z_max does.  One fit
    # over a wall's profiles stacked at several times gives each time's
    # evaluation bit for bit.
    geom = request.getfixturevalue(geom_name)
    per_time = [
        profile_from_callable([lambda s, z, t=t: np.exp(-z / (1.0 + t)) * np.cos(z),
                               lambda s, z, t=t: (1.0 + t) * z * np.exp(-z)], grid,
                              comp_names=("a", "b"))
        for t in (0.0, 0.125, 0.3, 1.0)
    ]
    stacked = ProfileField(grid=grid, s=per_time[0].s,
                           s_weights=per_time[0].s_weights,
                           values=np.stack([pf.values for pf in per_time]),
                           comp_names=("a", "b"))
    assert stacked.n_comp == 2
    assert np.array_equal(stacked.comp("b")[2], per_time[2].comp("b"))
    coords = geom.volume_grid(4097)
    for nu in (1e-2, 1e-4):
        for w in geom.walls():
            d = geo.wall_distance(geom, w.wall_id, coords)
            got_stacked = eval_profile_on_wall(stacked, geom, w.wall_id, coords, nu)
            assert got_stacked.shape == (len(per_time), 2, len(coords))
            for jt, pf in enumerate(per_time):
                spl = CubicSpline(grid.z, pf.values, axis=-1, extrapolate=False)
                full = np.nan_to_num(spl(d / math.sqrt(nu))[:, 0, :], nan=0.0)
                want = full * geo.collar_cutoff(geom, d)
                got = eval_profile_on_wall(pf, geom, w.wall_id, coords, nu)
                assert np.any(want != 0.0)
                assert np.array_equal(got, want)
                assert np.array_equal(got_stacked[jt], want)


def test_weighted_norm_refuses_stacked_profiles(grid):
    pf = profile_from_callable(lambda s, z: np.exp(-z), grid)
    stacked = ProfileField(grid=grid, s=pf.s, s_weights=pf.s_weights,
                           values=np.stack([pf.values, pf.values]))
    with pytest.raises(ConfigError):
        weighted_norm(stacked, AnisotropicIndex(k=0, m=0, l=0, p=2.0))


def test_eval_rejects_multi_sample_profile(channel, grid):
    pf = profile_from_callable(lambda s, z: np.exp(-z), grid, s=[0.0, 0.1])
    with pytest.raises(ConfigError):
        eval_profile_on_wall(pf, channel, "lower", channel.volume_grid(65), 1e-3)


def test_eval_warns_when_nu_too_large(channel, grid):
    pf = profile_from_callable(lambda s, z: np.exp(-z), grid)
    with pytest.warns(UserWarning):
        res = boundary_layer_eval(pf, channel, 0.05)
    assert res.asymptotic_warning


def test_scaling_exponent(channel, grid):
    pf = profile_from_callable(lambda s, z: np.exp(-z), grid)
    for p, want in ((2.0, 0.25), (4.0, 0.125)):
        res = scaling_exponent_check(pf, channel, [1e-2, 1e-3, 1e-4], p=p,
                                     n_points=8193)
        assert res.slope == pytest.approx(want, abs=0.02)


def test_scaling_needs_three_values(channel, grid):
    pf = profile_from_callable(lambda s, z: np.exp(-z), grid)
    with pytest.raises(ConfigError):
        scaling_exponent_check(pf, channel, [1e-2, 1e-4], p=2.0)


def test_scaling_bounded_mode(channel, grid):
    pf = profile_from_callable(lambda s, z: np.exp(-z), grid)
    res = scaling_exponent_check(pf, channel, [1e-2, 1e-3, 1e-4], p=2.0,
                                 mode="bounded", n_points=8193)
    # ratios decrease as nu does (nu ascending in the result)
    assert max(res.ratios) <= res.ratios[-1] * 1.1
    assert all(np.isfinite(res.ratios))


# ---------------------------------------------------------------------------
# Hardy
# ---------------------------------------------------------------------------


def _bump_field(geom, n):
    x = geom.volume_grid(n)
    d = geo.min_wall_distance(geom, x)
    vals = np.zeros((3, n))
    vals[0] = np.where(d < geom.eta,
                       np.sin(np.pi * np.minimum(d, geom.eta) / geom.eta) ** 2,
                       0.0)
    return VolumeField(geom=geom, coords=x, values=vals)


def test_hardy_zero_field(channel):
    x = channel.volume_grid(101)
    vf = VolumeField(geom=channel, coords=x, values=np.zeros((3, 101)))
    assert hardy_ratio(vf, 2.0, 0.0) == 0.0


def test_hardy_bump_bounded(channel):
    ratio = hardy_ratio(_bump_field(channel, 4001), 2.0, 0.0)
    assert ratio <= 4.0 / math.pi**2 * 1.5
    # dense quadrature oracle of the same 1d integrals
    s = np.linspace(1e-9, channel.eta, 200001)
    u = np.sin(np.pi * s / channel.eta) ** 2
    du = (np.pi / channel.eta) * np.sin(2 * np.pi * s / channel.eta)
    oracle = np.trapezoid(u**2 / s**2, s) / np.trapezoid(du**2, s)
    assert ratio == pytest.approx(oracle, rel=0.05)


def test_hardy_grid_stability(channel):
    r1 = hardy_ratio(_bump_field(channel, 2001), 2.0, 0.0)
    r2 = hardy_ratio(_bump_field(channel, 4001), 2.0, 0.0)
    assert abs(r1 - r2) / r2 < 0.05


def test_hardy_invalid_beta(channel):
    with pytest.raises(InvalidParameterError):
        hardy_ratio(_bump_field(channel, 501), 2.0, 1.0)


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


def _gronwall_rk4_scalar_oracle(seed, n_samples, n_steps):
    """One scalar RK4 loop per trial with np.interp, the reference for the
    batched march; returns (t_star, y, bound) per trial."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(100):
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


# ---------------------------------------------------------------------------
# norm strings
# ---------------------------------------------------------------------------


def test_parse_norm_strings():
    assert parse_norm("l2").p == 2.0
    assert parse_norm("linf").kind == "linf"
    assert parse_norm("lp:4").p == 4.0
    spec = parse_norm("aniso:1,2,0,2")
    assert (spec.idx.k, spec.idx.m, spec.idx.l, spec.idx.p) == (1, 2, 0, 2.0)
    with pytest.raises(ConfigError):
        parse_norm("h7")


def test_volume_norms(channel):
    x = channel.volume_grid(4001)
    vals = np.zeros((3, len(x)))
    vals[0] = np.sin(np.pi * x)
    vf = VolumeField(geom=channel, coords=x, values=vals)
    assert volume_norm(vf, "l2") == pytest.approx(math.sqrt(0.5), rel=1e-5)
    assert volume_norm(vf, "linf") == pytest.approx(1.0, rel=1e-5)
    # |u|^2 + |u'|^2 integrates to 1/2 + pi^2/2
    assert volume_norm(vf, "h1") == pytest.approx(
        math.sqrt(0.5 + math.pi**2 / 2.0), rel=1e-4)
    # lp:4 of sin: (int sin^4)^(1/4) = (3/8)^(1/4)
    assert volume_norm(vf, "lp:4") == pytest.approx((3.0 / 8.0) ** 0.25, rel=1e-5)


def _volume_norm_oracle(vf, spec):
    """The volume norm formulas with every grid constant rebuilt per call."""
    x = vf.coords
    w = np.zeros_like(x)
    d = np.diff(x)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    w = w * vf.geom.measure(x)
    mag = np.sqrt(np.sum(vf.values**2, axis=0))
    if spec.kind == "linf":
        return float(mag.max(initial=0.0))
    if spec.kind == "lp":
        return float(np.sum(w * mag**spec.p) ** (1.0 / spec.p))
    grad = np.sum(diff_along(vf.values, x, axis=-1) ** 2, axis=0)
    if vf.geom.kind == geo.ANNULUS_GAP:
        grad = grad + (vf.values[0] ** 2 + vf.values[1] ** 2) / x**2
    return float(np.sqrt(np.sum(w * (mag**2 + grad))))


@pytest.mark.parametrize("geom_name", ["channel", "annulus"])
@pytest.mark.parametrize("n", [3, 101, 4097])
def test_volume_grid_matches_per_call_norms(request, geom_name, n):
    # one grid, many fields: bit for bit the per-call formulas
    geom = request.getfixturevalue(geom_name)
    coords = geom.volume_grid(n)
    grid = VolumeGrid(geom, coords)
    specs = [parse_norm(s) for s in ("l2", "lp:4", "linf", "h1")]
    rng = np.random.default_rng(n)
    for _ in range(3):
        vf = VolumeField(geom=geom, coords=coords,
                         values=rng.normal(size=(3, n)) * rng.uniform(0.1, 10.0))
        expected = [_volume_norm_oracle(vf, spec) for spec in specs]
        assert grid.norms(vf.values, specs) == expected
        assert [volume_norm(vf, spec) for spec in specs] == expected


def test_volume_grid_rejects_aniso(channel):
    grid = VolumeGrid(channel, channel.volume_grid(9))
    with pytest.raises(ConfigError):
        grid.norms(np.ones((3, 9)), [parse_norm("aniso:0,0,0,2")])

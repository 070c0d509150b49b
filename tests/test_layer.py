import math

import numpy as np
import pytest
from scipy.special import erfc

from manufactured import layer_mms_case, march_profiles
from test_cn_kernel import kernel_history
from vvlab import layer
from vvlab.errors import ConfigError, StepSizeError
from vvlab.euler import (
    LaurentProfile,
    boundary_data_g,
    potential_vortex,
    rigid_rotation,
)
from vvlab.layer import (
    layer_norm_monitor,
    solve_layer,
    write_profile_snapshots,
)
from vvlab.ns import _cn_steps, _symmetrise, time_index
from vvlab.spaces import (
    AnisotropicIndex,
    FastGrid,
    diff_along,
    parse_norm,
    weighted_norm,
)


def erfc_solution(g, t, z):
    """Half-line heat solution with dz u(t, 0) = -g, zero initial data."""
    return g * (2.0 * np.sqrt(t / np.pi) * np.exp(-(z**2) / (4.0 * t))
                - z * erfc(z / (2.0 * np.sqrt(t))))


@pytest.fixture(scope="module")
def rigid_layer(annulus):
    flow = rigid_rotation(1.0, annulus)
    grid = FastGrid(nz=512)
    profile = solve_layer(flow, annulus, grid, dt=1e-4, t_end=0.25,
                          store_times=[0.125, 0.25])
    return flow, profile


def test_zero_data_gives_zero_profile(annulus):
    flow = potential_vortex(1.0, annulus)
    profile = solve_layer(flow, annulus, FastGrid(nz=128), dt=1e-3,
                          t_end=0.2, store_times=[0.1, 0.2])
    for w in profile.walls.values():
        assert np.all(w.ub == 0.0)


@pytest.mark.parametrize("preset, marched", [("rigid-annulus", 2),
                                             ("vortex-annulus", 0),
                                             ("flat-shear", 0)])
def test_live_columns_match_the_two_column_march(monkeypatch, preset, marched):
    # a layer marches only the walls whose datum g is nonzero, every live
    # column in one call; every wall's column equals the flow component of
    # the march of its own two columns, the other datum zero, bit for bit
    # and in the sign of its zeros
    from vvlab.study import get_preset, solve_study_layer

    cfg = get_preset(preset)
    calls = []
    monkeypatch.setattr(layer, "_cn_steps",
                        lambda *a, **k: calls.append(a[4].shape) or _cn_steps(*a, **k))
    profile = solve_study_layer(cfg)
    assert calls == ([(cfg.layer.nz - 1, marched)] if marched else [])
    flow = cfg.euler.build(cfg.geometry)
    z, dt = profile.grid.z, cfg.layer.dt
    op, h0 = layer._fast_diffusion_operator(z)
    steps = [int(round(t / dt)) for t in profile.times]
    for w in cfg.geometry.walls():
        src = np.zeros((len(z) - 1, 2))
        g = boundary_data_g(flow, cfg.geometry, w)
        src[0, 0] = (g + g) / h0
        want = np.zeros((len(steps), len(z)))
        want[:, :-1] = kernel_history(_symmetrise(op, "two columns"), 0.5 * dt, dt,
                                      steps, src, "two columns")[..., 0]
        got = profile.walls[w.wall_id].ub
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_erfc_wall_value(rigid_layer):
    _, profile = rigid_layer
    t = 0.25
    it = time_index(profile.times, t)
    for wall_id in ("inner", "outer"):
        g = profile.walls[wall_id].g
        got = profile.profile(wall_id, it).values[0]
        want = 2.0 * g * math.sqrt(t / math.pi)
        assert abs(got - want) / abs(want) < 1e-4


# squared L2 norms over the half-line of u_b = 2 g sqrt(t) ierfc(z / (2 sqrt(t)))
# and of its first two z derivatives, per unit g^2 and collar weight; they use
# int_0^inf ierfc^2 = (sqrt(2) - 1) / (3 sqrt(pi)) and
# int_0^inf erfc^2 = (2 - sqrt(2)) / sqrt(pi)
ERFC_SQ_NORMS = (
    lambda t: 8.0 * (math.sqrt(2.0) - 1.0) * t**1.5 / (3.0 * math.sqrt(math.pi)),
    lambda t: 2.0 * (2.0 - math.sqrt(2.0)) * math.sqrt(t) / math.sqrt(math.pi),
    lambda t: 1.0 / math.sqrt(2.0 * math.pi * t),
)


@pytest.fixture(scope="module")
def rigid_study_layer():
    from vvlab.study import get_preset, solve_study_layer

    return solve_study_layer(get_preset("rigid-annulus"))


@pytest.mark.parametrize("label", ["aniso:0,0,0,2", "aniso:0,0,1,2",
                                   "aniso:0,0,2,2", "aniso:0,0,0,inf"])
def test_weighted_norms_match_erfc_closed_forms(rigid_study_layer, label):
    # the paper's first result bounds these norms; for the rigid preset's
    # constant wall datum the layer is erfc-shaped, so each has a closed
    # form: the collar weight times the sum of the squared fast-derivative
    # norms up to order l, or sup |u_b| = 2 |g| sqrt(t / pi)
    idx = parse_norm(label).idx
    profile = rigid_study_layer
    checked = 0
    for wall_id, w in profile.walls.items():
        for it, t in enumerate(profile.times):
            if t == 0.0:
                continue
            pf = profile.profile(wall_id, it)
            g = abs(w.g)
            assert g > 0.0
            if math.isinf(idx.p):
                want = 2.0 * g * math.sqrt(t / math.pi)
            else:
                want = g * math.sqrt(pf.weight * sum(
                    f(t) for f in ERFC_SQ_NORMS[: idx.l + 1]))
            assert weighted_norm(pf, idx) == pytest.approx(want, rel=1e-4), (
                wall_id, t)
            checked += 1
    assert checked == 2 * 8


def test_erfc_formula_against_independent_fd():
    # independent route: uniform grid, backward Euler, no mapped nodes;
    # verifies the frozen closed form itself, not the production solver
    g = -2.0
    t_end = 0.25
    nz, zmax = 2001, 25.0
    z = np.linspace(0.0, zmax, nz)
    h = z[1] - z[0]
    dt = 2e-5
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    main = np.full(nz, -2.0)
    lo = np.ones(nz - 1)
    up = np.ones(nz - 1)
    up[0] = 2.0                      # mirror ghost for the Neumann end
    lap = sp.diags([lo, main, up], [-1, 0, 1], format="lil") / h**2
    lap[-1, :] = 0.0
    m = (sp.identity(nz) - dt * lap.tocsc()).tolil()
    m[-1, :] = 0.0
    m[-1, -1] = 1.0
    lu = spla.splu(m.tocsc())
    b = np.zeros(nz)
    src = np.zeros(nz)
    src[0] = 2.0 * g / h             # ghost elimination of dz b(0) = -g
    for _ in range(int(round(t_end / dt))):
        rhs = b + dt * src
        rhs[-1] = 0.0
        b = lu.solve(rhs)
    want = erfc_solution(g, t_end, z)
    assert np.abs(b - want).max() < 5e-5 * np.abs(want).max()


def test_erfc_full_profile(rigid_layer, annulus):
    _, profile = rigid_layer
    it = time_index(profile.times, 0.25)
    got = profile.walls["outer"].ub[it]
    want = erfc_solution(-2.0, 0.25, profile.grid.z)
    assert np.abs(got - want).max() < 2e-5 * np.abs(want).max() * 10


def test_neumann_datum_honored(rigid_layer):
    # one-sided difference at z = 0 reproduces -g to second order
    _, profile = rigid_layer
    it = time_index(profile.times, 0.25)
    z = profile.grid.z
    for wall_id in ("inner", "outer"):
        w = profile.walls[wall_id]
        g = w.g
        d = diff_along(w.ub[it], z)[0]
        assert np.allclose(d, -g, atol=1e-5 * max(1.0, abs(g)))


def test_tangency_is_structural(rigid_layer, annulus):
    # tangential storage: each wall stores the flow component alone, which
    # is a tangent of the wall, so the assembled field has no normal component
    _, profile = rigid_layer
    assert annulus.flow_comp != annulus.normal_comp
    for w in annulus.walls():
        assert annulus.comp_names[annulus.flow_comp] in w.tangent_names
        assert profile.walls[w.wall_id].ub.shape == (2, profile.grid.nz)


def test_initial_data_zero(annulus):
    flow = rigid_rotation(1.0, annulus)
    profile = solve_layer(flow, annulus, FastGrid(nz=64), dt=1e-3,
                          t_end=0.1, store_times=[0.0, 0.1])
    for w in profile.walls.values():
        assert np.all(w.ub[0] == 0.0)


def test_step_size_errors(annulus):
    flow = rigid_rotation(1.0, annulus)
    with pytest.raises(StepSizeError):
        solve_layer(flow, annulus, FastGrid(nz=64), dt=-1e-3,
                    t_end=0.1, store_times=[0.1])


def test_store_times_must_be_step_multiples(annulus):
    flow = rigid_rotation(1.0, annulus)
    with pytest.raises(ConfigError):
        solve_layer(flow, annulus, FastGrid(nz=64), dt=1e-3,
                    t_end=0.1, store_times=[0.0505])


def test_negative_t_end_is_a_config_error_naming_it(annulus):
    flow = rigid_rotation(1.0, annulus)
    with pytest.raises(ConfigError, match="t_end must be finite and >= 0, got -0.1"):
        solve_layer(flow, annulus, FastGrid(nz=64), dt=1e-3, t_end=-0.1,
                    store_times=[0.0])


@pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0])
def test_bad_dt_is_a_step_size_error_naming_it(annulus, dt):
    flow = rigid_rotation(1.0, annulus)
    with pytest.raises(StepSizeError, match=f"dt must be finite and positive, got {dt}"):
        solve_layer(flow, annulus, FastGrid(nz=64), dt=dt, t_end=0.1,
                    store_times=[0.1])


def test_wall_curl_evaluated_once_per_wall(monkeypatch, annulus):
    # a studied flow's datum is constant: its curl is read once on each
    # wall, whatever the step count
    flow = rigid_rotation(1.0, annulus)
    calls = []
    vorticity = LaurentProfile.vorticity
    monkeypatch.setattr(LaurentProfile, "vorticity",
                        lambda self, r: calls.append(r) or vorticity(self, r))
    for t_end in (0.01, 0.1):
        calls.clear()
        solve_layer(flow, annulus, FastGrid(nz=32), dt=1e-2, t_end=t_end,
                    store_times=[t_end])
        assert [float(r[0]) for r in calls] == [1.0, 2.0]


# ---------------------------------------------------------------------------
# monitor and output
# ---------------------------------------------------------------------------


def test_monitor_zero_profile(annulus):
    flow = potential_vortex(1.0, annulus)
    profile = solve_layer(flow, annulus, FastGrid(nz=64), dt=1e-3,
                          t_end=0.1, store_times=[0.05, 0.1])
    rep = layer_norm_monitor(profile, [AnisotropicIndex(0, 0, 0, 2.0)])
    for series in rep.series.values():
        assert np.all(series == 0.0)
    assert not any(rep.flagged.values())


def test_monitor_growth_t34(annulus):
    # the developing layer grows like t^(3/4) in the weighted l2 norm
    flow = rigid_rotation(1.0, annulus)
    times = [0.0625, 0.125, 0.25, 0.5]
    profile = solve_layer(flow, annulus, FastGrid(nz=256), dt=2.5e-4,
                          t_end=0.5, store_times=times)
    rep = layer_norm_monitor(profile, [AnisotropicIndex(1, 0, 0, 2.0)])
    series = next(iter(rep.series.values()))
    assert np.all(np.diff(series) > 0)
    rate = np.log(series[-1] / series[0]) / np.log(times[-1] / times[0])
    assert rate == pytest.approx(0.75, abs=0.12)
    assert not any(rep.flagged.values())      # bounded: no 10x blow-up flag


def test_monitor_flags_large_growth(annulus):
    # reference value taken at the first stored time: storing from t = dt
    # makes the developing layer exceed 10x and trip the flag
    flow = rigid_rotation(1.0, annulus)
    profile = solve_layer(flow, annulus, FastGrid(nz=128), dt=1e-3,
                          t_end=0.5, store_times=[1e-3, 0.5])
    rep = layer_norm_monitor(profile, [AnisotropicIndex(0, 0, 0, 2.0)])
    assert all(rep.flagged.values())


def test_monitor_dz_norm_scale(annulus):
    # d/dz u_b = -g erfc(z / 2 sqrt(t)): l2 norm g sqrt(2 sqrt(t) * 0.3305)
    flow = rigid_rotation(1.0, annulus)
    profile = solve_layer(flow, annulus, FastGrid(nz=512), dt=1e-4,
                          t_end=0.25, store_times=[0.25])
    rep = layer_norm_monitor(profile, [AnisotropicIndex(0, 0, 1, 2.0)])
    series = next(iter(rep.series.values()))
    z = profile.grid.z
    g = 2.0
    dz_sq = np.trapezoid(erfc(z / (2 * math.sqrt(0.25))) ** 2 * g**2, z)
    base_sq = np.trapezoid(
        erfc_solution(g, 0.25, z) ** 2, z)
    tot = 0.0
    for wall_id in profile.walls:
        tot += annulus.collar_measure(wall_id) * (dz_sq + base_sq)
    assert series[0] == pytest.approx(math.sqrt(tot), rel=2e-3)


def test_snapshot_write_bit_stable(tmp_path, annulus):
    flow = rigid_rotation(1.0, annulus)
    profile = solve_layer(flow, annulus, FastGrid(nz=32), dt=1e-3,
                          t_end=0.05, store_times=[0.05])
    p1, p2 = tmp_path / "a.dat", tmp_path / "b.dat"
    write_profile_snapshots(profile, p1)
    write_profile_snapshots(profile, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0].startswith("# wall t s z")
    # one s per wall, the wall coordinate
    assert len(lines) == 1 + 2 * 32
    assert {line.split()[2] for line in lines[1:]} == {"1.0", "2.0"}
    # every field after the wall name parses as a number
    for line in lines[1:]:
        for field in line.split()[1:]:
            float(field)


# ---------------------------------------------------------------------------
# manufactured orders
# ---------------------------------------------------------------------------


def _mms_error(geom, nz, dt, f0, a_mat):
    case = layer_mms_case(omega=3.0, f0=f0, a_mat=a_mat)
    grid = FastGrid(nz=nz, zmax=12.0)
    t_end = 0.2
    walls = march_profiles(case, geom, grid, dt, t_end, [t_end])
    exact = case.exact(t_end, grid.z)
    worst = 0.0
    for ub in walls.values():
        worst = max(worst, float(np.abs(ub[0] - exact).max()))
    return worst


A_MAT = np.array([[0.3, 0.1], [-0.05, -0.2]])


def test_mms_space_order(channel):
    errs = [_mms_error(channel, nz, 2e-5, 0.4, A_MAT)
            for nz in (32, 64, 128)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for order in orders:
        assert order == pytest.approx(2.0, abs=0.2) or order > 2.0


def test_mms_time_order(channel):
    errs = [_mms_error(channel, 384, dt, 0.4, A_MAT)
            for dt in (8e-3, 4e-3, 2e-3)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for order in orders:
        assert order == pytest.approx(1.0, abs=0.2) or order > 1.0


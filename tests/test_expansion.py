import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_spaces import _on_wall
from test_study import study_rows
from vvlab import expansion, study
from vvlab.errors import AlignmentError, ConfigError
from vvlab.euler import (
    LaurentProfile,
    potential_vortex,
    rigid_rotation,
)
from vvlab.expansion import assemble_ansatz, leray_project, remainder_bc_residual
from vvlab.layer import solve_layer
from vvlab.ns import ViscousSolution, solve_ns, time_index
from vvlab.spaces import (
    FastGrid,
    VolumeGrid,
    _spline_on_wall,
    parse_norm,
)
from vvlab.study import (
    EulerSpec,
    LayerParams,
    NsParams,
    StudyConfig,
    preset_vortex_annulus,
    solve_study_layer,
)


@pytest.fixture(scope="module")
def rigid_setup(annulus):
    flow = rigid_rotation(1.0, annulus)
    profile = solve_layer(flow, annulus, FastGrid(nz=512), dt=1e-4,
                          t_end=0.25, store_times=[0.125, 0.25])
    return flow, profile


@pytest.fixture(scope="module")
def small_rigid(annulus):
    """A coarse rigid-rotation study config and its layer, for row tests."""
    cfg = StudyConfig(geometry=annulus, euler=EulerSpec(family="rigid"),
                      layer=LayerParams(nz=128, dt=1.25e-3),
                      ns=NsParams(n=256, dt=2.5e-3, t_end=0.25),
                      t_eval=(0.125, 0.25))
    return cfg, solve_study_layer(cfg)


def _flow_field(geom, row):
    """The (3, n) field that is ``row`` in the flow component, 0 elsewhere."""
    values = np.zeros((3, len(row)))
    values[geom.flow_comp] = row
    return values


def _norm(geom, coords, u, label):
    return VolumeGrid(geom, coords).norms(u, [parse_norm(label)])[0]


def _row_values(rows):
    return {(t, label, part): v for _, t, label, v, part in rows}


def test_trivial_ansatz_reduces_to_base_flow(annulus):
    flow = potential_vortex(1.0, annulus)
    profile = solve_layer(flow, annulus, FastGrid(nz=64), dt=1e-3,
                          t_end=0.1, store_times=[0.1])
    coords = annulus.volume_grid(512)
    u_approx = assemble_ansatz(flow.value(coords), profile, 1e-3, coords)
    assert u_approx.shape == (1, len(coords))
    assert np.array_equal(u_approx[0], flow.value(coords))


def test_ansatz_has_no_order_nu_corrector(rigid_setup, annulus):
    # u_b is tangential and uniform along the collar, so the corrector v
    # driven by its slow divergence vanishes: the ansatz is exactly
    # u0 + sqrt(nu) u_b in the swirl component, bit for bit, each wall's
    # theta column read from its record
    flow, profile = rigid_setup
    nu, coords = 1e-3, annulus.volume_grid(1024)
    u_approx = assemble_ansatz(flow.value(coords), profile, nu, coords)
    # a layer term is added into a writable copy of u0's broadcast
    assert u_approx.flags.writeable
    layer = np.zeros_like(u_approx)
    for it in range(len(profile.times)):
        for w in annulus.walls():
            theta = profile.walls[w.wall_id].ub[it]
            layer[it] += math.sqrt(nu) * _on_wall(profile.grid, theta, annulus,
                                                  w.wall_id, coords, nu)
    assert np.any(layer != 0.0)
    assert np.array_equal(u_approx, flow.value(coords) + layer)


@pytest.fixture(scope="module")
def rigid_study_layer():
    """The rigid preset's layer at its 8 evaluation times, its grid, and
    each wall's evaluation of the layer's one fit to all 8 times, per
    viscosity."""
    cfg = study.get_preset("rigid-annulus")
    profile = solve_study_layer(cfg)
    coords = cfg.geometry.volume_grid(cfg.ns.n)
    stacked = {(nu, w.wall_id): _spline_on_wall(profile.walls[w.wall_id].spline,
                                                cfg.geometry, w.wall_id, coords, nu)
               for nu in cfg.nu_list for w in cfg.geometry.walls()}
    return cfg, profile, coords, stacked


@settings(derandomize=True, max_examples=60, deadline=None)
@given(times=st.lists(st.integers(0, 7), min_size=1, max_size=8, unique=True),
       nu_at=st.integers(0, 4), wall_at=st.integers(0, 1))
def test_stacked_evaluation_gives_each_time_its_own_bits(rigid_study_layer, times,
                                                         nu_at, wall_at):
    # a wall's profiles at any times, in any order, stacked in one fit
    # give each time the bits, signs included, of the layer's one fit to
    # every evaluation time: the study fits each wall once for all its times
    cfg, profile, coords, stacked = rigid_study_layer
    nu, w = cfg.nu_list[nu_at], cfg.geometry.walls()[wall_at]
    got = _on_wall(profile.grid, profile.walls[w.wall_id].ub[times], cfg.geometry,
                   w.wall_id, coords, nu)
    want = stacked[nu, w.wall_id][times]
    assert np.any(want != 0.0)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_zero_layer_is_not_evaluated(monkeypatch):
    # the vortex layer is exactly zero (g = 0): no wall is fitted or
    # evaluated and the ansatz is u0 itself
    cfg = preset_vortex_annulus()
    flow = cfg.euler.build(cfg.geometry)
    profile = solve_study_layer(cfg, flow)
    assert not any(w.ub.any() for w in profile.walls.values())
    assert all(w.spline is None for w in profile.walls.values())
    calls = []
    monkeypatch.setattr(expansion, "_spline_on_wall",
                        lambda *args: calls.append(args))
    coords = cfg.geometry.volume_grid(4096)
    u0 = flow.value(coords)
    u_approx = assemble_ansatz(u0, profile, cfg.nu_list[-1], coords, times=cfg.t_eval)
    assert calls == []
    # u0 itself, not a copy: its read-only broadcast view
    assert u_approx.strides[0] == 0
    assert not u_approx.flags.writeable
    assert np.shares_memory(u_approx, u0)
    assert all(np.array_equal(row, u0) for row in u_approx)
    assert all(np.array_equal(np.signbit(row), np.signbit(u0)) for row in u_approx)


def test_steady_u0_is_evaluated_once(rigid_setup, annulus):
    # u0 is the caller's one evaluation of the profile, broadcast over the
    # times and read, never written: each time's row is u0 plus its layer
    flow, profile = rigid_setup
    coords = annulus.volume_grid(1024)
    u0 = flow.value(coords)
    u0.flags.writeable = False
    u_approx = assemble_ansatz(u0, profile, 1e-3, coords)
    assert not np.shares_memory(u_approx, u0)
    assert np.array_equal(u0, flow.value(coords))
    for it in range(len(profile.times)):
        once = assemble_ansatz(u0, profile, 1e-3, coords, times=profile.times[it:it + 1])
        assert np.array_equal(u_approx[it], once[0])


def test_rigid_ansatz_amplitude(rigid_setup, annulus):
    # max deviation from u0 is sqrt(nu) times the wall value 2|g| sqrt(t/pi)
    flow, profile = rigid_setup
    nu, t = 1e-3, 0.25
    coords = annulus.volume_grid(2048)
    u_approx = assemble_ansatz(flow.value(coords), profile, nu, coords, times=[t])
    dev = np.abs(u_approx[0] - flow.value(coords)).max()
    want = math.sqrt(nu) * 2.0 * 2.0 * math.sqrt(t / math.pi)
    assert dev == pytest.approx(want, rel=0.05)


@pytest.mark.parametrize("nu", [0.0, -1e-3, math.nan, math.inf])
def test_ansatz_refuses_a_nonpositive_or_non_finite_viscosity(rigid_setup, annulus, nu):
    # a NaN viscosity made every value of the ansatz NaN without a word
    flow, profile = rigid_setup
    coords = annulus.volume_grid(128)
    with pytest.raises(ConfigError, match=f"nu must be positive and finite, got {nu}"):
        assemble_ansatz(flow.value(coords), profile, nu, coords)


def test_ansatz_time_alignment_error(rigid_setup, annulus):
    flow, profile = rigid_setup
    with pytest.raises(AlignmentError):
        coords = annulus.volume_grid(128)
        assemble_ansatz(flow.value(coords), profile, 1e-3, coords, times=[0.2])


def test_vortex_remainder_negligible(annulus):
    flow = potential_vortex(1.0, annulus)
    profile = solve_layer(flow, annulus, FastGrid(nz=128), dt=5e-4,
                          t_end=0.5, store_times=[0.25, 0.5])
    prof = LaurentProfile({-1: 1.0})
    nu = 1e-3
    sol = solve_ns(annulus, prof, nu=nu, n=131072, dt=2.5e-3,
                   t_end=0.5, store_times=[0.25, 0.5])
    u_approx = assemble_ansatz(flow.value(sol.coords), profile, nu, sol.coords,
                               times=[0.25, 0.5])
    rem = (sol.u - u_approx) / nu
    assert np.abs(rem).max() < 1e-8
    assert _norm(annulus, sol.coords, rem[1], "l2") < 1e-8


def test_remainder_per_time_equals_eager_formula(small_rigid):
    # the row forms u - u0 and R one time at a time in one (n,) buffer;
    # each time's norms are bit for bit those of the whole-array expressions
    cfg, profile = small_rigid
    nu, geom = 3e-3, cfg.geometry
    flow = cfg.euler.build(geom)
    setup = study.study_setup(cfg)
    sol = solve_ns(geom, flow, nu, n=cfg.ns.n, dt=cfg.ns.dt,
                   t_end=cfg.ns.t_end, store_times=cfg.t_eval)
    u_approx = assemble_ansatz(flow.value(sol.coords), profile, nu, sol.coords,
                               times=cfg.t_eval)
    idx = [time_index(sol.times, t) for t in cfg.t_eval]
    eager = {"u": sol.u[idx] - flow.value(sol.coords),
             "R:full": (sol.u[idx] - u_approx) / nu}
    assert np.any(eager["R:full"] != 0.0)
    got = _row_values(study_rows(setup, sol, u_approx))
    for jt, t in enumerate(cfg.t_eval):
        for part, hist in eager.items():
            for label in cfg.norms:
                assert got[(t, label, part)] == _norm(geom, sol.coords, hist[jt], label)


def test_remainder_definition_identity(small_rigid):
    # feeding u_nu := ansatz to the row returns R = 0 exactly in every part
    cfg, profile = small_rigid
    nu, geom = 1e-3, cfg.geometry
    coords = geom.volume_grid(1024)
    u_approx = assemble_ansatz(cfg.euler.build(geom).value(coords), profile, nu, coords,
                               times=cfg.t_eval)
    sol = ViscousSolution(nu=nu, geom=geom, coords=coords,
                          times=np.array(cfg.t_eval), u=u_approx.copy())
    # the row reads u0 and the norm grid from its set-up, built on sol's grid
    setup = study.study_setup(dataclasses.replace(
        cfg, ns=dataclasses.replace(cfg.ns, n=len(coords))))
    got = _row_values(study_rows(setup, sol, u_approx))
    rem = [v for (_, _, part), v in got.items() if part.startswith("R:")]
    assert len(rem) == 3 * len(cfg.t_eval) * len(cfg.norms)
    assert all(v == 0.0 for v in rem)
    assert any(v > 0.0 for (_, _, part), v in got.items() if part == "u")


def test_remainder_grid_mismatch(rigid_setup, annulus):
    # the wall identities check the ansatz against the solution's grid
    flow, profile = rigid_setup
    nu = 1e-3
    coords = annulus.volume_grid(512)
    u_approx = assemble_ansatz(flow.value(coords), profile, nu, coords)
    sol = solve_ns(annulus, LaurentProfile({1: 1.0}), nu=nu, n=256,
                   dt=2.5e-3, t_end=0.25, store_times=[0.125, 0.25])
    with pytest.raises(ConfigError, match="256 points"):
        remainder_bc_residual(sol, u_approx, profile.times, profile)


def test_remainder_time_not_stored_is_alignment_error(rigid_setup, annulus):
    flow, profile = rigid_setup
    nu = 1e-3
    sol = solve_ns(annulus, LaurentProfile({1: 1.0}), nu=nu, n=256,
                   dt=2.5e-3, t_end=0.25, store_times=[0.25])
    times = [0.125, 0.25]
    u_approx = assemble_ansatz(flow.value(sol.coords), profile, nu, sol.coords,
                               times=times)
    with pytest.raises(AlignmentError, match="0.125"):
        remainder_bc_residual(sol, u_approx, times, profile)


def test_remainder_parts_are_the_projector_of_r(small_rigid):
    # leray_project of the embedded R returns R and exact zeros, so the
    # row's "P" norms are R's own and its "I-P" norms are 0.0
    cfg, profile = small_rigid
    nu, geom = 1e-3, cfg.geometry
    flow = cfg.euler.build(geom)
    setup = study.study_setup(cfg)
    sol = solve_ns(geom, flow, nu, n=cfg.ns.n, dt=cfg.ns.dt,
                   t_end=cfg.ns.t_end, store_times=cfg.t_eval)
    u_approx = assemble_ansatz(flow.value(sol.coords), profile, nu, sol.coords,
                               times=cfg.t_eval)
    got = _row_values(study_rows(setup, sol, u_approx))
    for jt, t in enumerate(cfg.t_eval):
        rem = (sol.u[time_index(sol.times, t)] - u_approx[jt]) / nu
        embedded = _flow_field(geom, rem)
        p_vals, g_vals = leray_project(geom, embedded)
        assert np.any(rem != 0.0)
        assert np.array_equal(p_vals, embedded)
        assert not np.any(np.signbit(g_vals)) and np.all(g_vals == 0.0)
        for label in cfg.norms:
            assert got[(t, label, "R:P")] == _norm(geom, sol.coords, rem, label)
            assert repr(got[(t, label, "R:I-P")]) == "0.0"


# ---------------------------------------------------------------------------
# projector
# ---------------------------------------------------------------------------


def test_projector_kills_gradients(annulus):
    r = annulus.volume_grid(512)
    vals = np.zeros((3, len(r)))
    vals[0] = 2.0 * r                       # grad(r^2)
    p, g = leray_project(annulus, vals)
    assert np.all(p == 0.0)
    assert np.array_equal(g, vals)


def test_projector_keeps_divergence_free_tangent(annulus):
    r = annulus.volume_grid(512)
    vals = np.zeros((3, len(r)))
    vals[1] = 1.0 / r
    p, g = leray_project(annulus, vals)
    assert np.array_equal(p, vals)
    assert np.all(g == 0.0)


def test_projector_idempotent_orthogonal_random(annulus):
    rng = np.random.default_rng(5)
    r = annulus.volume_grid(401)
    w = annulus.quadrature_weights(r)
    for _ in range(25):
        vals = rng.normal(size=(3, len(r)))
        p1, g1 = leray_project(annulus, vals)
        p2, _ = leray_project(annulus, p1)
        assert np.abs(p2 - p1).max() < 1e-10
        inner = np.sum(w * np.sum(p1 * g1, axis=0))
        norm2 = np.sum(w * np.sum(vals**2, axis=0))
        assert abs(inner) < 1e-10 * norm2
        # projected part is tangent at the walls
        assert abs(p1[annulus.normal_comp, 0]) == 0.0
        assert abs(p1[annulus.normal_comp, -1]) == 0.0


def test_gradient_part_is_normal_component(channel):
    y = channel.volume_grid(257)
    rng = np.random.default_rng(9)
    vals = rng.normal(size=(3, len(y)))
    p, g = leray_project(channel, vals)
    assert np.array_equal(g[1], vals[1])
    assert np.all(p[1] == 0.0)


# ---------------------------------------------------------------------------
# remainder boundary identities
# ---------------------------------------------------------------------------


def test_remainder_bc_vortex_trivial(annulus):
    flow = potential_vortex(1.0, annulus)
    profile = solve_layer(flow, annulus, FastGrid(nz=128), dt=5e-4,
                          t_end=0.5, store_times=[0.5])
    nu = 1e-3
    sol = solve_ns(annulus, LaurentProfile({-1: 1.0}), nu=nu, n=65536,
                   dt=2.5e-3, t_end=0.5, store_times=[0.5])
    u_approx = assemble_ansatz(flow.value(sol.coords), profile, nu, sol.coords,
                               times=[0.5])
    assert remainder_bc_residual(sol, u_approx, [0.5], profile) < 1e-4


def test_remainder_bc_rigid_refinement(annulus):
    # the tangential wall identity shrinks at order >= 1.5 under refinement
    # of the reference solve (layer resolution fixed well above it)
    flow = rigid_rotation(1.0, annulus)
    profile = solve_layer(flow, annulus, FastGrid(nz=1024), dt=5e-5,
                          t_end=0.25, store_times=[0.25])
    nu = 1e-2
    res = []
    for nr in (512, 1024, 2048):
        sol = solve_ns(annulus, LaurentProfile({1: 1.0}), nu=nu, n=nr,
                       dt=5e-5, t_end=0.25, store_times=[0.25])
        u_approx = assemble_ansatz(flow.value(sol.coords), profile, nu, sol.coords,
                                   times=[0.25])
        res.append(remainder_bc_residual(sol, u_approx, [0.25], profile))
    orders = [math.log2(res[i] / res[i + 1]) for i in range(2)]
    assert min(orders) >= 1.5


def test_remainder_bc_definitional_case(rigid_setup, annulus):
    # u_nu := ansatz: the residual reports the construction defect of the
    # ansatz itself (finite, not asserted small)
    flow, profile = rigid_setup
    nu = 1e-3
    coords = annulus.volume_grid(2048)
    u_approx = assemble_ansatz(flow.value(coords), profile, nu, coords)
    sol = ViscousSolution(nu=nu, geom=annulus, coords=coords,
                          times=profile.times.copy(), u=u_approx.copy())
    assert np.isfinite(remainder_bc_residual(sol, u_approx, profile.times, profile))

import math

import numpy as np
import pytest

from vvlab import expansion
from vvlab.errors import AlignmentError, ConfigError
from vvlab.euler import (
    LaurentProfile,
    oscillating_shear_case,
    potential_vortex,
    rigid_rotation,
)
from vvlab.expansion import (
    assemble_ansatz,
    extract_remainder,
    leray_project,
    remainder_bc_residual,
)
from vvlab.layer import solve_layer
from vvlab.ns import ViscousSolution, solve_ns, time_index
from vvlab.spaces import (
    FastGrid,
    VolumeField,
    VolumeGrid,
    eval_profile_on_wall,
    parse_norm,
    volume_norm,
)
from vvlab.study import preset_vortex_annulus, remainder_norms, solve_study_layer


@pytest.fixture(scope="module")
def rigid_setup(annulus):
    flow = rigid_rotation(1.0, annulus)
    profile = solve_layer(flow, annulus, FastGrid(nz=512), dt=1e-4,
                          t_end=0.25, store_times=[0.125, 0.25])
    return flow, profile


def test_trivial_ansatz_reduces_to_base_flow(annulus):
    flow = potential_vortex(1.0, annulus)
    profile = solve_layer(flow, annulus, FastGrid(nz=64), dt=1e-3,
                          t_end=0.1, store_times=[0.1])
    coords = annulus.volume_grid(512)
    bundle = assemble_ansatz(flow, profile, annulus, 1e-3, coords)
    assert np.allclose(bundle.u_approx[0], flow.velocity(0.1, coords),
                       atol=1e-15)
    assert np.array_equal(bundle.u_approx, bundle.u0_part)


def test_ansatz_has_no_order_nu_corrector(rigid_setup, annulus):
    # u_b is tangential and uniform along the collar, so the corrector v
    # driven by its slow divergence vanishes: the ansatz is exactly
    # u0 + sqrt(nu) u_b, bit for bit
    flow, profile = rigid_setup
    nu, coords = 1e-3, annulus.volume_grid(1024)
    bundle = assemble_ansatz(flow, profile, annulus, nu, coords)
    assert np.any(bundle.u_approx != bundle.u0_part)
    # a layer term is added into a writable copy, never into u0_part
    assert bundle.u_approx.flags.writeable
    assert not np.shares_memory(bundle.u_approx, bundle.u0_part)
    comp = {name: i for i, name in enumerate(annulus.comp_names)}
    layer = np.zeros_like(bundle.u0_part)
    for jt, t in enumerate(bundle.times):
        it = time_index(profile.times, t)
        for w in annulus.walls():
            vals = eval_profile_on_wall(profile.profile(w.wall_id, it), annulus,
                                        w.wall_id, coords, nu)
            for slot, name in enumerate(w.tangent_names):
                layer[jt, comp[name]] += math.sqrt(nu) * vals[slot]
    assert np.array_equal(bundle.u_approx, bundle.u0_part + layer)


def test_zero_layer_is_not_evaluated(monkeypatch):
    # the vortex layer is exactly zero (g = 0): no wall is evaluated and
    # the ansatz is u0 itself
    cfg = preset_vortex_annulus()
    flow = cfg.euler.build(cfg.geometry)
    profile = solve_study_layer(cfg, flow)
    assert not any(w.ub.any() for w in profile.walls.values())
    calls = []
    monkeypatch.setattr(expansion, "eval_profile_on_wall",
                        lambda *args: calls.append(args))
    bundle = assemble_ansatz(flow, profile, cfg.geometry, cfg.nu_list[-1],
                             cfg.geometry.volume_grid(4096), times=cfg.t_eval)
    assert calls == []
    # u0 itself, not a copy: the steady u0's read-only broadcast view
    assert np.shares_memory(bundle.u_approx, bundle.u0_part)
    assert not bundle.u_approx.flags.writeable
    assert np.array_equal(bundle.u_approx, bundle.u0_part)
    assert np.array_equal(np.signbit(bundle.u_approx), np.signbit(bundle.u0_part))


def test_steady_u0_is_evaluated_once(rigid_setup, annulus):
    # a steady flow's u0 is one evaluation broadcast over the times
    flow, profile = rigid_setup
    coords = annulus.volume_grid(1024)
    bundle = assemble_ansatz(flow, profile, annulus, 1e-3, coords)
    assert bundle.u0_part.shape == (len(profile.times), 3, len(coords))
    assert bundle.u0_part.strides[0] == 0
    for jt, t in enumerate(bundle.times):
        assert np.array_equal(bundle.u0_part[jt], flow.velocity(t, coords))


def test_unsteady_u0_is_evaluated_at_each_time(channel):
    flow = oscillating_shear_case(channel)
    times = [0.05, 0.1, 0.2]
    profile = solve_layer(flow, channel, FastGrid(nz=64), dt=1e-3,
                          t_end=0.2, store_times=times)
    coords = channel.volume_grid(512)
    bundle = assemble_ansatz(flow, profile, channel, 1e-3, coords)
    assert not np.array_equal(bundle.u0_part[0], bundle.u0_part[-1])
    for jt, t in enumerate(times):
        assert np.array_equal(bundle.u0_part[jt], flow.velocity(t, coords))


def test_rigid_ansatz_amplitude(rigid_setup, annulus):
    # max deviation from u0 is sqrt(nu) times the wall value 2|g| sqrt(t/pi)
    flow, profile = rigid_setup
    nu, t = 1e-3, 0.25
    coords = annulus.volume_grid(2048)
    bundle = assemble_ansatz(flow, profile, annulus, nu, coords, times=[t])
    dev = np.abs(bundle.u_approx[0] - flow.velocity(t, coords)).max()
    want = math.sqrt(nu) * 2.0 * 2.0 * math.sqrt(t / math.pi)
    assert dev == pytest.approx(want, rel=0.05)


def test_ansatz_time_alignment_error(rigid_setup, annulus):
    flow, profile = rigid_setup
    with pytest.raises(AlignmentError):
        assemble_ansatz(flow, profile, annulus, 1e-3,
                        annulus.volume_grid(128), times=[0.2])


def test_vortex_remainder_negligible(annulus):
    flow = potential_vortex(1.0, annulus)
    profile = solve_layer(flow, annulus, FastGrid(nz=128), dt=5e-4,
                          t_end=0.5, store_times=[0.25, 0.5])
    prof = LaurentProfile({-1: 1.0})
    nu = 1e-3
    sol = solve_ns(annulus, prof, nu=nu, n=131072, dt=2.5e-3,
                   t_end=0.5, store_times=[0.25, 0.5])
    bundle = assemble_ansatz(flow, profile, annulus, nu, sol.coords,
                             times=[0.25, 0.5])
    rem = extract_remainder(sol, bundle)
    assert max(np.abs(rem.at(it)).max() for it in range(2)) < 1e-8
    assert volume_norm(rem.field_at(1), "l2") < 1e-8


def test_remainder_per_time_equals_eager_formula(rigid_setup, annulus):
    # R is formed one time at a time; each time is bit for bit the slice of
    # the whole-array expression, and the stored times need not be the
    # ansatz's (the solution stores 0.0625 as well)
    flow, profile = rigid_setup
    nu = 3e-3
    sol = solve_ns(annulus, LaurentProfile({1: 1.0}), nu=nu, n=256,
                   dt=2.5e-3, t_end=0.25, store_times=[0.0625, 0.125, 0.25])
    bundle = assemble_ansatz(flow, profile, annulus, nu, sol.coords)
    rem = extract_remainder(sol, bundle)
    idx = [time_index(sol.times, t) for t in bundle.times]
    assert idx == [1, 2]
    eager = (np.array([sol.at(i) for i in idx]) - bundle.u_approx) / nu
    assert np.any(eager != 0.0)
    for it in range(len(bundle.times)):
        assert np.array_equal(rem.at(it), eager[it])
        assert np.array_equal(np.signbit(rem.at(it)), np.signbit(eager[it]))
        assert np.array_equal(rem.field_at(it).values, eager[it])


def test_remainder_definition_identity(rigid_setup, annulus):
    # feeding u_nu := ansatz returns R = 0 exactly, and the bookkeeping
    # identity R + (ansatz - u_nu)/nu = 0 holds to round-off
    flow, profile = rigid_setup
    nu = 1e-3
    coords = annulus.volume_grid(1024)
    bundle = assemble_ansatz(flow, profile, annulus, nu, coords)
    assert not bundle.u_approx[:, [0, 2]].any()  # the ansatz is swirl only
    sol = ViscousSolution(nu=nu, geom=annulus, coords=coords,
                          times=bundle.times.copy(),
                          u=bundle.u_approx[:, 1].copy(), slot=1)
    rem = extract_remainder(sol, bundle)
    for it in range(len(bundle.times)):
        assert np.all(rem.at(it) == 0.0)
        recon = rem.at(it) + (bundle.u_approx[it] - sol.at(it)) / nu
        assert np.abs(recon).max() == 0.0


def test_remainder_grid_mismatch(rigid_setup, annulus):
    flow, profile = rigid_setup
    nu = 1e-3
    bundle = assemble_ansatz(flow, profile, annulus, nu,
                             annulus.volume_grid(512))
    sol = solve_ns(annulus, LaurentProfile({1: 1.0}), nu=nu, n=256,
                   dt=2.5e-3, t_end=0.25, store_times=[0.125, 0.25])
    with pytest.raises(ConfigError):
        extract_remainder(sol, bundle)


def test_remainder_time_not_stored_is_alignment_error(rigid_setup, annulus):
    flow, profile = rigid_setup
    nu = 1e-3
    sol = solve_ns(annulus, LaurentProfile({1: 1.0}), nu=nu, n=256,
                   dt=2.5e-3, t_end=0.25, store_times=[0.25])
    bundle = assemble_ansatz(flow, profile, annulus, nu, sol.coords,
                             times=[0.125, 0.25])
    with pytest.raises(AlignmentError, match="0.125"):
        extract_remainder(sol, bundle)


def test_remainder_nu_mismatch(rigid_setup, annulus):
    flow, profile = rigid_setup
    coords = annulus.volume_grid(256)
    bundle = assemble_ansatz(flow, profile, annulus, 1e-3, coords)
    sol = ViscousSolution(nu=3e-3, geom=annulus, coords=coords,
                          times=bundle.times.copy(),
                          u=bundle.u_approx[:, 1].copy(), slot=1)
    with pytest.raises(ConfigError):
        extract_remainder(sol, bundle)


def test_remainder_parts_are_the_projector_of_r(rigid_setup, annulus):
    # the remainder stores R only; the study's "P" and "I-P" norms are those
    # of its leray_project parts
    flow, profile = rigid_setup
    nu = 1e-3
    sol = solve_ns(annulus, LaurentProfile({1: 1.0}), nu=nu, n=256,
                   dt=2.5e-3, t_end=0.25, store_times=[0.125, 0.25])
    bundle = assemble_ansatz(flow, profile, annulus, nu, sol.coords)
    rem = extract_remainder(sol, bundle)
    grid = VolumeGrid(annulus, rem.coords)
    specs = [parse_norm(s) for s in ("l2", "h1", "linf", "lp:4")]
    for it in range(len(rem.times)):
        p_field, g_field = leray_project(rem.field_at(it))
        assert np.any(p_field.values != 0.0)
        got = remainder_norms(grid, rem.at(it), specs)
        assert got["P"] == [volume_norm(p_field, spec) for spec in specs]
        assert got["I-P"] == [volume_norm(g_field, spec) for spec in specs]


# ---------------------------------------------------------------------------
# projector
# ---------------------------------------------------------------------------


def test_projector_kills_gradients(annulus):
    r = annulus.volume_grid(512)
    vals = np.zeros((3, len(r)))
    vals[0] = 2.0 * r                       # grad(r^2)
    p, g = leray_project(VolumeField(geom=annulus, coords=r, values=vals))
    assert np.all(p.values == 0.0)
    assert np.array_equal(g.values, vals)


def test_projector_keeps_divergence_free_tangent(annulus):
    r = annulus.volume_grid(512)
    vals = np.zeros((3, len(r)))
    vals[1] = 1.0 / r
    p, g = leray_project(VolumeField(geom=annulus, coords=r, values=vals))
    assert np.array_equal(p.values, vals)
    assert np.all(g.values == 0.0)


def test_projector_idempotent_orthogonal_random(annulus):
    rng = np.random.default_rng(5)
    r = annulus.volume_grid(401)
    w = annulus.quadrature_weights(r)
    for _ in range(25):
        vf = VolumeField(geom=annulus, coords=r,
                         values=rng.normal(size=(3, len(r))))
        p1, g1 = leray_project(vf)
        p2, _ = leray_project(p1)
        assert np.abs(p2.values - p1.values).max() < 1e-10
        inner = np.sum(w * np.sum(p1.values * g1.values, axis=0))
        norm2 = np.sum(w * np.sum(vf.values**2, axis=0))
        assert abs(inner) < 1e-10 * norm2
        # projected part is tangent at the walls
        assert abs(p1.values[annulus.normal_comp, 0]) == 0.0
        assert abs(p1.values[annulus.normal_comp, -1]) == 0.0


def test_gradient_part_is_normal_component(channel):
    y = channel.volume_grid(257)
    rng = np.random.default_rng(9)
    vf = VolumeField(geom=channel, coords=y, values=rng.normal(size=(3, 257)))
    p, g = leray_project(vf)
    assert np.array_equal(g.values[1], vf.values[1])
    assert np.all(p.values[1] == 0.0)


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
    bundle = assemble_ansatz(flow, profile, annulus, nu, sol.coords,
                             times=[0.5])
    rem = extract_remainder(sol, bundle)
    res_n, res_t = remainder_bc_residual(rem, profile, nu)
    assert res_n < 1e-8
    assert res_t < 1e-4


def test_remainder_bc_rigid_refinement(annulus):
    # both wall identities shrink at order >= 1.5 under refinement of the
    # reference solve (layer resolution fixed well above it)
    flow = rigid_rotation(1.0, annulus)
    profile = solve_layer(flow, annulus, FastGrid(nz=1024), dt=5e-5,
                          t_end=0.25, store_times=[0.25])
    nu = 1e-2
    res = []
    for nr in (512, 1024, 2048):
        sol = solve_ns(annulus, LaurentProfile({1: 1.0}), nu=nu, n=nr,
                       dt=5e-5, t_end=0.25, store_times=[0.25])
        bundle = assemble_ansatz(flow, profile, annulus, nu, sol.coords,
                                 times=[0.25])
        rem = extract_remainder(sol, bundle)
        res.append(remainder_bc_residual(rem, profile, nu))
    t_res = [rt for _, rt in res]
    orders = [math.log2(t_res[i] / t_res[i + 1]) for i in range(2)]
    assert min(orders) >= 1.5
    n_res = [rn for rn, _ in res]
    assert max(n_res) < 1e-10      # tangential flows have zero normal part


def test_remainder_bc_definitional_case(rigid_setup, annulus):
    # u_nu := ansatz: the residual reports the construction defect of the
    # ansatz itself (finite, not asserted small)
    flow, profile = rigid_setup
    nu = 1e-3
    coords = annulus.volume_grid(2048)
    bundle = assemble_ansatz(flow, profile, annulus, nu, coords)
    sol = ViscousSolution(nu=nu, geom=annulus, coords=coords,
                          times=bundle.times.copy(),
                          u=bundle.u_approx[:, 1].copy(), slot=1)
    rem = extract_remainder(sol, bundle)
    res_n, res_t = remainder_bc_residual(rem, profile, nu)
    assert np.isfinite(res_n) and np.isfinite(res_t)

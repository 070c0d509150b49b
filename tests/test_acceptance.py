"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS line on success (pytest -s shows them); the
heavyweight preset studies are shared session fixtures, so the suite adds
little beyond their one-time cost.
"""

import math
import time

import numpy as np
import pytest

from manufactured import layer_mms_case, march_profiles
from vvlab.checks import run_all
from vvlab.euler import rigid_rotation
from vvlab.layer import layer_norm_monitor, solve_layer
from vvlab.spaces import (
    AnisotropicIndex,
    FastGrid,
    profile_from_callable,
    scaling_exponent_check,
)
from vvlab.study import get_preset

RIGID_BANDS = {"l2": (0.70, 0.90), "h1": (0.20, 0.40),
               "linf": (0.45, 0.65), "lp:4": (0.57, 0.77)}


def _report(name, detail):
    print(f"PASS {name}: {detail}")


def test_criterion_1_erfc_layer_oracle(annulus):
    # rigid rotation: the layer is the heat equation with a constant datum,
    # whose wall value is 2 g sqrt(t/pi)
    t0 = time.perf_counter()
    flow = rigid_rotation(1.0, annulus)
    t = 0.25
    profile = solve_layer(flow, annulus, FastGrid(nz=512), dt=1e-4,
                          t_end=t, store_times=[t])
    worst = 0.0
    for wall_id in ("inner", "outer"):
        g = profile.walls[wall_id].g
        got = profile.profile(wall_id, 0).values[0]
        want = 2.0 * g * math.sqrt(t / math.pi)
        worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-4
    assert elapsed < 5.0
    _report("criterion 1 (erfc oracle)",
            f"rel err {worst:.2e} < 1e-4, {elapsed:.2f}s < 5s")


def test_criterion_2_scaling_exponents(channel):
    t0 = time.perf_counter()
    pf = profile_from_callable(lambda z: np.exp(-z), FastGrid(nz=512))
    devs = {}
    for p in (2.0, 4.0, 6.0):
        res = scaling_exponent_check(pf, channel, [1e-2, 1e-3, 1e-4, 1e-5],
                                     p=p, n_points=8193)
        devs[p] = abs(res.slope - 1.0 / (2.0 * p))
        assert devs[p] < 0.02, (p, res.slope)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("criterion 2 (layer scaling exponents)",
            "; ".join(f"p={p:g} dev {d:.4f}" for p, d in devs.items())
            + f", {elapsed:.2f}s < 1s")


def test_criterion_3_rigid_rotation_rates(rigid_report):
    assert rigid_report.meta["ns_n"] == 2048
    assert rigid_report.meta["wall_time_s"] < 300.0
    details = []
    for label, (lo, hi) in RIGID_BANDS.items():
        slope = rigid_report.norm_results[label]["slope"]
        assert lo <= slope <= hi, (label, slope)
        details.append(f"{label} {slope:.3f} in [{lo}, {hi}]")
    _report("criterion 3 (rigid-rotation rates)",
            "; ".join(details)
            + f"; runtime {rigid_report.meta['wall_time_s']:.0f}s < 300s")


def test_criterion_4_remainder_boundedness(rigid_report):
    rem = rigid_report.remainder
    ratio = rem["lp4_ratio_max_min"]
    assert ratio < 2.0
    assert not rem["lp4_monotone_growth"]
    scaled = [v for _, v in rem["h1_times_sqrt_nu"]]
    assert max(scaled) <= 1.5 * scaled[0]
    _report("criterion 4 (remainder boundedness)",
            f"sup_t lp4 ratio {ratio:.3f} < 2, no growth toward small nu; "
            f"h1 x sqrt(nu) max {max(scaled):.3f} bounded")


def test_criterion_5_exact_regime_chain(vortex_report):
    worst_u = max(v for e in vortex_report.norm_results.values()
                  for _, v in e["rows"])
    worst_r = max(v for (_, _, _, v, part) in vortex_report.rows
                  if part.startswith("R:"))
    assert vortex_report.exact_regime
    assert worst_u < 1e-8
    assert worst_r < 1e-6
    assert vortex_report.meta["wall_time_s"] < 10.0
    _report("criterion 5 (exact regime chain)",
            f"velocity err {worst_u:.2e} < 1e-8, remainder {worst_r:.2e} "
            f"< 1e-6, {vortex_report.meta['wall_time_s']:.1f}s < 10s")


def test_criterion_6_flat_boundary_degeneracy(flat_report, channel):
    # the degeneracy comes from data that meet the slip condition (U' = 0 at
    # the wall, so g = 0), not from the flat wall alone: shear_poly's
    # nonzero U'(0) drives a layer in the same channel
    from vvlab.euler import ShearProfile, steady_base_flow

    flow = steady_base_flow(ShearProfile(cosines=((1.0, 1),), h=channel.h),
                            channel)
    profile = solve_layer(flow, channel, FastGrid(nz=256), dt=1e-3,
                          t_end=0.5, store_times=[0.25, 0.5])
    rep = layer_norm_monitor(profile, [AnisotropicIndex(1, 0, 1, 2.0)])
    layer_norm = max(float(s.max()) for s in rep.series.values())
    assert layer_norm < 1e-14
    slope = flat_report.norm_results["l2"]["slope"]
    assert slope >= 0.9
    _report("criterion 6 (flat-boundary degeneracy)",
            f"layer norm {layer_norm:.1e} < 1e-14, l2 slope {slope:.3f} >= 0.9; "
            "from data that meet the slip condition (U' = 0 at the wall), "
            "not from flatness alone")


def test_criterion_7_invariant_suite():
    t0 = time.perf_counter()
    results = run_all(get_preset("vortex-annulus"))
    elapsed = time.perf_counter() - t0
    failed = [r.name for r in results if not r.passed]
    assert not failed, failed
    assert elapsed < 60.0
    _report("criterion 7 (invariant suite)",
            f"{len(results)} checks pass in {elapsed:.1f}s < 60s")


def test_criterion_8_manufactured_orders(channel):
    a_mat = np.array([[0.3, 0.1], [-0.05, -0.2]])

    def layer_err(nz, dt):
        case = layer_mms_case(omega=3.0, f0=0.4, a_mat=a_mat)
        grid = FastGrid(nz=nz, zmax=12.0)
        walls = march_profiles(case, channel, grid, dt, 0.2, [0.2])
        exact = case.exact(0.2, grid.z)
        return max(float(np.abs(ub[0] - exact).max()) for ub in walls.values())

    ez = [layer_err(nz, 2e-5) for nz in (32, 64, 128)]
    z_orders = [math.log2(ez[i] / ez[i + 1]) for i in range(2)]
    et = [layer_err(384, dt) for dt in (8e-3, 4e-3)]
    t_order = math.log2(et[0] / et[1])
    for order in z_orders:
        assert order >= 1.8
    assert t_order >= 0.8

    from vvlab.euler import ShearProfile
    from vvlab.ns import solve_ns

    nu = 0.1
    prof = ShearProfile(cosines=((1.0, 1),), h=channel.h)

    def ns_err(ny, dt):
        sol = solve_ns(channel, prof, nu=nu, n=ny, dt=dt, t_end=0.4,
                       store_times=[0.4], rannacher=0)
        exact = math.exp(-nu * math.pi**2 * 0.4) * np.cos(math.pi * sol.coords)
        return float(np.abs(sol.u[-1] - exact).max())

    es = [ns_err(ny, 5e-5) for ny in (128, 256)]
    ns_space = math.log2(es[0] / es[1])
    et2 = [ns_err(4096, dt) for dt in (4e-2, 2e-2)]
    ns_time = math.log2(et2[0] / et2[1])
    assert ns_space == pytest.approx(2.0, abs=0.2)
    assert ns_time == pytest.approx(2.0, abs=0.2)
    _report("criterion 8 (manufactured orders)",
            f"layer z {z_orders[0]:.2f}/{z_orders[1]:.2f} (>= 2), "
            f"layer t {t_order:.2f} (>= 1), ns space {ns_space:.2f}, "
            f"ns time {ns_time:.2f} (2.0 +/- 0.2)")

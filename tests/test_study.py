import contextlib
import dataclasses
import hashlib
import json
import math
import os
import pathlib
import re
import signal
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from manufactured import ERFC_SQ_NORMS, erfc_solution, ierfc, remainder_limit
from vvlab import geometry as geo
from vvlab import layer as layer_mod
from vvlab import spaces, study
from vvlab.errors import ConfigError, DegenerateFitError
from vvlab.euler import LaurentProfile, ShearProfile, boundary_data_g, steady_base_flow
from vvlab.expansion import assemble_ansatz, leray_project
from vvlab.ns import ReferenceSetup, ViscousSolution, solve_ns, time_index
from vvlab.spaces import VolumeGrid, parse_norm
from vvlab.study import (
    EulerSpec,
    LayerParams,
    March,
    NsParams,
    StudyConfig,
    export_report,
    fit_rate,
    get_preset,
    parse_config_file,
    run_convergence_study,
    theory_slope,
    weaker_slope,
)

STUDY_SPECS = [parse_norm(s) for s in ("l2", "h1", "linf", "lp:4")]

RIGID_BANDS = {"l2": (0.70, 0.90), "h1": (0.20, 0.40),
               "linf": (0.45, 0.65), "lp:4": (0.57, 0.77)}


def study_rows(setup, sol, u_approx):
    """``study._solve_one_nu`` at each of the config's evaluation times, on
    the matching row of the history ``sol`` and of ``u_approx``, one store at
    a time as a study takes them."""
    rows = []
    for jt, t in enumerate(setup.config.t_eval):
        u = sol.u[time_index(sol.times, t)]
        rows += study._solve_one_nu(setup, sol.nu, u, t, u_approx[jt])
    return rows


def test_fit_rate_exact_power_law():
    pairs = [(1e-2, 1e-1), (1e-3, 10 ** (-1.5)), (1e-4, 1e-2)]
    slope, intercept, r2 = fit_rate(pairs)
    assert slope == pytest.approx(0.5, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_constant_errors():
    slope, _, _ = fit_rate([(1e-2, 0.3), (1e-3, 0.3), (1e-4, 0.3)])
    assert slope == 0.0


def test_fit_rate_noisy_power_law():
    rng = np.random.default_rng(1)
    nus = np.logspace(-2, -5, 7)
    pairs = [(nu, 2.0 * nu**0.75 * (1.0 + 0.01 * rng.standard_normal()))
             for nu in nus]
    slope, _, _ = fit_rate(pairs)
    assert slope == pytest.approx(0.75, abs=0.02)


def test_fit_rate_drops_nonpositive_rows():
    with pytest.warns(UserWarning):
        slope, _, _ = fit_rate([(1e-2, 1e-1), (1e-3, 0.0),
                                (1e-4, 1e-2), (1e-5, 10 ** (-2.5))])
    assert slope == pytest.approx(0.5, abs=1e-12)


def test_fit_rate_degenerate():
    with pytest.raises(DegenerateFitError):
        fit_rate([(1e-2, 1e-15), (1e-3, 1e-16), (1e-4, 1e-17)])
    with pytest.raises(ConfigError):
        fit_rate([(1e-2, 1e-1), (1e-3, 1e-2)])


def test_fit_rate_refuses_non_finite_error():
    with pytest.raises(DegenerateFitError, match="0.001"):
        fit_rate([(1e-2, 1e-1), (1e-3, float("nan")), (1e-4, 1e-2),
                  (1e-5, 10 ** (-2.5))])
    with pytest.raises(DegenerateFitError):
        fit_rate([(1e-2, 1e-1), (1e-3, 1e-2), (1e-4, float("inf"))])


def test_fit_rate_scale_invariance():
    pairs = [(1e-2, 0.11), (1e-3, 0.022), (1e-4, 0.0041), (1e-5, 0.0009)]
    s1, i1, _ = fit_rate(pairs)
    s2, i2, _ = fit_rate([(nu, 17.0 * e) for nu, e in pairs])
    assert s2 == pytest.approx(s1, rel=1e-12)
    assert i2 != pytest.approx(i1, rel=1e-12)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(exps=st.lists(st.integers(-60, -10), min_size=3, max_size=6, unique=True),
       errs=st.lists(st.floats(-10.0, 2.0), min_size=6, max_size=6),
       factor=st.floats(-3.0, 3.0))
def test_fit_rate_slope_invariant_under_common_scaling(exps, errs, factor):
    # scaling every error, or every nu, by one factor shifts log e or log nu
    # by a constant and leaves the least-squares slope unchanged
    pairs = [(10.0 ** (x / 10.0), 10.0 ** e) for x, e in zip(exps, errs)]
    c = 10.0 ** factor
    slope, _, _ = fit_rate(pairs)
    scaled_e, _, _ = fit_rate([(nu, c * e) for nu, e in pairs])
    scaled_nu, _, _ = fit_rate([(c * nu, e) for nu, e in pairs])
    assert scaled_e == pytest.approx(slope, rel=1e-9, abs=1e-9)
    assert scaled_nu == pytest.approx(slope, rel=1e-9, abs=1e-9)


def test_theory_slopes():
    assert theory_slope("l2") == 0.75
    assert theory_slope("h1") == 0.25
    assert theory_slope("linf") == 0.5
    assert theory_slope("lp:4") == 0.5 + 1.0 / 8.0
    assert theory_slope("lp:6") == pytest.approx(0.5 + 1.0 / 12.0)
    assert weaker_slope("lp:4") == pytest.approx(0.3 + 0.9 / 4.0)
    assert weaker_slope("l2") == pytest.approx(0.75)


def test_config_validation(annulus):
    with pytest.raises(ConfigError):
        StudyConfig(geometry=annulus, euler=EulerSpec(family="rigid"),
                    nu_list=(1e-2, 1e-3))                   # too few
    with pytest.raises(ConfigError):
        StudyConfig(geometry=annulus, euler=EulerSpec(family="rigid"),
                    nu_list=(1e-3, 1e-2, 1e-4))             # not decreasing
    with pytest.raises(ConfigError):
        StudyConfig(geometry=annulus, euler=EulerSpec(family="rigid"),
                    nu_list=(1e-2, 3e-3, 1e-3))             # < 2 decades
    with pytest.raises(ConfigError):
        StudyConfig(geometry=annulus, euler=EulerSpec(family="rigid"),
                    nu_list=(2e-2, 1e-3, 1e-4))             # nu > (eta/4)^2
    with pytest.raises(ConfigError):
        StudyConfig(geometry=annulus, euler=EulerSpec(family="rigid"),
                    norms=("l9",))
    with pytest.raises(ConfigError, match="t_end"):
        StudyConfig(geometry=annulus, euler=EulerSpec(family="rigid"),
                    ns=NsParams(t_end=0.2), t_eval=(0.1, 0.3))


@pytest.mark.parametrize("nu_list, bad", [
    ((1e-2, 1e-3, 0.0), [0.0]), ((1e-2, 1e-3, -0.0), [-0.0]),
    ((1e-2, 1e-3, -1e-4), [-1e-4]), ((1e-2, -1e-3, -1e-4), [-1e-3, -1e-4]),
    ((1e-2, math.nan, 1e-4), [math.nan]), ((math.inf, 1e-2, 1e-4), [math.inf])])
def test_config_refuses_non_positive_or_non_finite_viscosities(annulus, nu_list, bad):
    # every such value is named, before the span's log10 divides by it
    with pytest.raises(ConfigError, match=re.escape(
            f"nu_list values must be finite and positive, got {bad}")):
        StudyConfig(geometry=annulus, euler=EulerSpec(family="rigid"), nu_list=nu_list)


@pytest.mark.parametrize("norm", ["lp:inf", "lp:nan"])
def test_config_rejects_non_finite_lp(annulus, norm):
    with pytest.raises(ConfigError, match="linf"):
        StudyConfig(geometry=annulus, euler=EulerSpec(family="rigid"),
                    norms=("l2", norm))


def test_default_eval_stencil(annulus):
    cfg = StudyConfig(geometry=annulus, euler=EulerSpec(family="rigid"))
    assert len(cfg.t_eval) == 8
    assert cfg.t_eval[0] > 0.0
    assert cfg.t_eval[-1] == pytest.approx(cfg.ns.t_end)


def test_parse_config_file(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text("""
[geometry]
kind = annulus_gap
r1 = 1.0
r2 = 2.0
eta = 0.45
collar_points = 8

[euler]
family = rigid
omega = 2.0

[layer]
nz = 128
dt = 1e-3
t_end = 0.5

[ns]
nr = 512
dt = 2.5e-4
t_end = 0.5

[study]
nu_list = 1e-2, 1e-3, 1e-4
norms = l2, linf
output_dir = results
""")
    cfg = parse_config_file(path)
    assert cfg.geometry.kind == geo.ANNULUS_GAP
    assert cfg.euler.omega == 2.0
    assert cfg.layer.nz == 128
    assert cfg.ns.n == 512
    assert cfg.nu_list == (1e-2, 1e-3, 1e-4)
    assert cfg.norms == ("l2", "linf")
    assert cfg.output_dir == "results"
    # collar_points is no longer a setting; older files that set it still parse
    assert not hasattr(cfg, "collar_points")


def _config_file(tmp_path, geometry, euler, layer=""):
    path = tmp_path / "study.cfg"
    path.write_text(f"[geometry]\n{geometry}\n[euler]\n{euler}\n"
                    f"[layer]\nnz = 64\n{layer}\n"
                    "[study]\nnu_list = 1e-2, 1e-3, 1e-4\n")
    return parse_config_file(path)


ANNULUS_CFG = "kind = annulus_gap\nr1 = 1.0\nr2 = 2.0\neta = 0.45"
CHANNEL_CFG = "kind = flat_channel\nh = 1.0\neta = 0.45"


@pytest.mark.parametrize("family, geometry, expected", [
    ("swirl_poly:0.5,1.0,-0.2", ANNULUS_CFG, lambda geom: steady_base_flow(
        LaurentProfile({0: 0.5, 1: 1.0, 2: -0.2}), geom)),
    ("shear_poly:0.2,1.0,-0.5", CHANNEL_CFG, lambda geom: steady_base_flow(
        ShearProfile(poly=(0.2, 1.0, -0.5), h=geom.h), geom)),
])
def test_poly_families_from_config_file(tmp_path, family, geometry, expected):
    cfg = _config_file(tmp_path, geometry, f"family = {family}")
    flow = cfg.euler.build(cfg.geometry)
    want = expected(cfg.geometry)
    assert flow == want
    coords = cfg.geometry.volume_grid(257)
    assert np.array_equal(flow.value(coords), want.value(coords))


@pytest.mark.parametrize("family, geometry", [
    ("swirl_poly", ANNULUS_CFG),                  # no coefficients
    ("shear_poly:", CHANNEL_CFG),                 # empty coefficient list
    ("manufactured", CHANNEL_CFG),                # not a study family
    ("manufactured:oscillating_shear", CHANNEL_CFG),
])
def test_family_without_profile_is_config_error(tmp_path, family, geometry):
    cfg = _config_file(tmp_path, geometry, f"family = {family}")
    with pytest.raises(ConfigError, match="family"):
        cfg.euler.build(cfg.geometry)


def test_retired_layer_keys_still_parse(tmp_path):
    # the layer marches to max(t_eval) in the cross coupling mode; older
    # files that set t_end or coupling_mode still parse
    cfg = _config_file(tmp_path, ANNULUS_CFG, "family = rigid",
                       "t_end = 0.3\ncoupling_mode = project")
    assert cfg.layer == LayerParams(nz=64)
    assert not hasattr(cfg.layer, "t_end")
    assert not hasattr(cfg.layer, "coupling_mode")


@st.composite
def study_configs(draw):
    """A study config drawn as its INI text and the StudyConfig it means."""
    if draw(st.booleans()):
        h = draw(st.floats(0.5, 3.0))
        eta = h / 2 * draw(st.floats(0.05, 0.95))
        geom_ini = f"kind = flat_channel\nh = {h!r}\neta = {eta!r}"
        geom = geo.flat_channel(h, eta)
        family = draw(st.sampled_from(["shear_cos", "shear_poly:0.2,1.0,-0.5"]))
    else:
        r1 = draw(st.floats(0.5, 2.0))
        r2 = r1 + draw(st.floats(0.5, 2.0))
        eta = (r2 - r1) / 2 * draw(st.floats(0.05, 0.95))
        geom_ini = f"kind = annulus_gap\nr1 = {r1!r}\nr2 = {r2!r}\neta = {eta!r}"
        geom = geo.annulus_gap(r1, r2, eta)
        family = draw(st.sampled_from(["rigid", "vortex", "swirl_poly:0.5,1.0,-0.2"]))
    euler = EulerSpec(family=family, omega=draw(st.floats(0.1, 5.0)),
                      circulation=draw(st.floats(0.1, 5.0)))
    layer = LayerParams(nz=draw(st.integers(8, 1024)),
                        zmax=draw(st.none() | st.floats(1.0, 40.0)),
                        dt=draw(st.floats(1e-5, 1e-2)))
    ns = NsParams(n=draw(st.integers(32, 4096)), dt=draw(st.floats(1e-6, 1e-2)),
                  t_end=draw(st.floats(0.05, 1.0)),
                  nu=draw(st.none() | st.floats(1e-6, 1e-1)))
    ns_key = draw(st.sampled_from(["nr", "ny", "n"]))
    # exponents in tenths of a decade: strictly decreasing, two decades or more
    top = draw(st.integers(20, 40))
    tenths = draw(st.lists(st.integers(1, top - 1), min_size=1, max_size=4,
                           unique=True))
    nu0 = (eta / 4) ** 2 * draw(st.floats(0.01, 1.0))
    nu_list = tuple(nu0 * 10.0 ** (-k / 10) for k in [0, *sorted(tenths), top])
    norms = draw(st.permutations(["lp:4.0", *draw(st.lists(
        st.sampled_from(["l2", "h1", "linf", "lp:3.5"]), unique=True))]))
    fracs = draw(st.none() | st.lists(st.integers(1, 100), min_size=1, max_size=8,
                                      unique=True))
    t_eval = None if fracs is None else tuple(ns.t_end * f / 100 for f in sorted(fracs))
    out = draw(st.text("abcxyz_0123456789", min_size=1, max_size=12))
    want = StudyConfig(geometry=geom, euler=euler, layer=layer, ns=ns,
                       nu_list=nu_list, norms=tuple(norms), t_eval=t_eval,
                       output_dir=out)

    def floats(values):
        return ", ".join(repr(v) for v in values)

    text = (f"[geometry]\n{geom_ini}\n"
            f"[euler]\nfamily = {family}\nomega = {euler.omega!r}\n"
            f"circulation = {euler.circulation!r}\n"
            f"[layer]\nnz = {layer.nz}\n"
            f"zmax = {'auto' if layer.zmax is None else repr(layer.zmax)}\n"
            f"dt = {layer.dt!r}\n"
            f"[ns]\n{ns_key} = {ns.n}\ndt = {ns.dt!r}\nt_end = {ns.t_end!r}\n"
            + ("" if ns.nu is None else f"nu = {ns.nu!r}\n")
            + f"[study]\nnu_list = {floats(nu_list)}\nnorms = {', '.join(norms)}\n"
            f"t_eval = {'auto' if t_eval is None else floats(t_eval)}\n"
            f"output_dir = {out}\n")
    return text, want


@settings(derandomize=True, max_examples=100, deadline=None)
@given(drawn=study_configs())
def test_config_file_round_trip(tmp_path_factory, drawn):
    # a config written as INI text reads back as the same StudyConfig, its
    # norm labels in canonical form
    text, want = drawn
    path = tmp_path_factory.mktemp("cfg") / "study.cfg"
    path.write_text(text)
    got = parse_config_file(path)
    assert got == want
    assert "lp:4" in got.norms and "lp:4.0" not in got.norms


def test_parse_config_missing_file():
    with pytest.raises(ConfigError):
        parse_config_file("/no/such/file.cfg")


def test_presets_build():
    for name in ("rigid-annulus", "vortex-annulus", "flat-shear"):
        cfg = get_preset(name)
        assert cfg.preset_name == name
    with pytest.raises(ConfigError):
        get_preset("nope")


# ---------------------------------------------------------------------------
# study behavior on the presets (session-scoped runs from conftest)
# ---------------------------------------------------------------------------


def test_rigid_rates_in_bands(rigid_report):
    for label, (lo, hi) in RIGID_BANDS.items():
        entry = rigid_report.norm_results[label]
        assert lo <= entry["slope"] <= hi, (label, entry["slope"])
        assert entry["status"] == "pass"
        assert entry["r2"] > 0.999


def test_rigid_errors_monotone_in_nu(rigid_report):
    for entry in rigid_report.norm_results.values():
        assert entry["monotone_ok"]


def test_flat_shear_superconvergence_flagged(flat_report):
    entry = flat_report.norm_results["l2"]
    assert entry["slope"] >= 0.9
    assert entry["status"] == "pass"
    assert entry["superconvergent"]


def test_flat_shear_rows_match_closed_form(flat_report):
    # U = cos(pi y) meets the slip condition (U' = 0 at the walls), so g = 0,
    # the layer is zero and the reference is the heat solution
    # e^(-nu pi^2 t) cos(pi y): each u row is (1 - e^(-nu pi^2 t)) times a
    # norm of cos(pi y) on the unit channel.  The ansatz is u0, so
    # R = (u - u0) / nu and each R:full row is its u row's value over nu,
    # within the same bounds; R is the flow's one tangential component, so
    # R:P is R:full and R:I-P is exactly 0
    norms = {"l2": math.sqrt(0.5), "linf": 1.0, "lp:4": 0.375 ** 0.25,
             "h1": math.sqrt(0.5 + math.pi**2 / 2)}
    bounds = {"l2": 3e-8, "lp:4": 3e-8, "linf": 6e-8, "h1": 1e-6}
    parts = {}
    for nu, t, label, value, part in flat_report.rows:
        parts.setdefault(part, {})[(nu, t, label)] = value
    assert len(parts["u"]) == len(parts["R:full"]) == 5 * 8 * 4
    assert parts["R:P"] == parts["R:full"]
    assert parts["R:I-P"] == dict.fromkeys(parts["R:full"], 0.0)
    for (nu, t, label), value in parts["u"].items():
        want = -math.expm1(-nu * math.pi**2 * t) * norms[label]
        assert abs(value - want) <= bounds[label] * want, (nu, t, label)
        remainder = parts["R:full"][(nu, t, label)]
        assert abs(remainder - want / nu) <= bounds[label] * want / nu, (nu, t, label)


def test_rigid_rows_match_the_erfc_layer_prediction(rigid_report):
    # rigid rotation has the constant wall datum g = +-2 omega, so in each
    # collar u - u0 ~ sqrt(nu) u_b(t, d / sqrt(nu)) with
    # u_b = g 2 sqrt(t) ierfc(z / (2 sqrt(t))); a collar integral is the
    # wall's length 2 pi r_w times sqrt(nu) times the z one.  The wall
    # curvature the prediction leaves out shows most in linf, whose excess
    # at T falls with nu
    cfg = get_preset("rigid-annulus")
    g = 2.0 * cfg.euler.omega
    length = sum(2.0 * math.pi * w.coord for w in cfg.geometry.walls())
    s = np.linspace(0.0, 10.0, 20001)
    ierfc4 = np.trapezoid(ierfc(s)**4, s)

    def predict(nu, t, label):
        if label == "linf":
            return math.sqrt(nu) * erfc_solution(g, t, 0.0)
        if label == "lp:4":
            # int u_b^4 dz = g^4 (2 sqrt(t))^4 2 sqrt(t) int ierfc^4
            return nu**0.625 * (length * g**4 * 32.0 * t**2.5 * ierfc4) ** 0.25
        order = {"l2": 0, "h1": 1}[label]
        return nu ** (0.75 - 0.5 * order) * g * math.sqrt(length * ERFC_SQ_NORMS[order](t))

    bounds = {"l2": 0.005, "h1": 0.01, "lp:4": 0.015, "linf": 0.05}
    rows = [row for row in rigid_report.rows if row[4] == "u"]
    assert len(rows) == 5 * 8 * 4
    ratio = {(nu, t, label): value / predict(nu, t, label)
             for nu, t, label, value, _ in rows}
    for (nu, t, label), r in ratio.items():
        assert abs(r - 1.0) <= bounds[label], (nu, t, label, r)
    t_end = max(cfg.t_eval)
    excess = [abs(ratio[nu, t_end, "linf"] - 1.0) for nu in cfg.nu_list]
    assert all(b < a for a, b in zip(excess, excess[1:])), excess
    # the rows depend on nu and t through nu t alone: each viscosity's time
    # exponent is the norm's nu-exponent
    exponents = {"l2": 0.75, "h1": 0.25, "linf": 0.5, "lp:4": 0.625}
    for nu in cfg.nu_list:
        for label, want in exponents.items():
            ts, vals = zip(*[(t, v) for n, t, lab, v, _ in rows if n == nu and lab == label])
            slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
            assert abs(slope - want) <= 0.02, (nu, label, slope)


def test_rigid_u_rows_match_the_layer_and_its_order_nu_term(rigid_report):
    # u - u0 = sqrt(nu) b + nu R_1 + o(nu): b = 2 g sqrt(t) ierfc(eta) is
    # each wall's erfc layer of its datum g, with eta = d / (2 sqrt(nu t)),
    # and R_1 the closed-form O(nu) term (manufactured.remainder_limit),
    # which carries the wall curvature the erfc prediction above leaves out.
    # The prediction is normed on the reference's grid by the package's
    # norms; below nu = 1e-3 what is left is the reference's own error
    cfg = get_preset("rigid-annulus")
    geom = cfg.geometry
    profile = cfg.euler.build(geom)
    x = geom.volume_grid(cfg.ns.n)
    grid = VolumeGrid(geom, x)
    specs = [parse_norm(s) for s in cfg.norms]
    rows = {(nu, t, label): value
            for nu, t, label, value, part in rigid_report.rows if part == "u"}
    assert len(rows) == 5 * 8 * 4
    for nu in cfg.nu_list:
        bound = 1e-3 if nu >= 1e-3 else 5e-3
        for t in cfg.t_eval:
            want = nu * remainder_limit(profile, geom, nu, t, x)
            for w in geom.walls():
                eta = geo.wall_distance(geom, w.wall_id, x) / (2.0 * math.sqrt(nu * t))
                want += (2.0 * boundary_data_g(profile, geom, w) * math.sqrt(nu * t)
                         * ierfc(eta))
            for spec, value in zip(specs, grid.norms(want, specs)):
                ratio = rows[nu, t, spec.label] / value
                assert abs(ratio - 1.0) <= bound, (nu, t, spec.label, ratio)


def test_rigid_r_rows_match_the_remainder_limit(rigid_report):
    # R = (u - u0 - sqrt(nu) b) / nu tends to R_1 (manufactured.
    # remainder_limit), normed on the reference's grid by the package's
    # norms.  What is left is the expansion's next term, which falls like
    # sqrt(nu); below nu = 3e-3 the reference's own error, divided by nu,
    # takes over
    cfg = get_preset("rigid-annulus")
    geom = cfg.geometry
    profile = cfg.euler.build(geom)
    x = geom.volume_grid(cfg.ns.n)
    grid = VolumeGrid(geom, x)
    specs = [parse_norm(s) for s in cfg.norms]
    rows = {(nu, t, label): value
            for nu, t, label, value, part in rigid_report.rows if part == "R:full"}
    assert len(rows) == 5 * 8 * 4
    bounds = {"l2": 0.03, "h1": 0.005, "linf": 0.03, "lp:4": 0.03}
    large = [nu for nu in cfg.nu_list if nu >= 3e-3]
    checked = 0
    for nu in large:
        for t in cfg.t_eval:
            want = remainder_limit(profile, geom, nu, t, x)
            for spec, value in zip(specs, grid.norms(want, specs)):
                ratio = rows[nu, t, spec.label] / value
                assert abs(ratio - 1.0) <= bounds[spec.label], (nu, t, spec.label, ratio)
                checked += 1
    assert checked == len(large) * 8 * 4 == 2 * 8 * 4


def test_vortex_remainder_limit_is_zero():
    # the potential vortex has L U0 = 0 and omega0 = 0, so R_1 = 0: the
    # vortex's R rows (criterion 5) measure only the discrete wall defect.
    # t L U0 is zero to round-off, which the h1 norm's difference quotient
    # amplifies by 1/h (1.2e-12 of |u0|_h1 at the preset's n = 65,536)
    cfg = get_preset("vortex-annulus")
    geom = cfg.geometry
    profile = cfg.euler.build(geom)
    x = geom.volume_grid(cfg.ns.n)
    grid = VolumeGrid(geom, x)
    specs = [parse_norm(s) for s in cfg.norms]
    base = grid.norms(profile.value(x), specs)
    assert min(base) > 0.0
    bounds = {label: 1e-12 for label in cfg.norms}
    bounds["h1"] = np.finfo(float).eps / (x[1] - x[0])
    for nu in cfg.nu_list:
        for t in cfg.t_eval:
            limit = grid.norms(remainder_limit(profile, geom, nu, t, x), specs)
            for spec, value, scale in zip(specs, limit, base):
                assert value < bounds[spec.label] * scale, (nu, t, spec.label, value)


def test_vortex_exact_regime_flag(vortex_report):
    assert vortex_report.exact_regime
    for entry in vortex_report.norm_results.values():
        assert entry["status"] == "exact regime, no fit"


def test_export_report(tmp_path, vortex_report):
    paths = export_report(vortex_report, tmp_path)
    names = sorted(p.split("/")[-1] for p in paths)
    assert names == ["errors.csv", "rates.json", "run_meta.json"]
    lines = (tmp_path / "errors.csv").read_text().splitlines()
    assert lines[0] == "nu,t,norm,value,part"
    parts = {line.split(",")[-1] for line in lines[1:]}
    assert parts == {"u", "R:full", "R:P", "R:I-P"}
    rates = json.loads((tmp_path / "rates.json").read_text())
    assert rates["exact_regime"] is True
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert "wall_time_s" in meta and "versions" in meta
    # n = 65,536 marches one viscosity at a time, in one part per core, and
    # the parts share the 5 x 80 viscosity-steps equally
    assert all(len(nus) == 1 for nus in meta["ns_groups"])
    assert sorted({nu for part in meta["ns_parts"] for nu in part},
                  reverse=True) == meta["nu_list"]
    cores = min(len(os.sched_getaffinity(0)), 5)
    assert len(meta["ns_parts"]) == len(meta["ns_part_steps"]) == cores
    assert sum(meta["ns_part_steps"]) == 400
    assert max(meta["ns_part_steps"]) - min(meta["ns_part_steps"]) <= 1


def test_export_deterministic_bytes(tmp_path, vortex_report):
    export_report(vortex_report, tmp_path / "a")
    export_report(vortex_report, tmp_path / "b")
    for name in ("errors.csv", "rates.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


_REAL_STUDY_PARTS = study.study_parts


def _on_cores(monkeypatch, cores):
    """Run every later study of the test in ``cores`` parts at most."""
    monkeypatch.setattr(study, "study_parts",
                        lambda config: _REAL_STUDY_PARTS(config, cores=cores))


def _log(path, *record):
    """Append ``record`` to the file ``path``: a spy in a forked worker
    cannot append to a list of this process."""
    with open(path, "a") as fh:
        fh.write(json.dumps(record) + "\n")


def _logged(path):
    """The records ``_log`` appended to ``path``, in order, as tuples."""
    if not path.exists():
        return []
    return [tuple(json.loads(line)) for line in path.read_text().splitlines()]


def _forks(monkeypatch, path):
    """Log the pid of every worker forked from now on to ``path``."""
    real = os.fork

    def fork():
        pid = real()
        if pid:
            _log(path, pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)


def _reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@contextlib.contextmanager
def _within(seconds):
    """Raise TimeoutError here if the block runs longer than ``seconds``; a
    study that raises kills and reaps its workers first."""
    def expire(signum, frame):
        raise TimeoutError(f"the study did not finish in {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _three_row_config():
    # 200 steps, stores at steps 100 and 200
    return StudyConfig(
        geometry=geo.annulus_gap(1.0, 2.0, eta=0.45),
        euler=EulerSpec(family="rigid", omega=1.0),
        layer=LayerParams(nz=128, dt=1e-3),
        ns=NsParams(n=256, dt=1e-3, t_end=0.2),
        nu_list=(1e-2, 1e-3, 1e-4),
        norms=("l2", "linf"),
        t_eval=(0.1, 0.2),
    )


def test_jobs_do_not_change_report_bytes(tmp_path, monkeypatch):
    # small fast config: byte-identical errors.csv at any jobs value and on
    # one core or two; jobs is checked, then ignored
    cfg = _three_row_config()
    reports = {}
    for cores in (1, 2):
        _on_cores(monkeypatch, cores)
        for jobs in (1, 2):
            reports[cores, jobs] = run_convergence_study(cfg, jobs=jobs)
    assert reports[1, 1].meta["ns_parts"] == reports[1, 2].meta["ns_parts"] \
        == [[1e-2, 1e-3, 1e-4]]
    # 1e-3 is cut at step 100 of 200, on its first store
    assert reports[2, 1].meta["ns_parts"] == [[1e-3, 1e-2], [1e-4, 1e-3]]
    assert reports[2, 1].meta["ns_groups"] == [[1e-3], [1e-2], [1e-4], [1e-3]]
    assert reports[2, 1].meta["ns_part_steps"] == [300, 300]
    for key, report in reports.items():
        export_report(report, tmp_path / repr(key))
    for name in ("errors.csv", "rates.json"):
        assert len({(tmp_path / repr(key) / name).read_bytes()
                    for key in reports}) == 1


def test_empty_norm_list_header_only(tmp_path, annulus):
    cfg = StudyConfig(
        geometry=annulus,
        euler=EulerSpec(family="vortex"),
        layer=LayerParams(nz=64, dt=1e-3),
        ns=NsParams(n=128, dt=1e-3, t_end=0.2),
        nu_list=(1e-2, 1e-3, 1e-4),
        norms=(),
        t_eval=(0.2,),
    )
    report = run_convergence_study(cfg)
    export_report(report, tmp_path)
    lines = (tmp_path / "errors.csv").read_text().splitlines()
    assert lines == ["nu,t,norm,value,part"]


def test_single_norm_single_entry(tmp_path, annulus):
    cfg = StudyConfig(
        geometry=annulus,
        euler=EulerSpec(family="rigid"),
        layer=LayerParams(nz=64, dt=1e-3),
        ns=NsParams(n=256, dt=1e-3, t_end=0.2),
        nu_list=(1e-2, 1e-3, 1e-4),
        norms=("l2",),
        t_eval=(0.1, 0.2),
    )
    report = run_convergence_study(cfg)
    assert list(report.norm_results) == ["l2"]


def test_lp_label_spelling_keeps_remainder_criteria(annulus):
    # "lp:4.0" is the same norm as "lp:4" and feeds the criterion-4
    # remainder statistics under the canonical label
    cfg = StudyConfig(
        geometry=annulus,
        euler=EulerSpec(family="rigid"),
        layer=LayerParams(nz=64, dt=1e-3),
        ns=NsParams(n=256, dt=1e-3, t_end=0.2),
        nu_list=(1e-2, 1e-3, 1e-4),
        norms=("l2", "lp:4.0"),
        t_eval=(0.2,),
    )
    assert cfg.norms == ("l2", "lp:4")
    report = run_convergence_study(cfg)
    assert "lp4_sup" in report.remainder
    assert "lp:4" in report.norm_results
    assert {label for (_, _, label, _, _) in report.rows} == {"l2", "lp:4"}
    with pytest.raises(ConfigError):
        StudyConfig(geometry=annulus, euler=EulerSpec(family="rigid"),
                     norms=("lp:4", "lp:4.0"))


def test_failed_rows_recorded_and_too_few_fails(monkeypatch, annulus):
    import vvlab.study as study_mod
    from vvlab.errors import SolverError, StepSizeError

    cfg = StudyConfig(
        geometry=annulus,
        euler=EulerSpec(family="vortex"),
        layer=LayerParams(nz=64, dt=1e-3),
        ns=NsParams(n=128, dt=1e-3, t_end=0.2),
        nu_list=(1e-2, 3e-3, 1e-3, 1e-4),
        norms=("l2",),
        t_eval=(0.2,),
    )
    real = study_mod._solve_one_nu

    def flaky(setup, nu, *at):
        if nu == 3e-3:
            raise StepSizeError("synthetic failure")
        return real(setup, nu, *at)

    monkeypatch.setattr(study_mod, "_solve_one_nu", flaky)
    with pytest.warns(UserWarning):
        report = run_convergence_study(cfg)
    assert list(report.meta["failed_rows"]) == [3e-3]
    assert len(report.norm_results["l2"]["rows"]) == 3

    def broken(setup, nu, *at):
        if nu != 1e-2:
            raise StepSizeError("synthetic failure")
        return real(setup, nu, *at)

    monkeypatch.setattr(study_mod, "_solve_one_nu", broken)
    with pytest.raises(SolverError), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_convergence_study(cfg)


def _five_row_config(annulus):
    # n = 128 joins all five viscosities in one march on one core
    return StudyConfig(
        geometry=annulus,
        euler=EulerSpec(family="vortex"),
        layer=LayerParams(nz=64, dt=1e-3),
        ns=NsParams(n=128, dt=1e-3, t_end=0.2),
        nu_list=(1e-2, 3e-3, 1e-3, 3e-4, 1e-4),
        norms=("l2",),
        t_eval=(0.2,),
    )


def test_parts_share_the_studys_setup(tmp_path, monkeypatch, annulus):
    # the set-up is built once, here; each part marches all its pieces and
    # groups on it, a forked worker on its copy-on-write copy, at the same
    # addresses, and the rows come out as on one core
    cfg = _five_row_config(annulus)
    builds = []
    real_setup = study.study_setup
    monkeypatch.setattr(study, "study_setup",
                        lambda *args: builds.append(1) or real_setup(*args))
    log = tmp_path / "setups"
    real_rows = study._group_rows

    def spy(setup, nus, **piece):
        _log(log, os.getpid(), id(setup), id(setup.layer), id(setup.ref), id(setup.grid),
             *(a.__array_interface__["data"][0] for a in setup.ref.work + (
                 setup.row, setup.scratch)))
        return real_rows(setup, nus, **piece)

    monkeypatch.setattr(study, "_group_rows", spy)
    _on_cores(monkeypatch, 2)
    forked = run_convergence_study(cfg)
    assert builds == [1]
    seen = _logged(log)
    # a piece and a group in each part, one part here and one in a worker
    assert len(seen) == 4
    assert len({pid for pid, *_ in seen}) == 2 and os.getpid() in {pid for pid, *_ in seen}
    assert len({tuple(addresses) for _, *addresses in seen}) == 1
    _on_cores(monkeypatch, 1)
    assert forked.rows == run_convergence_study(cfg).rows


@pytest.mark.parametrize("geom_name, family, fits", [
    ("annulus", "rigid", 2), ("annulus", "vortex", 0), ("channel", "shear_cos", 0)])
def test_a_study_fits_each_live_wall_once_before_its_parts_fork(
        request, tmp_path, monkeypatch, geom_name, family, fits):
    # each wall whose layer is nonzero is fitted once, in this process and
    # before any part forks, and every viscosity on 1 or 2 cores, the two
    # pieces of a cut one included, reads that fit; a zero layer (vortex,
    # flat shear: g = 0) is not fitted at all
    cfg = _small_study(request.getfixturevalue(geom_name), family)
    assert any(march.start for part in _REAL_STUDY_PARTS(cfg, cores=2) for march in part)
    real = spaces._not_a_knot_fit

    def counted(x, y):
        _log(tmp_path / "fits", os.getpid())
        return real(x, y)

    monkeypatch.setattr(spaces, "_not_a_knot_fit", counted)
    monkeypatch.setattr(layer_mod, "_not_a_knot_fit", counted)
    for cores in (1, 2):
        _on_cores(monkeypatch, cores)
        report = run_convergence_study(cfg)
        assert report.meta["failed_rows"] == {}
        assert len(report.meta["ns_parts"]) == cores
        assert _logged(tmp_path / "fits") == [(os.getpid(),)] * fits
        (tmp_path / "fits").unlink(missing_ok=True)


@pytest.mark.parametrize("name, cuts", [
    ("three", {100}),                   # on the store at step 100
    ("five", {50, 67, 100, 133, 150}),  # between step 0 and the one store
])
def test_cut_viscosities_write_the_one_core_bytes(tmp_path, monkeypatch, annulus,
                                                  name, cuts):
    # on 1 to 4 cores the viscosities cut between parts march in two pieces
    # whose iterate crosses at the cut: each piece assembles its ansatz at
    # every evaluation time once, each row is taken once, by the piece that
    # stores it, and the rows and files are the bytes of one core's march.
    # A piece cut before the one store ("five") takes no row
    cfg = _three_row_config() if name == "three" else _five_row_config(annulus)
    assert {march.stop for cores in (1, 2, 3, 4)
            for part in study.study_parts(cfg, cores=cores)
            for march in part if march.stop < 200} == cuts
    real, real_ansatz = study._solve_one_nu, study.assemble_ansatz

    def spy(setup, nu, u, t, u_approx):
        _log(tmp_path / "taken", nu, t)
        return real(setup, nu, u, t, u_approx)

    def spy_ansatz(u0, profile, nu, coords, times):
        for t in times:
            _log(tmp_path / "assembled", nu, t)
        return real_ansatz(u0, profile, nu, coords, times=times)

    monkeypatch.setattr(study, "_solve_one_nu", spy)
    monkeypatch.setattr(study, "assemble_ansatz", spy_ansatz)
    rows = []
    for cores in (1, 2, 3, 4):
        _on_cores(monkeypatch, cores)
        report = run_convergence_study(cfg)
        assert report.meta["failed_rows"] == {}
        every = sorted((nu, t) for nu in cfg.nu_list for t in cfg.t_eval)
        assert sorted(_logged(tmp_path / "taken")) == every
        pieces = sorted((nu, t) for nus in report.meta["ns_groups"] for nu in nus
                        for t in cfg.t_eval)
        assert sorted(_logged(tmp_path / "assembled")) == pieces
        (tmp_path / "taken").unlink()
        (tmp_path / "assembled").unlink()
        rows.append(report.rows)
        export_report(report, tmp_path / str(cores))
    assert all(got == rows[0] for got in rows)
    for file in ("errors.csv", "rates.json"):
        assert len({(tmp_path / str(cores) / file).read_bytes()
                    for cores in (1, 2, 3, 4)}) == 1


@pytest.mark.parametrize("piece", ["stop", "resume"])
def test_a_failed_piece_fails_only_its_viscosity(tmp_path, monkeypatch, annulus, piece):
    # on 2 cores 1e-3 is cut at step 100 of 200; its first piece ("stop")
    # or its second ("resume") raises: that row alone fails, a second piece
    # does not march after a failed first, nothing waits for more than 60 s
    # and every worker is reaped
    cfg = _five_row_config(annulus)
    _on_cores(monkeypatch, 1)
    want = run_convergence_study(cfg).rows
    real = ReferenceSetup.solve

    def broken(ref, nus, each=None, **kw):
        _log(tmp_path / "pieces", [key for key, value in kw.items() if value is not None])
        if kw[piece] is not None:
            raise ZeroDivisionError(f"synthetic failure at {piece}")
        return real(ref, nus, each, **kw)

    monkeypatch.setattr(ReferenceSetup, "solve", broken)
    _on_cores(monkeypatch, 2)
    _forks(monkeypatch, tmp_path / "forks")
    with pytest.warns(UserWarning, match="nu=0.001"), _within(60.0):
        report = run_convergence_study(cfg)
    pids = [pid for pid, in _logged(tmp_path / "forks")]
    assert len(pids) == 1 and _reaped(pids[0])
    assert report.meta["failed_rows"] == {
        1e-3: f"ZeroDivisionError: synthetic failure at {piece}"}
    assert report.rows == [row for row in want if row[0] != 1e-3]
    # each part's group of whole viscosities, the first piece and, after a
    # first piece that did not fail, the second
    marched = [[], [], ["stop"]] if piece == "stop" else [[], [], ["resume"], ["stop"]]
    assert sorted(pieces for pieces, in _logged(tmp_path / "pieces")) == marched


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_is_a_config_error(monkeypatch, annulus, jobs):
    monkeypatch.setattr(study, "solve_study_layer", None)   # never reached
    with pytest.raises(ConfigError, match="jobs must be at least 1"):
        run_convergence_study(_five_row_config(annulus), jobs=jobs)


def test_non_package_error_fails_only_its_row(monkeypatch, annulus):
    cfg = StudyConfig(
        geometry=annulus,
        euler=EulerSpec(family="vortex"),
        layer=LayerParams(nz=64, dt=1e-3),
        ns=NsParams(n=128, dt=1e-3, t_end=0.2),
        nu_list=(1e-2, 3e-3, 1e-3, 3e-4, 1e-4),
        norms=("l2",),
        t_eval=(0.2,),
    )
    real = ReferenceSetup.solve
    marched = []

    def singular(ref, nus, each=None, **piece):
        marched.append(tuple(nus))
        if 1e-3 in nus:
            raise np.linalg.LinAlgError("synthetic singular matrix")
        return real(ref, nus, each, **piece)

    monkeypatch.setattr(ReferenceSetup, "solve", singular)
    _on_cores(monkeypatch, 1)
    with pytest.warns(UserWarning, match="nu=0.001"):
        report = run_convergence_study(cfg)
    assert report.meta["failed_rows"] == {
        1e-3: "LinAlgError: synthetic singular matrix"}
    assert [nu for nu, _ in report.norm_results["l2"]["rows"]] == [
        1e-2, 3e-3, 3e-4, 1e-4]
    # the joint march failed as a whole, then each viscosity marched alone
    assert marched == [cfg.nu_list] + [(nu,) for nu in cfg.nu_list]


def test_failed_factorisation_fails_only_its_row(annulus):
    # a viscosity whose dpttrf fails in a joint march becomes its own
    # failed row, named as a march of its own; the rest of its group
    # marches without it, bit for bit the rows of standalone marches
    cfg = _small_study(annulus, "rigid")
    flow = cfg.euler.build(cfg.geometry)
    setup = study.study_setup(cfg)
    out = study._group_rows(setup, (1e-2, -1.0, 1e-3))
    assert [nu for nu, _, _ in out] == [1e-2, -1.0, 1e-3]
    _, rows, err = out[1]
    assert rows is None
    assert err.startswith("SolverError: ns swirl (nu=-1, n=256): dpttrf failed")
    for nu, rows, err in (out[0], out[2]):
        assert err is None
        sol = solve_ns(cfg.geometry, flow, nu, n=cfg.ns.n, dt=cfg.ns.dt,
                       t_end=cfg.ns.t_end, store_times=cfg.t_eval)
        u_approx = assemble_ansatz(flow.value(sol.coords), setup.layer, nu, sol.coords,
                                   times=cfg.t_eval)
        rows = [row for at in rows for row in at]
        assert rows == study_rows(setup, sol, u_approx)
        assert any(v > 0.0 for _, _, _, v, _ in rows)


def test_failed_march_fails_only_its_row_in_workers(tmp_path, monkeypatch, annulus):
    # 3e-4 marches as NaN, which factors but marches to NaN and crosses
    # the joins: the forked worker's joint march fails, then each of its
    # viscosities re-marches alone there, and only the row at fault fails;
    # 1e-3, cut between the parts on its first store, keeps its rows
    cfg = _small_study(annulus, "rigid")
    _on_cores(monkeypatch, 1)
    want = run_convergence_study(cfg).rows
    real = ReferenceSetup.solve
    parent = os.getpid()

    def nan_at_3e4(ref, nus, each=None, **piece):
        _log(tmp_path / "marched", os.getpid() == parent, nus)
        return real(ref, [math.nan if nu == 3e-4 else nu for nu in nus], each,
                    **piece)

    monkeypatch.setattr(ReferenceSetup, "solve", nan_at_3e4)
    _on_cores(monkeypatch, 2)
    with pytest.warns(UserWarning, match="nu=0.0003"):
        report = run_convergence_study(cfg)
    assert report.meta["ns_parts"] == [[1e-3, 1e-2, 3e-3], [3e-4, 1e-4, 1e-3]]
    marched = _logged(tmp_path / "marched")
    assert [nus for here, nus in marched if here] == [[1e-3], [1e-2, 3e-3]]
    assert [nus for here, nus in marched if not here] == [
        [3e-4, 1e-4], [3e-4], [1e-4], [1e-3]]
    assert list(report.meta["failed_rows"]) == [3e-4]
    assert report.meta["failed_rows"][3e-4].startswith(
        "SolverError: ns swirl (nu=nan, n=256): non-finite iterate")
    assert report.rows == [row for row in want if row[0] != 3e-4]


def test_failed_row_in_a_worker_fails_only_that_row(monkeypatch, annulus):
    # an exception in a row in the forked worker becomes a failed row that
    # names it; the other part's rows, and the worker's other row, survive
    cfg = _small_study(annulus, "rigid")
    _on_cores(monkeypatch, 1)
    want = run_convergence_study(cfg).rows
    real = study._solve_one_nu
    parent = os.getpid()

    def broken(setup, nu, *at):
        if nu == 1e-4:
            assert os.getpid() != parent
            raise ZeroDivisionError("synthetic row failure")
        return real(setup, nu, *at)

    monkeypatch.setattr(study, "_solve_one_nu", broken)
    _on_cores(monkeypatch, 2)
    with pytest.warns(UserWarning, match="nu=0.0001"):
        report = run_convergence_study(cfg)
    assert report.meta["failed_rows"] == {1e-4: "ZeroDivisionError: synthetic row failure"}
    assert report.rows == [row for row in want if row[0] != 1e-4]


def test_a_part_that_raises_outside_its_rows_fails_each_of_its_viscosities(
        monkeypatch, annulus):
    # a MemoryError in the forked worker's part outside any row (in
    # time_index, as a march finds its stores) fails each viscosity of that
    # part by name, the cut one included; the other part's three survive
    cfg = dataclasses.replace(_five_row_config(annulus), nu_list=(
        1e-2, 5e-3, 3e-3, 1e-3, 5e-4, 3e-4, 1e-4))
    real = study.time_index
    parent = os.getpid()

    def broken(*args):
        if os.getpid() != parent:
            raise MemoryError("injected")
        return real(*args)

    monkeypatch.setattr(study, "time_index", broken)
    _on_cores(monkeypatch, 2)
    with pytest.warns(UserWarning, match="MemoryError: injected"):
        report = run_convergence_study(cfg)
    assert report.meta["ns_parts"] == [[1e-3, 1e-2, 5e-3, 3e-3],
                                       [5e-4, 3e-4, 1e-4, 1e-3]]
    assert report.meta["failed_rows"] == {
        nu: "MemoryError: injected" for nu in (1e-3, 5e-4, 3e-4, 1e-4)}
    assert [nu for nu, _ in report.norm_results["l2"]["rows"]] == [1e-2, 5e-3, 3e-3]


_CRASH_STUDY = """
import json, os, signal, sys
from vvlab import geometry as geo, study
death, log, cores = sys.argv[1], sys.argv[2], int(sys.argv[3])
cfg = study.StudyConfig(geometry=geo.annulus_gap(1.0, 2.0, eta=0.45),
                        euler=study.EulerSpec(family="rigid"),
                        layer=study.LayerParams(nz=128, dt=1.25e-3),
                        ns=study.NsParams(n=256, dt=2.5e-3, t_end=0.25),
                        nu_list=(1e-2, 5e-3, 3e-3, 1e-3, 5e-4, 3e-4, 1e-4),
                        t_eval=tuple(0.025 * k for k in range(1, 11)))
parts, row, march_rows, fork = (study.study_parts, study._solve_one_nu,
                                study._march_rows, os.fork)
forked = []

def dying_row(setup, nu, *at):
    if nu == 5e-4 and death == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if nu == 5e-4 and death == "exit":
        os._exit(0)
    return row(setup, nu, *at)

def logged_march_rows(setup, march, handoff):
    out = march_rows(setup, march, handoff)
    with open(log, "a") as fh:
        fh.write(json.dumps([march.nus, march.start, [e for _, _, e in out]]) + "\\n")
    return out

def logged_fork():
    pid = fork()
    if pid:
        forked.append(pid)
    return pid

study.study_parts = lambda config: parts(config, cores=cores)
study._solve_one_nu, study._march_rows, os.fork = dying_row, logged_march_rows, logged_fork
report = study.run_convergence_study(cfg)

def reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False

print(json.dumps({"rows": report.rows, "failed": list(report.meta["failed_rows"].items()),
                  "forked": len(forked), "reaped": all(map(reaped, forked))}))
"""


def _crash_study(tmp_path, death, cores):
    """The outcome of ``_CRASH_STUDY`` run in a session of its own, in at
    most 60 s, and the pieces it logged; the whole session is killed at
    the end, so no worker outlives a study that hangs."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(pathlib.Path(__file__).resolve().parents[1] / "src"),
        os.environ.get("PYTHONPATH")])))
    log = tmp_path / f"{death}-{cores}.log"
    proc = subprocess.Popen([sys.executable, "-W", "ignore", "-c", _CRASH_STUDY, death,
                             str(log), str(cores)], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60.0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert proc.returncode == 0, err
    return json.loads(out), _logged(log)


@pytest.mark.parametrize("death, words", [
    ("kill", "its worker was killed by signal 9"),
    ("exit", "its worker exited with status 0")], ids=["kill", "exit"])
def test_a_worker_that_dies_in_a_row_fails_each_of_its_viscosities(tmp_path, death,
                                                                   words):
    # on 3 cores worker 1 marches the first piece of 5e-4, 1e-3 and the
    # second piece of 3e-3, and dies (SIGKILL, or a clean exit) in the
    # first row of 5e-4, before that piece ends: each of its viscosities
    # fails naming its status, the second piece of 5e-4 in worker 2 reads
    # the end of the pipe and fails by name without waiting, the other
    # four viscosities keep the one-core rows and every worker is reaped.
    # The study runs in a process of its own, which a death in a thread
    # of it would end
    want, _ = _crash_study(tmp_path, "none", 1)
    got, pieces = _crash_study(tmp_path, death, 3)
    assert got["failed"] == [[3e-3, words], [1e-3, words], [5e-4, words]]
    assert ([5e-4], 67, ["RuntimeError: the first piece of its march did not finish"]) \
        in pieces
    survivors = {1e-2, 5e-3, 3e-4, 1e-4}
    assert got["rows"] == [row for row in want["rows"] if row[0] in survivors]
    assert got["forked"] == 2 and got["reaped"]
    assert want["failed"] == [] and want["forked"] == 0


def test_study_parts_share_the_cores():
    # one part per core this process may run on, never more parts than
    # viscosities; on 2 cores the middle viscosity's 80 steps are cut in
    # half, its first piece first in the first part and its second last in
    # the second
    cfg = get_preset("vortex-annulus")
    nus = cfg.nu_list
    whole = [March((nu,), 0, 80) for nu in nus]
    assert study.study_parts(cfg) == study.study_parts(
        cfg, cores=len(os.sched_getaffinity(0)))
    assert study.study_parts(cfg, cores=1) == [whole]
    assert study.study_parts(cfg, cores=2) == [
        [March((1e-3,), 0, 40)] + whole[:2],
        whole[3:] + [March((1e-3,), 40, 80)]]
    assert study.study_parts(cfg, cores=10**6) == [[march] for march in whole]


def test_study_parts_split_for_the_cache_and_the_cores():
    # equal shares of the 5 x 20,000 steps, then each part's whole
    # viscosities in groups of at most ns.group_size, the fewest that do;
    # the larger first
    cfg = get_preset("rigid-annulus")
    nus = cfg.nu_list
    first, second = March((1e-3,), 0, 10000), March((1e-3,), 10000, 20000)
    assert study.study_parts(cfg, cores=1) == [[March(nus, 0, 20000)]]
    assert study.study_parts(cfg, cores=2) == [
        [first, March(nus[:2], 0, 20000)], [March(nus[3:], 0, 20000), second]]
    cfg.ns = NsParams(n=16384)
    assert study.study_parts(cfg, cores=1) == [
        [March(nus[:2], 0, 20000), March(nus[2:4], 0, 20000),
         March(nus[4:], 0, 20000)]]
    cfg.ns = NsParams(n=32768)
    assert study.study_parts(cfg, cores=2) == [
        [first, March(nus[:1], 0, 20000), March(nus[1:2], 0, 20000)],
        [March(nus[3:4], 0, 20000), March(nus[4:], 0, 20000), second]]


@pytest.mark.parametrize("m", [3, 4, 5, 7])
@pytest.mark.parametrize("cores", [1, 2, 3, 4])
def test_study_parts_give_every_part_an_equal_share(annulus, m, cores):
    # every viscosity's steps [0, N] marched exactly once; each part within
    # one step of m N / c; a cut viscosity's first piece first in its part
    # and its second last in the next; no cut when c divides m
    cfg = StudyConfig(geometry=annulus, euler=EulerSpec(family="rigid"),
                      ns=NsParams(n=256, dt=1e-3, t_end=0.2),
                      nu_list=tuple(np.geomspace(1e-2, 1e-4, m).tolist()))
    n_steps, c = 200, min(cores, m)
    parts = study.study_parts(cfg, cores=cores)
    assert len(parts) == c
    pieces = {nu: [] for nu in cfg.nu_list}
    for part in parts:
        assert abs(sum(len(march.nus) * (march.stop - march.start)
                       for march in part) - m * n_steps / c) <= 1
        for march in part:
            assert 0 < len(march.nus) <= study.group_size(cfg.ns.n)
            for nu in march.nus:
                pieces[nu].append((march.start, march.stop))
    for nu, spans in pieces.items():
        spans.sort()
        assert spans[0][0] == 0 and spans[-1][1] == n_steps
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    for p, part in enumerate(parts):
        for j, march in enumerate(part):
            if march.stop < n_steps:
                assert j == 0 and march.start == 0
                assert parts[p + 1][-1] == March(march.nus, march.stop, n_steps)
            if march.start > 0:
                assert j == len(part) - 1
    if m % c == 0:
        assert all((march.start, march.stop) == (0, n_steps)
                   for part in parts for march in part)


def test_gradient_remainder_part_bounded(rigid_report):
    # Leray-complement part of the remainder: identically tangential flows
    # keep it at zero, the uniform-boundedness analogue trivially
    vals = [v for (_, _, _, v, part) in rigid_report.rows if part == "R:I-P"]
    assert max(vals) < 1e-12


def _json_diffs(old, new, path="$"):
    """Every differing leaf of two JSON values: (path, old, new)."""
    if isinstance(old, dict) and isinstance(new, dict):
        out = []
        for key in sorted(set(old) | set(new)):
            out += _json_diffs(old.get(key, "<absent>"), new.get(key, "<absent>"),
                               f"{path}.{key}")
        return out
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        out = []
        for i, (a, b) in enumerate(zip(old, new)):
            out += _json_diffs(a, b, f"{path}[{i}]")
        return out
    return [] if old == new and type(old) is type(new) else [(path, old, new)]


def _describe_json_diffs(old_bytes, new_bytes):
    diffs = _json_diffs(json.loads(old_bytes), json.loads(new_bytes))
    if not diffs:
        return "same values, different bytes (formatting)"
    lines = [f"{len(diffs)} value(s) differ from the golden file:"]
    for path, a, b in diffs:
        rel = ""
        if isinstance(a, float) and isinstance(b, float):
            rel = f"  rel {abs(b - a) / abs(a):.3g}" if a else "  rel inf"
        lines.append(f"  {path}: {a!r} -> {b!r}{rel}")
    return "\n".join(lines)


def test_json_diff_report_names_every_value():
    old = b'{"a": [[0.001, 1.0], [0.01, 2.0]], "b": {"c": true, "d": 3.0}}'
    new = b'{"a": [[0.001, 1.5], [0.01, 2.0]], "b": {"c": false, "d": 3.0}}'
    text = _describe_json_diffs(old, new)
    assert text.splitlines() == [
        "2 value(s) differ from the golden file:",
        "  $.a[0][1]: 1.0 -> 1.5  rel 0.5",
        "  $.b.c: True -> False",
    ]
    assert "formatting" in _describe_json_diffs(b'{"a": 1}', b'{"a":  1}')


@pytest.mark.parametrize("name", ["rigid", "vortex", "flat"])
def test_golden_rates(request, tmp_path, name):
    # byte comparison against the blessed first run of each preset
    golden = pathlib.Path(__file__).parent / "golden" / f"{name}_rates.json"
    export_report(request.getfixturevalue(f"{name}_report"), tmp_path)
    produced = (tmp_path / "rates.json").read_bytes()
    expected = golden.read_bytes()
    assert produced == expected, _describe_json_diffs(expected, produced)


def _small_study(geometry, family):
    return StudyConfig(geometry=geometry, euler=EulerSpec(family=family),
                       layer=LayerParams(nz=128, dt=1.25e-3),
                       ns=NsParams(n=256, dt=2.5e-3, t_end=0.25),
                       t_eval=(0.125, 0.25))


@pytest.mark.parametrize("geom_name, family", [("annulus", "rigid"),
                                               ("channel", "shear_cos")])
def test_row_reference_histories_equal_standalone_solves(request, monkeypatch,
                                                         geom_name, family):
    # on one core every row of a study solves on the one set-up and reuses
    # its arrays, all five viscosities in one joint march that hands each
    # stored time to the rows as it comes; each row's history is bit for
    # bit a standalone solve_ns at its nu, and no later solve writes into a
    # standalone result
    cfg = _small_study(request.getfixturevalue(geom_name), family)
    flow = cfg.euler.build(cfg.geometry)
    stored = {}
    marched = []
    real = ReferenceSetup.solve

    def spy(ref, nus, each, **piece):
        assert piece == {"resume": None, "stop": None}
        marched.append(tuple(nus))

        def keep(i, u):
            for nu, u_nu in zip(nus, u):
                stored.setdefault(nu, []).append((ref.times[i:i + 1], u_nu[None].copy()))
            each(i, u)

        return real(ref, nus, keep)

    monkeypatch.setattr(ReferenceSetup, "solve", spy)
    _on_cores(monkeypatch, 1)
    run_convergence_study(cfg)
    monkeypatch.undo()
    assert marched == [cfg.nu_list]
    assert list(stored) == list(cfg.nu_list)
    seen = {nu: (np.concatenate([t for t, _ in at]), np.concatenate([u for _, u in at]))
            for nu, at in stored.items()}
    kept = []
    for nu, (times, u) in seen.items():
        want = solve_ns(cfg.geometry, flow, nu, n=cfg.ns.n, dt=cfg.ns.dt,
                        t_end=cfg.ns.t_end, store_times=cfg.t_eval)
        assert np.array_equal(times, want.times)
        assert np.array_equal(u, want.u)
        kept.append((want, want.u.copy()))
    for want, copy in kept:
        assert np.array_equal(want.u, copy)


def test_bad_reference_grid_fails_before_any_row(monkeypatch, channel):
    # the set-up is viscosity-free, so a grid it refuses is one config error,
    # not a failed row per viscosity
    cfg = _small_study(channel, "shear_cos")
    cfg.ns = NsParams(n=16, dt=cfg.ns.dt, t_end=cfg.ns.t_end)
    monkeypatch.setattr(study, "_solve_one_nu", None)
    with pytest.raises(ConfigError, match=r"ns channel \(n=16\): n must be >= 32"):
        run_convergence_study(cfg)


def test_more_parts_than_cores_write_the_one_core_rows(tmp_path, monkeypatch, annulus):
    # a part per viscosity, more forked workers than cores, each reaped: a
    # row written to another part's buffers or a result lost between
    # processes would move a value
    cfg = _small_study(annulus, "rigid")
    _on_cores(monkeypatch, 1)
    want = run_convergence_study(cfg).rows
    _on_cores(monkeypatch, len(cfg.nu_list))
    _forks(monkeypatch, tmp_path / "forks")
    with _within(60.0):
        report = run_convergence_study(cfg)
    pids = [pid for pid, in _logged(tmp_path / "forks")]
    assert len(pids) == len(cfg.nu_list) - 1 and all(_reaped(pid) for pid in pids)
    assert report.meta["ns_parts"] == [[nu] for nu in cfg.nu_list]
    assert report.rows == want


_PINNED_STUDY = """
import os, sys
from vvlab import geometry as geo, study
if sys.argv[2] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
cfg = study.StudyConfig(geometry=geo.annulus_gap(1.0, 2.0, eta=0.45),
                        euler=study.EulerSpec(family="rigid"),
                        layer=study.LayerParams(nz=128, dt=1.25e-3),
                        ns=study.NsParams(n=20000, dt=2.5e-3, t_end=0.25),
                        t_eval=(0.125, 0.25))
report = study.run_convergence_study(cfg)
study.export_report(report, sys.argv[1])
print(len(report.meta["ns_parts"]))
"""


def test_pinned_and_unpinned_studies_write_the_same_bytes(tmp_path):
    # the same study in a process pinned to one core, in one part, and in
    # one that may use every core, in a part per core: the same files
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(pathlib.Path(__file__).resolve().parents[1] / "src"),
        os.environ.get("PYTHONPATH")])))
    parts = {}
    for run in ("pinned", "unpinned"):
        out = subprocess.run([sys.executable, "-c", _PINNED_STUDY, str(tmp_path / run), run],
                             env=env, check=True, capture_output=True, text=True).stdout
        parts[run] = int(out)
    assert parts == {"pinned": 1, "unpinned": min(len(os.sched_getaffinity(0)), 5)}
    for name in ("errors.csv", "rates.json"):
        assert (tmp_path / "pinned" / name).read_bytes() == \
            (tmp_path / "unpinned" / name).read_bytes()


def test_second_study_at_twice_the_amplitude_doubles_every_value(tmp_path, annulus):
    # two studies in one process: powers of two scale every norm exactly, so
    # any state left over from the first study shows in the second's values
    values = []
    for omega in (1.0, 2.0):
        cfg = _small_study(annulus, "rigid")
        cfg.euler.omega = omega
        out = tmp_path / repr(omega)
        export_report(run_convergence_study(cfg), out)
        lines = (out / "errors.csv").read_text().splitlines()[1:]
        values.append([float(line.split(",")[3]) for line in lines])
    one, two = values
    assert len(one) == 5 * 2 * 4 * 4 and any(v > 0.0 for v in one)
    assert two == [2.0 * v for v in one]


# ---------------------------------------------------------------------------
# Leray split of the remainder: the row's parts against the projector
# ---------------------------------------------------------------------------


def test_viscosity_row_peaks_under_3_75_live_component_histories():
    # a study's row keeps no history: the march hands it each stored time
    # of the one live component in the set-up's stored row, the zero
    # layer's ansatz is the set-up's u0 itself, and u - u0 and R are (n,)
    # arrays of one time at a time in the set-up's buffers.  A row after
    # the first peaks near 0.4 (n_t, n) histories, the march's factors and
    # source; three stored components would add three by themselves
    cfg = get_preset("vortex-annulus")
    cfg.ns = NsParams(n=4096, dt=cfg.ns.dt, t_end=cfg.ns.t_end)
    setup = study.study_setup(cfg)
    nu = cfg.nu_list[-1]

    def row():
        (_, rows, err), = study._group_rows(setup, (nu,))
        assert err is None
        return [row for at in rows for row in at]

    row()
    tracemalloc.start()
    try:
        rows = row()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == len(cfg.t_eval) * len(cfg.norms) * 4
    one = len(cfg.t_eval) * cfg.ns.n * 8
    assert peak <= 3.75 * one, f"peak {peak / one:.2f} live-component histories"


def test_vortex_leray_rows_follow_the_mask(vortex_report):
    rows = {(nu, t, label, part): v for nu, t, label, v, part in vortex_report.rows}
    full = [key[:3] for key in rows if key[3] == "R:full"]
    assert len(full) == 5 * 8 * 4
    for key in full:
        assert rows[key + ("R:P",)] == rows[key + ("R:full",)]
        assert repr(rows[key + ("R:I-P",)]) == "0.0"


def _setup_on(cfg, coords):
    """The study set-up of ``cfg`` with the grid the row reads (u0, the
    norm grid, the row buffer and the norms' scratch) on ``coords``; its
    reference solve is left on the config's grid."""
    setup = study.study_setup(cfg)
    ref = dataclasses.replace(setup.ref, coords=coords,
                              u0=cfg.euler.build(cfg.geometry).value(coords))
    return dataclasses.replace(setup, ref=ref, grid=VolumeGrid(cfg.geometry, coords),
                               row=np.empty(len(coords)),
                               scratch=np.empty((4, len(coords))))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), preset=st.sampled_from(["flat-shear", "rigid-annulus"]),
       n=st.integers(3, 40))
def test_mask_shortcut_equals_explicit_split(data, preset, n):
    # random u and ansatz in the flow component: leray_project of the
    # embedded R returns R and exact zeros, so the row's R:full and R:P are
    # the norms of R and its R:I-P are 0.0
    cfg = get_preset(preset)
    geom, nu = cfg.geometry, cfg.nu_list[-1]
    times = np.array(cfg.t_eval)
    u, u_approx = (data.draw(arrays(np.float64, (len(times), n), elements=st.floats(
        -1e6, 1e6, allow_nan=False, allow_infinity=False))) for _ in range(2))
    coords = geom.volume_grid(n)
    sol = ViscousSolution(nu=nu, geom=geom, coords=coords, times=times, u=u)
    rows = study_rows(_setup_on(cfg, coords), sol, u_approx)
    got = {(t, label, part): v for _, t, label, v, part in rows}
    grid = VolumeGrid(geom, coords)
    for jt, t in enumerate(times):
        rem = (u[jt] - u_approx[jt]) / nu
        values = np.zeros((3, n))
        values[geom.flow_comp] = rem
        p_vals, g_vals = leray_project(geom, values)
        assert np.array_equal(p_vals, values)
        assert not np.any(np.signbit(g_vals)) and np.all(g_vals == 0.0)
        for spec, value in zip(STUDY_SPECS, grid.norms(rem, STUDY_SPECS)):
            assert got[(t, spec.label, "R:full")] == value
            assert got[(t, spec.label, "R:P")] == value
            assert repr(got[(t, spec.label, "R:I-P")]) == "0.0"


# ---------------------------------------------------------------------------
# byte guards on the presets' errors.csv
# ---------------------------------------------------------------------------


def _line_digest(line):
    return hashlib.sha256(line.encode()).hexdigest()[:8]


def _describe_csv_diffs(line_digests, produced_bytes):
    """Rows of a produced CSV whose line digest differs from the golden one."""
    lines = produced_bytes.decode().splitlines()
    out = []
    if len(lines) != len(line_digests):
        out.append(f"{len(lines)} lines, the golden file has {len(line_digests)}")
    diffs = [line for line, digest in zip(lines, line_digests)
             if _line_digest(line) != digest]
    out.append(f"{len(diffs)} row(s) differ from the golden file:")
    out += [f"  {line}" for line in diffs]
    return "\n".join(out)


def test_csv_diff_report_names_every_row():
    golden = [_line_digest(line) for line in ("h", "1,a", "2,b")]
    assert _describe_csv_diffs(golden, b"h\n1,a\n2,c\n").splitlines() == [
        "1 row(s) differ from the golden file:",
        "  2,c",
    ]
    assert _describe_csv_diffs(golden, b"h\n1,a\n").splitlines()[0] \
        == "2 lines, the golden file has 3"


def _assert_golden_errors(report, golden_name, out_dir):
    # first line: SHA-256 of errors.csv; then the first 8 hex digits of the
    # SHA-256 of each of its lines, in order, to name the rows that moved
    golden = pathlib.Path(__file__).parent / "golden" / golden_name
    file_digest, *line_digests = golden.read_text().splitlines()
    export_report(report, out_dir)
    produced = (out_dir / "errors.csv").read_bytes()
    assert hashlib.sha256(produced).hexdigest() == file_digest.split()[0], \
        _describe_csv_diffs(line_digests, produced)


def test_golden_vortex_errors(tmp_path, vortex_report):
    _assert_golden_errors(vortex_report, "vortex_errors.sha256", tmp_path)


def test_golden_flat_errors(tmp_path, flat_report):
    _assert_golden_errors(flat_report, "flat_errors.sha256", tmp_path)


def test_golden_rigid_errors(tmp_path, rigid_report):
    _assert_golden_errors(rigid_report, "rigid_errors.sha256", tmp_path)

import hashlib
import json
import os
import pathlib
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vvlab import geometry as geo
from vvlab import study
from vvlab.errors import ConfigError, DegenerateFitError
from vvlab.euler import (
    LaurentProfile,
    ShearProfile,
    channel_base_flow,
    swirl_base_flow,
)
from vvlab.expansion import leray_project
from vvlab.spaces import VolumeField, VolumeGrid, parse_norm, volume_norm
from vvlab.study import (
    EulerSpec,
    LayerParams,
    NsParams,
    StudyConfig,
    export_report,
    fit_rate,
    get_preset,
    parse_config_file,
    remainder_norms,
    run_convergence_study,
    theory_slope,
    weaker_slope,
)

STUDY_SPECS = [parse_norm(s) for s in ("l2", "h1", "linf", "lp:4")]

RIGID_BANDS = {"l2": (0.70, 0.90), "h1": (0.20, 0.40),
               "linf": (0.45, 0.65), "lp:4": (0.57, 0.77)}


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
    ("swirl_poly:0.5,1.0,-0.2", ANNULUS_CFG, lambda geom: swirl_base_flow(
        LaurentProfile({0: 0.5, 1: 1.0, 2: -0.2}), geom)),
    ("shear_poly:0.2,1.0,-0.5", CHANNEL_CFG, lambda geom: channel_base_flow(
        ShearProfile(poly=(0.2, 1.0, -0.5), h=geom.h), geom)),
])
def test_poly_families_from_config_file(tmp_path, family, geometry, expected):
    cfg = _config_file(tmp_path, geometry, f"family = {family}")
    flow = cfg.euler.build(cfg.geometry)
    want = expected(cfg.geometry)
    assert flow.profile == want.profile
    coords = cfg.geometry.volume_grid(257)
    assert np.array_equal(flow.velocity(0.0, coords), want.velocity(0.0, coords))


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


def test_export_deterministic_bytes(tmp_path, vortex_report):
    export_report(vortex_report, tmp_path / "a")
    export_report(vortex_report, tmp_path / "b")
    for name in ("errors.csv", "rates.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_jobs_do_not_change_report_bytes(tmp_path):
    # small fast config: byte-identical errors.csv with and without workers
    cfg = StudyConfig(
        geometry=geo.annulus_gap(1.0, 2.0, eta=0.45),
        euler=EulerSpec(family="rigid", omega=1.0),
        layer=LayerParams(nz=128, dt=1e-3),
        ns=NsParams(n=256, dt=1e-3, t_end=0.2),
        nu_list=(1e-2, 1e-3, 1e-4),
        norms=("l2", "linf"),
        t_eval=(0.1, 0.2),
    )
    r1 = run_convergence_study(cfg, jobs=1)
    r2 = run_convergence_study(cfg, jobs=2)
    export_report(r1, tmp_path / "serial")
    export_report(r2, tmp_path / "par")
    assert (tmp_path / "serial" / "errors.csv").read_bytes() == \
        (tmp_path / "par" / "errors.csv").read_bytes()
    assert (tmp_path / "serial" / "rates.json").read_bytes() == \
        (tmp_path / "par" / "rates.json").read_bytes()


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

    def flaky(config, profile, nu):
        if nu == 3e-3:
            raise StepSizeError("synthetic failure")
        return real(config, profile, nu)

    monkeypatch.setattr(study_mod, "_solve_one_nu", flaky)
    with pytest.warns(UserWarning):
        report = run_convergence_study(cfg)
    assert list(report.meta["failed_rows"]) == [3e-3]
    assert len(report.norm_results["l2"]["rows"]) == 3

    def broken(config, profile, nu):
        if nu != 1e-2:
            raise StepSizeError("synthetic failure")
        return real(config, profile, nu)

    monkeypatch.setattr(study_mod, "_solve_one_nu", broken)
    with pytest.raises(SolverError), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_convergence_study(cfg)


_REAL_WORKER = study._worker
_DYING_NU = 3e-3
_DONE_DIR = None        # set before the pool forks its workers


def _worker_killed_at_one_nu(args):
    # a worker process that dies outright once the other four rows are
    # done; module level, so the pool can pickle it by reference
    nu = args[2]
    if nu != _DYING_NU:
        out = _REAL_WORKER(args)
        (_DONE_DIR / repr(nu)).touch()
        return out
    deadline = time.monotonic() + 60.0
    while len(os.listdir(_DONE_DIR)) < 4 and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(0.2)     # the last row's result leaves its worker
    os._exit(1)


def _worker_killed_at_all_but_one_nu(args):
    if args[2] != 1e-2:
        os._exit(1)
    return _REAL_WORKER(args)


def _pool_config(annulus):
    return StudyConfig(
        geometry=annulus,
        euler=EulerSpec(family="vortex"),
        layer=LayerParams(nz=64, dt=1e-3),
        ns=NsParams(n=128, dt=1e-3, t_end=0.2),
        nu_list=(1e-2, 3e-3, 1e-3, 3e-4, 1e-4),
        norms=("l2",),
        t_eval=(0.2,),
    )


def test_killed_worker_is_a_failed_row(monkeypatch, tmp_path, annulus):
    monkeypatch.setattr(sys.modules[__name__], "_DONE_DIR", tmp_path)
    monkeypatch.setattr(study, "_worker", _worker_killed_at_one_nu)
    with pytest.warns(UserWarning, match="nu=0.003"):
        report = run_convergence_study(_pool_config(annulus), jobs=2)
    assert list(report.meta["failed_rows"]) == [_DYING_NU]
    assert report.meta["failed_rows"][_DYING_NU].startswith("BrokenProcessPool: ")
    assert [nu for nu, _ in report.norm_results["l2"]["rows"]] == [
        1e-2, 1e-3, 3e-4, 1e-4]


def test_broken_pool_with_too_few_survivors_names_its_rows(monkeypatch, annulus):
    from vvlab.errors import SolverError

    monkeypatch.setattr(study, "_worker", _worker_killed_at_all_but_one_nu)
    with pytest.raises(SolverError, match="BrokenProcessPool"), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_convergence_study(_pool_config(annulus), jobs=2)


def test_non_package_error_fails_only_its_row(monkeypatch, annulus):
    import vvlab.study as study_mod

    cfg = StudyConfig(
        geometry=annulus,
        euler=EulerSpec(family="vortex"),
        layer=LayerParams(nz=64, dt=1e-3),
        ns=NsParams(n=128, dt=1e-3, t_end=0.2),
        nu_list=(1e-2, 3e-3, 1e-3, 3e-4, 1e-4),
        norms=("l2",),
        t_eval=(0.2,),
    )
    real = study_mod.solve_reference

    def singular(config, flow, nu):
        if nu == 1e-3:
            raise np.linalg.LinAlgError("synthetic singular matrix")
        return real(config, flow, nu)

    monkeypatch.setattr(study_mod, "solve_reference", singular)
    with pytest.warns(UserWarning, match="nu=0.001"):
        report = run_convergence_study(cfg)
    assert report.meta["failed_rows"] == {
        1e-3: "LinAlgError: synthetic singular matrix"}
    assert [nu for nu, _ in report.norm_results["l2"]["rows"]] == [
        1e-2, 3e-3, 3e-4, 1e-4]


def test_gradient_remainder_part_bounded(rigid_report):
    # Leray-complement part of the remainder: identically tangential flows
    # keep it at zero, the uniform-boundedness analogue trivially
    vals = [v for (_, _, _, v, part) in rigid_report.rows if part == "R:I-P"]
    assert max(vals) < 1e-12


def test_pressure_recovery(annulus):
    from vvlab.ns import radial_pressure_gradient, solve_ns

    sol = solve_ns(annulus, LaurentProfile({-1: 1.0}), nu=1e-2, n=256,
                   dt=1e-3, t_end=0.1, store_times=[0.1])
    dp = radial_pressure_gradient(sol, 0)
    assert np.allclose(dp, 1.0 / sol.coords**3, atol=1e-6)


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


def test_golden_rigid_rates(tmp_path, rigid_report):
    # byte comparison against the blessed first run
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / "rigid_rates.json"
    export_report(rigid_report, tmp_path)
    produced = (tmp_path / "rates.json").read_bytes()
    if not golden.exists():
        pytest.skip("golden file not generated yet")
    expected = golden.read_bytes()
    assert produced == expected, _describe_json_diffs(expected, produced)


# ---------------------------------------------------------------------------
# Leray split of the remainder: the mask shortcut and its explicit branch
# ---------------------------------------------------------------------------


def _split_norms(geom, coords, values):
    """Norms of R and of its leray_project parts, one volume_norm each."""
    vf = VolumeField(geom=geom, coords=coords, values=values)
    p_field, g_field = leray_project(vf)
    return {part: [volume_norm(f, spec) for spec in STUDY_SPECS]
            for part, f in (("full", vf), ("P", p_field), ("I-P", g_field))}


def test_vortex_leray_rows_follow_the_mask(vortex_report):
    rows = {(nu, t, label, part): v for nu, t, label, v, part in vortex_report.rows}
    full = [key[:3] for key in rows if key[3] == "R:full"]
    assert len(full) == 5 * 8 * 4
    for key in full:
        assert rows[key + ("R:P",)] == rows[key + ("R:full",)]
        assert repr(rows[key + ("R:I-P",)]) == "0.0"


@pytest.mark.parametrize("geom_name", ["channel", "annulus"])
def test_remainder_norms_split_a_normal_component(monkeypatch, request, geom_name):
    geom = request.getfixturevalue(geom_name)
    calls = []
    real = study.leray_project
    monkeypatch.setattr(study, "leray_project",
                        lambda vf: calls.append(vf) or real(vf))
    coords = geom.volume_grid(257)
    values = np.random.default_rng(3).normal(size=(3, 257))
    got = remainder_norms(VolumeGrid(geom, coords), values, STUDY_SPECS)
    assert len(calls) == 1                       # the explicit branch ran
    assert got == _split_norms(geom, coords, values)
    assert all(v > 0.0 for v in got["I-P"])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from([geo.FLAT_CHANNEL, geo.ANNULUS_GAP]),
       n=st.integers(3, 40), zero=st.sampled_from([0.0, -0.0]))
def test_mask_shortcut_equals_explicit_split(data, kind, n, zero):
    geom = geo.flat_channel(1.0, eta=0.45) if kind == geo.FLAT_CHANNEL \
        else geo.annulus_gap(1.0, 2.0, eta=0.45)
    values = data.draw(arrays(np.float64, (3, n), elements=st.floats(
        -1e6, 1e6, allow_nan=False, allow_infinity=False)))
    values[geom.normal_comp] = zero              # a tangential field
    coords = geom.volume_grid(n)
    got = remainder_norms(VolumeGrid(geom, coords), values, STUDY_SPECS)
    assert got == _split_norms(geom, coords, values)


# ---------------------------------------------------------------------------
# byte guard on the vortex errors.csv
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

"""Convergence-study driver: viscosity sweeps, rate fits, reports.

A study solves the layer once (it does not depend on the viscosity), then
for each viscosity solves the reference problem, assembles the ansatz,
and records sup-over-time error norms of u_nu - u0 and remainder norms.
Least-squares log-log fits of the error norms are compared against the
theoretical exponents

    l2 -> 3/4,   h1 -> 1/4,   linf -> 1/2,   lp:p -> 1/2 + 1/(2p),

with pass margins slope >= theory - 0.05 (slopes above theory + 0.15 are
flagged superconvergent, not failed: the theory proves upper bounds).  A
weaker interpolation-based comparison exponent 3/10 + 9/(10 p) is reported
alongside for the lp family.

Everything is deterministic: identical configs produce byte-identical
errors.csv and rates.json regardless of the worker count (run_meta.json
carries wall time and is excluded from that guarantee).
"""

from __future__ import annotations

import configparser
import json
import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field

import numpy as np

from . import geometry as geo
from .errors import ConfigError, DegenerateFitError, SolverError
from .euler import (
    BaseFlow,
    LaurentProfile,
    ShearProfile,
    channel_base_flow,
    potential_vortex,
    rigid_rotation,
    swirl_base_flow,
)
from .expansion import assemble_ansatz, extract_remainder, leray_project
from .layer import LayerProfile, solve_layer
from .ns import ViscousSolution, solve_ns, time_index
from .spaces import DEFAULT_ZMAX, FastGrid, VolumeField, VolumeGrid, parse_norm

EXACT_REGIME_THRESHOLD = 1e-8
PASS_MARGIN_LOW = 0.05
PASS_MARGIN_HIGH = 0.15


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class EulerSpec:
    """A steady base-flow family: rigid, vortex, swirl_poly:c0,c1,...,
    shear_poly:c0,c1,... or shear_cos."""

    family: str
    omega: float = 1.0
    circulation: float = 1.0

    def build(self, geom: geo.GeometryDescriptor) -> BaseFlow:
        fam = self.family
        if fam == "rigid":
            return rigid_rotation(self.omega, geom)
        if fam == "vortex":
            return potential_vortex(self.circulation, geom)
        if fam.startswith("swirl_poly"):
            coeffs = _parse_inline_coeffs(fam)
            return swirl_base_flow(LaurentProfile(dict(enumerate(coeffs))), geom)
        if fam.startswith("shear_poly"):
            coeffs = _parse_inline_coeffs(fam)
            return channel_base_flow(ShearProfile(poly=coeffs, h=geom.h), geom)
        if fam == "shear_cos":
            return channel_base_flow(
                ShearProfile(cosines=((self.omega, 1),), h=geom.h), geom)
        raise ConfigError(f"unknown euler family {fam!r}")


def _parse_inline_coeffs(family: str) -> tuple:
    if ":" not in family:
        raise ConfigError(f"family {family!r} needs inline coefficients")
    try:
        return tuple(float(v) for v in family.split(":", 1)[1].split(","))
    except ValueError as exc:
        raise ConfigError(f"family {family!r}: {exc}") from exc


@dataclass
class LayerParams:
    """The layer march runs to the last evaluation time, max(t_eval)."""

    nz: int = 512
    zmax: float | None = None       # None -> automatic truncation height
    dt: float = 1e-4


@dataclass
class NsParams:
    n: int = 2048
    dt: float = 2.5e-5
    t_end: float = 0.5
    nu: float | None = None         # standalone solves only


@dataclass
class StudyConfig:
    geometry: geo.GeometryDescriptor
    euler: EulerSpec
    layer: LayerParams = field(default_factory=LayerParams)
    ns: NsParams = field(default_factory=NsParams)
    nu_list: tuple = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
    norms: tuple = ("l2", "h1", "linf", "lp:4")
    t_eval: tuple | None = None     # None -> 8 times k*T/8
    output_dir: str = "out"
    preset_name: str = ""
    exact_regime_expected: bool = False

    def __post_init__(self):
        nus = tuple(float(v) for v in self.nu_list)
        if len(nus) < 3:
            raise ConfigError("nu_list needs at least 3 values")
        if any(b >= a for a, b in zip(nus, nus[1:])):
            raise ConfigError("nu_list must be strictly decreasing")
        if math.log10(nus[0] / nus[-1]) < 2.0 - 1e-9:
            raise ConfigError("nu_list must span at least two decades")
        if nus[0] > (self.geometry.eta / 4.0) ** 2 + 1e-15:
            raise ConfigError("max(nu_list) must be <= (eta/4)^2")
        self.nu_list = nus
        specs = [parse_norm(label) for label in self.norms]
        if any(spec.kind == "aniso" for spec in specs):
            raise ConfigError(
                "study norms act on volume fields; aniso norms belong to "
                "the layer monitor")
        # canonical labels, so "lp:4.0" keys the same rows and criteria as "lp:4"
        self.norms = tuple(spec.label for spec in specs)
        if len(set(self.norms)) < len(self.norms):
            raise ConfigError(f"duplicate study norms {self.norms}")
        if self.t_eval is None:
            t = self.ns.t_end
            self.t_eval = tuple(t * k / 8.0 for k in range(1, 9))
        else:
            self.t_eval = tuple(float(v) for v in self.t_eval)
            # t = 0 is degenerate; past t_end the reference solve stores nothing
            if not self.t_eval or min(self.t_eval) <= 0 \
                    or max(self.t_eval) > self.ns.t_end * (1.0 + 1e-9):
                raise ConfigError(
                    f"t_eval {self.t_eval} needs times in (0, t_end] with "
                    f"the reference solve's t_end = {self.ns.t_end}")


def parse_config_file(path) -> StudyConfig:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not found")
    try:
        g = cp["geometry"]
        if g.get("kind") == geo.FLAT_CHANNEL:
            geom = geo.flat_channel(h=g.getfloat("h"), eta=g.getfloat("eta"))
        elif g.get("kind") == geo.ANNULUS_GAP:
            geom = geo.annulus_gap(r1=g.getfloat("r1"), r2=g.getfloat("r2"),
                                   eta=g.getfloat("eta"))
        else:
            raise ConfigError(f"unknown geometry kind {g.get('kind')!r}")

        e = cp["euler"]
        espec = EulerSpec(
            family=e.get("family"),
            omega=e.getfloat("omega", fallback=1.0),
            circulation=e.getfloat("circulation", fallback=1.0),
        )

        lp = LayerParams()
        if cp.has_section("layer"):
            sec = cp["layer"]
            lp = LayerParams(
                nz=sec.getint("nz", fallback=lp.nz),
                zmax=None if sec.get("zmax", fallback="auto") in ("auto", "")
                else sec.getfloat("zmax"),
                dt=sec.getfloat("dt", fallback=lp.dt),
            )
        npar = NsParams()
        if cp.has_section("ns"):
            sec = cp["ns"]
            n = sec.getint("nr", fallback=0) or sec.getint("ny", fallback=0) \
                or sec.getint("n", fallback=npar.n)
            npar = NsParams(
                n=n,
                dt=sec.getfloat("dt", fallback=npar.dt),
                t_end=sec.getfloat("t_end", fallback=npar.t_end),
                nu=sec.getfloat("nu", fallback=0.0) or None,
            )
        s = cp["study"] if cp.has_section("study") else {}
        nu_list = tuple(
            float(v) for v in s.get("nu_list", "1e-2,3e-3,1e-3,3e-4,1e-4").split(","))
        norms = tuple(v.strip() for v in s.get("norms", "l2,h1,linf,lp:4").split(","))
        t_eval_raw = s.get("t_eval", "auto")
        t_eval = None if t_eval_raw.strip() == "auto" else tuple(
            float(v) for v in t_eval_raw.split(","))
        out = s.get("output_dir", "out")
        return StudyConfig(geometry=geom, euler=espec, layer=lp, ns=npar,
                           nu_list=nu_list, norms=norms, t_eval=t_eval,
                           output_dir=out)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad config file {path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def preset_rigid_annulus() -> StudyConfig:
    return StudyConfig(
        geometry=geo.annulus_gap(1.0, 2.0, eta=0.45),
        euler=EulerSpec(family="rigid", omega=1.0),
        layer=LayerParams(nz=512, dt=1e-4),
        ns=NsParams(n=2048, dt=2.5e-5, t_end=0.5),
        nu_list=(1e-2, 3e-3, 1e-3, 3e-4, 1e-4),
        norms=("l2", "h1", "linf", "lp:4"),
        preset_name="rigid-annulus",
    )


def preset_vortex_annulus() -> StudyConfig:
    # steady exact regime: large CN steps are fine, resolution keeps the
    # discrete wall-condition defect (the only error source) at round-off scale
    return StudyConfig(
        geometry=geo.annulus_gap(1.0, 2.0, eta=0.45),
        euler=EulerSpec(family="vortex", circulation=1.0),
        layer=LayerParams(nz=256, dt=6.25e-3),
        ns=NsParams(n=65536, dt=6.25e-3, t_end=0.5),
        nu_list=(1e-2, 3e-3, 1e-3, 3e-4, 1e-4),
        norms=("l2", "h1", "linf", "lp:4"),
        preset_name="vortex-annulus",
        exact_regime_expected=True,
    )


def preset_flat_shear() -> StudyConfig:
    return StudyConfig(
        geometry=geo.flat_channel(1.0, eta=0.45),
        euler=EulerSpec(family="shear_cos", omega=1.0),
        layer=LayerParams(nz=256, dt=5e-4),
        ns=NsParams(n=2048, dt=1e-4, t_end=0.5),
        nu_list=(1e-2, 3e-3, 1e-3, 3e-4, 1e-4),
        norms=("l2", "h1", "linf", "lp:4"),
        preset_name="flat-shear",
    )


PRESETS = {
    "rigid-annulus": preset_rigid_annulus,
    "vortex-annulus": preset_vortex_annulus,
    "flat-shear": preset_flat_shear,
}


def get_preset(name: str) -> StudyConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    return PRESETS[name]()


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------


def fit_rate(pairs):
    """Ordinary least squares on (log nu, log error).

    Returns (slope, intercept, r_squared).  A non-finite error refuses the
    fit, naming its viscosities.  Nonpositive errors are dropped with a
    warning when positive ones remain; if everything sits below 1e-14 the
    fit is refused as degenerate.
    """
    pairs = [(float(a), float(b)) for a, b in pairs]
    if len(pairs) < 3:
        raise ConfigError("rate fit needs at least 3 (nu, error) pairs")
    bad = [nu for nu, e in pairs if not math.isfinite(e)]
    if bad:
        raise DegenerateFitError(f"non-finite error at nu = {bad}")
    if all(abs(e) < 1e-14 for _, e in pairs):
        raise DegenerateFitError("all errors at round-off level")
    kept = [(nu, e) for nu, e in pairs if e > 0.0]
    if len(kept) < len(pairs):
        warnings.warn(f"dropped {len(pairs) - len(kept)} nonpositive error rows")
    if len(kept) < 2:
        raise DegenerateFitError("fewer than 2 positive error rows")
    x = np.log(np.array([nu for nu, _ in kept]))
    y = np.log(np.array([e for _, e in kept]))
    xm = x.mean()
    ym = y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = ym - slope * xm
    ss_tot = float(np.sum((y - ym) ** 2))
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, float(intercept), float(r2)


def theory_slope(norm_label: str):
    spec = parse_norm(norm_label)
    if spec.kind == "h1":
        return 0.25
    if spec.kind == "linf":
        return 0.5
    if spec.kind == "lp":
        return 0.5 + 0.5 / spec.p
    return None


def weaker_slope(norm_label: str):
    """Interpolation-based comparison exponent 3/10 + 9/(10 p)."""
    spec = parse_norm(norm_label)
    if spec.kind == "lp":
        return 0.3 + 0.9 / spec.p
    if spec.kind == "linf":
        return 0.3
    return None


# ---------------------------------------------------------------------------
# the study itself
# ---------------------------------------------------------------------------


@dataclass
class RateReport:
    preset_name: str
    exact_regime: bool
    norm_results: dict              # label -> dict with rows/slope/...
    remainder: dict
    rows: list                      # (nu, t, norm, value, part)
    meta: dict


def solve_study_layer(config: StudyConfig, flow=None) -> LayerProfile:
    """Layer solve shared by every viscosity row (the system is nu free).

    The march is causal, so it stops at the last evaluation time.  The
    ansatz needs u_b only; the pressure corrector is left to callers that
    ask for it (layer.pressure_corrector_q).
    """
    flow = flow or config.euler.build(config.geometry)
    grid = FastGrid(nz=config.layer.nz,
                    zmax=config.layer.zmax or DEFAULT_ZMAX)
    return solve_layer(flow, config.geometry, grid,
                       dt=config.layer.dt, t_end=max(config.t_eval),
                       store_times=config.t_eval)


def solve_reference(config: StudyConfig, flow: BaseFlow, nu: float) -> ViscousSolution:
    """Viscous reference solve at ``nu`` from the base flow's profile, the
    one form of u0 it takes: swirl in the annulus, shear in the channel,
    stored at ``config.t_eval``."""
    return solve_ns(config.geometry, flow.profile, nu, n=config.ns.n,
                    dt=config.ns.dt, t_end=config.ns.t_end,
                    store_times=config.t_eval)


def remainder_norms(grid: VolumeGrid, values: np.ndarray, specs) -> dict:
    """Norms of R and of its Leray parts, keyed "full", "P" and "I-P".

    leray_project moves only the wall-normal component into the gradient
    part.  When that component of R is all zero, P R equals R (up to the
    sign of those zeros, which no norm sees) and (I - P) R is the zero
    field, so the "P" norms are R's own and every "I-P" norm is exactly
    0.0; neither field is formed.  This holds for every studied flow: they
    are tangential and solve_ns keeps the normal component exactly zero.
    Otherwise the split is computed.
    """
    full = grid.norms(values, specs)
    if not np.any(values[grid.geom.normal_comp]):
        return {"full": full, "P": full, "I-P": [0.0] * len(specs)}
    p_field, g_field = leray_project(
        VolumeField(geom=grid.geom, coords=grid.coords, values=values))
    return {"full": full, "P": grid.norms(p_field.values, specs),
            "I-P": grid.norms(g_field.values, specs)}


def _solve_one_nu(config: StudyConfig, profile: LayerProfile, nu: float):
    """Rows for a single viscosity: velocity-error and remainder norms."""
    geom = config.geometry
    flow = config.euler.build(geom)
    sol = solve_reference(config, flow, nu)
    bundle = assemble_ansatz(flow, profile, geom, nu, sol.coords,
                             times=np.asarray(config.t_eval))
    rem = extract_remainder(sol, bundle)
    grid = VolumeGrid(geom, sol.coords)
    rows = []
    specs = [parse_norm(s) for s in config.norms]
    for jt, t in enumerate(bundle.times):
        t = float(t)
        diff = sol.values[time_index(sol.times, t)] - bundle.u0_part[jt]
        for spec, value in zip(specs, grid.norms(diff, specs)):
            rows.append((nu, t, spec.label, value, "u"))
        rem_norms = remainder_norms(grid, rem.values[jt], specs)
        for k, spec in enumerate(specs):
            for part in ("full", "P", "I-P"):
                rows.append((nu, t, spec.label, rem_norms[part][k], f"R:{part}"))
    return rows


def _worker(args):
    """One viscosity row; any exception becomes a failed row naming its
    type, so one bad row cannot abort the study."""
    config, profile, nu = args
    try:
        return nu, _solve_one_nu(config, profile, nu), None
    except Exception as exc:
        return nu, None, f"{type(exc).__name__}: {exc}"


def run_convergence_study(config: StudyConfig, jobs: int = 1) -> RateReport:
    t0 = time.perf_counter()
    flow = config.euler.build(config.geometry)
    profile = solve_study_layer(config, flow)

    results = {}
    failures = {}
    if jobs > 1:
        outcomes = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [(nu, pool.submit(_worker, (config, profile, nu)))
                       for nu in config.nu_list]
            for nu, fut in futures:
                # a worker killed outright breaks the pool and fails every
                # row not yet finished; each becomes a failed row
                try:
                    outcomes.append(fut.result())
                except BrokenProcessPool as exc:
                    outcomes.append((nu, None, f"BrokenProcessPool: {exc}"))
    else:
        outcomes = (_worker((config, profile, nu)) for nu in config.nu_list)
    for nu, rows, err in outcomes:
        if err is None:
            results[nu] = rows
        else:
            failures[nu] = err
            warnings.warn(f"viscosity row nu={nu} aborted: {err}")
    survivors = [nu for nu in config.nu_list if nu in results]
    if len(survivors) < 3:
        raise SolverError(
            f"study failed: only {len(survivors)} viscosity rows survived "
            f"(failures: {failures})")

    all_rows = []
    for nu in survivors:                           # fixed order: as configured
        all_rows.extend(results[nu])

    sup_err = {label: [] for label in config.norms}
    sup_rem = {label: [] for label in config.norms}
    for nu in survivors:
        for label in config.norms:
            vals_u = [v for (n_, t_, lab, v, part) in results[nu]
                      if lab == label and part == "u"]
            vals_r = [v for (n_, t_, lab, v, part) in results[nu]
                      if lab == label and part == "R:full"]
            sup_err[label].append((nu, max(vals_u)))
            sup_rem[label].append((nu, max(vals_r)))

    exact = all(v < EXACT_REGIME_THRESHOLD
                for rows in sup_err.values() for _, v in rows)

    norm_results = {}
    for label in config.norms:
        rows = sup_err[label]
        entry = {
            "rows": [[nu, v] for nu, v in rows],
            "theory": theory_slope(label),
            "weaker": weaker_slope(label),
        }
        vals = [v for _, v in rows]
        decreasing_ok = all(
            b <= a * 1.05 for a, b in zip(vals, vals[1:]))
        entry["monotone_ok"] = bool(decreasing_ok)
        if exact:
            entry["status"] = "exact regime, no fit"
        else:
            slope, intercept, r2 = fit_rate(rows)
            entry.update(slope=slope, intercept=intercept, r2=r2)
            th = entry["theory"]
            if th is None:
                entry["status"] = "reported"
                entry["superconvergent"] = False
            else:
                ok = slope >= th - PASS_MARGIN_LOW
                entry["superconvergent"] = bool(slope > th + PASS_MARGIN_HIGH)
                entry["status"] = "pass" if ok else "fail"
        norm_results[label] = entry

    remainder = {}
    if "lp:4" in sup_rem:
        vals = [v for _, v in sup_rem["lp:4"]]
        remainder["lp4_sup"] = [[nu, v] for nu, v in sup_rem["lp:4"]]
        if min(vals) > 0:
            remainder["lp4_ratio_max_min"] = max(vals) / min(vals)
        increasing = all(b > a for a, b in zip(vals, vals[1:]))
        remainder["lp4_monotone_growth"] = bool(increasing)
    if "h1" in sup_rem:
        scaled = [[nu, v * math.sqrt(nu)] for nu, v in sup_rem["h1"]]
        remainder["h1_times_sqrt_nu"] = scaled
        svals = [v for _, v in scaled]
        remainder["h1_scaled_bounded"] = bool(
            max(svals) <= 1.5 * svals[0] + 1e-12) if svals else True

    meta = {
        "preset": config.preset_name,
        "geometry": asdict(config.geometry),
        "euler_family": config.euler.family,
        "nu_list": list(config.nu_list),
        "norms": list(config.norms),
        "t_eval": list(config.t_eval),
        "ns_n": config.ns.n,
        "ns_dt": config.ns.dt,
        "layer_nz": config.layer.nz,
        "layer_dt": config.layer.dt,
        "failed_rows": failures,
        "wall_time_s": time.perf_counter() - t0,
    }
    return RateReport(preset_name=config.preset_name, exact_regime=exact,
                      norm_results=norm_results, remainder=remainder,
                      rows=all_rows, meta=meta)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def export_report(report: RateReport, out_dir) -> list:
    """Write errors.csv, rates.json, run_meta.json; return the paths.

    errors.csv carries both the velocity-error rows (part = "u") and the
    appended remainder rows (part = R:full / R:P / R:I-P).  Floats are
    rendered with repr, so identical studies give identical bytes; the wall
    time lives only in run_meta.json, which is excluded from that promise.
    """
    import os

    import scipy

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "errors.csv")
    lines = ["nu,t,norm,value,part"]
    for nu, t, label, value, part in report.rows:
        lines.append(f"{nu!r},{t!r},{label},{value!r},{part}")
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    rates_path = os.path.join(out_dir, "rates.json")
    payload = {
        "preset": report.preset_name,
        "exact_regime": report.exact_regime,
        "norms": report.norm_results,
        "remainder": report.remainder,
    }
    meta_path = os.path.join(out_dir, "run_meta.json")
    meta = dict(report.meta)
    meta["versions"] = {"numpy": np.__version__, "scipy": scipy.__version__}
    for path, doc in ((rates_path, payload), (meta_path, meta)):
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return [csv_path, rates_path, meta_path]

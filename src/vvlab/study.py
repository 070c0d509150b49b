"""Convergence-study driver: viscosity sweeps, rate fits, reports.

A study builds what does not depend on the viscosity once, the layer and
its one spline fit per wall included (``StudySetup``), then solves the
reference problem for a group of viscosities at a time in one joint
march, each core taking an equal share of the viscosity-steps in a
process of its own (``study_parts``, ``run_forked``: a viscosity cut
between two cores marches in two pieces, its iterate handed across), and
for each viscosity assembles the ansatz and records sup-over-time error
norms of u_nu - u0 and remainder norms.  ``run_forked`` also runs the
invariant suite (checks.py) on every core.
Both fields are the flow's one component, ``geometry.flow_comp``: the
tangential R is its own Leray part (R:P = R:full) and its gradient part
R:I-P is exactly 0.
Least-squares log-log fits of the error norms are compared against the
theoretical exponents

    l2 -> 3/4,   h1 -> 1/4,   linf -> 1/2,   lp:p -> 1/2 + 1/(2p),

with pass margins slope >= theory - 0.05 (slopes above theory + 0.15 are
flagged superconvergent, not failed: the theory proves upper bounds).  A
weaker interpolation-based comparison exponent 3/10 + 9/(10 p) is reported
alongside for the lp family.

Everything is deterministic: identical configs produce byte-identical
errors.csv and rates.json regardless of the number of cores (run_meta.json
carries wall time and is excluded from that guarantee).
"""

from __future__ import annotations

import configparser
import json
import math
import mmap
import os
import pickle
import signal
import time
import warnings
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import geometry as geo
from .errors import ConfigError, DegenerateFitError, SolverError
from .euler import (
    LaurentProfile,
    ShearProfile,
    potential_vortex,
    rigid_rotation,
    steady_base_flow,
)
from .expansion import assemble_ansatz
from .layer import LayerProfile, solve_layer
from .ns import (
    ReferenceSetup,
    _resolve_store_steps,
    group_size,
    reference_setup,
    time_index,
)
from .spaces import DEFAULT_ZMAX, FastGrid, VolumeGrid, parse_norm

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

    def build(self, geom: geo.GeometryDescriptor) -> LaurentProfile | ShearProfile:
        fam = self.family
        if fam == "rigid":
            return rigid_rotation(self.omega, geom)
        if fam == "vortex":
            return potential_vortex(self.circulation, geom)
        if fam.startswith("swirl_poly"):
            coeffs = _parse_inline_coeffs(fam)
            return steady_base_flow(LaurentProfile(dict(enumerate(coeffs))), geom)
        if fam.startswith("shear_poly"):
            coeffs = _parse_inline_coeffs(fam)
            return steady_base_flow(ShearProfile(poly=coeffs, h=geom.h), geom)
        if fam == "shear_cos":
            return steady_base_flow(
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

    def __post_init__(self):
        if self.nu is not None and not 0 < self.nu < math.inf:
            raise ConfigError(f"ns nu must be positive and finite, got {self.nu}")


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
        bad = [v for v in nus if not 0 < v < math.inf]
        if bad:
            raise ConfigError(f"nu_list values must be finite and positive, got {bad}")
        if any(b >= a for a, b in zip(nus, nus[1:])):
            raise ConfigError("nu_list must be strictly decreasing")
        if math.log10(nus[0] / nus[-1]) < 2.0 - 1e-9:
            raise ConfigError("nu_list must span at least two decades")
        if nus[0] > (self.geometry.eta / 4.0) ** 2 + 1e-15:
            raise ConfigError("max(nu_list) must be <= (eta/4)^2")
        self.nu_list = nus
        specs = [parse_norm(label) for label in self.norms]
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


def _required(sec, key: str, cast=float):
    """The value of ``key`` in config section ``sec``; a missing key is a
    ConfigError naming it."""
    if key not in sec:
        raise ConfigError(f"config section [{sec.name}] needs a {key!r} key")
    return cast(sec[key])


def parse_config_file(path) -> StudyConfig:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not found")
    try:
        g = cp["geometry"]
        if g.get("kind") == geo.FLAT_CHANNEL:
            geom = geo.flat_channel(h=_required(g, "h"), eta=_required(g, "eta"))
        elif g.get("kind") == geo.ANNULUS_GAP:
            geom = geo.annulus_gap(r1=_required(g, "r1"), r2=_required(g, "r2"),
                                   eta=_required(g, "eta"))
        else:
            raise ConfigError(f"unknown geometry kind {g.get('kind')!r}")

        e = cp["euler"]
        espec = EulerSpec(
            family=_required(e, "family", str),
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
            # the first key that is set, so an explicit 0 reaches reference_setup
            n = next((sec.getint(k) for k in ("nr", "ny", "n") if k in sec), npar.n)
            npar = NsParams(
                n=n,
                dt=sec.getfloat("dt", fallback=npar.dt),
                t_end=sec.getfloat("t_end", fallback=npar.t_end),
                nu=sec.getfloat("nu", fallback=None),
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


def theory_slope(norm_label: str) -> float:
    spec = parse_norm(norm_label)
    if spec.kind == "h1":
        return 0.25
    if spec.kind == "linf":
        return 0.5
    return 0.5 + 0.5 / spec.p


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


def solve_study_layer(config: StudyConfig, u0_profile=None) -> LayerProfile:
    """Layer solve shared by every viscosity row (the system is nu free).

    The march is causal, so it stops at the last evaluation time.  The
    ansatz needs u_b only.
    """
    u0_profile = u0_profile or config.euler.build(config.geometry)
    zmax = config.layer.zmax
    grid = FastGrid(nz=config.layer.nz,
                    zmax=DEFAULT_ZMAX if zmax is None else zmax)
    return solve_layer(u0_profile, config.geometry, grid,
                       dt=config.layer.dt, t_end=max(config.t_eval),
                       store_times=config.t_eval)


@dataclass(eq=False)
class StudySetup:
    """Everything a study's viscosity rows share, made once per study by
    ``study_setup``: the solved layer with each wall's one spline fit, the
    viscosity-free part of the reference solve (``ns.ReferenceSetup``: the
    grid, u0 on it, the drive L(u0), the symmetrised operator and the
    march's arrays), one ``VolumeGrid`` of the norms and their parsed specs,
    the row's (n,) buffer and the norms' (4, n) scratch.  A group keeps only
    the work that depends on nu, and reuses the arrays of the group before
    it; a part in a forked worker marches on its copy-on-write copy of them
    (``run_forked``)."""

    config: StudyConfig
    layer: LayerProfile
    ref: ReferenceSetup
    grid: VolumeGrid
    specs: list                     # the parsed config.norms
    row: np.ndarray                 # u - u0, then R, one time at a time
    scratch: np.ndarray             # the norms' intermediates


def study_setup(config: StudyConfig) -> StudySetup:
    """The viscosity-free set-up of ``config``'s rows, from one build of the
    base flow's profile: the layer (``solve_study_layer``), the reference
    solve from the one form of u0 it takes (swirl in the annulus, shear in
    the channel), stored at ``config.t_eval``, with the march's arrays for a
    group of the whole ``nu_list``, at most ``ns.group_size``, and the
    norms' grid."""
    u0_profile = config.euler.build(config.geometry)
    ref = reference_setup(config.geometry, u0_profile, n=config.ns.n,
                          dt=config.ns.dt, t_end=config.ns.t_end,
                          store_times=config.t_eval, group=len(config.nu_list))
    # the row buffer is the march's scratch array, free at each store
    return StudySetup(config=config, layer=solve_study_layer(config, u0_profile),
                      ref=ref, grid=VolumeGrid(config.geometry, ref.coords),
                      specs=[parse_norm(s) for s in config.norms],
                      row=ref.work[1][:config.ns.n],
                      scratch=np.empty((4, config.ns.n)))


class March(NamedTuple):
    """One reference march of a part: the viscosities ``nus``, marched
    together from step ``start`` to step ``stop``."""

    nus: tuple
    start: int
    stop: int


def usable_cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_worker(i: int, work, go: tuple):
    """Fork worker ``i`` of ``run_forked``: it sends its pid down a pipe of
    its own, waits for the end of the ``go`` pipe (read end, write end),
    which comes once every worker is forked, then runs ``work(i, send)``;
    return (pid, the pipe's read stream), or None when no worker starts."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except (OSError, DeprecationWarning):
        # under -W error Python >= 3.12 raises its warning against forking a
        # multi-threaded process once the child exists: the child names
        # itself and is ended before it may start
        os.close(write)
        with os.fdopen(read, "rb") as stream:
            try:
                pid = pickle.load(stream)
            except EOFError:
                return None
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read)
            os.close(go[1])
            with os.fdopen(write, "wb") as out:
                def send(record):
                    pickle.dump(record, out)
                    out.flush()

                send(os.getpid())
                os.read(go[0], 1)
                work(i, send)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, os.fdopen(read, "rb")


def _records(stream) -> list:
    """The records a worker sent after its pid, up to the end of its pipe."""
    records = []
    with stream:
        try:
            pickle.load(stream)                      # the worker's pid
            while True:
                records.append(pickle.load(stream))
        except (EOFError, pickle.UnpicklingError):
            return records


def _died(status: int) -> str:
    """A worker's wait ``status`` in words."""
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        return f"its worker was killed by signal {-code}"
    return f"its worker exited with status {code}"


def run_forked(count: int, work, here):
    """Run ``work(i, send)`` in a worker forked for each i in 1, ...,
    count - 1, then ``here(forked)`` in this process, ``forked`` the i that
    have a worker; return here's value and {i: (records, wait status)} of
    each worker.  ``send(record)`` pickles a record down the worker's pipe,
    read once ``here`` returns, so a worker that dies leaves those it sent.
    No worker starts before every one is forked, and forking stops at the
    first that cannot start (``_fork_worker``).  A worker exits with status
    0 once ``work`` returns; every worker is reaped before this returns or
    raises, and killed first if ``here`` raises.
    """
    go = os.pipe()
    workers, statuses = {}, {}
    try:
        try:
            for i in range(1, count):
                worker = _fork_worker(i, work, go)
                if worker is None:
                    break
                workers[i] = worker
        finally:
            os.close(go[1])
        value = here(set(workers))
        records = {i: _records(stream) for i, (_, stream) in workers.items()}
    except BaseException:
        for pid, _ in workers.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(go[0])
        for i, (pid, stream) in workers.items():
            stream.close()
            statuses[i] = os.waitpid(pid, 0)[1]
    return value, {i: (records[i], statuses[i]) for i in workers}


def study_parts(config: StudyConfig, cores: int | None = None) -> list:
    """The parts of a study, one process each, as lists of ``March``: an
    equal share of the study's viscosity-steps for each of c = min(cores,
    m) parts (by default ``usable_cores()``).

    The m viscosities lie end to end as m N viscosity-steps, N the last
    store step, and the line is cut at the step nearest each j m N / c, so
    every part's share is within one step of m N / c and nothing is cut
    when c divides m (McNaughton's wrap-around rule).  A cut inside a
    viscosity splits its march at step k into two pieces, each marched
    alone: [0, k), first of all its part's work, and [k, N], last of all
    the next part's, which resumes from the first's iterate.  A part's whole
    viscosities march in the fewest groups of at most ``ns.group_size``,
    whose sizes differ by at most one, the larger first."""
    if cores is None:
        cores = usable_cores()
    nus, size = config.nu_list, group_size(config.ns.n)
    n_steps = _resolve_store_steps(config.ns.dt, config.ns.t_end, config.t_eval)[-1]
    c = min(cores, len(nus))
    cuts = [(2 * j * len(nus) * n_steps + c) // (2 * c) for j in range(c + 1)]
    parts = []
    for lo, hi in zip(cuts, cuts[1:]):
        whole = nus[-(-lo // n_steps):hi // n_steps]
        part = [March(tuple(g.tolist()), 0, n_steps) for g in
                np.array_split(whole, -(-len(whole) // size))] if whole else []
        if hi % n_steps:
            part.insert(0, March((nus[hi // n_steps],), 0, hi % n_steps))
        if lo % n_steps:
            part.append(March((nus[lo // n_steps],), lo % n_steps, n_steps))
        parts.append(part)
    return parts


def _solve_one_nu(setup: StudySetup, nu: float, u: np.ndarray, t: float,
                  u_approx: np.ndarray) -> list:
    """Rows for the viscosity ``nu`` at the time ``t`` of one store, with
    ``u`` its reference solution there, an (n,) row of the store's block,
    and ``u_approx`` the ansatz there: velocity-error and remainder norms.

    u - u0, then R, is written into the set-up's (n,) buffer of the flow
    component.  R is tangential, so its "P" norms are its own and its "I-P"
    norms are 0.0.
    """
    row, specs = setup.row, setup.specs
    rows = []
    np.subtract(u, setup.ref.u0, out=row)
    for spec, value in zip(specs, setup.grid.norms(row, specs, setup.scratch)):
        rows.append((nu, t, spec.label, value, "u"))
    np.subtract(u, u_approx, out=row)
    row /= nu
    for spec, value in zip(specs, setup.grid.norms(row, specs, setup.scratch)):
        for part, v in (("full", value), ("P", value), ("I-P", 0.0)):
            rows.append((nu, t, spec.label, v, f"R:{part}"))
    return rows


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _group_rows(setup: StudySetup, nus, stop=None, resume=None,
                handoff=None) -> list:
    """One march group's rows, (nu, rows, error) per viscosity in order,
    where rows holds the rows at each evaluation time, None at a time the
    march does not store.

    Each viscosity's ansatz is assembled first, at every evaluation time;
    the march keeps no history, and the rows at a stored time are taken as
    it reaches it.  Any exception becomes a failed row naming its
    type, so one bad row cannot abort the study.  A group whose joint march
    fails (a non-finite value crosses the joins) re-marches its viscosities
    one at a time, so only the row at fault fails.  ``stop`` and ``resume``
    march a piece of a cut viscosity alone (``ReferenceSetup.solve``); a
    first piece copies its iterate into ``handoff``, an (n,) array."""
    ref, t_eval = setup.ref, setup.config.t_eval
    store_of = [time_index(ref.times, t) for t in t_eval]
    rows = {nu: [None] * len(t_eval) for nu in nus}
    approx = {}
    failed = {}
    for nu in nus:
        try:
            approx[nu] = assemble_ansatz(ref.u0, setup.layer, nu, ref.coords,
                                         times=t_eval)
        except Exception as exc:
            failed[nu] = _failure(exc)

    def each(i, u):
        for nu, u_nu in zip(nus, u):
            if nu in failed:
                continue
            try:
                for jt, t in enumerate(t_eval):
                    if store_of[jt] == i:
                        rows[nu][jt] = _solve_one_nu(setup, nu, u_nu, t,
                                                     approx[nu][jt])
            except Exception as exc:
                failed[nu] = _failure(exc)

    try:
        iterate = ref.solve(nus, each, resume=resume, stop=stop)
    except Exception as exc:
        if len(nus) == 1:
            return [(nus[0], None, _failure(exc))]
        return [out for nu in nus for out in _group_rows(setup, (nu,))]
    if handoff is not None:
        handoff[...] = iterate
    return [(nu, None, failed[nu]) if nu in failed else (nu, rows[nu], None)
            for nu in nus]


class _Handoff:
    """A cut viscosity's march at the cut, from the process that marches its
    first piece, in part ``first``, to the one that marches its second: the
    kernel's iterate, in memory mapped before the fork, and the first
    piece's error or None, pickled down a pipe.  Only the first piece's
    process keeps the pipe's write end, so if it ends without sending, the
    second piece reads the end of the pipe and fails without marching."""

    def __init__(self, n: int, first: int):
        self.iterate, self.first = np.frombuffer(mmap.mmap(-1, 8 * n)), first
        read, write = os.pipe()
        self.read, self.write = os.fdopen(read, "rb"), os.fdopen(write, "wb")


def _march_rows(setup: StudySetup, march: March, handoff: _Handoff | None) -> list:
    """The rows of one march of a part (``study_parts``), as
    ``_group_rows``.  A cut viscosity's first piece hands its iterate and
    its error across in ``handoff``, and closes its write end whatever
    happens; the second piece resumes from the iterate, or fails with the
    first piece's error without marching."""
    if handoff is None:
        return _group_rows(setup, march.nus)
    if march.start:
        try:
            error = pickle.load(handoff.read)
        except (EOFError, pickle.UnpicklingError):
            error = "RuntimeError: the first piece of its march did not finish"
        if error is not None:
            return [(march.nus[0], None, error)]
        return _group_rows(setup, march.nus, resume=(march.start, handoff.iterate))
    with handoff.write:
        out = _group_rows(setup, march.nus, stop=march.stop, handoff=handoff.iterate)
        pickle.dump(out[0][2], handoff.write)
    return out


def run_convergence_study(config: StudyConfig, jobs: int = 1) -> RateReport:
    """Sweep ``config.nu_list`` in parts of equal viscosity-steps
    (``study_parts``), each in a process of its own (``run_forked``): this
    process runs the first part and forked worker i part i, each on its
    copy-on-write copy of the study's set-up.  A part marches its groups and
    takes their rows at each stored time (``_group_rows``), and a viscosity
    cut between two parts marches in two pieces whose iterate crosses at
    the cut (``_march_rows``).  Every block takes its own operations, so
    the report's bytes do not depend on the number of cores: a cut
    viscosity's rows come from its two pieces, merged in ``t_eval`` order.
    A worker that dies fails each viscosity of its part, naming its exit
    status; a part with no worker runs here after the first.

    ``jobs`` must be at least 1 and is otherwise ignored: a study runs on
    every core this process may use.  It stays only because the benchmark
    (``bench/run.py``, ``bench/make_reference.py``) passes ``jobs=1``; it
    goes with the next change to the benchmark.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    t0 = time.perf_counter()
    setup = study_setup(config)
    parts = study_parts(config)
    handoffs = {march.nus: _Handoff(config.ns.n, i - 1) for i, part in enumerate(parts)
                for march in part if march.start}

    def run(mine):
        for handoff in handoffs.values():
            if handoff.first not in mine:
                handoff.write.close()
        outcomes = {}
        for i in mine:
            try:
                outcomes[i] = [out for march in parts[i] for out in _march_rows(
                    setup, march, handoffs.get(march.nus))]
            except Exception as exc:
                # raised outside the rows: each of the part's viscosities fails
                outcomes[i] = [(nu, None, _failure(exc)) for march in parts[i]
                               for nu in march.nus]
        return outcomes

    try:
        outcomes, workers = run_forked(
            len(parts), lambda i, send: send(run([i])[i]),
            lambda forked: run([i for i in range(len(parts)) if i not in forked]))
    finally:
        for handoff in handoffs.values():
            handoff.read.close()
            handoff.write.close()
    for i, (records, status) in workers.items():
        outcomes[i] = records[0] if records else [
            (nu, None, _died(status)) for march in parts[i] for nu in march.nus]

    pieces, failed = {}, {}
    for nu, rows, err in (out for i in sorted(outcomes) for out in outcomes[i]):
        if err is None:
            pieces.setdefault(nu, []).append(rows)
        else:
            failed.setdefault(nu, err)
    failures = {nu: failed[nu] for nu in config.nu_list if nu in failed}
    for nu, err in failures.items():
        warnings.warn(f"viscosity row nu={nu} aborted: {err}")
    survivors = [nu for nu in config.nu_list if nu not in failures]
    if len(survivors) < 3:
        raise SolverError(
            f"study failed: only {len(survivors)} viscosity rows survived "
            f"(failures: {failures})")
    # a cut viscosity's two pieces take the rows of disjoint stores
    results = {nu: [row for at in zip(*pieces[nu])
                    for row in next(r for r in at if r is not None)]
               for nu in survivors}

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
            entry["superconvergent"] = bool(slope > th + PASS_MARGIN_HIGH)
            entry["status"] = "pass" if slope >= th - PASS_MARGIN_LOW else "fail"
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
        "ns_groups": [list(march.nus) for part in parts for march in part],
        "ns_parts": [[nu for march in part for nu in march.nus] for part in parts],
        "ns_part_steps": [sum(len(march.nus) * (march.stop - march.start)
                              for march in part) for part in parts],
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

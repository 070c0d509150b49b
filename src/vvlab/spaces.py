"""Norm engine: anisotropic weighted norms, layer evaluation maps, and the
utility inequalities (Hardy, local Gronwall) as executable checks.

Profile fields live on a slow grid times a half-line fast grid.  The fast
grid maps a uniform parameter xi through z = -L*log(1 - xi), clustering
nodes near z = 0 while reaching a truncation height Z_max with
exp(-Z_max) < 1e-14.  Derivatives are centered second-order differences on
the mapped nodes (one-sided at the ends); integrals are trapezoid sums.
That discretization is the documented error model of every norm here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline

from . import geometry as geo
from .errors import (
    BlowupHorizonError,
    ConfigError,
    InvalidParameterError,
    UnsupportedCombinationError,
)
from .geometry import trapezoid_weights

DEFAULT_ZMAX = 33.0      # exp(-33) ~ 4.7e-15 < 1e-14
DEFAULT_FAST_L = 2.0
DEFAULT_EVAL_POINTS = 4097


# ---------------------------------------------------------------------------
# indices and grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnisotropicIndex:
    """Index (k, m, l, p): decay weight (1+z^{2k}), m slow and l fast
    derivatives, integrability p (math.inf for the sup norm)."""

    k: int = 0
    m: int = 0
    l: int = 0
    p: float = 2.0

    def __post_init__(self):
        if self.k < 0 or self.m < 0 or self.l < 0:
            raise InvalidParameterError("k, m, l must be nonnegative")
        if self.p < 1:
            raise InvalidParameterError("p must be >= 1")


@dataclass(frozen=True)
class FastGrid:
    """Mapped half-line grid z_j = -L*log(1 - xi_j), xi uniform on [0, xi_max]."""

    nz: int
    zmax: float = DEFAULT_ZMAX
    stretch: float = DEFAULT_FAST_L
    z: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.nz < 8:
            raise ConfigError("fast grid needs nz >= 8")
        if self.zmax <= 0 or self.stretch <= 0:
            raise ConfigError("zmax and stretch must be positive")
        xi_max = 1.0 - math.exp(-self.zmax / self.stretch)
        xi = np.linspace(0.0, xi_max, self.nz)
        z = -self.stretch * np.log1p(-xi)
        z[0] = 0.0
        z[-1] = self.zmax
        object.__setattr__(self, "z", z)


def _first_deriv_matrix_weights(x: np.ndarray):
    """Coefficients of the 3-point nonuniform first derivative.

    Returns (cl, c0, cr): d/dx u_j ~ cl[j] u_{j-1} + c0[j] u_j + cr[j] u_{j+1},
    one-sided second-order at both ends.
    """
    n = len(x)
    cl = np.zeros(n)
    c0 = np.zeros(n)
    cr = np.zeros(n)
    hm = x[1:-1] - x[:-2]
    hp = x[2:] - x[1:-1]
    cl[1:-1] = -hp / (hm * (hm + hp))
    c0[1:-1] = (hp - hm) / (hm * hp)
    cr[1:-1] = hm / (hp * (hm + hp))
    # one-sided 3-point ends
    h0, h1 = x[1] - x[0], x[2] - x[1]
    c0[0] = -(2 * h0 + h1) / (h0 * (h0 + h1))
    cl[0] = (h0 + h1) / (h0 * h1)          # coefficient of u_1 (stored in cl slot)
    cr[0] = -h0 / (h1 * (h0 + h1))         # coefficient of u_2
    hn, hm1 = x[-1] - x[-2], x[-2] - x[-3]
    c0[-1] = (2 * hn + hm1) / (hn * (hn + hm1))
    cl[-1] = -(hn + hm1) / (hn * hm1)      # coefficient of u_{n-2}
    cr[-1] = hn / (hm1 * (hn + hm1))       # coefficient of u_{n-3}
    return cl, c0, cr


def diff_along(values: np.ndarray, x: np.ndarray, axis: int) -> np.ndarray:
    """Second-order first derivative along ``axis`` on a nonuniform grid."""
    v = np.moveaxis(np.asarray(values, dtype=float), axis, -1)
    n = v.shape[-1]
    if n < 3:
        if n < 2:
            return np.moveaxis(np.zeros_like(v), -1, axis)
        h = x[1] - x[0]
        d = np.empty_like(v)
        d[..., 0] = (v[..., 1] - v[..., 0]) / h
        d[..., 1] = (v[..., 1] - v[..., 0]) / h
        return np.moveaxis(d, -1, axis)
    d = _apply_first_deriv(_first_deriv_matrix_weights(np.asarray(x, dtype=float)), v)
    return np.moveaxis(d, -1, axis)


def _apply_first_deriv(weights, v: np.ndarray) -> np.ndarray:
    """Apply the weights of _first_deriv_matrix_weights along the last axis
    of ``v`` (at least 3 nodes)."""
    cl, c0, cr = weights
    d = np.empty_like(v)
    d[..., 1:-1] = cl[1:-1] * v[..., :-2] + c0[1:-1] * v[..., 1:-1] + cr[1:-1] * v[..., 2:]
    d[..., 0] = c0[0] * v[..., 0] + cl[0] * v[..., 1] + cr[0] * v[..., 2]
    d[..., -1] = c0[-1] * v[..., -1] + cl[-1] * v[..., -2] + cr[-1] * v[..., -3]
    return d


# ---------------------------------------------------------------------------
# profile fields
# ---------------------------------------------------------------------------


@dataclass
class ProfileField:
    """Field u(s, z) on a slow grid times a half-line fast grid.

    ``values`` has shape (n_comp, n_s, n_z).  A wall's profiles at several
    stored times stack as (n_t, n_comp, n_s, n_z); only the wall evaluator
    takes that form.
    """

    grid: FastGrid
    s: np.ndarray
    s_weights: np.ndarray
    values: np.ndarray
    comp_names: tuple = ("c0",)

    def __post_init__(self):
        self.s = np.atleast_1d(np.asarray(self.s, dtype=float))
        self.s_weights = np.atleast_1d(np.asarray(self.s_weights, dtype=float))
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim == 1:
            self.values = self.values[None, None, :]
        elif self.values.ndim == 2:
            self.values = self.values[None, :, :]
        if self.values.shape[-2:] != (len(self.s), self.grid.nz):
            raise ConfigError(
                f"values shape {self.values.shape} does not match "
                f"(n_comp, {len(self.s)}, {self.grid.nz})"
            )
        if not np.all(np.isfinite(self.values)):
            raise ConfigError("profile values must be finite")
        z = self.grid.z
        if not (z[0] == 0.0 and np.all(np.diff(z) > 0)):
            raise ConfigError("fast grid must increase strictly from 0")

    @property
    def n_comp(self) -> int:
        return self.values.shape[-3]

    def comp(self, name: str) -> np.ndarray:
        return self.values[..., self.comp_names.index(name), :, :]


def profile_from_callable(fn, grid: FastGrid, s=0.0, s_weight=1.0,
                          comp_names=("c0",)) -> ProfileField:
    """Sample ``fn(s, z)`` (scalar) or a list of callables onto a ProfileField."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    sw = np.broadcast_to(np.asarray(s_weight, dtype=float), s.shape).copy()
    fns = fn if isinstance(fn, (list, tuple)) else [fn]
    ss, zz = np.meshgrid(s, grid.z, indexing="ij")
    vals = np.stack([np.broadcast_to(f(ss, zz), ss.shape) for f in fns])
    names = tuple(comp_names[: len(fns)]) if len(fns) > 1 else (comp_names[0],)
    return ProfileField(grid=grid, s=s, s_weights=sw, values=vals,
                        comp_names=names)


def weighted_norm(pf: ProfileField, idx: AnisotropicIndex) -> float:
    """Anisotropic weighted norm of a profile field.

    For finite p this is
    ( sum_{a<=m, b<=l} iint (1+z^{2k}) |D_s^a D_z^b u|^p ds dz )^{1/p},
    with |.| the Euclidean magnitude over components, the slow integral a
    weighted sum over samples and the z integral a trapezoid sum on the
    mapped nodes.  For p = inf (k must be 0) it is the max over all
    derivative orders of the sup norm.
    """
    if pf.values.ndim != 3:
        raise ConfigError("a weighted norm takes one time's profile")
    if math.isinf(idx.p):
        if idx.k > 0:
            raise UnsupportedCombinationError(
                "polynomial weight with the sup norm is not defined"
            )
        worst = 0.0
        d_s = pf.values
        for a in range(idx.m + 1):
            d_z = d_s
            for b in range(idx.l + 1):
                mag = np.sqrt(np.sum(d_z**2, axis=0))
                worst = max(worst, float(mag.max(initial=0.0)))
                if b < idx.l:
                    d_z = diff_along(d_z, pf.grid.z, axis=-1)
            if a < idx.m:
                d_s = diff_along(d_s, pf.s, axis=-2)
        return worst

    z = pf.grid.z
    # k = 0 means no decay weight (1 + z^0 would double the plain norm)
    weight = 1.0 + z ** (2 * idx.k) if idx.k > 0 else np.ones_like(z)
    wz = trapezoid_weights(z) * weight
    ws = pf.s_weights
    total = 0.0
    d_s = pf.values
    for a in range(idx.m + 1):
        d_z = d_s
        for b in range(idx.l + 1):
            mag = np.sqrt(np.sum(d_z**2, axis=0))
            total += float(np.einsum("s,z,sz->", ws, wz, mag**idx.p))
            if b < idx.l:
                d_z = diff_along(d_z, z, axis=-1)
        if a < idx.m:
            d_s = diff_along(d_s, pf.s, axis=-2)
    return total ** (1.0 / idx.p)


# ---------------------------------------------------------------------------
# volume fields and norms
# ---------------------------------------------------------------------------


@dataclass
class VolumeField:
    """Vector field sampled on a cross-coordinate grid of a geometry.

    ``values`` has shape (3, n) in the geometry component frame.
    """

    geom: geo.GeometryDescriptor
    coords: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim == 1:
            self.values = np.stack([
                self.values if i == 0 else np.zeros_like(self.values)
                for i in range(3)
            ])
        if self.values.shape != (3, len(self.coords)):
            raise ConfigError("volume field values must have shape (3, n)")


def curl_volume(vf: VolumeField) -> np.ndarray:
    """Curl of a reduced volume field, shape (3, n).

    Channel u = (u_x(y), u_y(y), u_z(y)): curl = (u_z', 0, -u_x').
    Annulus u = (u_r(r), u_t(r), u_a(r)): curl = (0, -u_a', (1/r) d(r u_t)/dr).
    """
    d = diff_along(vf.values, vf.coords, axis=-1)
    out = np.zeros_like(vf.values)
    if vf.geom.kind == geo.FLAT_CHANNEL:
        out[0] = d[2]
        out[2] = -d[0]
    else:
        r = vf.coords
        out[1] = -d[2]
        out[2] = d[1] + vf.values[1] / r
    return out


@dataclass(frozen=True)
class NormSpec:
    label: str
    kind: str               # "lp", "linf", "h1", "aniso"
    p: float = 2.0
    idx: AnisotropicIndex | None = None


def parse_norm(label: str) -> NormSpec:
    """Parse a norm request string: l2 | linf | h1 | lp:<p> | aniso:k,m,l,p.

    The spec's label is canonical: surrounding blanks are stripped and the
    exponent of lp is written in its shortest form, so "lp:4.0" is "lp:4".
    """
    s = label.strip()
    if s == "l2":
        return NormSpec(label=s, kind="lp", p=2.0)
    if s == "linf":
        return NormSpec(label=s, kind="linf", p=math.inf)
    if s == "h1":
        return NormSpec(label=s, kind="h1", p=2.0)
    if s.startswith("lp:"):
        p = float(s.split(":", 1)[1])
        if p < 1:
            raise ConfigError(f"lp norm needs p >= 1, got {label!r}")
        return NormSpec(label="lp:" + repr(p).removesuffix(".0"), kind="lp", p=p)
    if s.startswith("aniso:"):
        parts = s.split(":", 1)[1].split(",")
        if len(parts) != 4:
            raise ConfigError(f"aniso norm needs k,m,l,p, got {label!r}")
        k, m, l = (int(v) for v in parts[:3])
        p = math.inf if parts[3] in ("inf", "infty") else float(parts[3])
        return NormSpec(label=s, kind="aniso", p=p,
                        idx=AnisotropicIndex(k=k, m=m, l=l, p=p))
    raise ConfigError(f"unknown norm string {label!r}")


class VolumeGrid:
    """One cross-coordinate grid of a geometry and the constants its volume
    norms share.

    The quadrature weights and the first-derivative weights are built on
    first use and kept, so one grid serves every field of a reference solve.
    """

    def __init__(self, geom: geo.GeometryDescriptor, coords: np.ndarray):
        self.geom = geom
        self.coords = np.asarray(coords, dtype=float)

    @cached_property
    def weights(self) -> np.ndarray:
        return self.geom.quadrature_weights(self.coords)

    @cached_property
    def _deriv_weights(self):
        return _first_deriv_matrix_weights(self.coords)

    def grad_sq(self, values: np.ndarray) -> np.ndarray:
        """Pointwise |grad u|^2 including the frame-curvature terms.

        Channel (fields of y only): sum of squared y-derivatives.  Annulus
        (axisymmetric, axially invariant): sum of squared radial derivatives
        plus (u_rad^2 + u_theta^2)/r^2.
        """
        if len(self.coords) < 3:
            d = diff_along(values, self.coords, axis=-1)
        else:
            d = _apply_first_deriv(self._deriv_weights, values)
        out = np.sum(d**2, axis=0)
        if self.geom.kind == geo.ANNULUS_GAP:
            r = self.coords
            out = out + (values[0] ** 2 + values[1] ** 2) / r**2
        return out

    def norms(self, values: np.ndarray, specs) -> list:
        """The lp / linf / h1 norms ``specs`` of one (3, n) field, forming
        its magnitude |u| once."""
        values = np.asarray(values, dtype=float)
        mag = np.sqrt(np.sum(values**2, axis=0))
        out = []
        for spec in specs:
            if spec.kind == "linf":
                out.append(float(mag.max(initial=0.0)))
            elif spec.kind == "lp":
                out.append(float(np.sum(self.weights * mag**spec.p) ** (1.0 / spec.p)))
            elif spec.kind == "h1":
                out.append(float(np.sqrt(np.sum(
                    self.weights * (mag**2 + self.grad_sq(values))))))
            else:
                raise ConfigError(
                    f"norm {spec.label!r} does not apply to volume fields")
        return out


def volume_norm(vf: VolumeField, spec) -> float:
    """Evaluate an lp / linf / h1 norm of a volume field (one-shot
    VolumeGrid.norms)."""
    if isinstance(spec, str):
        spec = parse_norm(spec)
    return VolumeGrid(vf.geom, vf.coords).norms(vf.values, [spec])[0]


# ---------------------------------------------------------------------------
# boundary layer evaluation
# ---------------------------------------------------------------------------


@dataclass
class LayerEvalResult:
    field: VolumeField
    norm: float
    p: float
    asymptotic_warning: bool


def eval_profile_on_wall(pf: ProfileField, geom: geo.GeometryDescriptor,
                         wall_id: str, coords: np.ndarray, nu: float) -> np.ndarray:
    """Evaluate U(d_w(x)/sqrt(nu)) for one wall on volume coordinates.

    ``pf`` holds a single slow sample: the layer does not vary along the
    collar.  Its values may stack several times, (n_t, n_comp, 1, n_z): the
    wall distance, the live nodes and the cutoff are then computed once and
    one spline is fitted to all of them.  Piecewise-cubic in z, multiplied
    by the collar cutoff, and zero beyond Z_max and outside the collar,
    where only zeros would come out; the spline is evaluated on the
    remaining nodes alone.  Returns (n_comp, n), or (n_t, n_comp, n).
    """
    if len(pf.s) != 1:
        raise ConfigError("wall evaluation needs a single-sample profile")
    d = geo.wall_distance(geom, wall_id, coords)
    zq = d / math.sqrt(nu)
    live = (d < geom.eta) & (zq >= 0.0) & (zq <= pf.grid.z[-1])
    spl = CubicSpline(pf.grid.z, pf.values[..., 0, :], axis=-1, extrapolate=False)
    vals = np.zeros(pf.values.shape[:-2] + (len(d),))
    vals[..., live] = spl(zq[live]) * geo.collar_cutoff(geom, d[live])
    return vals


def boundary_layer_eval(pf: ProfileField, geom: geo.GeometryDescriptor,
                        nu: float, p: float = 2.0,
                        n_points: int = DEFAULT_EVAL_POINTS,
                        coords: np.ndarray | None = None) -> LayerEvalResult:
    """Evaluate x -> U(x, phi(x)/sqrt(nu)) times the collar cutoff.

    Both walls contribute with their own exact distance; the collars are
    disjoint so the contributions never overlap.  Components are treated as
    passive scalars here; frame mapping belongs to the ansatz assembler.
    """
    if nu <= 0:
        raise InvalidParameterError("nu must be positive")
    if coords is None:
        coords = geom.volume_grid(n_points)
    total = np.zeros((pf.n_comp, len(coords)))
    for w in geom.walls():
        total += eval_profile_on_wall(pf, geom, w.wall_id, coords, nu)
    vals3 = np.zeros((3, len(coords)))
    vals3[: pf.n_comp] = total
    vf = VolumeField(geom=geom, coords=coords, values=vals3)
    warn = math.sqrt(nu) > geom.eta / 4.0
    if warn:
        warnings.warn("sqrt(nu) exceeds eta/4: asymptotic collar regime violated")
    if math.isinf(p):
        nrm = volume_norm(vf, NormSpec(label="linf", kind="linf", p=p))
    else:
        nrm = volume_norm(vf, NormSpec(label=f"lp:{p}", kind="lp", p=p))
    return LayerEvalResult(field=vf, norm=nrm, p=p, asymptotic_warning=warn)


@dataclass
class ScalingResult:
    nu_list: tuple
    norms: tuple
    slope: float | None = None
    intercept: float | None = None
    ratios: tuple | None = None
    reference_norm: float | None = None


def scaling_exponent_check(pf: ProfileField, geom: geo.GeometryDescriptor,
                           nu_list, p: float = 2.0, mode: str = "rate",
                           m: int = 1,
                           n_points: int = DEFAULT_EVAL_POINTS) -> ScalingResult:
    """Fit the nu-exponent of the layer evaluation norm, or check the
    nu-uniform bound mode.

    mode="rate": least-squares slope of log ||U(x, phi/sqrt(nu))||_p versus
    log nu (expected 1/(2p)).  mode="bounded": the ratios against the
    anisotropic (k=1, m, l=1, p=2) profile norm, which must stay bounded.
    """
    nu_list = sorted(float(v) for v in nu_list)
    if len(nu_list) < 3:
        raise ConfigError("need at least 3 viscosity values")
    if math.log10(nu_list[-1] / nu_list[0]) < 2.0 - 1e-9:
        raise ConfigError("viscosity values must span at least 2 decades")
    norms = tuple(
        boundary_layer_eval(pf, geom, nu, p=p, n_points=n_points).norm
        for nu in nu_list
    )
    if mode == "bounded":
        ref = weighted_norm(pf, AnisotropicIndex(k=1, m=m, l=1, p=2.0))
        ratios = tuple(n / ref for n in norms)
        return ScalingResult(nu_list=tuple(nu_list), norms=norms,
                             ratios=ratios, reference_norm=ref)
    x = np.log(np.asarray(nu_list))
    y = np.log(np.asarray(norms))
    slope, intercept = np.polyfit(x, y, 1)
    return ScalingResult(nu_list=tuple(nu_list), norms=norms,
                         slope=float(slope), intercept=float(intercept))


# ---------------------------------------------------------------------------
# Hardy and Gronwall checks
# ---------------------------------------------------------------------------


def hardy_ratio(vf: VolumeField, p: float, beta: float) -> float:
    """Ratio int |u|^p / d^{p-beta} over int |grad u|^p d^beta.

    ``d`` is the raw distance to the nearest wall.  The field must vanish at
    the wall nodes (compact support up to quadratic contact is enough for
    the quadrature).  Gradients are plain cross-coordinate derivatives.
    """
    if beta >= p - 1:
        raise InvalidParameterError("Hardy needs beta < p - 1")
    d = geo.min_wall_distance(vf.geom, vf.coords)
    mag = np.sqrt(np.sum(vf.values**2, axis=0))
    at_wall = d <= 0
    if np.any(mag[at_wall] != 0.0):
        raise InvalidParameterError("field must vanish on the wall nodes")
    if np.all(mag == 0.0):
        return 0.0
    w = vf.geom.quadrature_weights(vf.coords)
    interior = ~at_wall
    lhs = float(np.sum(w[interior] * mag[interior] ** p / d[interior] ** (p - beta)))
    dmag = np.sqrt(np.sum(diff_along(vf.values, vf.coords, axis=-1) ** 2, axis=0))
    rhs = float(np.sum(w * dmag**p * d**beta))
    return lhs / rhs


def gronwall_local_bound(y0: float, h_times, h_values, c0: float,
                         alpha: float, t) -> np.ndarray | float:
    """Closed-form local bound for y' <= h(t) + c0 * y^(1+alpha), y(0) = y0.

    H(t) = y0 + int_0^t h by trapezoid on the sampled h; the bound is
    H + H*((1 - alpha*c0*H^alpha*t)^(-1/alpha) - 1), valid while the
    argument stays positive.  Beyond the horizon a BlowupHorizonError with
    the critical time is raised.
    """
    if y0 < 0 or c0 <= 0 or alpha <= 0:
        raise InvalidParameterError("need y0 >= 0, c0 > 0, alpha > 0")
    h_times = np.asarray(h_times, dtype=float)
    h_values = np.asarray(h_values, dtype=float)
    if np.any(h_values < 0):
        raise InvalidParameterError("h must be nonnegative")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < 0) or np.any(t_arr > h_times[-1] + 1e-12):
        raise InvalidParameterError("t outside the sampled range of h")

    cum = np.concatenate([[0.0], np.cumsum(
        0.5 * (h_values[1:] + h_values[:-1]) * np.diff(h_times))])

    def big_h(tt):
        return y0 + np.interp(tt, h_times, cum)

    guard = alpha * c0 * big_h(t_arr) ** alpha * t_arr
    if np.any(guard >= 1.0):
        fine = np.linspace(0.0, float(np.max(t_arr)), 20001)
        g = alpha * c0 * big_h(fine) ** alpha * fine
        bad = np.nonzero(g >= 1.0)[0]
        tc = float(fine[bad[0]]) if len(bad) else float(np.max(t_arr))
        raise BlowupHorizonError(
            f"bound invalid: alpha*c0*H^alpha*t >= 1 near t = {tc:.6g}",
            critical_time=tc,
        )
    hh = big_h(t_arr)
    out = hh + hh * ((1.0 - guard) ** (-1.0 / alpha) - 1.0)
    return out if np.ndim(t) else float(out[0])


@dataclass
class GronwallTrials:
    """RK4 solutions of seeded Gronwall trials next to their local bounds."""

    t_star: np.ndarray             # (n_trials,) end time, 0.7 of the horizon
    y: np.ndarray                  # (n_trials,) RK4 solution at t_star
    bound: np.ndarray              # (n_trials,) gronwall_local_bound at t_star


# draw ranges of (y0, c0, alpha, h amplitude, h frequency), in draw order
_GRONWALL_LOW = np.array([0.0, 0.1, 0.3, 0.0, 0.5])
_GRONWALL_HIGH = np.array([1.5, 2.0, 2.0, 1.5, 4.0])


def gronwall_rk4_trials(seed: int, n_trials: int, n_samples: int,
                        n_steps: int) -> GronwallTrials:
    """Solve y' = h(t) + c0 max(y, 0)^(1+alpha), y(0) = y0, for random trials.

    Each trial draws y0, c0, alpha and h(t) = amp (1 + sin(freq t)^2),
    sampled at ``n_samples`` points of [0, 2], and runs ``n_steps`` RK4 steps
    to 0.7 of the horizon where alpha c0 H^alpha t reaches 1.  All trials
    march together as arrays.  Each floating-point operation is the one a
    scalar loop per trial would do (commuted only where that changes no
    bit), and h is the piecewise-linear interpolant that np.interp
    evaluates; only numpy's vector power may differ from the scalar one in
    the last bit.
    """
    rng = np.random.default_rng(seed)
    y0, c0, alpha, amp, freq = rng.uniform(
        _GRONWALL_LOW, _GRONWALL_HIGH, size=(n_trials, 5)).T
    tt = np.linspace(0.0, 2.0, n_samples)
    # updates in place keep at most three (n_trials, n_samples) arrays alive
    hv = np.sin(freq[:, None] * tt)
    hv **= 2
    hv += 1.0
    hv *= amp[:, None]
    seg = hv[:, 1:] + hv[:, :-1]
    seg *= 0.5
    seg *= np.diff(tt)
    big_h = np.zeros((n_trials, n_samples))
    np.cumsum(seg, axis=1, out=big_h[:, 1:])
    del seg
    big_h += y0[:, None]
    guard = big_h ** alpha[:, None]
    del big_h
    guard *= (alpha * c0)[:, None]
    guard *= tt
    # the guard is 0 at t = 0, so the horizon is at least tt[1] and t_star > 0
    beyond = guard >= 1.0
    del guard
    horizon = np.where(beyond.any(axis=1), tt[np.argmax(beyond, axis=1)], tt[-1])
    t_star = 0.7 * horizon
    dt = t_star / n_steps

    rows = np.arange(n_trials)

    def h_at(t):
        # np.interp's piecewise-linear interpolant, one t per trial
        j = np.clip(np.searchsorted(tt, t, side="right") - 1, 0, n_samples - 2)
        left = hv[rows, j]
        slope = (hv[rows, j + 1] - left) / (tt[j + 1] - tt[j])
        return slope * (t - tt[j]) + left

    power = 1.0 + alpha
    y = y0.copy()
    for k in range(n_steps):
        tk = k * dt
        h_mid = h_at(tk + dt / 2)
        k1 = h_at(tk) + c0 * np.maximum(y, 0.0) ** power
        k2 = h_mid + c0 * np.maximum(y + dt * k1 / 2, 0.0) ** power
        k3 = h_mid + c0 * np.maximum(y + dt * k2 / 2, 0.0) ** power
        k4 = h_at(tk + dt) + c0 * np.maximum(y + dt * k3, 0.0) ** power
        y += dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    bound = np.array([gronwall_local_bound(y0[i], tt, hv[i], c0[i], alpha[i], t_star[i])
                      for i in range(n_trials)])
    return GronwallTrials(t_star=t_star, y=y, bound=bound)

"""Norm engine: the layer's weighted column norms, asked for by
AnisotropicIndex(k, l, p); the volume norms, asked for by the strings l2,
linf, h1 and lp:<p>; the layer's map onto a volume grid and its scaling
check; and the utility inequalities (Hardy, local Gronwall) as executable
checks.

A profile field is one wall column u(z) of the flow component
(``GeometryDescriptor.flow_comp``) on a half-line fast grid: the layer moves
no other component and does not vary along the wall.  The fast grid maps a
uniform parameter xi through z = -L*log(1 - xi), L = DEFAULT_FAST_L,
clustering nodes near z = 0 while reaching a truncation height Z_max with
exp(-Z_max) < 1e-14.  Derivatives are centered second-order differences on
the mapped nodes (one-sided at the ends); integrals are trapezoid sums.
That discretization is the documented error model of every norm here.

A volume field is one (n,) array on a geometry's cross coordinates: the
flow component (``GeometryDescriptor.flow_comp``) of a tangential flow,
whose other two components are exactly zero, so |u| is its absolute value.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import geometry as geo
from ._lapack import dgtsv
from .errors import (
    BlowupHorizonError,
    ConfigError,
    InvalidParameterError,
    UnsupportedCombinationError,
)
from .geometry import trapezoid_weights

DEFAULT_ZMAX = 33.0      # exp(-33) ~ 4.7e-15 < 1e-14
DEFAULT_FAST_L = 2.0
_HALO = 2                # a derivative row's reach: 1 node, 2 from the end rows


# ---------------------------------------------------------------------------
# indices and grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnisotropicIndex:
    """Index (k, l, p): decay weight (1+z^{2k}), l fast derivatives,
    integrability p (math.inf for the sup norm)."""

    k: int = 0
    l: int = 0
    p: float = 2.0

    def __post_init__(self):
        if self.k < 0 or self.l < 0:
            raise InvalidParameterError("k, l must be nonnegative")
        if self.p < 1:
            raise InvalidParameterError("p must be >= 1")


@dataclass(frozen=True)
class FastGrid:
    """Mapped half-line grid z_j = -L*log(1 - xi_j), xi uniform on [0, xi_max]."""

    nz: int
    zmax: float = DEFAULT_ZMAX
    z: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.nz < 8:
            raise ConfigError("fast grid needs nz >= 8")
        if not 0 < self.zmax < math.inf:
            raise ConfigError(f"fast grid zmax must be finite and positive, got {self.zmax}")
        xi_max = 1.0 - math.exp(-self.zmax / DEFAULT_FAST_L)
        xi = np.linspace(0.0, xi_max, self.nz)
        z = -DEFAULT_FAST_L * np.log1p(-xi)
        z[0] = 0.0
        z[-1] = self.zmax
        # a zmax too small for nz rounds nodes together: every derivative
        # weight would divide by a zero spacing
        if not np.all(np.diff(z) > 0):
            raise ConfigError(f"fast grid with zmax = {self.zmax} and nz = {self.nz} "
                              "does not increase strictly from 0")
        object.__setattr__(self, "z", z)


def _first_deriv_matrix_weights(x: np.ndarray):
    """Coefficients of the 3-point nonuniform first derivative.

    Returns (cl, c0, cr): d/dx u_j ~ cl[j] u_{j-1} + c0[j] u_j + cr[j] u_{j+1},
    one-sided second-order at both ends.  Needs at least 3 nodes.
    """
    n = len(x)
    if n < 3:
        raise ConfigError(f"a first derivative needs at least 3 nodes, got {n}")
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


def diff_along(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Second-order first derivative along the last axis on a nonuniform grid."""
    return _apply_first_deriv(_first_deriv_matrix_weights(np.asarray(x, dtype=float)),
                              np.asarray(values, dtype=float))


def _apply_first_deriv(weights, v: np.ndarray, out=None, tmp=None,
                       rows=slice(None)) -> np.ndarray:
    """Apply the weights of _first_deriv_matrix_weights along the last axis
    of ``v`` (at least 3 nodes), into its ``rows`` (a slice) alone, each row
    the bits of the whole derivative's.  ``out`` and ``tmp``, arrays of v's
    shape, take the result and the products instead of new arrays."""
    cl, c0, cr = weights
    n = v.shape[-1]
    lo, hi, _ = rows.indices(n)
    a, b = max(lo, 1), min(hi, n - 1)
    d = np.empty_like(v) if out is None else out
    # summed left to right in place: the bits of the three-term expression
    # with one array of products
    inner = d[..., a:b]
    prod = (np.empty_like(v) if tmp is None else tmp)[..., a:b]
    np.multiply(cl[a:b], v[..., a - 1:b - 1], out=inner)
    np.multiply(c0[a:b], v[..., a:b], out=prod)
    inner += prod
    np.multiply(cr[a:b], v[..., a + 1:b + 1], out=prod)
    inner += prod
    if lo == 0:
        d[..., 0] = c0[0] * v[..., 0] + cl[0] * v[..., 1] + cr[0] * v[..., 2]
    if hi == n:
        d[..., -1] = c0[-1] * v[..., -1] + cl[-1] * v[..., -2] + cr[-1] * v[..., -3]
    return d


# ---------------------------------------------------------------------------
# profile fields
# ---------------------------------------------------------------------------


@dataclass
class ProfileField:
    """Wall column u(z) of the flow component on a half-line fast grid.

    ``values`` has shape (n_z,).  ``weight`` is the measure of the wall's
    collar: the column does not vary along it, so a collar integral is the
    weight times the z one.
    """

    grid: FastGrid
    values: np.ndarray
    weight: float = 1.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.nz,):
            raise ConfigError(f"values shape {self.values.shape} is not ({self.grid.nz},)")
        if not np.all(np.isfinite(self.values)):
            raise ConfigError("profile values must be finite")


def profile_from_callable(fn, grid: FastGrid) -> ProfileField:
    """Sample ``fn(z)`` onto a ProfileField of collar weight 1."""
    return ProfileField(grid=grid, values=np.broadcast_to(fn(grid.z), grid.z.shape))


def weighted_norm(pf: ProfileField, idx: AnisotropicIndex) -> float:
    """Anisotropic weighted norm of a wall column.

    For finite p this is
    ( sum_{b<=l} w int (1+z^{2k}) |D_z^b u|^p dz )^{1/p},
    with |.| the absolute value of the column, w the collar weight
    and the z integral a trapezoid sum on the mapped nodes.  For p = inf (k
    must be 0) it is the max over the fast orders of the sup norm.
    """
    sup = math.isinf(idx.p)
    if sup and idx.k > 0:
        raise UnsupportedCombinationError(
            "polynomial weight with the sup norm is not defined"
        )
    z = pf.grid.z
    # k = 0 means no decay weight (1 + z^0 would double the plain norm)
    wz = trapezoid_weights(z) * (1.0 + z ** (2 * idx.k) if idx.k > 0 else 1.0)
    total = 0.0
    d_z = pf.values
    for b in range(idx.l + 1):
        mag = np.abs(d_z)
        if sup:
            total = max(total, float(mag.max(initial=0.0)))
        else:
            total += float(pf.weight * np.dot(wz, mag**idx.p))
        if b < idx.l:
            d_z = diff_along(d_z, z)
    return total if sup else total ** (1.0 / idx.p)


# ---------------------------------------------------------------------------
# volume norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormSpec:
    label: str
    kind: str               # "lp", "linf", "h1"
    p: float = 2.0


def parse_norm(label: str) -> NormSpec:
    """Parse a norm request string: l2 | linf | h1 | lp:<p>.

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
        text = s.split(":", 1)[1]
        try:
            p = float(text)
        except ValueError:
            raise ConfigError(f"bad norm string {label!r}: {text!r} is not a number") from None
        if not 1 <= p < math.inf:
            raise ConfigError(f"lp needs a finite p >= 1 (sup norm: linf), got {label!r}")
        return NormSpec(label="lp:" + repr(p).removesuffix(".0"), kind="lp", p=p)
    raise ConfigError(f"unknown norm string {label!r}")


class VolumeGrid:
    """One cross-coordinate grid of a geometry and the constants its volume
    norms share.

    The quadrature weights, the first-derivative weights and the squared
    coordinates are formed on first use and kept, so one grid serves every
    field of a study.
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

    @cached_property
    def _coords_sq(self) -> np.ndarray:
        return self.coords**2

    def grad_sq(self, u: np.ndarray, sq: np.ndarray | None = None,
                out=None, tmp=None, rows=slice(None)) -> np.ndarray:
        """Pointwise |grad u|^2 of the flow component u, frame curvature
        included: u'^2 in the channel (u = u_x(y)), u'^2 + u^2/r^2 in the
        annulus (u = u_theta(r)).  ``sq`` is u^2 when the caller has it;
        ``out`` and ``tmp``, arrays of u's shape, take the result, in its
        ``rows`` alone, and the intermediate values instead of new arrays."""
        out = _apply_first_deriv(self._deriv_weights, u, out, tmp, rows)
        r = out[rows]
        np.square(r, out=r)
        # not u^2 / radius^2: a norm's field may be infinite, and the
        # channel's inf / inf would turn its inf into NaN
        if self.geom.kind == geo.ANNULUS_GAP:
            r += np.divide(u[rows]**2 if sq is None else sq[rows], self._coords_sq[rows],
                           out=None if tmp is None else tmp[rows])
        return out

    def norms(self, u: np.ndarray, specs, scratch=None) -> list:
        """The lp / linf / h1 norms ``specs`` of one (n,) field: the flow
        component, or for lp and linf a pointwise magnitude.

        Where a field equals u0 to the last bit away from the walls, u - u0
        is one run of exact zeros, whose terms are skipped (``_live_spans``
        gives the rule).  They are +0.0 anyway: |+-0| and w (+0) are +0, and
        a derivative whose stencil is all zero is +-0, +0 once squared.  So
        the density is zeroed once and each sum adds all n of it: the bits
        of the sum over every node.  |u|^2, u^2 bit for bit, is formed once;
        other powers only where |u| != 0 (pow(0, p) is +0.0 but slow; a NaN
        is != 0).  Intermediates live in ``scratch``, a (4, n) array the
        norms overwrite, or in four new arrays: at a study's n = 65,536 each
        is 512 KiB, which malloc may hand back and fault in again every call.
        """
        u = np.asarray(u, dtype=float)
        mag, sq, dens, tmp = np.empty((4,) + u.shape) if scratch is None else scratch
        # the zero mask borrows tmp's first n bytes, free until h1 needs it
        spans = _live_spans(np.equal(u, 0.0, out=tmp.view(bool)[:len(u)]))
        for s in spans:
            np.square(np.abs(u[s], out=mag[s]), out=sq[s])
        dens.fill(0.0)
        out = []
        for spec in specs:
            if spec.kind == "linf":
                top = 0.0               # an array max: a NaN in any span wins
                for s in spans:
                    top = mag[s].max(initial=top)
                out.append(float(top))
            else:
                for s in spans:
                    d = dens[s]
                    if spec.kind == "h1":
                        self.grad_sq(u, sq, out=dens, tmp=tmp, rows=s)
                        d += sq[s]
                    elif spec.p == 2.0:
                        d[...] = sq[s]
                    else:
                        d.fill(0.0)
                        np.power(mag[s], spec.p, out=d, where=mag[s] != 0.0)
                    d *= self.weights[s]    # x w has the bits of w x
                total = np.sum(dens)
                out.append(float(np.sqrt(total) if spec.kind == "h1"
                                 else total ** (1.0 / spec.p)))
        return out


def _live_spans(zero: np.ndarray) -> list:
    """The slices a field's norms compute, from its mask of exact zeros
    (-0.0 is one; NaN and inf are not): [0, a) and [b, n), each widened by
    _HALO nodes and dropped if empty, when [a, b) is a run of zeros with no
    zero outside it, and the whole field otherwise or when the widened
    spans would overlap.  An all-zero field has no span."""
    n = len(zero)
    a = int(zero.argmax())
    b = a + int(zero[a:].argmin())      # both searches stop at the run's ends
    b = n if zero[b] else b
    if zero[a] and b - a >= 2 * _HALO and not zero[b:].any():
        return [s for s, live in ((slice(0, a + _HALO), a > 0),
                                  (slice(b - _HALO, n), b < n)) if live]
    return [slice(0, n)]


# ---------------------------------------------------------------------------
# boundary layer evaluation and its scaling check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Spline:
    """A not-a-knot cubic spline fitted by _not_a_knot_fit."""

    x: np.ndarray                  # the knots, (n,)
    yt: np.ndarray                 # the values, knot first, (n, K)
    coef: tuple                    # the cubic, quadratic, linear terms, (n-1, K)
    lead: tuple                    # the values' leading shape


def _not_a_knot_fit(x: np.ndarray, y: np.ndarray) -> _Spline:
    """Fit the not-a-knot cubic spline through (x, y[..., j]).

    The fit and _not_a_knot_eval repeat scipy.interpolate.CubicSpline(x, y,
    axis=-1) operation for operation: its banded rows and not-a-knot end
    rows, the dgtsv solve, the Hermite coefficients and the power sum of
    its evaluation, so the values equal scipy's bit for bit.  Needs
    len(x) >= 4.
    """
    n = len(x)
    yt = y.reshape(-1, n).T             # scipy's knot-first layout, (n, K)
    dx = np.diff(x)
    dxr = dx[:, None]
    slope = np.diff(yt, axis=0) / dxr
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    b = np.empty_like(yt)
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    b[0] = ((dxr[0] + 2 * d0) * dxr[1] * slope[0] + dxr[0]**2 * slope[1]) / d0
    b[-1] = (dxr[-1]**2 * slope[-2] + (2 * d1 + dxr[-1]) * dxr[-2] * slope[-1]) / d1
    diag = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]))
    *_, s, info = dgtsv(np.append(dx[1:], d1), diag, np.append(d0, dx[:-1]), b,
                        1, 1, 1, 1)
    if info:
        raise np.linalg.LinAlgError(f"not-a-knot spline system: dgtsv info {info}")
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    coef = (t / dxr, (slope - s[:-1]) / dxr - t, s[:-1])
    return _Spline(x=x, yt=yt, coef=coef, lead=y.shape[:-1])


def _not_a_knot_eval(spline: _Spline, xq: np.ndarray) -> np.ndarray:
    """The fitted spline at xq, shape (*lead, len(xq)), by the power sum
    of CubicSpline's evaluation.  Needs x[0] <= xq <= x[-1]."""
    x, yt = spline.x, spline.yt
    i = np.minimum(np.searchsorted(x, xq, side="right") - 1, len(x) - 2)
    h = (xq - x[i])[:, None]
    # scipy's sum: res = 0 + y_i, then z *= h; res += c_k z (-0.0 becomes +0.0)
    res = 0.0 + yt[:-1][i]
    z = np.ones_like(h)
    for ck in spline.coef[::-1]:
        z *= h
        res += ck[i] * z
    return res.T.reshape(spline.lead + (len(xq),))


def _spline_on_wall(spline: _Spline, geom: geo.GeometryDescriptor,
                    wall_id: str, coords: np.ndarray, nu: float) -> np.ndarray:
    """Evaluate U(d_w(x)/sqrt(nu)) for one wall on volume coordinates.

    ``spline`` is fitted (_not_a_knot_fit, bit for bit scipy's CubicSpline)
    to a wall's columns: the layer does not vary along the collar.  Its
    values may stack several times, (n_t, n_z): the wall distance, the live
    nodes and the cutoff are then computed once for all of them, and each
    time gets the bits of a fit to its column alone.  The spline is
    multiplied by the collar cutoff and is zero beyond Z_max and outside the
    collar, where only zeros would come out; it is evaluated on the
    remaining nodes alone.  Returns (n,), or (n_t, n).
    """
    d = geo.wall_distance(geom, wall_id, coords)
    zq = d / math.sqrt(nu)
    live = (d < geom.eta) & (zq >= 0.0) & (zq <= spline.x[-1])
    vals = np.zeros(spline.lead + (len(d),))
    vals[..., live] = (_not_a_knot_eval(spline, zq[live])
                       * geo.collar_cutoff(geom, d[live]))
    return vals


@dataclass
class ScalingResult:
    nu_list: tuple
    norms: tuple
    slope: float
    intercept: float
    ratios: tuple
    reference_norm: float


def scaling_exponent_check(pf: ProfileField, geom: geo.GeometryDescriptor,
                           nu_list, ps, n_points: int) -> tuple:
    """Fit the nu-exponent of the layer evaluation norms and give the ratios
    that check the nu-uniform bound: one ScalingResult per p of ``ps``, in
    order (math.inf for the sup norm).

    The layer evaluation x -> U(phi(x)/sqrt(nu)) times the collar cutoff is
    the sum over the walls of _spline_on_wall, each with its own exact
    distance; the collars are disjoint, so the contributions never overlap.
    The slope is the least-squares fit of its log ||.||_p versus log nu
    (expected 1/(2p)); the ratios are the norms over the anisotropic (k=1,
    l=1, p=2) profile norm, which must stay bounded.  One spline fit and one
    volume grid of ``n_points`` nodes serve every nu, and one norms call per
    nu every p.
    """
    nu_list = sorted(float(v) for v in nu_list)
    if len(nu_list) < 3:
        raise ConfigError("need at least 3 viscosity values")
    if not all(0 < nu < math.inf for nu in nu_list):
        raise InvalidParameterError(f"nu must be positive and finite, got {nu_list}")
    if math.log10(nu_list[-1] / nu_list[0]) < 2.0 - 1e-9:
        raise ConfigError("viscosity values must span at least 2 decades")
    if math.sqrt(nu_list[-1]) > geom.eta / 4.0:
        warnings.warn("sqrt(nu) exceeds eta/4: asymptotic collar regime violated")
    spline = _not_a_knot_fit(pf.grid.z, pf.values)
    grid = VolumeGrid(geom, geom.volume_grid(n_points))
    specs = [NormSpec(label=f"p={p}", kind="linf" if math.isinf(p) else "lp", p=p)
             for p in map(float, ps)]
    rows = []
    for nu in nu_list:
        total = np.zeros(len(grid.coords))
        for w in geom.walls():
            total += _spline_on_wall(spline, geom, w.wall_id, grid.coords, nu)
        rows.append(grid.norms(total, specs))
    ref = weighted_norm(pf, AnisotropicIndex(k=1, l=1, p=2.0))
    x = np.log(np.asarray(nu_list))
    results = []
    for norms in zip(*rows):
        slope, intercept = np.polyfit(x, np.log(np.asarray(norms)), 1)
        results.append(ScalingResult(
            nu_list=tuple(nu_list), norms=norms, slope=float(slope),
            intercept=float(intercept), reference_norm=ref,
            ratios=tuple(n / ref for n in norms)))
    return tuple(results)


# ---------------------------------------------------------------------------
# Hardy and Gronwall checks
# ---------------------------------------------------------------------------


def hardy_ratio(geom: geo.GeometryDescriptor, coords: np.ndarray,
                u: np.ndarray) -> float:
    """Ratio int |u|^2 / d^2 over int |grad u|^2: Hardy's inequality with
    p = 2 and no distance weight (beta = 0).

    ``u`` is one component on the cross coordinates ``coords``; ``d`` is
    the raw distance to the nearest wall.  The field must vanish at the wall
    nodes (compact support up to quadratic contact is enough for the
    quadrature).  Gradients are plain cross-coordinate derivatives.
    """
    coords = np.asarray(coords, dtype=float)
    d = geo.min_wall_distance(geom, coords)
    mag = np.abs(u)
    at_wall = d <= 0
    if np.any(mag[at_wall] != 0.0):
        raise InvalidParameterError("field must vanish on the wall nodes")
    if np.all(mag == 0.0):
        return 0.0
    w = geom.quadrature_weights(coords)
    interior = ~at_wall
    lhs = float(np.sum(w[interior] * mag[interior] ** 2 / d[interior] ** 2))
    rhs = float(np.sum(w * diff_along(u, coords) ** 2))
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
# RK4 steps whose h is interpolated in one call: the per-call overhead is paid
# once per block, and the tables stay small where one for the whole march
# raised the suite's peak memory by about 9%
_GRONWALL_BLOCK = 250
# trials whose guard is formed at a time: the cumulative table stays intact
# for the bounds while the guard needs only this many rows
_GRONWALL_ROWS = 8


def _uniform_bracket(tt: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Segment index j of ``t`` on the uniform knots ``tt``, clipped to
    [0, len(tt) - 2]: np.clip(np.searchsorted(tt, t, side="right") - 1, 0,
    len(tt) - 2) without the search.

    The scaled position floor((t - tt[0]) / step) is within one of the
    largest j with tt[j] <= t, since it and the knots are each a few
    rounding errors from exact; one comparison with the knot on each side
    corrects it.
    """
    last = len(tt) - 2
    scale = (last + 1) / (tt[-1] - tt[0])
    j = np.clip((t - tt[0]) * scale, 0, last).astype(np.intp)
    j -= tt[j] > t
    j += tt[j + 1] <= t
    return np.clip(j, 0, last)


def _gronwall_bounds(y0, tt, hv, cum, c0, alpha, t) -> np.ndarray:
    """gronwall_local_bound of each trial at its own time t < tt[-1], bit
    for bit, from the trials' samples ``hv`` of h on the uniform ``tt`` and
    their cumulative trapezoids ``cum``, both (n_trials, n_samples).

    H(t) is y0 plus np.interp's interpolant of the trial's row of cum (the
    segment from _uniform_bracket, np.interp's slope formula) and the bound
    the scalar expression over the trials.  A trial whose guard reaches 1
    takes the scalar path, which raises its BlowupHorizonError.
    """
    rows = np.arange(len(t))
    j = _uniform_bracket(tt, t)
    left = cum[rows, j]
    slope = (cum[rows, j + 1] - left) / (tt[j + 1] - tt[j])
    big_h = y0 + (slope * (t - tt[j]) + left)
    guard = alpha * c0 * big_h ** alpha * t
    for i in np.flatnonzero(guard >= 1.0):
        gronwall_local_bound(y0[i], tt, hv[i], c0[i], alpha[i], t[i])
    return big_h + big_h * ((1.0 - guard) ** (-1.0 / alpha) - 1.0)


def gronwall_rk4_trials(seed: int, n_trials: int, n_samples: int,
                        n_steps: int) -> GronwallTrials:
    """Solve y' = h(t) + c0 max(y, 0)^(1+alpha), y(0) = y0, for random trials.

    Each trial draws y0, c0, alpha and h(t) = amp (1 + sin(freq t)^2),
    sampled at ``n_samples`` points of [0, 2], and runs ``n_steps`` RK4 steps
    to 0.7 of the horizon where alpha c0 H^alpha t reaches 1.  All trials
    march together as arrays.  Each floating-point operation is the one a
    scalar loop per trial would do (commuted, or scaled by an exact power
    of two, only where that changes no bit), and h is the piecewise-linear
    interpolant that np.interp evaluates; only numpy's vector power may
    differ from the scalar one in the last bit.  The bounds at t_star come
    from the cumulative trapezoid the horizon is found with
    (_gronwall_bounds), each gronwall_local_bound's bits.

    h is interpolated at the stage times of a block of steps in one call,
    bit for bit the lookup one step at a time: its segment comes from
    _uniform_bracket, which is searchsorted's index on the uniform samples,
    and its two knot values are gathered from the flat samples at
    row * n_samples + j.  The stage tables are (step, trial), so a step
    reads one contiguous row of each; no slope table is kept.  The stages
    are formed in place in a few (n_trials,) buffers.  The mid stages are
    carried doubled, K2 = 2 k2 and K3 = 2 k3, as (2 c0) P + 2 h_mid:
    scaling by 2 is exact, so (dt/4) K2 and (dt/2) K3 are the scalar
    loop's stage increments and ((k1 + K2) + K3) + k4 its sum
    k1 + (k2 + k2) + (k3 + k3) + k4.  y0, amp >= 0 and c0 > 0, so h,
    every stage and y stay >= 0, and the clamp max(., 0) would return its
    input: it is not applied.
    """
    if n_trials < 1 or n_samples < 2 or n_steps < 1:
        raise InvalidParameterError(
            "need n_trials >= 1, n_samples >= 2 and n_steps >= 1")
    rng = np.random.default_rng(seed)
    y0, c0, alpha, amp, freq = rng.uniform(
        _GRONWALL_LOW, _GRONWALL_HIGH, size=(n_trials, 5)).T
    tt = np.linspace(0.0, 2.0, n_samples)
    # updates in place keep at most two (n_trials, n_samples) arrays alive
    hv = freq[:, None] * tt
    np.sin(hv, out=hv)
    hv **= 2
    hv += 1.0
    hv *= amp[:, None]
    # the cumulative trapezoid of h, H - y0, formed in place; it gives the
    # horizon and then the bounds at t_star, and goes before the march
    cum = np.empty((n_trials, n_samples))
    cum[:, 0] = 0.0
    seg = cum[:, 1:]
    np.add(hv[:, 1:], hv[:, :-1], out=seg)
    seg *= 0.5
    seg *= np.diff(tt)
    np.cumsum(seg, axis=1, out=seg)
    # the guard alpha c0 H^alpha t a few trials at a time, so that it needs
    # no second full table; it is 0 at t = 0, so the horizon is at least
    # tt[1] and t_star > 0
    horizon = np.empty(n_trials)
    for lo in range(0, n_trials, _GRONWALL_ROWS):
        part = slice(lo, lo + _GRONWALL_ROWS)
        guard = cum[part] + y0[part, None]
        guard **= alpha[part, None]
        guard *= (alpha * c0)[part, None]
        guard *= tt
        beyond = guard >= 1.0
        horizon[part] = np.where(beyond.any(axis=1), tt[np.argmax(beyond, axis=1)],
                                 tt[-1])
    t_star = 0.7 * horizon
    bound = _gronwall_bounds(y0, tt, hv, cum, c0, alpha, t_star)
    del cum, seg
    dt = t_star / n_steps
    half_dt = dt / 2
    quarter_dt = dt / 4

    flat = hv.ravel()
    row_start = np.arange(n_trials) * n_samples
    gap = np.diff(tt)                   # gap[j] is tt[j + 1] - tt[j]

    def h_at(t):
        # np.interp's interpolant at t, (block, n_trials): the slope
        # (hv[j + 1] - hv[j]) / (tt[j + 1] - tt[j]) times (t - tt[j]), plus hv[j]
        j = _uniform_bracket(tt, t)
        at = j + row_start
        left = np.take(flat, at)
        at += 1
        slope = np.take(flat, at)
        slope -= left
        slope /= np.take(gap, j)
        h = t - np.take(tt, j)
        h *= slope
        h += left
        return h

    power = 1.0 + alpha
    c0_2 = 2.0 * c0
    six = np.full(n_trials, 6.0)
    y = y0.copy()
    arg, p, k, acc = (np.empty(n_trials) for _ in range(4))
    # a step is two dozen calls on n_trials numbers, so their overhead is
    # its cost: the ufuncs are bound locally, and 6 is an array, which
    # divides faster than a Python float does
    mul, pow_ = np.multiply, np.power
    for lo in range(0, n_steps, _GRONWALL_BLOCK):
        # h at the stage times of a block of steps, (block, n_trials)
        tk = np.arange(lo, min(lo + _GRONWALL_BLOCK, n_steps))[:, None] * dt
        h_start = h_at(tk)
        h_mid2 = h_at(tk + half_dt)
        h_mid2 *= 2.0
        h_end = h_at(tk + dt)
        for hs, hm2, he in zip(h_start, h_mid2, h_end):
            # acc = k1 = h + c0 y^power
            pow_(y, power, p)
            mul(p, c0, acc)
            acc += hs
            # k = K2 = 2 h_mid + (2 c0) (y + (dt/2) k1)^power
            mul(acc, half_dt, arg)
            arg += y
            pow_(arg, power, p)
            mul(p, c0_2, k)
            k += hm2
            # k = K3 = 2 h_mid + (2 c0) (y + (dt/4) K2)^power; acc = k1 + K2
            mul(k, quarter_dt, arg)
            arg += y
            acc += k
            pow_(arg, power, p)
            mul(p, c0_2, k)
            k += hm2
            # p = k4 = h_end + c0 (y + (dt/2) K3)^power; acc = (k1 + K2) + K3
            mul(k, half_dt, arg)
            arg += y
            acc += k
            pow_(arg, power, p)
            p *= c0
            p += he
            # y += dt (((k1 + K2) + K3) + k4) / 6
            acc += p
            acc *= dt
            acc /= six
            y += acc
    return GronwallTrials(t_star=t_star, y=y, bound=bound)

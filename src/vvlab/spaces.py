"""Norm engine: the layer's weighted column norms, asked for by
AnisotropicIndex(k, l, p); the volume norms, asked for by the strings l2,
linf, h1 and lp:<p>; and the layer's map onto a volume grid, a not-a-knot
spline of its columns.  The invariant suite (``checks``) holds the analytic
tools it tests: Hardy's inequality, the local Gronwall bound and the scaling
check.

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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import geometry as geo
from ._lapack import dgtsv
from .errors import ConfigError, InvalidParameterError, UnsupportedCombinationError
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

    def grad_sq(self, u: np.ndarray, sq: np.ndarray, out: np.ndarray,
                tmp: np.ndarray, rows: slice) -> np.ndarray:
        """Pointwise |grad u|^2 of the flow component u, frame curvature
        included: u'^2 in the channel (u = u_x(y)), u'^2 + u^2/r^2 in the
        annulus (u = u_theta(r)), from ``sq``, u^2.  ``out`` and ``tmp``,
        arrays of u's shape, take the result, in its ``rows`` alone, and
        the intermediate values."""
        _apply_first_deriv(self._deriv_weights, u, out, tmp, rows)
        r = out[rows]
        np.square(r, out=r)
        # not u^2 / radius^2: a norm's field may be infinite, and the
        # channel's inf / inf would turn its inf into NaN
        if self.geom.kind == geo.ANNULUS_GAP:
            r += np.divide(sq[rows], self._coords_sq[rows], out=tmp[rows])
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
# boundary layer evaluation
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

"""Inviscid base flows: exact steady families in the reduced geometries,
with the boundary data handed to the layer solver.

The analytic families are exact steady Euler solutions with zero normal
velocity by construction:

* swirl   u0 = U(r) e_theta in the annulus, pressure balancing U^2/r;
* shear   u0 = U(y) e_x in the channel, constant pressure.

One constructor, ``steady_base_flow``, checks both: the profile's type
names the geometry (``LaurentProfile`` U(r) the annulus, ``ShearProfile``
U(y) the channel) and the profile is the base flow, the one input of the
reference solve and of the ansatz, in the one component
``GeometryDescriptor.flow_comp`` names.  Its exact axial vorticity is the
curl.  The flows are steady and parallel, so the one piece that feeds the
layer solver is the constant wall datum g = curl u0 x n, one number per
wall along that same component (``boundary_data_g``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import ConfigError, InvalidProfileError

# ---------------------------------------------------------------------------
# radial / shear profiles with exact derivatives
# ---------------------------------------------------------------------------


def _power_sum(x, terms, order=0):
    """The order-th derivative of sum c x^k over the (k, c) ``terms``, each
    term in exact form; order 0 is the sum itself (c * 1.0 is c)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for k, c in terms:
        fac = 1.0
        for j in range(order):
            fac *= k - j
        if fac != 0.0:
            out = out + c * fac * x ** float(k - order)
    return out


@dataclass(frozen=True)
class LaurentProfile:
    """U(r) = sum_k c_k r^k with integer powers k >= -1.

    Covers rigid rotation (k=1), the potential vortex (k=-1) and general
    polynomial swirls with exact derivatives.
    """

    coeffs: dict

    def __post_init__(self):
        for k in self.coeffs:
            if k < -1:
                raise ConfigError("powers below r^-1 are not supported")

    def value(self, r):
        return _power_sum(r, self.coeffs.items())

    def deriv(self, r, order=1):
        return _power_sum(r, self.coeffs.items(), order)

    def vorticity(self, r):
        """(1/r) d(r U)/dr as an exact series: sum c_k (k+1) r^(k-1).

        The k = -1 term drops symbolically, so the potential vortex is
        curl free to the bit, not merely to round-off.
        """
        return _power_sum(r, [(k - 1, c * (k + 1)) for k, c in self.coeffs.items()
                              if k != -1])


@dataclass(frozen=True)
class ShearProfile:
    """U(y) = polynomial + sum of cosine modes amp*cos(k*pi*y/h)."""

    poly: tuple = ()
    cosines: tuple = ()       # (amp, k) pairs
    h: float = 1.0

    def value(self, y):
        y = np.asarray(y, dtype=float)
        out = _power_sum(y, enumerate(self.poly))
        for amp, k in self.cosines:
            out = out + amp * np.cos(k * math.pi * y / self.h)
        return out

    def deriv(self, y, order=1):
        y = np.asarray(y, dtype=float)
        out = _power_sum(y, enumerate(self.poly), order)
        for amp, k in self.cosines:
            om = k * math.pi / self.h
            trig = [np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x), np.sin][order % 4]
            term = amp * om**order * trig(om * y)
            if order % 2:
                # an odd order is a sine, exactly 0 where k y / h is an
                # integer; the rounded angle gives ~1e-16 (sin(pi) != 0)
                q = k * y / self.h
                term = np.where(q == np.round(q), 0.0, term)
            out = out + term
        return out

    def vorticity(self, y):
        """The axial vorticity -U'(y) of U(y) e_x."""
        return -self.deriv(y)


# ---------------------------------------------------------------------------
# base flows and their boundary data
# ---------------------------------------------------------------------------


def steady_base_flow(profile: LaurentProfile | ShearProfile,
                     geom: geo.GeometryDescriptor) -> LaurentProfile | ShearProfile:
    """u0 = U(r) e_theta in the annulus, pressure balancing U^2/r, for a
    LaurentProfile; u0 = U(y) e_x in the channel, constant pressure, for a
    ShearProfile.  Returns ``profile``, checked against ``geom`` and for
    finite values across the gap: the profile is the base flow."""
    swirl = isinstance(profile, LaurentProfile)
    if geom.kind != (geo.ANNULUS_GAP if swirl else geo.FLAT_CHANNEL):
        raise ConfigError(f"{'swirl' if swirl else 'shear'} base flow requires the "
                          f"{'annulus' if swirl else 'channel'} geometry")
    lo, hi = geom.coord_bounds
    if not np.all(np.isfinite(profile.value(np.linspace(lo, hi, 64)))):
        raise InvalidProfileError(f"profile not finite on [{lo:g}, {hi:g}]")
    return profile


def rigid_rotation(omega: float, geom: geo.GeometryDescriptor) -> LaurentProfile:
    return steady_base_flow(LaurentProfile({1: omega}), geom)


def potential_vortex(circulation: float, geom: geo.GeometryDescriptor) -> LaurentProfile:
    return steady_base_flow(LaurentProfile({-1: circulation}), geom)


def boundary_data_g(profile: LaurentProfile | ShearProfile,
                    geom: geo.GeometryDescriptor, wall: geo.Wall) -> float:
    """g = curl(u0) x n at ``wall``, along the flow component, its only one.

    The curl is the axial vorticity omega e_axial and n is into_domain
    times the cross unit vector, so g is orientation omega into_domain
    (``GeometryDescriptor.orientation``: e_axial x e_rad = e_theta in the
    annulus, e_z x e_y = -e_x in the channel).  Sign convention: the layer
    solver imposes d/dz u_b|_{z=0} = -g.
    """
    omega = float(profile.vorticity(np.array([wall.coord]))[0])
    return geom.orientation * omega * wall.into_domain

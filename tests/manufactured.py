"""Manufactured layer cases: base flows that exercise the layer solver's
explicit terms (a nonzero stretching f, couplings, a time-dependent wall
datum g and a layer forcing).  They have no profile and feed no study;
criterion 8, test_layer, test_expansion and test_cn_kernel march them.
"""

import math

import numpy as np

from vvlab import geometry as geo
from vvlab.errors import ConfigError
from vvlab.euler import _CROSS_J, BaseFlow, _zeros3


def oscillating_shear_case(geom: geo.GeometryDescriptor, amp=1.0, omega=2.0,
                           f0=0.4) -> BaseFlow:
    """Unsteady shear u0 = amp*cos(omega t)*cos(pi y/H) e_x, an exact forced
    solution; supplies a time-dependent wall datum g, a nonzero smooth f for
    the layer stretching term and a constant coupling matrix."""
    if geom.kind != geo.FLAT_CHANNEL:
        raise ConfigError("oscillating shear case requires the channel")
    h = geom.h

    def curl(t, coords):
        coords = np.asarray(coords, dtype=float)
        out = _zeros3(coords)
        out[2] = amp * math.cos(omega * t) * math.pi / h * np.sin(math.pi * coords / h)
        return out

    return BaseFlow(
        geom=geom,
        steady=False,
        curl=curl,
        f_stretch=lambda t: f0 * math.cos(omega * t),
        coupling_matrix=lambda t, wall: np.array([[0.3, 0.1], [0.0, -0.2]]),
    )


def layer_mms_case(geom: geo.GeometryDescriptor, omega: float = 3.0,
                   f0: float = 0.0, a_mat=None) -> BaseFlow:
    """Manufactured layer solution b(t, z) = sin(omega t) exp(-z^2) w.

    Zero initial data and zero wall datum (d/dz b(t,0) = 0, so curl = 0).
    The forcing closes the layer equation with the coupling J A, so the
    marched solution must converge to b at the solver's orders.
    The returned flow carries b as ``exact_profile(t, z)``.
    """
    w_dir = np.array([1.0, 0.5])
    a_mat = np.zeros((2, 2)) if a_mat is None else np.asarray(a_mat, dtype=float)
    a_eff = _CROSS_J @ a_mat

    def exact(t, z):
        return math.sin(omega * t) * np.exp(-np.asarray(z) ** 2)[None, :] * w_dir[:, None]

    def layer_forcing(t, wall, z):
        # F = db/dt - d2b/dz2 + f z db/dz + A_eff b for the exact profile
        z = np.asarray(z, dtype=float)
        a = math.sin(omega * t)
        da = omega * math.cos(omega * t)
        shape = np.exp(-(z**2))
        core = da - a * (4.0 * z**2 - 2.0) - 2.0 * f0 * math.cos(omega * t) * z**2 * a
        return core[None, :] * w_dir[:, None] * shape[None, :] \
            + a * (a_eff @ w_dir)[:, None] * shape[None, :]

    flow = BaseFlow(
        geom=geom,
        steady=False,
        curl=lambda t, coords: _zeros3(coords),
        f_stretch=lambda t: f0 * math.cos(omega * t),
        coupling_matrix=lambda t, wall: a_mat,
        layer_forcing=layer_forcing,
    )
    flow.exact_profile = exact
    return flow

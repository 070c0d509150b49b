"""Ansatz assembly and the Weyl/Leray split.

The approximate field is u0 + sqrt(nu) u_b(x, phi/sqrt(nu)) + nu v, layer
terms cut off inside the collar; the remainder R = (u_nu - ansatz)/nu is
what the convergence theory bounds uniformly.  The wall identity of R,
``remainder_bc_residual``, is a test oracle in ``tests/manufactured.py``:
no command reports it.  The corrector v is driven by
the slow divergence of u_b, which vanishes here: u_b is tangential and does
not vary along the wall or across the collar, so v = 0 and the ansatz is
u0 + sqrt(nu) u_b.  Every studied flow carries one component,
``GeometryDescriptor.flow_comp``, and its layer moves only that one (g =
curl u0 x n points along it), so the ansatz, u - u0 and R are each that
component alone: (n_t, n) histories, (n,) arrays at one time.

In the reduced symmetric geometries the Weyl decomposition is exact:
gradients are precisely the wall-normal component fields and the
divergence-free tangent fields are the remaining components, so the
projector is a mask on the components of a (3, n) field: idempotent and
orthogonal to round-off.  It is the one three-component function here.
The flow component is tangential, so P R = R and (I - P) R = 0 for every
studied flow.
"""

from __future__ import annotations

import math

import numpy as np

from . import geometry as geo
from .errors import ConfigError
from .layer import LayerProfile
from .ns import time_index
from .spaces import _spline_on_wall


def assemble_ansatz(u0: np.ndarray, layer: LayerProfile, nu: float,
                    coords: np.ndarray, times) -> np.ndarray:
    """The (n_t, n) flow component of u0 + sqrt(nu) u_b at shared times.

    The order-nu corrector v is zero in these geometries (see the module
    docstring).  ``u0`` is the base flow's (n,) values on ``coords``,
    broadcast over the times; sqrt(nu) u_b is added wall by wall of
    ``layer.geom`` with one evaluation of the wall's fit at every stored
    time (``WallLayerSeries.spline``), whose rows at ``times`` are taken.  A
    wall whose profiles are all zero (the vortex and flat-shear layers:
    g = 0) has no fit, adds nothing and is not evaluated; when no wall adds,
    the result is u0's read-only broadcast, not a copy.
    The collars are disjoint and a wall's layer is exactly zero outside its
    own, so each point receives at most one nonzero layer term.
    """
    if not 0 < nu < math.inf:
        raise ConfigError(f"nu must be positive and finite, got {nu}")
    geom = layer.geom
    idx = [time_index(layer.times, t) for t in times]

    u0 = np.broadcast_to(u0, (len(times), len(coords)))
    u_approx = u0
    for w in geom.walls():
        spline = layer.walls[w.wall_id].spline
        if spline is None:
            continue
        if u_approx is u0:
            u_approx = np.array(u0)
        u_approx += math.sqrt(nu) * _spline_on_wall(spline, geom, w.wall_id, coords, nu)[idx]
    return u_approx


# ---------------------------------------------------------------------------
# Leray / Weyl projection
# ---------------------------------------------------------------------------


def leray_project(geom: geo.GeometryDescriptor, values: np.ndarray):
    """Split a (3, n) field into (divergence-free tangent part, gradient part).

    Exact in the reduced geometries: the gradient part is the wall-normal
    component (the gradient of its integral along the cross coordinate),
    the projected part the tangential components.  Idempotent and
    orthogonal to round-off by construction.
    """
    values = np.asarray(values, dtype=float)
    grad_vals = np.zeros_like(values)
    nc = geom.normal_comp
    grad_vals[nc] = values[nc]
    return values - grad_vals, grad_vals


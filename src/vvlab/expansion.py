"""Ansatz assembly, remainder extraction, and the Weyl/Leray split.

The approximate field is u0 + sqrt(nu) u_b(x, phi/sqrt(nu)) + nu v, layer
terms cut off inside the collar; the remainder R = (u_nu - ansatz)/nu is
what the convergence theory bounds uniformly.  The corrector v is driven by
the slow divergence of u_b, which vanishes here: u_b is tangential and does
not vary along the wall or across the collar, so v = 0 and the ansatz is
u0 + sqrt(nu) u_b, u0 itself (no copy) where u_b = 0.  R is formed one
stored time at a time.

In the reduced symmetric geometries the Weyl decomposition is exact:
gradients are precisely the wall-normal component fields and the
divergence-free tangent fields are the remaining components, so the
projector is a mask on the components: idempotent and orthogonal to
round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import ConfigError
from .euler import BaseFlow
from .layer import LayerProfile, slow_curl_at_wall
from .ns import ViscousSolution, time_index
from .spaces import VolumeField, curl_volume, eval_profile_on_wall


@dataclass
class AnsatzBundle:
    """Composite approximation and its pieces on a volume grid."""

    nu: float
    geom: geo.GeometryDescriptor
    coords: np.ndarray
    times: np.ndarray
    u_approx: np.ndarray           # (n_t, 3, n); u0_part itself if no wall adds a layer
    u0_part: np.ndarray


def assemble_ansatz(flow: BaseFlow, profile: LayerProfile,
                    geom: geo.GeometryDescriptor, nu: float,
                    coords: np.ndarray, times=None) -> AnsatzBundle:
    """Evaluate u0 + sqrt(nu) u_b on the volume grid at shared times.

    The order-nu corrector v is zero in these geometries (see the module
    docstring), so u_approx is u0_part plus sqrt(nu) u_b, added wall by wall
    with one evaluation of each wall's stacked profiles.  A wall whose
    profiles are all zero (the vortex and flat-shear layers: g = 0) adds
    nothing and is not evaluated; when no wall adds, u_approx is
    u0_part itself, not a copy.  The collars are disjoint and a wall's layer
    is exactly zero outside its own, so each point receives at most one
    nonzero layer term.  A steady flow's u0 is evaluated once and broadcast
    over the times (u0_part is then a read-only view); an unsteady one is
    evaluated at each time.
    """
    if nu <= 0:
        raise ConfigError("nu must be positive")
    if profile.geom.kind != geom.kind:
        raise ConfigError("profile geometry does not match")
    times = profile.times if times is None else np.asarray(times, dtype=float)
    idx = [time_index(profile.times, t) for t in times]

    comp = {name: i for i, name in enumerate(geom.comp_names)}
    shape = (len(times), 3, len(coords))
    if flow.steady:
        u0_part = np.broadcast_to(flow.velocity(0.0, coords), shape)
    else:
        u0_part = np.array([flow.velocity(t, coords) for t in times]).reshape(shape)
    u_approx = u0_part
    for w in geom.walls():
        pf = profile.profile(w.wall_id, idx)
        if not pf.values.any():
            continue
        if u_approx is u0_part:
            u_approx = np.array(u0_part)
        vals = eval_profile_on_wall(pf, geom, w.wall_id, coords, nu)
        for slot, name in enumerate(w.tangent_names):
            u_approx[:, comp[name]] += math.sqrt(nu) * vals[:, slot]

    return AnsatzBundle(
        nu=nu, geom=geom, coords=np.asarray(coords, dtype=float),
        times=np.asarray(times, dtype=float),
        u_approx=u_approx, u0_part=u0_part,
    )


# ---------------------------------------------------------------------------
# Leray / Weyl projection
# ---------------------------------------------------------------------------


def leray_project(vf: VolumeField):
    """Split a volume field into (divergence-free tangent part, gradient part).

    Exact in the reduced geometries: the gradient part is the wall-normal
    component (the gradient of its integral along the cross coordinate),
    the projected part the tangential components.  Idempotent and
    orthogonal to round-off by construction.
    """
    grad_vals = np.zeros_like(vf.values)
    nc = vf.geom.normal_comp
    grad_vals[nc] = vf.values[nc]
    p_vals = vf.values - grad_vals
    p_field = VolumeField(geom=vf.geom, coords=vf.coords, values=p_vals)
    g_field = VolumeField(geom=vf.geom, coords=vf.coords, values=grad_vals)
    return p_field, g_field


# ---------------------------------------------------------------------------
# remainder
# ---------------------------------------------------------------------------


@dataclass
class RemainderField:
    """R = (u_nu - ansatz)/nu, formed one stored time at a time by ``at``."""

    nu: float
    geom: geo.GeometryDescriptor
    coords: np.ndarray
    times: np.ndarray
    sol: ViscousSolution
    index: list                    # the solution's stored index of each time
    u_approx: np.ndarray           # (n_t, 3, n)

    def u_at(self, it: int) -> np.ndarray:
        """The reference solution's (3, n) velocity at time ``it``."""
        return self.sol.at(self.index[it])

    def at(self, it: int) -> np.ndarray:
        return (self.u_at(it) - self.u_approx[it]) / self.nu

    def field_at(self, it: int) -> VolumeField:
        """R at stored index ``it``."""
        return VolumeField(geom=self.geom, coords=self.coords,
                           values=self.at(it))


def extract_remainder(sol: ViscousSolution, bundle: AnsatzBundle) -> RemainderField:
    """R = (u_nu - ansatz)/nu at the shared time stamps, formed on demand."""
    if abs(sol.nu - bundle.nu) > 1e-15 * max(sol.nu, bundle.nu):
        raise ConfigError("viscosities of solution and ansatz differ")
    if sol.geom.kind != bundle.geom.kind or len(sol.coords) != len(bundle.coords) \
            or not np.allclose(sol.coords, bundle.coords, rtol=0.0, atol=1e-12):
        raise ConfigError("grid incompatibility between solution and ansatz")
    return RemainderField(
        nu=bundle.nu, geom=bundle.geom, coords=bundle.coords,
        times=bundle.times.copy(),
        sol=sol, index=[time_index(sol.times, t) for t in bundle.times],
        u_approx=bundle.u_approx,
    )


def remainder_bc_residual(rem: RemainderField, profile: LayerProfile,
                          nu: float) -> tuple:
    """Max-norm residuals of the two remainder wall identities.

    First: R . n + v(t, 0) . n = 0.  Second (tangential, vector magnitude):
    curl R x n + nu^{-1/2} curl_x u_b|_{z=0} x n + curl_x v|_{z=0} x n = 0.
    The corrector v is zero here (see the module docstring), so its terms
    drop out of both identities.
    """
    geom = rem.geom
    res_n = 0.0
    res_t = 0.0
    comp = {name: i for i, name in enumerate(geom.comp_names)}
    for it, t in enumerate(rem.times):
        ip = time_index(profile.times, t)
        vf = rem.field_at(it)
        curl = curl_volume(vf)
        for left, w in zip((True, False), geom.walls()):
            i = 0 if left else -1
            rn = float(vf.values[:, i] @ w.normal)
            res_n = max(res_n, abs(rn))
            curl_wall = curl[:, i]
            term_r = np.cross(curl_wall, w.normal)
            cx = slow_curl_at_wall(profile, w.wall_id, ip)
            term_b = np.cross(cx, w.normal) / math.sqrt(nu)
            res_t = max(res_t, float(np.linalg.norm(term_r + term_b)))
    return res_n, res_t

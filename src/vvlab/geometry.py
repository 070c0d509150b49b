"""Domain backends: wall distances and the layer's collar cutoff.

Two reduced geometries are supported:

* ``flat_channel`` -- gap 0 < y < H with periodic tangential directions,
  walls at y = 0 ("lower") and y = H ("upper");
* ``annulus_gap``  -- gap r1 < r < r2 between concentric cylinders with
  periodic theta and axial z, walls at r = r1 ("inner") and r = r2 ("outer").

The ansatz reads the exact distance to each wall, which grows with unit
slope into the domain, and a cutoff that confines the layer to the collar
{d < eta} of its wall.  Each wall carries its inward unit normal.  Vector
components are stored in the orthonormal right-handed frame of the
geometry: (x, y, z) for the channel and (rad, theta, axial) for the annulus.

The channel is the annulus's flat limit: each cross-section formula is
written once, in the frame's radius r (``GeometryDescriptor.radius``, +inf
in the channel, where every 1/r term is +-0.0) and its orientation (+1 in
the annulus, -1 in the channel): the flow component u has the axial
vorticity orientation (u' + u/r).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainViolationError

FLAT_CHANNEL = "flat_channel"
ANNULUS_GAP = "annulus_gap"

# fraction of eta where the layer cutoff starts to roll off
CUTOFF_PLATEAU = 0.5


def trapezoid_weights(x: np.ndarray) -> np.ndarray:
    """Weights of the trapezoid rule on the nodes ``x``."""
    x = np.asarray(x, dtype=float)
    w = np.zeros_like(x)
    d = np.diff(x)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


@dataclass(frozen=True)
class Wall:
    """One wall of a reduced geometry.

    ``into_domain`` is +1 when the wall-normal coordinate increases into the
    domain.  ``tangent_names`` lists the two tangential component names in an
    order such that t1 x t2 = n (right-handed wall frame).
    """

    wall_id: str
    coord: float
    into_domain: float
    normal: np.ndarray
    tangent_names: tuple


@dataclass(frozen=True)
class GeometryDescriptor:
    kind: str
    eta: float
    h: float | None = None
    r1: float | None = None
    r2: float | None = None

    def __post_init__(self):
        if self.kind == FLAT_CHANNEL:
            if self.h is None or self.h <= 0:
                raise ConfigError("flat_channel needs gap height h > 0")
            gap = self.h
        elif self.kind == ANNULUS_GAP:
            if self.r1 is None or self.r2 is None:
                raise ConfigError("annulus_gap needs radii r1, r2")
            if not (0 < self.r1 < self.r2):
                raise ConfigError("annulus_gap needs 0 < r1 < r2")
            gap = self.r2 - self.r1
        else:
            raise ConfigError(f"unknown geometry kind {self.kind!r}")
        if not (0 < self.eta < gap / 2):
            raise ConfigError("eta must satisfy 0 < eta < gap/2 so collars are disjoint")

    # -- frame metadata ----------------------------------------------------

    @property
    def comp_names(self) -> tuple:
        if self.kind == FLAT_CHANNEL:
            return ("x", "y", "z")
        return ("rad", "theta", "axial")

    @property
    def normal_comp(self) -> int:
        """Index of the wall-normal component in ``comp_names``."""
        return 1 if self.kind == FLAT_CHANNEL else 0

    @property
    def flow_comp(self) -> int:
        """Index of the one component a studied flow and its layer carry:
        x for the channel shear, theta for the annulus swirl."""
        return 0 if self.kind == FLAT_CHANNEL else 1

    @property
    def orientation(self) -> float:
        """(e_axial x e_cross) . e_flow: +1 in the annulus, -1 in the channel."""
        return 1.0 if self.kind == ANNULUS_GAP else -1.0

    def radius(self, coords):
        """The frame's radius at ``coords``: coords itself in the annulus,
        the same array, and +inf in the channel, a read-only broadcast."""
        return (coords if self.kind == ANNULUS_GAP
                else np.broadcast_to(np.inf, np.shape(coords)))

    @property
    def gap(self) -> float:
        return self.h if self.kind == FLAT_CHANNEL else self.r2 - self.r1

    @property
    def coord_bounds(self) -> tuple:
        if self.kind == FLAT_CHANNEL:
            return (0.0, self.h)
        return (self.r1, self.r2)

    def walls(self) -> tuple:
        if self.kind == FLAT_CHANNEL:
            return (
                Wall("lower", 0.0, +1.0, np.array([0.0, 1.0, 0.0]), ("z", "x")),
                Wall("upper", self.h, -1.0, np.array([0.0, -1.0, 0.0]), ("x", "z")),
            )
        return (
            Wall("inner", self.r1, +1.0, np.array([1.0, 0.0, 0.0]), ("theta", "axial")),
            Wall("outer", self.r2, -1.0, np.array([-1.0, 0.0, 0.0]), ("axial", "theta")),
        )

    def wall(self, wall_id: str) -> Wall:
        for w in self.walls():
            if w.wall_id == wall_id:
                return w
        raise ConfigError(f"unknown wall {wall_id!r} for {self.kind}")

    # -- grids and measures --------------------------------------------------

    def volume_grid(self, n: int) -> np.ndarray:
        """Uniform cross-coordinate grid including both walls."""
        lo, hi = self.coord_bounds
        return np.linspace(lo, hi, n)

    def measure(self, coords: np.ndarray) -> np.ndarray:
        """Volume measure density at the given cross coordinates.

        Tangential directions carry unit extent for the channel and full
        circumference times unit axial length for the annulus.
        """
        coords = np.asarray(coords, dtype=float)
        if self.kind == FLAT_CHANNEL:
            return np.ones_like(coords)
        return 2.0 * np.pi * coords

    def quadrature_weights(self, coords: np.ndarray) -> np.ndarray:
        """Trapezoid weights times the volume measure density."""
        coords = np.asarray(coords, dtype=float)
        return trapezoid_weights(coords) * self.measure(coords)

    def collar_measure(self, wall_id: str) -> float:
        """Trapezoid measure of the collar {d < eta} at one wall.

        The measure density is affine in the cross coordinate, so the
        trapezoid rule on the collar's two ends is the exact shell measure,
        and trapezoid weights summed over any grid of the collar agree with
        it to round-off.
        """
        w = self.wall(wall_id)
        ends = np.sort([w.coord, w.coord + w.into_domain * self.eta])
        return float(np.sum(self.quadrature_weights(ends)))


def flat_channel(h: float, eta: float) -> GeometryDescriptor:
    return GeometryDescriptor(kind=FLAT_CHANNEL, eta=eta, h=h)


def annulus_gap(r1: float, r2: float, eta: float) -> GeometryDescriptor:
    return GeometryDescriptor(kind=ANNULUS_GAP, eta=eta, r1=r1, r2=r2)


# ---------------------------------------------------------------------------
# distances and the collar cutoff
# ---------------------------------------------------------------------------


def _check_inside(geom: GeometryDescriptor, coords: np.ndarray) -> np.ndarray:
    coords = np.asarray(coords, dtype=float)
    lo, hi = geom.coord_bounds
    tol = 1e-12 * geom.gap
    if np.any(coords < lo - tol) or np.any(coords > hi + tol):
        raise DomainViolationError(
            f"coordinate outside closed domain [{lo}, {hi}]"
        )
    return coords


def wall_distance(geom: GeometryDescriptor, wall_id: str, coords) -> np.ndarray:
    """Exact distance to one wall; smooth on the whole domain."""
    coords = _check_inside(geom, coords)
    w = geom.wall(wall_id)
    return w.into_domain * (coords - w.coord)


def min_wall_distance(geom: GeometryDescriptor, coords) -> np.ndarray:
    """Raw distance to the nearest wall; kinked at the midline."""
    coords = _check_inside(geom, coords)
    lo, hi = geom.coord_bounds
    return np.minimum(coords - lo, hi - coords)


def collar_cutoff(geom: GeometryDescriptor, distance) -> np.ndarray:
    """Smooth cutoff in the wall distance: 1 on [0, eta/2], 0 beyond eta.

    Quintic smoothstep transition, C^2 at both ends.  Layer terms are
    multiplied by this cutoff so they vanish outside the collar.
    """
    d = np.asarray(distance, dtype=float)
    a = CUTOFF_PLATEAU * geom.eta
    x = np.clip((d - a) / (geom.eta - a), 0.0, 1.0)
    smooth = x**3 * (10.0 - 15.0 * x + 6.0 * x**2)
    return 1.0 - smooth

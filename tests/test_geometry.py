import math

import numpy as np
import pytest

from vvlab import geometry as geo
from vvlab.errors import ConfigError, DomainViolationError
from vvlab.spaces import diff_along


def test_flat_distance_is_wall_distance(channel):
    assert float(geo.min_wall_distance(channel, 0.1)) == pytest.approx(0.1)


def test_annulus_distance_outer_wall(annulus):
    assert float(geo.min_wall_distance(annulus, 1.9)) == pytest.approx(0.1)


def test_point_outside_domain_raises(annulus):
    for distance in (lambda c: geo.wall_distance(annulus, "inner", c),
                     lambda c: geo.min_wall_distance(annulus, c)):
        with pytest.raises(DomainViolationError):
            distance(2.5)
        with pytest.raises(DomainViolationError):
            distance(0.5)


def _collar_ends(geom, wall):
    return np.sort([wall.coord, wall.coord + wall.into_domain * geom.eta])


@pytest.mark.parametrize("n_points", [4, 12, 24])
@pytest.mark.parametrize("kind", ["annulus", "channel"])
def test_collar_measure_equals_summed_collar_weights(kind, n_points, request):
    # closed forms: the shells pi((r1 + eta)^2 - r1^2) and
    # pi(r2^2 - (r2 - eta)^2) per unit axial length, eta in the channel; the
    # trapezoid weights of any grid of the collar sum to the same
    geom = request.getfixturevalue(kind)
    eta = geom.eta
    if kind == "annulus":
        want = {"inner": math.pi * ((geom.r1 + eta) ** 2 - geom.r1**2),
                "outer": math.pi * (geom.r2**2 - (geom.r2 - eta) ** 2)}
    else:
        want = {"lower": eta, "upper": eta}
    for w in geom.walls():
        summed = geom.quadrature_weights(np.linspace(*_collar_ends(geom, w), n_points))
        assert geom.collar_measure(w.wall_id) == pytest.approx(want[w.wall_id], rel=1e-14)
        assert float(np.sum(summed)) == pytest.approx(want[w.wall_id], rel=1e-14)


def test_collars_disjoint(annulus):
    inner, outer = (_collar_ends(annulus, w) for w in annulus.walls())
    assert inner[1] < outer[0]


def test_grad_phi_unit_on_collar_samples(annulus):
    # finite differences of each wall's distance over its collar reproduce
    # the wall's unit normal
    for w in annulus.walls():
        r = np.linspace(*_collar_ends(annulus, w), 32)
        dphi = diff_along(geo.wall_distance(annulus, w.wall_id, r), r)
        assert np.allclose(dphi, w.normal[0], atol=1e-9)


def test_geometry_validation():
    with pytest.raises(ConfigError):
        geo.annulus_gap(2.0, 1.0, eta=0.1)       # r2 < r1
    with pytest.raises(ConfigError):
        geo.annulus_gap(-1.0, 2.0, eta=0.1)      # r1 <= 0
    with pytest.raises(ConfigError):
        geo.flat_channel(1.0, eta=0.6)           # collars overlap
    with pytest.raises(ConfigError):
        geo.flat_channel(-1.0, eta=0.1)


def test_cutoff_plateau_and_support(annulus):
    d = np.array([0.0, 0.2, 0.225, 0.3, 0.45, 0.6])
    chi = geo.collar_cutoff(annulus, d)
    assert chi[0] == 1.0 and chi[1] == 1.0
    assert 0.0 < chi[3] < 1.0
    assert chi[4] == 0.0 and chi[5] == 0.0


def test_radius_and_orientation_of_the_flat_limit(annulus, channel):
    # the annulus's radius is its coordinate array itself; the channel is
    # its flat limit, r = +inf, with the opposite orientation
    x = annulus.volume_grid(33)
    assert annulus.radius(x) is x
    y = channel.volume_grid(33)
    r = channel.radius(y)
    assert r.shape == y.shape and np.all(r == np.inf)
    assert channel.radius(0.5) == np.inf
    assert (annulus.orientation, channel.orientation) == (1.0, -1.0)


def test_channel_radius_owns_no_buffer(channel):
    # the channel's radius is a broadcast of one +inf: every reader only
    # reads it, so no call allocates an (n,) array
    y = channel.volume_grid(4097)
    r = channel.radius(y)
    assert r.strides == (0,) and not r.flags.owndata and not r.flags.writeable
    assert r.base.nbytes <= 8

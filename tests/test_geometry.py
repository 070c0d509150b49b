import numpy as np
import pytest

from vvlab import geometry as geo
from vvlab.errors import AmbiguousNormalError, ConfigError, DomainViolationError
from vvlab.spaces import diff_along


def test_flat_distance_is_wall_distance(channel):
    assert float(geo.signed_distance(channel, 0.1)) == pytest.approx(0.1)


def test_annulus_distance_outer_wall(annulus):
    assert float(geo.signed_distance(annulus, 1.9)) == pytest.approx(0.1)


def test_cap_outside_collar():
    g = geo.annulus_gap(1.0, 2.0, eta=0.25)
    assert float(geo.signed_distance(g, 1.5)) >= 0.25


def test_cap_is_monotone_and_continuous(annulus):
    r = np.linspace(1.0, 1.5, 4001)
    phi = geo.signed_distance(annulus, r)
    assert np.all(np.diff(phi) >= -1e-15)
    assert np.abs(np.diff(phi)).max() < 2e-3  # no jumps at the blend point


def test_point_outside_domain_raises(annulus):
    with pytest.raises(DomainViolationError):
        geo.signed_distance(annulus, 2.5)
    with pytest.raises(DomainViolationError):
        geo.signed_distance(annulus, 0.5)


def test_normal_ambiguous_at_midline(annulus):
    with pytest.raises(AmbiguousNormalError):
        geo.laplacian_phi(annulus, 1.5)


def test_laplacian_phi(channel, annulus):
    assert float(geo.laplacian_phi(channel, 0.1)) == 0.0
    r = 1.9
    assert float(geo.laplacian_phi(annulus, r)) == pytest.approx(-1.0 / r)
    r = 1.1
    assert float(geo.laplacian_phi(annulus, r)) == pytest.approx(1.0 / r)


def test_laplacian_matches_finite_differences(annulus):
    # oracle: (1/r) d/dr (r dphi/dr) of the tabulated distance
    for r0 in (1.05, 1.25, 1.85):
        h = 1e-4
        r = np.array([r0 - h, r0, r0 + h])
        phi = geo.signed_distance(annulus, r)
        d1 = (phi[2] - phi[0]) / (2 * h)
        d2 = (phi[2] - 2 * phi[1] + phi[0]) / h**2
        lap_fd = d2 + d1 / r0
        assert lap_fd == pytest.approx(float(geo.laplacian_phi(annulus, r0)),
                                       abs=1e-6)


def test_build_collar_monotone_from_wall(channel):
    charts = geo.build_collar(channel, 8)
    phi = charts["lower"].phi
    assert phi[0] == pytest.approx(0.0, abs=1e-15)
    assert np.all(np.diff(phi) > 0)
    assert phi[-1] == pytest.approx(channel.eta)


def test_build_collar_deterministic(annulus):
    a = geo.build_collar(annulus, 12)
    b = geo.build_collar(annulus, 12)
    for wall in a:
        assert np.array_equal(a[wall].s_grid, b[wall].s_grid)
        assert np.array_equal(a[wall].phi, b[wall].phi)
        assert np.array_equal(a[wall].lap_phi, b[wall].lap_phi)


@pytest.mark.parametrize("n_points", [4, 12, 24])
@pytest.mark.parametrize("kind", ["annulus", "channel"])
def test_collar_measure_equals_summed_collar_weights(kind, n_points, request):
    geom = request.getfixturevalue(kind)
    charts = geo.build_collar(geom, n_points)
    for w in geom.walls():
        want = float(np.sum(charts[w.wall_id].s_weights))
        assert geom.collar_measure(w.wall_id) == pytest.approx(want, rel=1e-15)


def test_build_collar_too_few_points(annulus):
    with pytest.raises(ConfigError):
        geo.build_collar(annulus, 3)


def test_collars_disjoint(annulus):
    charts = geo.build_collar(annulus, 16)
    inner = charts["inner"].s_grid
    outer = charts["outer"].s_grid
    assert inner.max() < outer.min()


def test_grad_phi_unit_on_collar_samples(annulus):
    # finite differences of tabulated phi reproduce the wall's unit normal
    charts = geo.build_collar(annulus, 32)
    for chart in charts.values():
        order = np.argsort(chart.s_grid)
        dphi = diff_along(chart.phi[order], chart.s_grid[order], axis=-1)
        assert np.allclose(dphi, annulus.wall(chart.wall_id).normal[0], atol=1e-9)


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

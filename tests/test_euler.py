import numpy as np
import pytest

from vvlab.errors import ConfigError, InvalidProfileError
from vvlab.euler import (
    LaurentProfile,
    ShearProfile,
    boundary_data_g,
    potential_vortex,
    rigid_rotation,
    steady_base_flow,
)
from vvlab.layer import solve_layer
from vvlab.spaces import FastGrid
from vvlab.study import EulerSpec


def test_rigid_rotation_curl(annulus):
    flow = rigid_rotation(2.5, annulus)
    r = annulus.volume_grid(64)
    # (1/r) d(Omega r^2)/dr = 2 Omega, the curl's one (axial) component
    assert np.allclose(flow.vorticity(r), 5.0)


def test_potential_vortex_curl_free(annulus):
    flow = potential_vortex(1.0, annulus)
    assert np.allclose(flow.vorticity(annulus.volume_grid(64)), 0.0, atol=1e-14)


def test_channel_uniform_flow(channel):
    flow = steady_base_flow(ShearProfile(poly=(1.0,)), channel)
    y = channel.volume_grid(64)
    assert np.allclose(flow.vorticity(y), 0.0)


def test_channel_cosine_wall_curl(channel):
    # U = cos(pi y / H): U'(0) = U'(H) = 0, so the wall curl vanishes
    flow = steady_base_flow(ShearProfile(cosines=((1.0, 1),), h=channel.h),
                            channel)
    for w in channel.walls():
        assert np.allclose(boundary_data_g(flow, channel, w), 0.0, atol=1e-14)


def test_cosine_odd_derivatives_vanish_exactly_at_integer_phases(channel):
    # an odd derivative of cos(k pi y / h) is a sine, exactly 0 where k y / h
    # is an integer; elsewhere, and at every even order, it is the formula
    h = 1.5
    prof = ShearProfile(cosines=((0.7, 2),), h=h)
    y = np.array([0.0, 0.3, h / 2, 1.1, h])
    om = 2 * np.pi / h
    for order, trig in ((1, lambda x: -np.sin(x)), (3, np.sin)):
        got = prof.deriv(y, order)
        assert np.all(got[[0, 2, 4]] == 0.0)
        want = 0.0 + 0.7 * om**order * trig(om * y[[1, 3]])
        assert np.array_equal(got[[1, 3]], want)
    assert np.array_equal(prof.deriv(y, 2), 0.0 + 0.7 * om**2 * -np.cos(om * y))
    flow = steady_base_flow(ShearProfile(cosines=((1.0, 1),), h=channel.h),
                            channel)
    for w in channel.walls():
        assert boundary_data_g(flow, channel, w) == 0.0


def test_shear_vorticity_is_minus_the_derivative_and_exactly_zero_at_integer_phases():
    # -U'(y) bit for bit, with a polynomial part and two modes; the sine of
    # a mode is exactly 0 where k y / h is an integer, so a pure cosine
    # profile has no vorticity there at all
    h = 1.5
    prof = ShearProfile(poly=(0.3, -1.0, 0.25), cosines=((0.7, 2), (-0.2, 3)), h=h)
    y = np.linspace(0.0, h, 37)
    assert np.array_equal(prof.vorticity(y), -prof.deriv(y))
    cos = ShearProfile(cosines=((0.7, 2),), h=h)
    y = np.array([0.0, 0.3, h / 2, 1.1, h])
    got = cos.vorticity(y)
    assert np.all(got[[0, 2, 4]] == 0.0)
    assert np.all(got[[1, 3]] != 0.0)


def test_channel_parabola_wall_data(channel):
    # U = y (H - y): curl = -(H - 2y) e_z, nonzero at the walls
    h = channel.h
    flow = steady_base_flow(ShearProfile(poly=(0.0, h, -1.0)), channel)
    for w in channel.walls():
        assert abs(boundary_data_g(flow, channel, w)) == pytest.approx(h)


def test_boundary_data_vortex_zero(annulus):
    flow = potential_vortex(1.0, annulus)
    for w in annulus.walls():
        assert np.allclose(boundary_data_g(flow, annulus, w), 0.0, atol=1e-14)


def test_boundary_data_rigid_signs(annulus):
    # outer wall, n = -e_rad: curl x n = 2 Omega e_z x (-e_rad) = -2 Omega e_th
    flow = rigid_rotation(1.0, annulus)
    assert boundary_data_g(flow, annulus, annulus.wall("outer")) == pytest.approx(-2.0)
    assert boundary_data_g(flow, annulus, annulus.wall("inner")) == pytest.approx(2.0)


FAMILIES = ["rigid", "vortex", "swirl_poly:0.5,1.0,-0.2", "shear_poly:0.2,1.0,-0.5",
            "shear_cos"]


def test_boundary_data_matches_componentwise_cross(annulus, channel):
    # brute-force cross product of the curl (0, 0, omega) with the normal in
    # the geometry's frame, on every wall of every family: g is its flow
    # component, bit for bit up to the sign of a zero, and the other two
    # components are zero
    for family in FAMILIES:
        geom = channel if family.startswith("shear") else annulus
        flow = EulerSpec(family=family).build(geom)
        for w in geom.walls():
            cu = np.array([0.0, 0.0, flow.vorticity(np.array([w.coord]))[0]])
            n = w.normal
            cross = np.array([
                cu[1] * n[2] - cu[2] * n[1],
                cu[2] * n[0] - cu[0] * n[2],
                cu[0] * n[1] - cu[1] * n[0],
            ])
            g = boundary_data_g(flow, geom, w)
            assert isinstance(g, float)
            assert g == cross[geom.flow_comp], (family, w.wall_id)
            assert not np.delete(cross, geom.flow_comp).any()


def test_boundary_data_linear_in_flow(annulus):
    f1 = steady_base_flow(LaurentProfile({1: 1.0}), annulus)
    f2 = steady_base_flow(LaurentProfile({2: 1.0}), annulus)
    f12 = steady_base_flow(LaurentProfile({1: 2.0, 2: -3.0}), annulus)
    for w in annulus.walls():
        g1, g2 = boundary_data_g(f1, annulus, w), boundary_data_g(f2, annulus, w)
        assert boundary_data_g(f12, annulus, w) == pytest.approx(2.0 * g1 - 3.0 * g2,
                                                                abs=1e-13)


def test_normal_velocity_zero_at_walls(annulus, channel):
    # u0 is its profile in the flow component, which no wall normal has
    for flow, geom in ((rigid_rotation(1.0, annulus), annulus),
                       (steady_base_flow(ShearProfile(poly=(0.0, 1.0)),
                                         channel), channel)):
        for w in geom.walls():
            u = np.zeros(3)
            u[geom.flow_comp] = flow.value(np.array([w.coord]))[0]
            assert abs(float(u @ w.normal)) == 0.0


@pytest.mark.parametrize("family", FAMILIES)
def test_layer_moves_only_the_flow_component(annulus, channel, family):
    # g = curl u0 x n points along the flow component, a tangent of every
    # wall, so every family's layer is one column a wall, moved where g is
    # nonzero
    geom = channel if family.startswith("shear") else annulus
    flow = EulerSpec(family=family).build(geom)
    profile = solve_layer(flow, geom, FastGrid(nz=64), dt=1e-3, t_end=0.05,
                          store_times=[0.0, 0.025, 0.05])
    name = geom.comp_names[geom.flow_comp]
    assert geom.flow_comp != geom.normal_comp
    for w in geom.walls():
        assert name in w.tangent_names
        series = profile.walls[w.wall_id]
        assert series.ub.shape == (3, 64)
        assert series.ub.any() == (series.g != 0.0)
    moved = any(w.ub.any() for w in profile.walls.values())
    assert moved == (family not in ("vortex", "shear_cos"))


def test_wrong_geometry_rejected(annulus, channel):
    # the profile's type names the geometry steady_base_flow needs
    with pytest.raises(ConfigError, match="swirl base flow requires the annulus"):
        steady_base_flow(LaurentProfile({1: 1.0}), channel)
    with pytest.raises(ConfigError, match="shear base flow requires the channel"):
        steady_base_flow(ShearProfile(poly=(1.0,)), annulus)


def test_profile_validation():
    with pytest.raises(ConfigError):
        LaurentProfile({-2: 1.0})


def test_nonfinite_profile_rejected(annulus, channel):
    for geom, profile in (
            (annulus, LaurentProfile({1: float("inf")})),
            (channel, ShearProfile(poly=(float("nan"),))),
            # finite at the first wall, overflowing further in: the whole
            # gap is read
            (annulus, LaurentProfile({2: 1e308})),
            (channel, ShearProfile(poly=(0.0, 1e308, 1e308)))):
        lo, hi = geom.coord_bounds
        with pytest.raises(InvalidProfileError, match=rf"not finite on \[{lo:g}, {hi:g}\]"), \
                np.errstate(over="ignore"):
            steady_base_flow(profile, geom)

import pytest

from vvlab import geometry as geo
from vvlab.study import (
    preset_flat_shear,
    preset_rigid_annulus,
    preset_vortex_annulus,
    run_convergence_study,
)


@pytest.fixture(scope="session")
def annulus():
    return geo.annulus_gap(1.0, 2.0, eta=0.45)


@pytest.fixture(scope="session")
def channel():
    return geo.flat_channel(1.0, eta=0.45)


@pytest.fixture(scope="session")
def rigid_report():
    """One full rigid-rotation study, shared by the rate/remainder tests."""
    return run_convergence_study(preset_rigid_annulus())


@pytest.fixture(scope="session")
def vortex_report():
    return run_convergence_study(preset_vortex_annulus())


@pytest.fixture(scope="session")
def flat_report():
    return run_convergence_study(preset_flat_shear())

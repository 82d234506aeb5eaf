import pytest

from sonicbh.flow import VelocityProfile, find_separatrix


@pytest.fixture(scope="session")
def smooth_profile():
    return VelocityProfile(a_minus=-1.2, a_plus=-0.8, tau=1.0)


@pytest.fixture(scope="session")
def smooth_flow(smooth_profile):
    return find_separatrix(smooth_profile, x0_horizon_max=10.0)


@pytest.fixture(scope="session")
def const_profile():
    return VelocityProfile(a_minus=-1.0, a_plus=-1.0)


@pytest.fixture(scope="session")
def const_flow(const_profile):
    return find_separatrix(const_profile, x0_horizon_max=5.0)

import numpy as np
import pytest

from fogsim import GyroGeometry, Spectrum


@pytest.fixture(scope="session")
def spectrum():
    """Telecom-band source: 1550 nm center, 0.25e12 rad/s Gaussian linewidth."""
    return Spectrum(1550e-9, 0.25e12)


@pytest.fixture(scope="session")
def geometry():
    """2 km coil, 12.5 cm radius, n = 1.471."""
    return GyroGeometry(2000.0, 0.125, 1.471)


@pytest.fixture()
def rng():
    return np.random.default_rng(987654321)

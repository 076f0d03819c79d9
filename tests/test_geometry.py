import math

import numpy as np
import pytest

from fogsim import (
    GyroGeometry,
    delay_to_rotation,
    figure_of_merit,
    rotation_to_delay,
)
from fogsim.constants import (
    C_VACUUM,
    EARTH_RATE_RAD_PER_S,
    RAD_PER_S_PER_DEG_PER_H,
    rad_per_s_to_deg_per_hour,
)
from fogsim.errors import ParameterError


class TestDerivedGeometry:
    def test_reference_coil(self, geometry):
        assert geometry.n_coils == 2546
        assert geometry.total_area == pytest.approx(125.0, rel=2e-3)

    def test_single_loop(self):
        r = 0.125
        geo = GyroGeometry(2 * math.pi * r, r, 1.471)
        assert geo.n_coils == 1
        assert geo.total_area == pytest.approx(math.pi * r**2, rel=1e-12)

    def test_round_trip_and_serrodyne(self, geometry):
        # one sawtooth ramp per two optical round trips of n L / c = 9.813 us
        round_trip = geometry.refractive_index * geometry.fiber_length / C_VACUUM
        assert round_trip == pytest.approx(9.813e-6, rel=1e-3)
        assert geometry.serrodyne_rate == pytest.approx(50.95e3, rel=1e-3)
        assert geometry.serrodyne_rate == pytest.approx(1 / (2 * round_trip), rel=1e-15)

    def test_non_positive_rejected(self):
        with pytest.raises(ParameterError):
            GyroGeometry(-1.0, 0.125, 1.471)
        with pytest.raises(ParameterError):
            GyroGeometry(2000.0, 0.0, 1.471)
        with pytest.raises(ParameterError):
            GyroGeometry(2000.0, 0.125, 0.0)

    def test_consistency_invariants_enforced(self, rng):
        """Coil count and area are derived, so they cannot disagree with the
        fiber: n_coils is the nearest whole turn count and the area is that
        many loops of radius r."""
        for length, radius in zip(rng.uniform(1.0, 1e4, 20), rng.uniform(0.01, 0.15, 20)):
            geo = GyroGeometry(float(length), float(radius), 1.471)
            assert abs(geo.n_coils - length / (2 * math.pi * radius)) <= 0.5
            assert geo.total_area == geo.n_coils * math.pi * radius**2
        with pytest.raises(ParameterError):
            GyroGeometry(0.4 * 2 * math.pi * 0.125, 0.125, 1.471)  # under half a turn


class TestUnitConversions:
    def test_deg_per_hour_constant(self):
        assert RAD_PER_S_PER_DEG_PER_H == pytest.approx(4.8481368e-6, rel=1e-7)

    def test_round_trip(self, rng):
        for omega in rng.uniform(-10, 10, size=20):
            assert rad_per_s_to_deg_per_hour(
                omega * RAD_PER_S_PER_DEG_PER_H) == pytest.approx(omega, rel=1e-14)


class TestSagnacConversions:
    def test_bias_instability_equivalence(self):
        omega = 0.96 * RAD_PER_S_PER_DEG_PER_H
        assert omega == pytest.approx(4.654e-6, rel=1e-3)
        tau = rotation_to_delay(omega, 125.0)
        assert tau == pytest.approx(26e-21, rel=2e-2)

    def test_inverse_gives_reference_rotation(self):
        omega = delay_to_rotation(26e-21, 125.0)
        assert rad_per_s_to_deg_per_hour(omega) == pytest.approx(0.96, rel=2e-2)

    def test_zero(self):
        assert rotation_to_delay(0.0, 125.0) == 0.0
        assert delay_to_rotation(0.0, 125.0) == 0.0

    def test_earth_rate_delay(self):
        tau = rotation_to_delay(EARTH_RATE_RAD_PER_S, 125.0)
        assert tau == pytest.approx(4.06e-19, rel=1e-2)

    def test_round_trip_identity(self, rng):
        omega = rng.uniform(-1e-3, 1e-3, size=100)
        back = np.array([delay_to_rotation(rotation_to_delay(w, 125.0), 125.0)
                         for w in omega])
        np.testing.assert_allclose(back, omega, rtol=1e-12)

    def test_linearity(self, rng):
        for scale in (2.0, -3.5, 0.25):
            omega = 1e-5
            assert rotation_to_delay(scale * omega, 125.0) == \
                pytest.approx(scale * rotation_to_delay(omega, 125.0), rel=1e-14)


class TestFigureOfMerit:
    def test_detection_limit_value(self):
        assert figure_of_merit(249e-21, 125.0) == pytest.approx(1.99e-15, rel=5e-3)

    def test_differential_value(self):
        assert figure_of_merit(18e-21, 125.0) == pytest.approx(1.44e-16, rel=5e-3)

    def test_scale_covariance(self):
        base = figure_of_merit(1e-19, 125.0)
        assert figure_of_merit(3e-19, 125.0) == pytest.approx(3 * base, rel=1e-14)
        assert figure_of_merit(1e-19, 250.0) == pytest.approx(base / 2, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ParameterError):
            figure_of_merit(0.0, 125.0)

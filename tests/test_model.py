import math

import numpy as np
import pytest

from fogsim import (
    ModulatorMap,
    Spectrum,
    click_probabilities,
    config_from_dict,
    crb_curve,
    fisher_information,
    fisher_information_numeric,
)
from fogsim.errors import OracleAccuracyError, ParameterError

QUARTER_WAVE = 1.294e-15  # delay giving a pi/2 dephasing at 1550 nm


class TestSpectrum:
    def test_from_wavelength(self, spectrum):
        assert spectrum.omega0 == pytest.approx(1.2153e15, rel=1e-4)
        assert spectrum.quarter_wave_delay == pytest.approx(1.2926e-15, rel=1e-4)

    # a subnormal lambda0 makes omega0 = 2 pi c / lambda0 infinite; at 1e-200
    # omega0 is finite but its square is not
    @pytest.mark.parametrize("lambda0,sigma", [(-1.0, 0.25e12), (1550e-9, -1.0),
                                               (1550e-9, 2e15), (5e-324, 0.25e12),
                                               (1e-200, 0.25e12)])
    def test_invalid_parameters_rejected(self, lambda0, sigma):
        with pytest.raises(ParameterError):
            Spectrum(lambda0, sigma)


class TestClickProbabilities:
    def test_zero_delay(self, spectrum):
        p1, p2 = click_probabilities(0.0, spectrum)
        assert p1 == 0.0
        assert p2 == 1.0

    def test_quarter_wave_point(self, spectrum):
        # omega0 * 1.294 fs sits within 2e-3 rad of pi/2
        assert spectrum.omega0 * QUARTER_WAVE == pytest.approx(1.5726, abs=1e-3)
        p1, p2 = click_probabilities(QUARTER_WAVE, spectrum)
        assert p1 == pytest.approx(0.5, abs=1e-3)
        assert p2 == pytest.approx(0.5, abs=1e-3)

    def test_decoherence_limit(self, spectrum):
        p1, p2 = click_probabilities(100e-12, spectrum)
        assert p1 == pytest.approx(0.5, abs=1e-10)
        assert p2 == pytest.approx(0.5, abs=1e-10)

    def test_normalization_on_random_delays(self, spectrum, rng):
        tau = rng.uniform(-5e-12, 5e-12, size=100_000)
        p1, p2 = click_probabilities(tau, spectrum)
        assert np.max(np.abs(p1 + p2 - 1.0)) <= 5e-16
        assert np.all((p1 >= 0) & (p1 <= 1) & (p2 >= 0) & (p2 <= 1))

    def test_even_in_tau(self, spectrum, rng):
        tau = rng.uniform(0, 1e-13, size=1000)
        forward = click_probabilities(tau, spectrum)
        backward = click_probabilities(-tau, spectrum)
        np.testing.assert_array_equal(forward[0], backward[0])
        np.testing.assert_array_equal(forward[1], backward[1])

    def test_envelope_bound(self, spectrum, rng):
        tau = rng.uniform(-1e-12, 1e-12, size=10_000)
        _, p2 = click_probabilities(tau, spectrum)
        bound = 0.5 * np.exp(-0.5 * (spectrum.sigma_omega * tau) ** 2)
        assert np.all(np.abs(p2 - 0.5) <= bound + 1e-15)


class TestFisherInformation:
    def test_low_delay_limit(self, spectrum):
        assert fisher_information(1e-18, spectrum) == \
            pytest.approx(spectrum.omega0**2, rel=1e-3)

    def test_fringe_node_value(self, spectrum):
        tau_node = math.pi / spectrum.omega0
        assert fisher_information(tau_node, spectrum) == \
            pytest.approx(spectrum.sigma_omega**2, rel=1e-2)
        assert spectrum.sigma_omega**2 == pytest.approx(6.25e22)

    def test_matches_numeric_oracle_on_grid(self, spectrum):
        grid = np.linspace(0.0, 100e-15, 1000)
        closed = fisher_information(grid, spectrum)
        numeric = fisher_information_numeric(grid, spectrum)
        np.testing.assert_allclose(closed, numeric, rtol=1e-6)

    def test_periodic_dips_near_odd_nodes(self, spectrum):
        half_period = math.pi / spectrum.omega0
        for l in range(11):
            center = (2 * l + 1) * half_period
            window = np.linspace(center - 0.1 * half_period,
                                 center + 0.1 * half_period, 4001)
            values = fisher_information(window, spectrum)
            i = int(np.argmin(values))
            assert 0 < i < len(window) - 1, "minimum must be interior"
            assert abs(window[i] - center) <= 1e-3 * half_period

    def test_numeric_oracle_at_zero(self, spectrum):
        assert fisher_information_numeric(0.0, spectrum) == \
            pytest.approx(spectrum.omega0**2, rel=1e-4)

    def test_numeric_oracle_at_5fs(self, spectrum):
        assert fisher_information_numeric(5e-15, spectrum) == \
            pytest.approx(fisher_information(5e-15, spectrum), rel=1e-6)

    def test_oracle_step_validation(self, spectrum):
        with pytest.raises(OracleAccuracyError):
            fisher_information_numeric(1e-15, spectrum, step=1.0 / spectrum.omega0)
        with pytest.raises(OracleAccuracyError):
            fisher_information_numeric(1e-15, spectrum, step=0.0)


class TestCramerRaoBound:
    """crb_curve is 1 / sqrt(n F) for n = R t / 2 photons per sub-series and
    F = omega0^2, the Fisher information of one photon near tau = 0."""

    def test_single_photon(self, spectrum):
        # R t = 2: one photon in each sub-series
        sigma = crb_curve(2.0, spectrum, [1.0])[0]
        assert sigma == pytest.approx(8.228e-16, rel=1e-3)
        assert sigma == pytest.approx(
            1.0 / math.sqrt(fisher_information(0.0, spectrum)), rel=1e-3)

    def test_reference_rate_at_72s(self, spectrum):
        sigma = crb_curve(631.6e3, spectrum, [72.0])[0]
        assert sigma == pytest.approx(1.7e-19, rel=2.5e-2)

    def test_inverse_sqrt_scaling(self, spectrum):
        sigma = crb_curve(1e6, spectrum, [1.0, 4.0])
        assert sigma[1] == pytest.approx(sigma[0] / 2, rel=1e-12)
        assert crb_curve(4e6, spectrum, [1.0])[0] == pytest.approx(sigma[0] / 2, rel=1e-12)

    def test_strictly_decreasing(self, spectrum, rng):
        t = np.sort(rng.uniform(1, 1e9, size=50))
        assert np.all(np.diff(crb_curve(631.6e3, spectrum, t)) < 0)
        rates = np.sort(rng.uniform(1e3, 1e9, size=50))
        sigmas = [crb_curve(rate, spectrum, [72.0])[0] for rate in rates]
        assert all(a > b for a, b in zip(sigmas, sigmas[1:]))

    @pytest.mark.parametrize("rate,t", [(0, 1.0), (-1, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_domain_errors(self, spectrum, rate, t):
        with pytest.raises(ParameterError):
            crb_curve(rate, spectrum, [t])


class TestSaturation:
    """Saturation is crb_curve(t) / sigma(t), as the stability report writes it."""

    def test_at_the_bound(self, spectrum):
        crb = crb_curve(631.6e3, spectrum, [2.0, 72.0])
        np.testing.assert_array_equal(crb / crb, 1.0)
        np.testing.assert_allclose(crb / (2 * crb), 0.5, rtol=1e-12)

    def test_reference_regime(self, spectrum):
        s = crb_curve(631.6e3, spectrum, [72.0])[0] / 249e-21
        assert 0.6 <= s <= 0.8

    def test_domain_errors(self, spectrum):
        with pytest.raises(ParameterError):
            crb_curve(631.6e3, spectrum, [0.0, 72.0])


class TestModulatorMap:
    @staticmethod
    def set_point_delay(v0_volt: float) -> float:
        """The run's delay tau0 = alpha * v0 for the default modulator."""
        return config_from_dict({"run": {"v0_volt": v0_volt}}).run.tau0

    def test_reference_value(self):
        assert self.set_point_delay(3.8596) == pytest.approx(1.294e-15, rel=1e-3)

    def test_zero_voltage(self):
        assert self.set_point_delay(0.0) == 0.0

    def test_linearity_to_dark_fringe(self, spectrum):
        assert self.set_point_delay(2 * 3.8596) == \
            pytest.approx(2 * spectrum.quarter_wave_delay, rel=1e-12)

    def test_from_inflection_consistency(self, spectrum):
        modulator = ModulatorMap.from_inflection(3.8596, 0.0095, spectrum)
        assert modulator.alpha * modulator.v0i == \
            pytest.approx(spectrum.quarter_wave_delay, rel=1e-12)

    def test_invalid(self):
        with pytest.raises(ParameterError):
            ModulatorMap(alpha=-1e-16, v0i=3.8)
        with pytest.raises(ParameterError):
            ModulatorMap(alpha=3.35e-16, v0i=0.0)

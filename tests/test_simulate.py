import hashlib
import math
import re

import numpy as np
import pytest
from scipy.special import ndtri, pdtr
from scipy.stats import poisson

from fogsim import (
    BrightSourceSettings,
    CalibrationProtocol,
    CountSeries,
    DriftModel,
    FringeParams,
    ModulatorMap,
    NoiseModel,
    RunConfig,
    ideal_linear_calibration,
    overnight_drift,
    simulate_bright_scan,
    simulate_calibration_scan,
    simulate_run,
)
from fogsim.calibration import fit_fringe, normalize_count_arrays
from fogsim.errors import DataError, ParameterError
from fogsim.model import click_probabilities
from fogsim.simulate import (_TEMME_MAX_MEAN, _TEMME_MAX_T, _TEMME_MIN_K1, _TEMME_MIN_T, _TIE,
                             MAX_BINS, _CHUNK, _draw_counts, _erfc, _expansion_holds, _ndtri,
                             _pdtr_reaches, _poisson_cdf, _poisson_quantile,
                             _uniforms_from_words, block_uniforms, derive_keys)
from fogsim.stability import check_bin_times

RATE = 631.6e3
TABLE1_CH1 = FringeParams(f0=482e-9, a=364e-9, w=7.84, v0i=3.85)
TABLE1_CH2 = FringeParams(f0=334e-9, a=327e-9, w=7.79, v0i=3.93)


def quiet_noise():
    return NoiseModel()


class TestPhilox:
    def test_matches_numpy_with_counter_offset(self):
        """Pinned blocks for key [1, 2] at indices 0, 16384 and 2**40: every
        simulated data file depends on this stream staying the same."""
        key = np.array([1, 2], dtype=np.uint64)
        expected = {
            0: ["0x1.1bf7cca708927p-2", "0x1.27af628a3a7b1p-2",
                "0x1.4a38fbc1f98c3p-2", "0x1.a695e1ded7149p-2"],
            16384: ["0x1.b31ac20e1f882p-1", "0x1.d75807245a9aep-1",
                    "0x1.399820fadf790p-6", "0x1.72e545cc908b0p-1"],
            2**40: ["0x1.a6846000457fdp-2", "0x1.fefa40b252094p-1",
                    "0x1.49e16df9134dep-1", "0x1.2422b76de567dp-2"],
        }
        for index, block in expected.items():
            assert block_uniforms(key, index, 1)[0].tolist() == [
                float.fromhex(x) for x in block]

    def test_carry_across_words(self):
        """Any slice of the stream equals its blocks drawn one at a time,
        also where the counter's low word carries into the next."""
        key = np.array([123, 456], dtype=np.uint64)
        for start in (0, 1, 16383, 2**40, 2**64 - 5):
            block = block_uniforms(key, start, 10)
            assert block.shape == (10, 4)
            for i in range(10):
                np.testing.assert_array_equal(block[i], block_uniforms(key, start + i, 1)[0])

    def test_uniforms_open_interval(self):
        u = block_uniforms(np.array([1, 2], dtype=np.uint64), 0, 100_000)
        assert u.shape == (100_000, 4)
        assert u.min() > 0.0
        assert u.max() < 1.0
        assert abs(u.mean() - 0.5) < 5e-3

    def test_extreme_words_stay_inside(self):
        """The lowest and highest 64-bit words map strictly inside (0, 1);
        without the clamp the highest would round to exactly 1.0."""
        u = _uniforms_from_words(np.array([0, 2**64 - 1], dtype=np.uint64))
        assert u.tolist() == [2.0**-54, 1.0 - 2.0**-53]


def quantile_corpus():
    """1,081,344 (u, lam) pairs: 2**20 Philox uniforms spread over 256 rates
    (0 and 1e-3 ... 1.3e6), plus 128 tail values of u at every rate, from
    1e-16 up to the double nearest 1 - 1e-14."""
    lam_grid = np.concatenate([[0.0], np.logspace(-3, np.log10(1.3e6), 255)])
    u_bulk = block_uniforms(np.array([2016, 955], dtype=np.uint64), 0, 2**18).ravel()
    u_tail = np.concatenate([np.logspace(-16, -1, 64), 1.0 - np.logspace(-1, -14, 64)])
    lam_tail, u_tail = (a.ravel() for a in np.meshgrid(lam_grid, u_tail))
    return (np.concatenate([u_bulk, u_tail]),
            np.concatenate([np.tile(lam_grid, len(u_bulk) // len(lam_grid)), lam_tail]))


class TestPoissonQuantile:
    """The count draw against its oracle: the smallest k >= 0 with
    pdtr(k, lam) >= u, which scipy.stats.poisson.ppf also computes."""

    def test_matches_scipy_ppf(self):
        rng = np.random.default_rng(955)
        u = np.concatenate([[2.0**-54, 1e-16, 1e-12, 1e-6, 1e-3],
                            np.linspace(0.01, 0.99, 21),
                            1.0 - np.array([1e-3, 1e-6, 1e-10, 1e-13, 1e-14])])
        for lam0 in (0.0, 2.5, 20.0, 50.0, 1e2, 1e3, 1e4, 3.2e5):
            for _ in range(3):
                lam = lam0 * (1.0 + 0.02 * rng.uniform(-1.0, 1.0, u.shape))
                np.testing.assert_array_equal(_poisson_quantile(u, lam),
                                              poisson.ppf(u, lam).astype(np.int64))

    def test_corpus_digest(self):
        """SHA-256 of the little-endian int64 counts on the corpus.  The pinned
        value is the digest of scipy.stats.poisson.ppf on the same corpus, so
        every one of its draws agrees with scipy's quantile."""
        u, lam = quantile_corpus()
        assert len(u) >= 10**6
        k = _poisson_quantile(u, lam)
        assert hashlib.sha256(k.astype("<i8").tobytes()).hexdigest() == (
            "74eef688c9fca2f8c02de0f8a85eef151ea06cb2a4962e9edc0b2f16750200b7")

    def test_deep_tail_follows_pdtr_definition(self):
        """Within 100 ulps of 1 pdtr saturates and scipy's root finder can
        return a count whose predecessor already reaches u; the draw keeps to
        pdtr(k - 1, lam) < u <= pdtr(k, lam)."""
        u = 1.0 - 2.0**-53 * np.arange(1, 101)
        for lam0 in (0.0, 2.5, 1e2, 1e4, 3.2e5, 1.3e6):
            lam = np.full(u.shape, lam0)
            k = _poisson_quantile(u, lam)
            assert np.all(u <= pdtr(k, lam))
            assert np.all(pdtr(k - 1, lam)[k > 0] < u[k > 0])

    def test_largest_uniform_gives_finite_count(self):
        lam = np.array([0.0, 2.5, 3.2e5])
        k = _poisson_quantile(np.full(3, 1.0 - 2.0**-53), lam)
        assert k[0] == 0
        assert np.all(k[1:] > lam[1:])
        assert np.all(k < lam + 20.0 * np.sqrt(lam) + 50.0)

    @pytest.mark.parametrize("lam0", [1e2, 3e5])
    def test_one_cdf_evaluation_per_draw(self, monkeypatch, lam0):
        """At the low-flux run's and the overnight run's means, each draw
        evaluates the expansion once and steps by the pmf, and scipy is
        never asked."""
        import fogsim.simulate
        u = block_uniforms(np.array([34, int(lam0)], dtype=np.uint64), 0, 2**15).ravel()
        lam = lam0 * (1.0 + 0.2 * (u[::-1] - 0.5))
        assert len(u) >= 10**5
        expected = poisson.ppf(u, lam).astype(np.int64)
        seen = []

        def counting(k, lam):
            seen.append(len(k))
            return _poisson_cdf(k, lam)
        monkeypatch.setattr(fogsim.simulate, "_poisson_cdf", counting)
        asked = _counting_pdtr(monkeypatch)
        np.testing.assert_array_equal(_poisson_quantile(u, lam), expected)
        assert sum(seen) <= len(u)
        assert asked == []

    def test_tiny_means_raise_no_arithmetic_error(self):
        """Means too small for the expansion, subnormal ones included, take
        scipy's pdtr without a division by zero or an overflow."""
        lam = np.array([0.0, 5e-324, 1e-300, 1e-3, 19.0])
        u = np.full(lam.shape, 1.0 - 2.0**-53)
        with np.errstate(all="raise"):
            k = _poisson_quantile(u, lam)
        np.testing.assert_array_equal(k, poisson.ppf(u, lam).astype(np.int64))

    def test_mean_beyond_exact_counts_rejected(self):
        """Above 2**53 a step of one count is lost in rounding and the search
        would never end."""
        for lam in (1e300, math.nan):
            with pytest.raises(ParameterError):
                _poisson_quantile(np.array([0.5]), np.array([lam]))


class TestNdtri:
    """The numpy normal quantile against scipy.special.ndtri, bit for bit:
    the pump gain, the drift walk and the bright-scan noise are written."""

    def test_bit_equal_on_philox_uniforms(self):
        u = block_uniforms(np.array([2029, 7], dtype=np.uint64), 0, 2**18).ravel()
        np.testing.assert_array_equal(_ndtri(u).view(np.int64), ndtri(u).view(np.int64))

    def test_bit_equal_at_branch_edges(self):
        """The extreme uniforms, e^-2 and 1 - e^-2 where the central branch
        ends, and e^-32, where the tail switches at x = 8, each with its
        neighbouring doubles."""
        edges = [2.0**-54, 1.0 - 2.0**-53, math.exp(-2.0), 1.0 - math.exp(-2.0),
                 math.exp(-32.0)]
        u = np.array([v for e in edges for v in (np.nextafter(e, 0.0), e, np.nextafter(e, 1.0))])
        u = u[(u > 0.0) & (u < 1.0)]
        assert len(u) == 14
        np.testing.assert_array_equal(_ndtri(u).view(np.int64), ndtri(u).view(np.int64))


def _counting_pdtr(monkeypatch) -> list:
    """Replace scipy.special.pdtr with a wrapper that records each mean it is
    asked about; the list it returns fills as the wrapper is called."""
    import scipy.special
    asked = []

    def wrapper(k, lam):
        asked.extend(np.atleast_1d(lam).tolist())
        return pdtr(k, lam)
    monkeypatch.setattr(scipy.special, "pdtr", wrapper)
    return asked


def test_erfc_within_1e_15():
    """The numpy erfc against scipy's on both sides of 0 and past the fit's
    end at 7."""
    from scipy.special import erfc
    x = np.concatenate([np.linspace(-10.0, 10.0, 400_001), [0.0, -0.0, 7.0, 30.0, -30.0]])
    assert np.max(np.abs(_erfc(x) - erfc(x))) < 1e-15


class TestPdtrReaches:
    """_pdtr_reaches(k, lam, u, cdf, held) is pdtr(k, lam) >= u, whichever of
    numpy's Temme expansion or scipy's pdtr settles it."""

    def test_expansion_close_to_pdtr_inside(self):
        """Where numpy settles, it is 10 times closer to pdtr than _TIE, and so
        is its value one count up, the cdf plus the pmf."""
        rng = np.random.default_rng(29)
        lam = np.exp(rng.uniform(np.log(_TEMME_MIN_K1), np.log(_TEMME_MAX_MEAN), 10**6))
        k = np.floor(lam + rng.uniform(-8.5, 8.5, lam.shape) * np.sqrt(lam))
        inside = _expansion_holds(k, lam)
        assert inside.mean() > 0.9
        k, lam = k[inside], lam[inside]
        cdf, pmf = _poisson_cdf(k, lam)
        assert np.max(np.abs(cdf - pdtr(k, lam))) < _TIE / 10
        assert np.max(np.abs(cdf + pmf - pdtr(k + 1.0, lam))) < _TIE / 10

    def test_agrees_with_pdtr_inside_and_at_the_bounds(self, monkeypatch):
        """10^6 comparisons inside the region, on its bounds and one step or
        one double outside them; u lies within 10^-9 of pdtr or anywhere in
        (0, 1).  Scipy is asked exactly outside the region and where numpy's
        value lies within _TIE of u."""
        rng = np.random.default_rng(2029)
        n = 10**6
        a = np.floor(np.exp(rng.uniform(np.log(0.9 * _TEMME_MIN_K1),
                                        np.log(1.5 * _TEMME_MAX_MEAN), n)))
        lam = a * (1.0 + rng.uniform(1.1 * _TEMME_MIN_T, 1.1 * _TEMME_MAX_T, n))
        edge = np.arange(n) % 8 == 0
        lam[edge] = a[edge] * rng.choice([1.0 + _TEMME_MIN_T, 1.0 + _TEMME_MAX_T], edge.sum())
        a[np.arange(n) % 8 == 1] = _TEMME_MIN_K1 - rng.integers(0, 2, n // 8)
        lam[np.arange(n) % 8 == 2] = np.nextafter(_TEMME_MAX_MEAN, rng.choice([0.0, 1e6],
                                                                                n // 8))
        lam[np.arange(n) % 8 == 3] = _TEMME_MAX_MEAN
        k = a - 1.0
        exact = pdtr(k, lam)
        u = np.where(np.arange(n) % 2 == 0,
                     np.clip(exact + rng.uniform(-1e-9, 1e-9, n), 2.0**-54, 1.0 - 2.0**-53),
                     rng.uniform(0.0, 1.0, n))
        inside = _expansion_holds(k, lam)
        assert 0.3 * n < inside.sum() < 0.9 * n
        cdf = np.zeros(n)
        cdf[inside] = _poisson_cdf(k[inside], lam[inside])[0]
        asked = _counting_pdtr(monkeypatch)
        np.testing.assert_array_equal(_pdtr_reaches(k, lam, u, cdf, inside), exact >= u)
        unsure = ~inside | (np.abs(cdf - u) <= _TIE)
        assert unsure[inside].sum() > 0
        np.testing.assert_array_equal(np.sort(asked), np.sort(lam[unsure]))

    def test_near_ties_reach_scipy(self, monkeypatch):
        """u within _TIE of numpy's value is settled by pdtr, and only there."""
        rng = np.random.default_rng(4)
        lam = np.exp(rng.uniform(np.log(2e3), np.log(3e5), 1000))
        k = np.floor(lam + rng.uniform(-3.0, 3.0, lam.shape) * np.sqrt(lam))
        cdf = _poisson_cdf(k, lam)[0]
        held = np.ones(lam.shape, dtype=bool)
        near = cdf + rng.choice([-0.5, 0.5], lam.shape) * _TIE
        far = cdf + rng.choice([-20.0, 20.0], lam.shape) * _TIE
        asked = _counting_pdtr(monkeypatch)
        np.testing.assert_array_equal(_pdtr_reaches(k, lam, near, cdf, held),
                                      pdtr(k, lam) >= near)
        assert asked == lam.tolist()
        asked.clear()
        np.testing.assert_array_equal(_pdtr_reaches(k, lam, far, cdf, held), pdtr(k, lam) >= far)
        assert asked == []


class TestSimulateRun:
    def test_zero_rate_zero_darks_all_zero(self, spectrum):
        config = RunConfig(rate_total=0.0, integration_time=1.0, duration=50.0,
                           tau0=1.294e-15, seed=3)
        series = simulate_run(config, spectrum, quiet_noise())
        assert np.all(series.c1 == 0)
        assert np.all(series.c2 == 0)

    def test_bin_count_and_times(self, spectrum):
        """The bins lie on the grid the readers check, which CountSeries
        leaves to them."""
        config = RunConfig(rate_total=1e3, integration_time=0.5, duration=10.0,
                           tau0=0.0, seed=3)
        series = simulate_run(config, spectrum, quiet_noise())
        assert len(series) == 20
        np.testing.assert_allclose(np.diff(series.t), 0.5)
        for step, duration in ((1.0, 1e4), (0.01, 1e3)):
            config = RunConfig(rate_total=1e3, integration_time=step, duration=duration,
                               tau0=0.0, seed=3)
            check_bin_times(simulate_run(config, spectrum, quiet_noise()).t, step,
                            "run.integration_time_s")

    def test_mean_law_at_inflection(self, spectrum):
        """At p1 = p2 = 1/2 both channels average R*T/2 = 315800 counts."""
        config = RunConfig(rate_total=RATE, integration_time=1.0, duration=1e4,
                           tau0=spectrum.quarter_wave_delay, seed=11)
        series = simulate_run(config, spectrum, quiet_noise())
        mu = RATE * 0.5
        sigma_mean = np.sqrt(mu / len(series))
        assert abs(series.c1.mean() - mu) < 3 * sigma_mean
        assert abs(series.c2.mean() - mu) < 3 * sigma_mean

    def test_deterministic_and_parallel_invariant(self, spectrum, monkeypatch):
        """Each chunk's draw is a pure function of (key, bin index) and the
        walk carried in from the chunk before, so the 2,000 bins drawn in
        chunks of 256, the last one short, are the bins drawn in one chunk,
        with the overnight drift and with a random walk."""
        config = RunConfig(rate_total=RATE, integration_time=1.0, duration=2000.0,
                           tau0=1.294e-15, seed=17)
        noises = [NoiseModel(dark_rate_1=25.0, dark_rate_2=25.0, pump_rel_sigma=0.01,
                             drift=drift)
                  for drift in (overnight_drift(), DriftModel(random_walk=1e-19))]
        first = [simulate_run(config, spectrum, noise) for noise in noises]
        second = [simulate_run(config, spectrum, noise) for noise in noises]
        monkeypatch.setattr("fogsim.simulate._CHUNK", 256)
        chunked = [simulate_run(config, spectrum, noise) for noise in noises]
        assert first == second
        assert first == chunked

    def test_seed_changes_output(self, spectrum):
        base = RunConfig(rate_total=RATE, integration_time=1.0, duration=100.0,
                         tau0=1.294e-15, seed=1)
        other = RunConfig(rate_total=RATE, integration_time=1.0, duration=100.0,
                          tau0=1.294e-15, seed=2)
        assert simulate_run(base, spectrum, quiet_noise()) != \
            simulate_run(other, spectrum, quiet_noise())

    def test_pump_noise_cancels_in_contrast(self, spectrum):
        """Common-mode gain inflates raw variance but not the contrast."""
        config = RunConfig(rate_total=RATE, integration_time=1.0, duration=2e4,
                           tau0=spectrum.quarter_wave_delay, seed=5)
        series = simulate_run(config, spectrum,
                              NoiseModel(pump_rel_sigma=0.05))
        mu = RATE * 0.5
        assert series.c1.var() > 3.0 * mu  # far above Poisson variance
        x1 = series.c1 / (series.c1 + series.c2)
        p1 = 0.5 * (1 - np.exp(-0.5 * (spectrum.sigma_omega *
                                       config.tau0) ** 2)
                    * np.cos(spectrum.omega0 * config.tau0))
        sigma_x1_mean = np.sqrt(0.25 / (RATE * 1.0)) / np.sqrt(len(series))
        assert abs(x1.mean() - p1) < 4 * sigma_x1_mean

    def test_linear_drift_recovered_by_perfect_calibration(self, spectrum):
        drift_rate = 2e-21
        config = RunConfig(rate_total=RATE, integration_time=1.0, duration=1e4,
                           tau0=1.294e-15, seed=23)
        series = simulate_run(config, spectrum,
                              NoiseModel(drift=DriftModel(linear=drift_rate)))
        calib = ideal_linear_calibration(spectrum, config.tau0)
        dx, _, _ = normalize_count_arrays(series.c1, series.c2, (0, 0), 1.0)
        tau_hat = ((dx - calib.k2) / calib.k1) * 1e-15
        slope = np.polyfit(series.t, tau_hat, 1)[0]
        assert slope == pytest.approx(drift_rate, rel=0.05)

    def test_random_walk_reproducible(self, spectrum):
        noise = NoiseModel(drift=DriftModel(random_walk=1e-19))
        config = RunConfig(rate_total=RATE, integration_time=1.0, duration=500.0,
                           tau0=1.294e-15, seed=29)
        assert simulate_run(config, spectrum, noise) == \
            simulate_run(config, spectrum, noise)

    @pytest.mark.parametrize("bins", [4 * _CHUNK - 1, 4 * _CHUNK, 4 * _CHUNK + 1])
    def test_random_walk_blocks_leave_the_bits(self, spectrum, bins):
        """The walk and the counts drawn _CHUNK bins at a time are those drawn
        in one block_uniforms call, one cumsum and one _draw_counts call, bit
        for bit, on both sides of a chunk edge."""
        noise = NoiseModel(dark_rate_1=25.0, dark_rate_2=25.0, pump_rel_sigma=0.01,
                           drift=DriftModel(linear=2e-21, random_walk=1e-19))
        config = RunConfig(rate_total=RATE, integration_time=0.01, duration=0.01 * bins,
                           tau0=1.294e-15, seed=29)
        key_counts, key_drift = derive_keys(29, 2)
        steps = noise.drift.random_walk * math.sqrt(0.01) * ndtri(
            block_uniforms(key_drift, 0, bins - 1)[:, 0])
        tau = ((1.294e-15 + noise.drift.deterministic(0.01 * np.arange(bins)))
               + np.concatenate([[0.0], np.cumsum(steps)]))
        want = _draw_counts(0, key_counts, *click_probabilities(tau, spectrum), RATE * 0.01,
                            (25.0 * 0.01, 25.0 * 0.01), 0.01)
        got = simulate_run(config, spectrum, noise)
        assert len(got) == bins
        np.testing.assert_array_equal(got.c1, want[0])
        np.testing.assert_array_equal(got.c2, want[1])

    def test_invalid_config(self):
        with pytest.raises(ParameterError):
            RunConfig(rate_total=-1.0, integration_time=1.0, duration=10.0,
                      tau0=0.0, seed=1)
        for integration, duration in [(1.0, 0.5), (1.0, math.nan), (1.0, math.inf),
                                      (1.0, 1e30), (1e-9, 1e9), (1.0, MAX_BINS + 2.0)]:
            with pytest.raises(ParameterError):
                RunConfig(rate_total=1e3, integration_time=integration,
                          duration=duration, tau0=0.0, seed=1)

    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_non_finite_duration_rejected(self, duration):
        # a config document cannot reach this check: its typing rule rejects
        # a non-finite run.duration_s first
        with pytest.raises(ParameterError, match="duration must be finite"):
            RunConfig(rate_total=1e3, integration_time=1.0, duration=duration,
                      tau0=0.0, seed=1)

    def test_largest_run_accepted(self):
        config = RunConfig(rate_total=1e3, integration_time=1.0, duration=float(MAX_BINS),
                           tau0=0.0, seed=1)
        assert config.n_bins == MAX_BINS


class TestCountSeries:
    def test_validation(self):
        """A negative count is a DataError that carries the row, which the
        readers turn into the line of the file."""
        with pytest.raises(DataError, match="counts must be non-negative") as info:
            CountSeries(np.array([0.0, 1.0]), np.array([1, -2]),
                        np.array([1, 2]), 1.0)
        assert info.value.row == 1
        with pytest.raises(ParameterError):
            CountSeries(np.array([0.0, 1.0]), np.array([1, 2]), np.array([1, 2]), 0.0)


def bright(v_range=(0.0, 16.0), scan_points=200, noise=(0.0, 0.0)):
    """Bright-source settings with the reference fringes of both channels."""
    return BrightSourceSettings(noise, *v_range, scan_points, TABLE1_CH1, TABLE1_CH2)


class TestBrightScan:
    def test_noiseless_value_at_own_inflection(self):
        # the sine term vanishes at the channel's inflection voltage
        scan = simulate_bright_scan(bright((3.85, 16.0)), seed=1)
        assert scan.power1[0] == pytest.approx(482e-9, rel=1e-12)

    def test_zero_noise_is_the_fringe_itself(self):
        scan = simulate_bright_scan(bright(), seed=1)
        np.testing.assert_array_equal(scan.power1, TABLE1_CH1.evaluate(scan.v0))
        np.testing.assert_array_equal(scan.power2, TABLE1_CH2.evaluate(scan.v0))

    def test_noiseless_round_trip_through_fit(self):
        scan = simulate_bright_scan(bright(), seed=1)
        fit = fit_fringe(np.column_stack([scan.v0, scan.power1]), 1.0)
        for got, want in [(fit.f0, 482e-9), (fit.a, 364e-9),
                          (fit.w, 7.84), (fit.v0i, 3.85)]:
            assert got == pytest.approx(want, rel=1e-9)

    def test_span_of_two_w_covers_one_period(self):
        w = TABLE1_CH1.w
        scan = simulate_bright_scan(bright((3.85, 3.85 + 2 * w), 101), seed=1)
        assert scan.power1[0] == pytest.approx(scan.power1[-1], rel=1e-9)

    def test_deterministic(self):
        a = simulate_bright_scan(bright(scan_points=50, noise=(1e-9, 1e-9)), seed=9)
        b = simulate_bright_scan(bright(scan_points=50, noise=(1e-9, 1e-9)), seed=9)
        np.testing.assert_array_equal(a.power1, b.power1)
        np.testing.assert_array_equal(a.power2, b.power2)

    def test_too_few_steps(self):
        with pytest.raises(ParameterError, match="scan_points"):
            bright(scan_points=1)

    def test_negative_noise_rejected(self):
        with pytest.raises(ParameterError, match="power_noise_ch1_w"):
            bright(noise=(-1e-9, 0.0))


def protocol(v_a=3.6, v_b=4.4, n_steps=100, repeats=10, integration_time=0.1):
    return CalibrationProtocol(v_a, v_b, n_steps, repeats, integration_time)


class TestCalibrationScan:
    # the scan takes the run's seed and rate, and its bin length from the protocol
    RUN = RunConfig(rate_total=RATE, integration_time=1.0, duration=100.0,
                    tau0=1.294e-15, seed=41)

    def test_protocol_record_count(self, spectrum):
        modulator = ModulatorMap.from_inflection(3.8596, 0.0095, spectrum)
        scan = simulate_calibration_scan(protocol(), self.RUN, spectrum, modulator,
                                         quiet_noise())
        assert len(scan.counts) == 1000
        assert len(scan.v0) == 100
        assert scan.repeats == 10
        check_bin_times(scan.counts.t, 0.1, "calibration_protocol.integration_time_s")

    def test_contrast_spread_matches_poisson(self, spectrum):
        """Per-step X1 scatter follows sqrt(p1 p2 / (R T)) on average."""
        modulator = ModulatorMap.from_inflection(3.8596, 0.0095, spectrum)
        scan = simulate_calibration_scan(protocol(repeats=2), self.RUN, spectrum,
                                         modulator, quiet_noise())
        c1, c2 = scan.counts.c1, scan.counts.c2
        x1 = (c1 / (c1 + c2)).reshape(-1, scan.repeats)
        measured_var = x1.var(axis=1, ddof=1).mean()
        p1, p2 = np.mean(x1), 1 - np.mean(x1)
        predicted = p1 * p2 / (RATE * 0.1)
        assert measured_var == pytest.approx(predicted, rel=0.5)

    def test_equal_bounds_rejected(self):
        with pytest.raises(ParameterError, match="v_a_volt"):
            protocol(v_b=3.6)

    @pytest.mark.parametrize("changes,key", [
        ({"n_steps": 1}, "n_steps"), ({"repeats": 1}, "repeats"),
        ({"integration_time": 0.0}, "integration_time_s"),
        ({"integration_time": 1e308}, "integration_time_s"),
        ({"n_steps": 10**5, "repeats": 10**5}, "n_steps * repeats")])
    def test_protocol_rules(self, changes, key):
        with pytest.raises(ParameterError, match=re.escape(key)):
            protocol(**changes)

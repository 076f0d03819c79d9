import dataclasses
import math
import statistics
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import chi2 as chi2_dist

from fogsim import (
    CalibrationProtocol,
    CalibrationScan,
    CountSeries,
    DelayFlags,
    FringeParams,
    LinearCalibration,
    ModulatorMap,
    NoiseModel,
    RunConfig,
    combine_inflection,
    contrast_points_from_scan,
    delay_from_contrast,
    estimate_delays,
    fit_fringe,
    fit_linear_calibration,
    ideal_linear_calibration,
    simulate_calibration_scan,
)
from fogsim import calibration
from fogsim.calibration import (ContrastPoint, _canonicalize, _initial_guess,
                                normalize_count_arrays)
from fogsim.errors import DataError, ParameterError

TABLE1 = {
    "ch1": FringeParams(f0=482e-9, a=364e-9, w=7.84, v0i=3.85),
    "ch2": FringeParams(f0=334e-9, a=327e-9, w=7.79, v0i=3.93),
}
TABLE2_K1 = 1.0937
TABLE2_K2 = -1.3432


def protocol(n_steps: int, repeats: int) -> CalibrationProtocol:
    """The reference 3.6-4.4 V scan of 0.1 s bins with n_steps x repeats bins."""
    return CalibrationProtocol(3.6, 4.4, n_steps, repeats, 0.1)


def synthetic_scan(params: FringeParams, noise=0.0, n=200, rng=None,
                   v_lo=0.0, v_hi=16.0):
    v = np.linspace(v_lo, v_hi, n)
    y = params.evaluate(v)
    if noise > 0:
        y = y + noise * rng.standard_normal(n)
    return np.column_stack([v, y])


class TestFitFringe:
    @pytest.mark.parametrize("channel", ["ch1", "ch2"])
    def test_noiseless_recovery(self, channel):
        truth = TABLE1[channel]
        fit = fit_fringe(synthetic_scan(truth), 1.0)
        assert fit.f0 == pytest.approx(truth.f0, rel=1e-6)
        assert fit.a == pytest.approx(truth.a, rel=1e-6)
        assert fit.w == pytest.approx(truth.w, rel=1e-6)
        assert fit.v0i == pytest.approx(truth.v0i, rel=1e-6)

    def test_pull_distribution(self, rng):
        """With 1 nW Gaussian noise the error-normalized residuals of each
        parameter behave like a standard normal over 100 repeats."""
        truth = TABLE1["ch1"]
        truth_vec = np.array([truth.f0, truth.a, truth.w, truth.v0i])
        pulls = []
        for _ in range(100):
            fit = fit_fringe(synthetic_scan(truth, noise=1e-9, rng=rng), 1e-9)
            fitted = np.array([fit.f0, fit.a, fit.w, fit.v0i])
            errors = np.array([fit.f0_err, fit.a_err, fit.w_err, fit.v0i_err])
            pulls.append((fitted - truth_vec) / errors)
        pulls = np.array(pulls)
        assert np.all(np.abs(pulls.mean(axis=0)) < 0.3)
        assert np.all((pulls.std(axis=0, ddof=1) > 0.7)
                      & (pulls.std(axis=0, ddof=1) < 1.3))

    def test_bias_vanishes_with_noise(self, rng):
        """Mean parameter error scales down with the noise level."""
        truth = TABLE1["ch1"]
        truth_vec = np.array([truth.f0, truth.a, truth.w, truth.v0i])
        for noise in (1e-9, 1e-10, 1e-11):
            errs = []
            for _ in range(30):
                fit = fit_fringe(synthetic_scan(truth, noise=noise, rng=rng), noise)
                errs.append(np.array([fit.f0, fit.a, fit.w, fit.v0i]) - truth_vec)
            mean_err = np.abs(np.mean(errs, axis=0))
            # statistical bound: |bias| below a few standard errors of the mean
            sem = np.std(errs, axis=0, ddof=1) / math.sqrt(30)
            assert np.all(mean_err < 4 * sem + 1e-15 * np.abs(truth_vec))

    def test_too_few_points(self):
        with pytest.raises(ParameterError):
            fit_fringe(synthetic_scan(TABLE1["ch1"], n=7), 1.0)

    def test_insufficient_span(self):
        with pytest.raises(ParameterError):
            fit_fringe(synthetic_scan(TABLE1["ch1"], n=50, v_lo=3.0, v_hi=5.0), 1.0)

    def test_failed_step_is_fit_error(self):
        scan = synthetic_scan(TABLE1["ch1"])
        scan[100, 1] = np.nan
        with pytest.raises(DataError):
            fit_fringe(scan, 1.0)

    def test_half_period_span_fits(self):
        fit = fit_fringe(synthetic_scan(TABLE1["ch1"], n=100, v_lo=0.0, v_hi=8.0), 1.0)
        assert fit.v0i == pytest.approx(3.85, rel=1e-6)

    def test_no_convergence_is_data_error(self, monkeypatch):
        monkeypatch.setattr(calibration, "_GN_MAX_ITER", 1)
        with pytest.raises(DataError, match=r"did not converge in 1 iterations "
                                            r"\(last relative step"):
            fit_fringe(synthetic_scan(TABLE1["ch1"]), 1.0)

    def test_fit_is_its_fringe(self):
        fit = fit_fringe(synthetic_scan(TABLE1["ch2"]), 1.0)
        v = np.linspace(-20.0, 20.0, 401)
        assert isinstance(fit, FringeParams)
        np.testing.assert_array_equal(
            fit.evaluate(v), FringeParams(fit.f0, fit.a, fit.w, fit.v0i).evaluate(v))


class TestFringeFitStart:
    """The starting point of the fringe fit and the reduction of its result."""

    F0, A, W, V0I = 482e-9, 364e-9, 7.84, 3.85

    @pytest.mark.parametrize("raw", [
        (-A, W, V0I - W),              # a < 0: the same fringe half a period on
        (-A, W, V0I + 5 * W),          # ... and beyond the scan's top
        (A, W, V0I - 6 * W),           # below the scan's bottom
        (A, -W, V0I + W),              # w < 0: sin is odd, so (a, w) ~ (-a, -w)
    ])
    def test_canonical_params_give_the_same_fringe(self, raw):
        v = np.linspace(0.0, 16.0, 200)
        p = np.array([self.F0, *raw])
        f0, a, w, v0i = _canonicalize(p, 0.0, 16.0)
        assert a > 0 and w > 0
        assert -w <= v0i <= 16.0 + w
        np.testing.assert_allclose(FringeParams(f0, a, w, v0i).evaluate(v),
                                   FringeParams(*p).evaluate(v), rtol=0, atol=1e-12 * self.A)

    def test_guess_from_a_falling_crossing(self):
        """A scan from a crest to the next trough crosses its mean once,
        falling; v0i starts one half-period below that crossing."""
        truth = FringeParams(self.F0, self.A, self.W, self.V0I)
        v = np.linspace(self.V0I + self.W / 2, self.V0I + 3 * self.W / 2, 41)
        y = truth.evaluate(v)
        f0, _, w, v0i = _initial_guess(v, y)
        falling = np.interp(0.0, (y - f0)[::-1], v[::-1])
        assert v0i == pytest.approx(falling - w, rel=1e-12)
        assert falling == pytest.approx(self.V0I + self.W, rel=1e-3)


class TestCombineInflection:
    def test_table_values(self):
        mean, err = combine_inflection([(3.85, 0.01), (3.93, 0.03)])
        assert abs(mean - 3.8596) < 2e-3
        assert abs(err - 0.0095) < 1e-4

    def test_single_estimate_unchanged(self):
        mean, err = combine_inflection([(3.91, 0.02)])
        assert mean == pytest.approx(3.91, rel=1e-14)
        assert err == pytest.approx(0.02, rel=1e-14)

    def test_identical_pair(self):
        mean, err = combine_inflection([(3.9, 0.02), (3.9, 0.02)])
        assert mean == pytest.approx(3.9, rel=1e-14)
        assert err == pytest.approx(0.02 / math.sqrt(2), rel=1e-14)

    def test_error_never_grows(self, rng):
        pairs = [(v, e) for v, e in zip(rng.uniform(3.8, 4.0, 5),
                                        rng.uniform(0.005, 0.05, 5))]
        _, err = combine_inflection(pairs)
        assert err <= min(e for _, e in pairs)

    def test_zero_error_rejected(self):
        with pytest.raises(ParameterError):
            combine_inflection([(3.85, 0.0)])


class TestAlphaFromInflection:
    def test_reference_value(self, spectrum):
        modulator = ModulatorMap.from_inflection(3.8596, 0.0095, spectrum)
        alpha, alpha_err = modulator.alpha, modulator.alpha_err
        assert abs(alpha - 3.35e-16) < 0.005e-16  # rounds to 3.35e-16
        assert alpha_err == pytest.approx(alpha * 0.0095 / 3.8596, rel=1e-12)
        assert 0 < alpha_err <= 0.03e-16  # within the reference uncertainty

    def test_quarter_wave_numerator(self, spectrum):
        assert spectrum.quarter_wave_delay == pytest.approx(1.2924e-15, rel=2e-4)

    def test_inverse_scaling(self, spectrum):
        alpha1 = ModulatorMap.from_inflection(3.8596, 0.0, spectrum).alpha
        alpha2 = ModulatorMap.from_inflection(2 * 3.8596, 0.0, spectrum).alpha
        assert alpha2 == pytest.approx(alpha1 / 2, rel=1e-14)


class TestNormalizeCounts:
    def test_balanced(self):
        dx, _, degenerate = normalize_count_arrays([1000], [1000], (0.0, 0.0), 1.0)
        assert dx[0] == 0.0
        assert not degenerate[0]

    def test_contrast_and_error(self):
        dx, dx_err, _ = normalize_count_arrays([300], [100], (0.0, 0.0), 1.0)
        assert dx[0] == pytest.approx(0.5, rel=1e-14)
        assert dx_err[0] == pytest.approx(math.sqrt(4 * 300 * 100 / 400**3), rel=1e-12)
        assert dx_err[0] == pytest.approx(0.0433, abs=1e-4)

    def test_dark_dominated_bin_flagged(self):
        dx, dx_err, degenerate = normalize_count_arrays(
            [30, 300], [25, 100], (25.0, 25.0), 1.0)
        assert degenerate.tolist() == [True, False]
        assert np.isnan([dx[0], dx_err[0]]).all()

    def test_scaling_invariance(self):
        dx, dx_err, _ = normalize_count_arrays([300, 2100], [100, 700], (0.0, 0.0), 1.0)
        assert dx_err[1] == pytest.approx(dx_err[0] / math.sqrt(7), rel=1e-14)
        assert dx[1] == pytest.approx(dx[0], rel=1e-14)


class TestFitLinearCalibration:
    @staticmethod
    def points_from_line(k1, k2, tau_fs, err):
        return [ContrastPoint(dx=k1 * t + k2, dx_err=err, tau=t * 1e-15)
                for t in tau_fs]

    def test_exact_recovery_of_table_line(self):
        tau_fs = np.linspace(1.2, 1.5, 100)
        calib = fit_linear_calibration(
            self.points_from_line(TABLE2_K1, TABLE2_K2, tau_fs, 1e-3))
        assert calib.k1 == pytest.approx(TABLE2_K1, rel=1e-12)
        assert calib.k2 == pytest.approx(TABLE2_K2, rel=1e-12)

    def test_two_points_plus_midpoint_exact(self):
        tau_fs = np.array([1.2, 1.35, 1.5])
        calib = fit_linear_calibration(self.points_from_line(2.0, -2.5, tau_fs, 1e-3))
        assert calib.k1 == pytest.approx(2.0, rel=1e-12)
        assert calib.k2 == pytest.approx(-2.5, rel=1e-12)

    def test_coverage_of_simulated_protocol(self, spectrum):
        """K1, K2 within 3 fit-sigma of the noiseless-fit truth in >= 95/100
        repeats of the stepped calibration protocol."""
        modulator = ModulatorMap.from_inflection(3.8596, 0.0095, spectrum)
        noiseless = ideal_truth = None
        hits = 0
        for repeat in range(100):
            config = RunConfig(rate_total=631.6e3, integration_time=0.1,
                               duration=100.0, tau0=1.294e-15, seed=1000 + repeat)
            scan = simulate_calibration_scan(protocol(100, 10), config, spectrum, modulator,
                                             NoiseModel())
            if ideal_truth is None:
                # noiseless estimand: weighted fit through the exact model contrasts
                from fogsim import click_probabilities
                tau_set = modulator.alpha * scan.v0
                p1, p2 = click_probabilities(tau_set, spectrum)
                noiseless = [ContrastPoint(dx=float(a - b), dx_err=1e-6, tau=float(t))
                             for a, b, t in zip(p1, p2, tau_set)]
                ideal_truth = fit_linear_calibration(noiseless)
            calib = fit_linear_calibration(
                contrast_points_from_scan(scan, modulator, (0.0, 0.0)))
            z1 = abs(calib.k1 - ideal_truth.k1) / math.sqrt(calib.covariance[0][0])
            z2 = abs(calib.k2 - ideal_truth.k2) / math.sqrt(calib.covariance[1][1])
            hits += (z1 < 3 and z2 < 3)
        assert hits >= 95

    def test_residual_statistic_is_chi_square(self, rng):
        """p-values of the weighted residual stay in (0.01, 0.99) for >= 90/100
        correctly modeled synthetic datasets."""
        ok = 0
        tau_fs = np.linspace(1.2, 1.5, 60)
        for _ in range(100):
            sigma = 2e-3
            dx = TABLE2_K1 * tau_fs + TABLE2_K2 + sigma * rng.standard_normal(60)
            points = [ContrastPoint(dx=d, dx_err=sigma, tau=t * 1e-15)
                      for d, t in zip(dx, tau_fs)]
            calib = fit_linear_calibration(points)
            p_value = chi2_dist.sf(calib.chi2, calib.dof)
            ok += (0.01 < p_value < 0.99)
        assert ok >= 90

    def test_collinear_design_rejected(self):
        points = [ContrastPoint(dx=0.1, dx_err=1e-3, tau=1.3e-15)
                  for _ in range(5)]
        with pytest.raises(DataError):
            fit_linear_calibration(points)

    def test_too_few_points(self):
        points = self.points_from_line(TABLE2_K1, TABLE2_K2, [1.2, 1.3], 1e-3)
        with pytest.raises(DataError):
            fit_linear_calibration(points)


class TestDelayFromContrast:
    @staticmethod
    def calib():
        return LinearCalibration(k1=TABLE2_K1, k2=TABLE2_K2,
                                 covariance=((1e-6, 0.0), (0.0, 1e-6)),
                                 tau_window=(1.2e-15, 1.5e-15))

    def test_inverts_the_line(self):
        calib = self.calib()
        tau, _, _ = delay_from_contrast(np.array([calib.k2 + calib.k1 * 1.0, calib.k2]),
                                        1e-3, calib)
        assert tau[0] == pytest.approx(1e-15, rel=1e-12)
        assert tau[1] == pytest.approx(0.0, abs=1e-30)

    def test_round_trip_composition(self, spectrum):
        """voltage -> tau -> contrast -> tau reproduces alpha * V to 1e-12."""
        modulator = ModulatorMap.from_inflection(3.8596, 0.0095, spectrum)
        tau_true = modulator.alpha * 3.86
        calib = ideal_linear_calibration(spectrum, tau_true)
        dx_forward = calib.k1 * (tau_true * 1e15) + calib.k2
        tau, sigma, _ = delay_from_contrast(dx_forward, 0.0, calib)
        assert tau == pytest.approx(tau_true, rel=1e-12)
        assert tau == pytest.approx(1.294e-15, rel=1e-3)
        assert sigma == 0.0  # the ideal calibration has zero covariance

    def test_error_propagation_modes(self):
        """A calibration with zero covariance gives the statistical error alone."""
        calib = self.calib()
        exact = dataclasses.replace(calib, covariance=((0.0, 0.0), (0.0, 0.0)))
        _, with_cal, _ = delay_from_contrast(0.12, 1e-3, calib)
        _, without, _ = delay_from_contrast(0.12, 1e-3, exact)
        assert without == pytest.approx(1e-3 / TABLE2_K1 * 1e-15, rel=1e-12)
        assert with_cal > without

    def test_window_flagging(self):
        calib = self.calib()
        dx = calib.k2 + calib.k1 * np.array([1.35, 2.0, np.nan])
        _, _, outside = delay_from_contrast(dx, 1e-3, calib)
        assert outside.tolist() == [False, True, False]


class TestContrastPointsFromScan:
    def test_step_error_is_standard_error_of_mean(self, spectrum):
        """A step's dx_err is std(ddof=1) / sqrt(n) of its n non-degenerate
        repeats; a step with fewer than two comes back degenerate."""
        c1 = [[500, 520, 480, 510], [300, 0, 320, 310], [0, 0, 0, 250]]
        c2 = [[400, 390, 410, 420], [600, 580, 0, 590], [10, 10, 10, 0]]
        v0 = np.array([3.6, 4.0, 4.4])
        scan = CalibrationScan(v0, CountSeries(np.arange(12) * 0.1, np.ravel(c1),
                                               np.ravel(c2), 0.1))
        modulator = ModulatorMap.from_inflection(3.8596, 0.0095, spectrum)
        points = contrast_points_from_scan(scan, modulator, (0.0, 0.0))
        for point, step1, step2 in zip(points[:2], c1, c2):
            good = [(a - b) / (a + b) for a, b in zip(step1, step2) if a and b]
            assert not point.degenerate
            assert point.dx == pytest.approx(statistics.mean(good), rel=1e-12)
            assert point.dx_err == pytest.approx(statistics.stdev(good) / math.sqrt(len(good)),
                                                 rel=1e-12)
        assert points[2].degenerate and math.isnan(points[2].dx_err)
        assert [p.tau for p in points] == pytest.approx((modulator.alpha * v0).tolist(),
                                                        rel=1e-15)


class TestDelayFlags:
    def test_reads_each_code_as_its_label(self):
        codes = np.array([0, 1, 2, 0], np.uint8)
        flags = DelayFlags(codes)
        assert len(flags) == 4 and list(flags) == ["ok", "degenerate", "window", "ok"]
        assert (flags[1], flags[-1]) == ("degenerate", "ok")
        assert isinstance(flags[1:3], DelayFlags) and flags[1:3] == ["degenerate", "window"]
        assert flags.count("ok") == 2 and flags.count("bogus") == 0
        assert "window" in flags and flags.index("window") == 2
        assert flags == DelayFlags(codes.copy()) and flags != DelayFlags(codes[:3])
        assert flags != ["ok"] and flags != tuple(flags)
        assert codes.flags.writeable and not flags.codes.flags.writeable
        assert repr(flags) == "DelayFlags(ok=2, degenerate=1, window=1)"

    @pytest.mark.parametrize("codes", [[3], [[0, 1]]])
    def test_codes_must_index_the_labels(self, codes):
        with pytest.raises(ParameterError, match="flag codes"):
            DelayFlags(codes)


class TestEstimateDelays:
    @pytest.mark.parametrize("edge_kind", ["degenerate", "window"])
    def test_blocks_match_one_whole_array_call(self, rng, edge_kind):
        """Worked in blocks of 16,384 bins, estimate_delays gives the bits and
        flags of one normalize_count_arrays + delay_from_contrast call on the
        whole series, one uint8 code per bin read as its label; the flagged
        bins sit on and next to the block edges."""
        n = 150_001
        edges = [65_535, 65_536, 131_072]
        c1, c2 = rng.poisson(1133, n), rng.poisson(867, n)
        other_kind = {"degenerate": "window", "window": "degenerate"}[edge_kind]
        for kind, rows in ((edge_kind, edges), (other_kind, [65_534, 65_537, 131_073])):
            if kind == "degenerate":
                c1[rows] = 0
            else:
                c1[rows], c2[rows] = 2000, 10
        counts = CountSeries(np.arange(n) * 0.01, c1, c2, 0.01)
        calset = SimpleNamespace(dark_rates=(2.0, 3.0), linear=TestDelayFromContrast.calib())

        tau, sigma, flags = estimate_delays(counts, calset)

        dx, dx_err, degenerate = normalize_count_arrays(c1, c2, calset.dark_rates, 0.01)
        want_tau, want_sigma, outside = delay_from_contrast(dx, dx_err, calset.linear)
        want_flags = np.where(degenerate, "degenerate", np.where(outside, "window", "ok"))
        assert np.array_equal(tau.view(np.uint64), want_tau.view(np.uint64))
        assert np.array_equal(sigma.view(np.uint64), want_sigma.view(np.uint64))
        assert flags.codes.dtype == np.uint8 and flags.codes.shape == (n,)
        assert not flags.codes.flags.writeable
        assert np.array(calibration.DELAY_FLAGS)[flags.codes].tolist() == want_flags.tolist()
        assert flags == want_flags.tolist()
        assert [flags[row] for row in edges] == [edge_kind] * 3
        assert flags.count("ok") == n - 6

    @staticmethod
    def _table_counts(rng, n: int) -> CountSeries:
        """n bins whose t, c1 and c2 are views of one table, as a count file
        reads; some bins degenerate and some out of the window."""
        table = np.zeros(n, dtype="f8,i8,i8")
        table["f0"] = np.arange(n) * 0.01
        table["f1"], table["f2"] = rng.poisson(1133, n), rng.poisson(867, n)
        table["f1"][::997] = 0
        table["f1"][5::1009], table["f2"][5::1009] = 2000, 10
        return CountSeries(table["f0"], table["f1"], table["f2"], 0.01)

    def test_results_written_over_the_counts(self, rng):
        """Given float64 views of the counts' own columns as ``out``, as
        estimate passes them, each block's results overwrite the counts it
        read, with the bits and flags of the call without ``out``; 50,001
        bins end in a partial block."""
        n = 50_001
        assert n % calibration._BLOCK_ROWS
        counts = self._table_counts(rng, n)
        calset = SimpleNamespace(dark_rates=(2.0, 3.0), linear=TestDelayFromContrast.calib())
        want_tau, want_sigma, want_flags = estimate_delays(
            CountSeries(counts.t, counts.c1.copy(), counts.c2.copy(), 0.01), calset)
        out = (counts.c1.view(np.float64), counts.c2.view(np.float64))

        tau, sigma, flags = estimate_delays(counts, calset, out=out)

        assert tau is out[0] and sigma is out[1]
        assert np.array_equal(tau.view(np.uint64), want_tau.view(np.uint64))
        assert np.array_equal(sigma.view(np.uint64), want_sigma.view(np.uint64))
        assert flags == want_flags
        assert 0 < flags.count("degenerate") and 0 < flags.count("window")

    def test_counts_kept_without_out(self, rng):
        """Without ``out`` the results are new arrays and the caller's counts
        keep their values."""
        counts = self._table_counts(rng, 20_000)
        c1, c2 = counts.c1.copy(), counts.c2.copy()
        calset = SimpleNamespace(dark_rates=(2.0, 3.0), linear=TestDelayFromContrast.calib())
        tau, sigma, _ = estimate_delays(counts, calset)
        assert not np.shares_memory(tau, counts.c1) and not np.shares_memory(sigma, counts.c2)
        assert np.array_equal(counts.c1, c1) and np.array_equal(counts.c2, c2)

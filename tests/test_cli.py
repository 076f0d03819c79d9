import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fogsim
from fogsim import Spectrum, crb_curve, overnight_drift
from fogsim.cli import main
from fogsim.config import config_from_dict, default_config_dict
from fogsim.io_formats import (
    file_digest,
    read_allan_curves,
    read_calibration_set,
    read_delay_series,
)

SPECTRUM = Spectrum(1550e-9, 0.25e12)
OMEGA0 = SPECTRUM.omega0
RATE = 631.6e3


def write_config(tmp_path: Path, **overrides) -> str:
    doc = {}
    for dotted, value in overrides.items():
        node = doc
        *parents, leaf = dotted.split(".")
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(*argv) -> int:
    return main([str(a) for a in argv])


class TestFisherCommand:
    def test_curve_file(self, tmp_path):
        out = tmp_path / "fisher.csv"
        assert run("fisher", "--tau-min", 1e-18, "--tau-max", 5000e-15,
                   "--n-points", 2000, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tau_s,fisher_s^-2"
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 1e-18
        assert first[1] == pytest.approx(OMEGA0**2, rel=1e-3)

    def test_single_point_at_zero(self, tmp_path):
        out = tmp_path / "one.csv"
        assert run("fisher", "--tau-min", 0, "--n-points", 1, "--out", out) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 2
        value = float(rows[1].split(",")[1])
        assert value == pytest.approx(OMEGA0**2, rel=1e-3)

    def test_envelope_decay_of_maxima(self, tmp_path):
        out = tmp_path / "fisher.csv"
        assert run("fisher", "--n-points", 5001, "--out", out) == 0
        data = np.array([[float(x) for x in line.split(",")]
                         for line in out.read_text().splitlines()[1:]])
        tau_fs, f = data[:, 0] * 1e15, data[:, 1]
        # coarse-grained peaks (250 fs blocks, many fringes each) fall
        # monotonically once the Gaussian envelope takes over
        maxima = [f[(tau_fs >= lo) & (tau_fs < lo + 250)].max()
                  for lo in range(500, 5000, 250)]
        assert len(maxima) == 18
        assert np.all(np.diff(maxima) < 0)

    def test_bad_range_is_usage_error(self, tmp_path):
        assert run("fisher", "--tau-min", 2e-12, "--tau-max", 1e-12,
                   "--out", tmp_path / "x.csv") == 2


class TestSimulateCommand:
    def test_nine_hour_run_row_count(self, tmp_path):
        out = tmp_path / "counts.csv"
        config = write_config(tmp_path, **{"run.duration_s": 9 * 3600.0,
                                           "run.seed": 4242})
        assert run("--config", config, "simulate", "--out", out) == 0
        assert len(out.read_text().splitlines()) == 32_400 + 1

    def test_same_seed_identical_bytes(self, tmp_path):
        config = write_config(tmp_path, **{"run.duration_s": 400.0})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("--config", config, "simulate", "--out", a) == 0
        assert run("--config", config, "simulate", "--out", b) == 0
        assert file_digest(a) == file_digest(b)

    def test_workers_do_not_change_bytes(self, tmp_path):
        config = write_config(tmp_path, **{"run.duration_s": 400.0})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("--config", config, "simulate", "--out", a) == 0
        assert run("--config", config, "--workers", 4, "simulate", "--out", b) == 0
        assert file_digest(a) == file_digest(b)

    def test_duration_below_bin_is_usage_error(self, tmp_path):
        config = write_config(tmp_path, **{"run.duration_s": 0.25})
        code, err = _run_quietly(["--config", config, "simulate", "--out", tmp_path / "x.csv"])
        assert code == 2
        assert "at least one integration bin" in err

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "counts.csv"
        config = write_config(tmp_path, **{"run.duration_s": 60.0})
        assert run("--config", config, "simulate", "--out", out) == 0
        manifest = json.loads((tmp_path / "counts.csv.manifest.json").read_text())
        assert manifest["rng_algorithm"] == "philox4x64-10"
        assert manifest["outputs"]["counts.csv"] == file_digest(out)


class TestCalibrateCommand:
    def test_simulated_pipeline_matches_reference_alpha(self, tmp_path):
        out = tmp_path / "cal.json"
        config = write_config(tmp_path, **{"run.seed": 314159})
        assert run("--config", config, "calibrate", "--simulate-bright",
                   "--simulate-counts", "--out", out) == 0
        calset = read_calibration_set(out)
        alpha = calset.modulator.alpha
        alpha_err = calset.modulator.alpha_err
        assert abs(alpha - 3.35e-16) < 2 * alpha_err
        assert calset.linear.k1 == pytest.approx(OMEGA0 / 1e15, rel=2e-2)

    def test_noiseless_single_channel_round_trip(self, tmp_path):
        """Noiseless bright scan recovers the channel-1 table row exactly and
        a constructed linear counts scan returns its own (K1, K2)."""
        config = write_config(tmp_path, **{
            "bright_source.power_noise_ch1_w": 0.0,
            "bright_source.power_noise_ch2_w": 0.0,
            "noise.dark_rate_1_hz": 0.0,
            "noise.dark_rate_2_hz": 0.0,
        })
        # stage-one truth for channel 1 only: v0i = 3.85 exactly
        alpha = 1550e-9 / (4 * 299792458.0) / 3.85
        k1_true, k2_true = 1.0937, -1.3432
        counts_path = tmp_path / "scan.csv"
        lines = ["v0_volt,t_s,c1,c2"]
        total = 10**12
        t = 0.0
        for v in np.linspace(3.6, 4.4, 100):
            dx = k1_true * (alpha * v * 1e15) + k2_true
            c1 = int(round(total * (1 + dx) / 2))
            for r in range(3):
                lines.append(f"{float(v)!r},{t!r},{c1 + r},{total - c1 + r}")
                t += 0.1
        counts_path.write_text("\n".join(lines) + "\n")

        out = tmp_path / "cal.json"
        assert run("--config", config, "calibrate", "--simulate-bright",
                   "--counts", counts_path, "--channels", "ch1",
                   "--out", out) == 0
        calset = read_calibration_set(out)
        fit = calset.fringe_fits["ch1"]
        assert fit.v0i == pytest.approx(3.85, rel=1e-9)
        assert fit.w == pytest.approx(7.84, rel=1e-9)
        assert fit.a == pytest.approx(364e-9, rel=1e-9)
        assert fit.f0 == pytest.approx(482e-9, rel=1e-9)
        assert calset.v0i == pytest.approx(3.85, rel=1e-9)
        assert calset.linear.k1 == pytest.approx(k1_true, rel=1e-6)
        assert calset.linear.k2 == pytest.approx(k2_true, rel=1e-6)

    @pytest.mark.parametrize("channel", ["ch1", "ch2"])
    def test_single_channel_widens_error(self, tmp_path, channel):
        config = write_config(tmp_path, **{"run.seed": 2718})
        both, single = tmp_path / "both.json", tmp_path / "single.json"
        assert run("--config", config, "calibrate", "--simulate-bright",
                   "--simulate-counts", "--out", both) == 0
        assert run("--config", config, "calibrate", "--simulate-bright",
                   "--simulate-counts", "--channels", channel,
                   "--out", single) == 0
        assert read_calibration_set(single).v0i_err > \
            read_calibration_set(both).v0i_err

    def test_missing_inputs_usage_error(self, tmp_path):
        assert run("calibrate", "--out", tmp_path / "cal.json") == 2

    def test_kept_scans_reproduce_the_calibration(self, tmp_path):
        assert run("--out-dir", tmp_path, "calibrate", "--simulate-bright",
                   "--simulate-counts", "--keep-intermediate",
                   "--out", "simulated.json") == 0
        assert run("--out-dir", tmp_path, "calibrate",
                   "--bright", tmp_path / "bright_scan.csv",
                   "--counts", tmp_path / "calibration_scan.csv",
                   "--out", "from_files.json") == 0
        assert (tmp_path / "from_files.json").read_bytes() == \
            (tmp_path / "simulated.json").read_bytes()


@pytest.fixture(scope="module")
def calibrated(tmp_path_factory):
    """A calibration set from the simulated protocol, shared across tests."""
    tmp_path = tmp_path_factory.mktemp("calibrated")
    config = write_config(tmp_path, **{"run.seed": 314159})
    out = tmp_path / "cal.json"
    assert run("--config", config, "calibrate", "--simulate-bright",
               "--simulate-counts", "--out", out) == 0
    return out


class TestEstimateCommand:
    def test_end_to_end_mean_delay(self, tmp_path, calibrated):
        config = write_config(tmp_path, **{"run.duration_s": 400.0,
                                           "run.seed": 555})
        counts = tmp_path / "counts.csv"
        delays = tmp_path / "delays.csv"
        assert run("--config", config, "simulate", "--out", counts) == 0
        assert run("--config", config, "estimate", "--counts", counts,
                   "--calibration", calibrated, "--out", delays) == 0
        t, tau, sigma, flags = read_delay_series(delays)
        assert len(tau) == 400
        assert all(f == "ok" for f in flags)
        # statistical + calibration-systematic tolerance on the mean
        n = len(tau)
        sigma_total = math.sqrt(np.mean(sigma**2) / n
                                + (np.mean(sigma) ** 2) * (1 - 1 / n))
        assert abs(tau.mean() - 1.294e-15) < 3 * sigma_total

    def test_constructed_counts_recover_exactly(self, tmp_path, calibrated):
        calset = read_calibration_set(calibrated)
        target = 1.31e-15
        dx = calset.linear.k1 * target * 1e15 + calset.linear.k2
        total = 10**12
        c1 = int(round(total * (1 + dx) / 2))
        counts = tmp_path / "counts.csv"
        rows = ["t_s,c1,c2"] + [f"{float(i)!r},{c1},{total - c1}" for i in range(10)]
        counts.write_text("\n".join(rows) + "\n")
        config = write_config(tmp_path, **{"noise.dark_rate_1_hz": 0.0,
                                           "noise.dark_rate_2_hz": 0.0})
        delays = tmp_path / "delays.csv"
        assert run("--config", config, "estimate", "--counts", counts,
                   "--calibration", calibrated, "--out", delays) == 0
        _, tau, _, _ = read_delay_series(delays)
        np.testing.assert_allclose(tau, target, rtol=1e-9)

    def test_dark_dominated_rows_flagged(self, tmp_path, calibrated):
        counts = tmp_path / "counts.csv"
        rows = ["t_s,c1,c2"] + [f"{float(i)!r},2,3" for i in range(6)]
        counts.write_text("\n".join(rows) + "\n")
        delays = tmp_path / "delays.csv"
        assert run("estimate", "--counts", counts,
                   "--calibration", calibrated, "--out", delays) == 0
        _, _, _, flags = read_delay_series(delays)
        assert all(f == "degenerate" for f in flags)


def write_delays(path: Path, t, tau, sigma, flags) -> None:
    rows = ["t_s,tau_s,sigma_tau_s,flag"]
    rows += [f"{float(a)!r},{float(b)!r},{float(sigma)!r},{f}"
             for a, b, f in zip(t, tau, flags)]
    path.write_text("\n".join(rows) + "\n")


class TestStabilityCommand:
    @staticmethod
    def white_noise_delays(path: Path, n: int, seed: int = 8080):
        rng = np.random.default_rng(seed)
        sigma_point = 1.0 / (OMEGA0 * math.sqrt(RATE))
        tau = 1.294e-15 + sigma_point * rng.standard_normal(n)
        write_delays(path, np.arange(n), tau, sigma_point, ["ok"] * n)
        return sigma_point

    def test_white_noise_tracks_crb(self, tmp_path):
        delays = tmp_path / "delays.csv"
        self.white_noise_delays(delays, 40_000)
        assert run("stability", "--delays", delays,
                   "--out-prefix", tmp_path / "stab") == 0
        report = json.loads((tmp_path / "stab_report.json").read_text())
        curves = read_allan_curves(tmp_path / "stab_allan.csv")
        assert set(curves) == {"raw", "even", "odd", "differential"}
        even = curves["even"]
        crb = crb_curve(RATE, SPECTRUM, even["t"])
        # small m keeps the Allan estimator itself tight enough for a 10% band
        well_estimated = even["m"] <= 30
        assert well_estimated.sum() >= 10
        np.testing.assert_allclose(even["adev"][well_estimated],
                                   crb[well_estimated], rtol=0.1)
        # shot-noise-limited: the detection limit sits at long averaging times
        assert report["detection_limit_tau"]["t_s"] >= even["t"].max() / 10
        assert report["earth_rate"]["delay_s"] == pytest.approx(4.06e-19, rel=1e-2)
        for key in ("figure_of_merit_s_per_km2", "equivalent_rotation_deg_per_h",
                    "detection_limit_differential_over_sqrt2_s"):
            assert key in report

    def test_deterministic_outputs(self, tmp_path):
        delays = tmp_path / "delays.csv"
        self.white_noise_delays(delays, 1000)
        assert run("stability", "--delays", delays,
                   "--out-prefix", tmp_path / "one") == 0
        assert run("--workers", 4, "stability", "--delays", delays,
                   "--out-prefix", tmp_path / "two") == 0
        assert file_digest(tmp_path / "one_allan.csv") == \
            file_digest(tmp_path / "two_allan.csv")

    def test_overnight_preset_end_to_end_report(self, tmp_path, calibrated):
        config = write_config(tmp_path, **{
            "run.duration_s": 1200.0, "run.seed": 31415,
            "noise.drift.preset": "overnight"})
        counts, delays = tmp_path / "counts.csv", tmp_path / "delays.csv"
        assert run("--config", config, "simulate", "--out", counts) == 0
        assert run("--config", config, "estimate", "--counts", counts,
                   "--calibration", calibrated, "--out", delays) == 0
        assert run("--config", config, "stability", "--delays", delays,
                   "--out-prefix", tmp_path / "stab") == 0
        report = json.loads((tmp_path / "stab_report.json").read_text())
        assert report["detection_limit_tau"]["sigma_s"] > 0
        assert report["detection_limit_differential"]["sigma_s"] > 0
        assert report["figure_of_merit_s_per_km2"] > 0
        assert report["equivalent_rotation_deg_per_h"] > 0
        assert report["geometry"]["serrodyne_rate_hz_override"] == 54795.0
        assert report["geometry"]["serrodyne_rate_hz_computed"] == \
            pytest.approx(50.95e3, rel=1e-3)
        assert set(report["saturation"]) == {
            "even", "odd", "differential", "differential_vs_sqrt2_bound"}

    def test_short_series_usage_error(self, tmp_path):
        delays = tmp_path / "delays.csv"
        rows = ["t_s,tau_s,sigma_tau_s,flag"] + \
            [f"{float(i)!r},1e-15,1e-18,ok" for i in range(5)]
        delays.write_text("\n".join(rows) + "\n")
        assert run("stability", "--delays", delays,
                   "--out-prefix", tmp_path / "stab") == 2

    def test_empty_input_usage_error(self, tmp_path):
        delays = tmp_path / "delays.csv"
        delays.write_text("t_s,tau_s,sigma_tau_s,flag\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the header-only table reads quietly
            assert run("stability", "--delays", delays,
                       "--out-prefix", tmp_path / "stab") == 2


class TestStabilityGaps:
    N = 32_400

    def stability(self, tmp_path: Path, name: str, tau, flags):
        delays = tmp_path / f"{name}.csv"
        sigma_point = 1.0 / (OMEGA0 * math.sqrt(RATE))
        write_delays(delays, np.arange(self.N), tau, sigma_point, flags)
        assert run("stability", "--delays", delays, "--out-prefix", tmp_path / name) == 0
        report = json.loads((tmp_path / f"{name}_report.json").read_text())
        return read_allan_curves(tmp_path / f"{name}_allan.csv"), report

    def test_degenerate_odd_bin_keeps_parity(self, tmp_path):
        """A 9 h overnight-drift series with an even/odd offset: dropping one
        odd bin mid-run leaves the even curve untouched and every detection
        limit within 10 % of the gap-free analysis."""
        rng = np.random.default_rng(2402)
        t = np.arange(self.N, dtype=np.float64)
        tau = 1.294e-15 + overnight_drift().deterministic(t) \
            + rng.standard_normal(self.N) / (OMEGA0 * math.sqrt(RATE))
        tau[0::2] += 5e-19
        flags = ["ok"] * self.N
        full_curves, full_report = self.stability(tmp_path, "full", tau, flags)
        gap = self.N // 2 + 1  # an odd bin, written as estimate writes it
        tau[gap], flags[gap] = math.nan, "degenerate"
        gap_curves, gap_report = self.stability(tmp_path, "gap", tau, flags)

        assert gap_report["series"]["dropped_bins"] == 1
        for key in ("m", "adev", "ci"):
            np.testing.assert_array_equal(gap_curves["even"][key],
                                          full_curves["even"][key])
        for origin, limit in full_report["detection_limit"].items():
            assert gap_report["detection_limit"][origin]["sigma_s"] == \
                pytest.approx(limit["sigma_s"], rel=0.10), origin

    def test_missing_row_is_data_error(self, tmp_path):
        delays = tmp_path / "delays.csv"
        t = np.delete(np.arange(40.0), 17)
        write_delays(delays, t, np.full(len(t), 1.294e-15), 1e-18, ["ok"] * len(t))
        assert run("stability", "--delays", delays,
                   "--out-prefix", tmp_path / "stab") == 3


def _counts_csv(path: Path, counts) -> Path:
    rows = ["t_s,c1,c2"] + [f"{float(i)!r},{c1},{c2}" for i, (c1, c2) in enumerate(counts)]
    path.write_text("\n".join(rows) + "\n")
    return path


def _calibration_with(tmp_path: Path, calibrated: Path, edit) -> Path:
    doc = json.loads(Path(calibrated).read_text())
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return path


def _config_case(key, value):
    def argv(tmp_path, calibrated):
        return ["--config", write_config(tmp_path, **{key: value}),
                "fisher", "--n-points", 1, "--out", tmp_path / "f.csv"]
    return argv


def _estimate_case(edit):
    def argv(tmp_path, calibrated):
        counts = _counts_csv(tmp_path / "counts.csv", [(500, 400)] * 4)
        return ["estimate", "--counts", counts,
                "--calibration", _calibration_with(tmp_path, calibrated, edit),
                "--out", tmp_path / "delays.csv"]
    return argv


def _simulate_case(*options, **config):
    def argv(tmp_path, calibrated):
        return ["--config", write_config(tmp_path, **config), "simulate", *options,
                "--out", tmp_path / "counts.csv"]
    return argv


def _counts_time_case(bad):
    def argv(tmp_path, calibrated):
        counts = tmp_path / "counts.csv"
        counts.write_text(f"t_s,c1,c2\n0.0,500,400\n{bad},500,400\n{bad},500,400\n")
        return ["estimate", "--counts", counts, "--calibration", calibrated,
                "--out", tmp_path / "delays.csv"]
    return argv


def _negative_counts(tmp_path, calibrated):
    counts = _counts_csv(tmp_path / "counts.csv", [(500, 400), (-3, 400)])
    return ["estimate", "--counts", counts, "--calibration", calibrated,
            "--out", tmp_path / "delays.csv"]


def _counts_step_case(tmp_path, calibrated):
    """Counts of 0.01 s bins, estimated under the default 1 s bin length."""
    counts = tmp_path / "counts.csv"
    counts.write_text("t_s,c1,c2\n" + "".join(f"{0.01 * i!r},500,400\n" for i in range(4)))
    return ["estimate", "--counts", counts, "--calibration", calibrated,
            "--out", tmp_path / "delays.csv"]


def _negative_scan_counts(tmp_path, calibrated):
    scan = tmp_path / "scan.csv"
    rows = ["v0_volt,t_s,c1,c2"]
    for step, v in enumerate(np.linspace(3.6, 4.4, 10)):
        rows += [f"{float(v)!r},{0.1 * (3 * step + r)!r},{-1 if r else 500},400"
                 for r in range(3)]
    scan.write_text("\n".join(rows) + "\n")
    return ["calibrate", "--simulate-bright", "--counts", scan,
            "--out", tmp_path / "cal.json"]


def _identical_scan_repeats(tmp_path, calibrated):
    scan = tmp_path / "scan.csv"
    rows = ["v0_volt,t_s,c1,c2"]
    for step, v in enumerate(np.linspace(3.6, 4.4, 20)):
        rows += [f"{float(v)!r},{0.1 * (3 * step + r)!r},1000,900" for r in range(3)]
    scan.write_text("\n".join(rows) + "\n")
    return ["calibrate", "--simulate-bright", "--counts", scan,
            "--out", tmp_path / "cal.json"]


def _scan_step_case(tmp_path, calibrated):
    """A kept scan of 0.1 s bins, calibrated under a 1 s bin length."""
    assert run("--out-dir", tmp_path, "calibrate", "--simulate-bright", "--simulate-counts",
               "--keep-intermediate") == 0
    config = write_config(tmp_path, **{"calibration_protocol.integration_time_s": 1.0})
    return ["--config", config, "calibrate", "--simulate-bright",
            "--counts", tmp_path / "calibration_scan.csv", "--out", tmp_path / "cal.json"]


def _stability_case(tau, flag, **config):
    def argv(tmp_path, calibrated):
        delays = tmp_path / "delays.csv"
        write_delays(delays, np.arange(len(tau)), tau, 1e-18, [flag] * len(tau))
        return ["--config", write_config(tmp_path, **config),
                "stability", "--delays", delays, "--out-prefix", tmp_path / "stab"]
    return argv


def _with_cell(path: Path, row: int, column: int, token: str) -> None:
    """Replace one cell of a CSV table; row 0 is the first data row."""
    header, *rows = path.read_text().splitlines()
    cells = rows[row].split(",")
    cells[column] = token
    rows[row] = ",".join(cells)
    path.write_text("\n".join([header, *rows]) + "\n")


def _bright_scan_case(token):
    def argv(tmp_path, calibrated):
        assert run("--out-dir", tmp_path, "calibrate", "--simulate-bright",
                   "--simulate-counts", "--keep-intermediate") == 0
        _with_cell(tmp_path / "bright_scan.csv", 5, 1, token)
        return ["calibrate", "--bright", tmp_path / "bright_scan.csv", "--simulate-counts",
                "--out", tmp_path / "cal.json"]
    return argv


def _delay_time_case(token):
    def argv(tmp_path, calibrated):
        args = _stability_case(1e-15 + 1e-18 * np.sin(np.arange(20)), "ok")(tmp_path,
                                                                             calibrated)
        _with_cell(tmp_path / "delays.csv", 0, 0, token)
        return args
    return argv


def _calibrate_case(key, value):
    def argv(tmp_path, calibrated):
        return ["--config", write_config(tmp_path, **{key: value}), "calibrate",
                "--simulate-bright", "--simulate-counts", "--out", tmp_path / "cal.json"]
    return argv


def _workers_case(value, *command):
    def argv(tmp_path, calibrated):
        return ["--workers", value, *command, tmp_path / "out"]
    return argv


def _fisher_case(*options, **config):
    def argv(tmp_path, calibrated):
        return ["--config", write_config(tmp_path, **config), "fisher", *options,
                "--out", tmp_path / "f.csv"]
    return argv


# At V0 = 2 V0i channel 1 takes almost every photon, so a pump gain above
# 1.03 takes its mean count past the float64 range.
_OVERFLOWING_RUN = {"run.rate_total_hz": 1.75e308, "run.duration_s": 40000.0,
                    "run.v0_volt": 7.7192}


def _overflow_case(workers):
    def argv(tmp_path, calibrated):
        return ["--workers", workers,
                *_simulate_case(**_OVERFLOWING_RUN)(tmp_path, calibrated)]
    return argv


# case -> (argv builder, exit code, a fragment the error message must contain)
BAD_INPUTS = {
    "seed_fraction": (_config_case("run.seed", 1.9), 2, "run.seed"),
    "seed_bool": (_config_case("run.seed", True), 2, "run.seed"),
    "scan_points_string": (_config_case("bright_source.scan_points", "3"), 2,
                           "bright_source.scan_points"),
    "points_per_decade_zero": (_config_case("analysis.points_per_decade", 0), 2,
                               "points_per_decade"),
    "calibration_without_linear": (_estimate_case(lambda d: d.pop("linear")), 3, "linear"),
    "calibration_k1_string": (
        _estimate_case(lambda d: d["linear"].update(k1_per_fs="1.09")), 3, "k1_per_fs"),
    "calibration_fit_without_chi2": (
        _estimate_case(lambda d: d["fringe_fits"]["ch1"].pop("chi2")), 3, "chi2"),
    "negative_counts": (_negative_counts, 3, "non-negative"),
    "negative_scan_counts": (_negative_scan_counts, 3, "non-negative"),
    "identical_scan_repeats": (_identical_scan_repeats, 3, "dx_err"),
    "counts_bin_step": (_counts_step_case, 3, "run.integration_time_s"),
    "scan_bin_step": (_scan_step_case, 3, "calibration_protocol.integration_time_s"),
    "constant_delays": (_stability_case(np.full(11, 1e-15), "ok"), 3, "zero Allan deviation"),
    "unknown_delay_flag": (_stability_case(1e-15 + 1e-18 * np.arange(11), "bogus"), 3,
                           "'bogus'"),
    "drift_term_string": (_config_case("noise.drift.linear_s_per_s", "abc"), 2,
                          "noise.drift.linear_s_per_s"),
    "drift_term_without_custom": (_config_case("noise.drift.linear_s_per_s", 1e-18), 2,
                                  "custom"),
    "duration_nan": (_simulate_case(**{"run.duration_s": math.nan}), 2, "run.duration_s"),
    "duration_inf": (_simulate_case(**{"run.duration_s": math.inf}), 2, "run.duration_s"),
    "duration_1e30": (_simulate_case(**{"run.duration_s": 1e30}), 2, "bins"),
    "bins_over_cap": (_simulate_case(**{"run.integration_time_s": 1e-9,
                                        "run.duration_s": 1e9}), 2, "bins"),
    "rate_over_count_cap": (_simulate_case(**{"run.rate_total_hz": 1e300,
                                              "run.duration_s": 5.0}), 2,
                            "mean count per bin"),
    "counts_time_inf": (_counts_time_case("inf"), 3, "bin times must be finite"),
    "counts_time_nan": (_counts_time_case("nan"), 3, "bin times must be finite"),
    "workers_zero": (_workers_case(0, "simulate", "--out"), 2, "--workers"),
    "workers_negative": (_workers_case(-3, "stability", "--delays"), 2, "--workers"),
    "error_mode_number": (_config_case("calibration_protocol.error_mode", 5), 2,
                          "calibration_protocol.error_mode"),
    "schema_version_float": (_config_case("schema_version", 4.0), 2,
                             "schema_version must be an integer"),
    "rate_beyond_float_range": (_config_case("run.rate_total_hz", 10**400), 2,
                                "run.rate_total_hz"),
    "bright_power_nan": (_bright_scan_case("nan"), 3, "bright-scan cells"),
    "bright_power_inf": (_bright_scan_case("inf"), 3, "bright-scan cells"),
    "bright_fringe_w_zero": (_calibrate_case("bright_source.ch1.w_volt", 0.0), 2, "w_volt"),
    "bright_power_overflow": (_bright_scan_case("1e308"), 3,
                              "(in fogsim.calibration.fit_fringe)"),
    "bright_scan_range_overflow": (_calibrate_case("bright_source.scan_v_max", 1e308), 3,
                                   "(in fogsim.calibration.evaluate)"),
    "coil_radius_subnormal": (_config_case("geometry.coil_radius_m", 5e-324), 2,
                              "coil_radius"),
    "delay_time_inf": (_delay_time_case("inf"), 3, "bin times must be finite"),
    "points_per_decade_1e15": (
        _stability_case(1e-15 + 1e-18 * np.sin(np.arange(200)), "ok",
                        **{"analysis.points_per_decade": 10**15}), 2, "points_per_decade"),
    "overflow_one_worker": (_overflow_case(1), 3, "(in fogsim.simulate._draw_counts)"),
    "overflow_two_workers": (_overflow_case(2), 3, "(in fogsim.simulate._draw_counts)"),
    "error_mode_unknown": (_config_case("calibration_protocol.error_mode", "abc"), 2,
                           "error_mode"),
    "fisher_tau_max_inf": (_fisher_case("--tau-max", "inf"), 2, "tau-max"),
    "fisher_points_over_cap": (_fisher_case("--n-points", 10**11), 2, "n-points"),
    "crb_overflow": (_stability_case(1e-15 + 1e-18 * np.sin(np.arange(20)), "ok",
                                     **{"spectrum.lambda0_m": 1e-200}), 2, "lambda0"),
    "fisher_tau_max_overflow": (_fisher_case("--tau-max", 1e308, "--n-points", 2), 2,
                                "--tau-max"),
    "fisher_tau_range_overflow": (_fisher_case("--tau-min", 1e200, "--tau-max", 2e200,
                                               "--n-points", 2), 2, "--tau-min"),
    "fisher_spectrum_overflow": (_fisher_case(**{"spectrum.lambda0_m": 1.5e-145,
                                                 "spectrum.sigma_omega": 1e154}), 2,
                                 "spectrum.lambda0_m"),
    "seed_flag": (lambda tmp_path, _: ["--seed=1", "fisher", "--out", tmp_path / "f.csv"], 2,
                  "unrecognized arguments: --seed"),
    "duration_flag": (_simulate_case("--duration", 10), 2,
                      "unrecognized arguments: --duration"),
}


def _run_quietly(argv) -> tuple[int, str]:
    """The exit code and stderr of a command that raises nothing and warns
    nothing; on the command line each warning would be printed to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(*argv)
    assert "Traceback" not in err.getvalue()
    assert [str(w.message) for w in caught] == []
    return code, err.getvalue()


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exit_code(case, tmp_path, calibrated):
    argv, expected, fragment = BAD_INPUTS[case]
    code, err = _run_quietly(argv(tmp_path, calibrated))
    assert code == expected
    assert err.startswith("fogsim: error:")
    assert fragment in err


# Keys of schemas 2 and 3 that restated another key or fed nothing, and the
# last old version.
RETIRED = {"run.tau0_s": 1.3e-15, "modulator.alpha_s_per_v": 3.35e-16,
           "modulator.alpha_err_s_per_v": 0.0, "modulator.v0i_err_volt": 0.0095,
           "spectrum.sigma_omega_is_angular": False, "schema_version": 3}


@pytest.mark.parametrize("key", sorted(RETIRED))
def test_retired_config_fails_every_command(key, tmp_path):
    base = ["--config", write_config(tmp_path, **{key: RETIRED[key]}), "--out-dir", tmp_path]
    missing = tmp_path / "missing.csv"
    for command in (["fisher"], ["simulate"],
                    ["calibrate", "--simulate-bright", "--simulate-counts"],
                    ["estimate", "--counts", missing, "--calibration", missing],
                    ["stability", "--delays", missing]):
        code, err = _run_quietly([*base, *command])
        assert code == 2
        assert key in err


def _leaves(node, path: tuple = ()):
    """The paths of a JSON document's values that are neither objects nor lists."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(value, (dict, list)):
            yield from _leaves(value, (*path, key))
        else:
            yield (*path, key)


CONFIG_LEAVES = sorted(".".join(path) for path in _leaves(default_config_dict()))
# The keys that set how much work a command does take only small numbers.
SIZE_KEYS = {"bright_source.scan_points", "calibration_protocol.n_steps",
             "calibration_protocol.repeats", "run.duration_s",
             "analysis.points_per_decade"}
_NOT_NUMBERS = (st.booleans(), st.none(), st.text(max_size=4),
                st.lists(st.integers(), max_size=2),
                st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
ANY_JSON = st.one_of(st.sampled_from([0, -1, 2**70, 1e308, -1e308]),
                     st.integers(max_value=-1), st.floats(), *_NOT_NUMBERS)
SMALL_JSON = st.one_of(st.sampled_from([0, -1]), st.integers(-3, 40),
                       st.floats(-3.0, 40.0), *_NOT_NUMBERS)
CELL_TOKENS = ["nan", "inf", "-inf", "-1", "0", "2.0", "1e400", "abc", ""]


def _exits_cleanly(argv) -> None:
    """The property: exit 0, 2 or 3, nothing raised, no traceback, no warning."""
    code, err = _run_quietly(argv)
    assert code in (0, 2, 3), err


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_config_document_exits_cleanly(tmp_path, data):
    """fisher and a simulated calibration survive one or two leaves of the
    default document replaced by any JSON value."""
    keys = data.draw(st.lists(st.sampled_from(CONFIG_LEAVES), min_size=1, max_size=2,
                              unique=True))
    config = write_config(tmp_path, **{
        key: data.draw(SMALL_JSON if key in SIZE_KEYS else ANY_JSON, label=key)
        for key in keys})
    base = ["--config", config, "--out-dir", tmp_path]
    _exits_cleanly([*base, "fisher", "--n-points", 1])
    _exits_cleanly(["--workers", 2, *base, "calibrate", "--simulate-bright",
                    "--simulate-counts"])


@pytest.fixture(scope="module")
def small_tables(tmp_path_factory):
    """Small valid tables of the four kinds a command reads, and their config."""
    tmp_path = tmp_path_factory.mktemp("tables")
    config = write_config(tmp_path, **{"run.duration_s": 30.0,
                                       "bright_source.scan_points": 40,
                                       "calibration_protocol.n_steps": 12,
                                       "calibration_protocol.repeats": 3})
    base = ["--config", config, "--out-dir", tmp_path]
    assert run(*base, "simulate") == 0
    assert run(*base, "calibrate", "--simulate-bright", "--simulate-counts",
               "--keep-intermediate") == 0
    assert run(*base, "estimate", "--counts", tmp_path / "counts.csv",
               "--calibration", tmp_path / "calibration.json") == 0
    return tmp_path, config


# table -> the arguments of the command that reads it, given its path
TABLE_READERS = {
    "counts.csv": lambda path, d: ["estimate", "--counts", path,
                                   "--calibration", d / "calibration.json"],
    "bright_scan.csv": lambda path, d: ["calibrate", "--bright", path, "--simulate-counts"],
    "calibration_scan.csv": lambda path, d: ["calibrate", "--simulate-bright",
                                             "--counts", path],
    "delays.csv": lambda path, d: ["stability", "--delays", path],
}


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_damaged_cell_exits_cleanly(tmp_path, small_tables, data):
    """Each command survives one cell of the table it reads replaced."""
    source, config = small_tables
    name = data.draw(st.sampled_from(sorted(TABLE_READERS)))
    path = tmp_path / name
    path.write_text((source / name).read_text())
    header, *rows = path.read_text().splitlines()
    _with_cell(path, data.draw(st.integers(0, len(rows) - 1)),
               data.draw(st.integers(0, header.count(","))),
               data.draw(st.sampled_from(CELL_TOKENS)))
    _exits_cleanly(["--config", config, "--out-dir", tmp_path,
                    *TABLE_READERS[name](path, source)])


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_damaged_calibration_exits_cleanly(tmp_path, small_tables, data):
    """estimate survives one leaf of the calibration document replaced by any
    JSON value."""
    source, config = small_tables
    doc = json.loads((source / "calibration.json").read_text())
    *parents, leaf = data.draw(st.sampled_from(list(_leaves(doc))))
    node = doc
    for key in parents:
        node = node[key]
    node[leaf] = data.draw(ANY_JSON)
    calibration = tmp_path / "calibration.json"
    calibration.write_text(json.dumps(doc))
    _exits_cleanly(["--config", config, "--out-dir", tmp_path, "estimate",
                    "--counts", source / "counts.csv", "--calibration", calibration])


def test_import_leaves_out_scipy_stats():
    """scipy.stats takes about a second to import, and no command needs it."""
    src = str(Path(fogsim.__file__).resolve().parents[1])
    code = ("import fogsim.cli, sys; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout.strip() == "[]"


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"spectrum": {"lambda_m": 1.5e-6}}))
        assert run("--config", config, "fisher", "--out", tmp_path / "x.csv") == 2

    def test_json_errors_flag(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"nonsense": 1}))
        code = run("--config", config, "--json-errors", "fisher",
                   "--out", tmp_path / "x.csv")
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"]["type"] == "ConfigError"
        # a usage error is caught while the arguments are parsed
        assert run("--json-errors", "--workers", 0, "stability", "--delays", "x") == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"]["type"] == "ParameterError"
        assert "--workers" in payload["error"]["message"]

    def test_float_key_is_stored_and_hashed_as_float(self):
        as_int = config_from_dict({"run": {"duration_s": 32400}})
        as_float = config_from_dict({"run": {"duration_s": 32400.0}})
        assert type(as_int.document["run"]["duration_s"]) is float
        assert as_int.hash == as_float.hash

import contextlib
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fogsim
from fogsim import DriftModel, ModulatorMap, Spectrum, crb_curve, overnight_drift
from fogsim.cli import main
from fogsim.config import config_from_dict, default_config_dict
from fogsim.io_formats import (
    DELAY_FLAGS,
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
        """Each command of the chain, and a calibration re-run from the kept
        scans, records its inputs under their role names and every file it
        wrote, each with that file's digest."""
        config = write_config(tmp_path, **{"run.duration_s": 60.0})
        out = tmp_path / "out"
        for argv in (["fisher", "--n-points", 3], ["simulate"],
                     ["calibrate", "--simulate-bright", "--simulate-counts",
                      "--keep-intermediate"],
                     ["calibrate", "--bright", out / "bright_scan.csv",
                      "--counts", out / "calibration_scan.csv", "--out", "rerun.json"],
                     ["estimate", "--counts", out / "counts.csv",
                      "--calibration", out / "calibration.json"],
                     ["stability", "--delays", out / "delays.csv"]):
            assert run("--config", config, "--out-dir", out, *argv) == 0
        expected = {  # manifest -> (input role -> file, outputs)
            "fisher.csv": ({}, ["fisher.csv"]),
            "counts.csv": ({}, ["counts.csv"]),
            "calibration.json": ({}, ["bright_scan.csv", "calibration_scan.csv",
                                      "calibration.json"]),
            "rerun.json": ({"bright_scan": "bright_scan.csv",
                            "calibration_scan": "calibration_scan.csv"}, ["rerun.json"]),
            "delays.csv": ({"counts": "counts.csv", "calibration": "calibration.json"},
                           ["delays.csv"]),
            "stability_report.json": ({"delays": "delays.csv"},
                                      ["stability_allan.csv", "stability_report.json"]),
        }
        written = set()
        for name, (inputs, outputs) in expected.items():
            manifest = json.loads((out / f"{name}.manifest.json").read_text())
            assert manifest["rng_algorithm"] == "philox4x64-10"
            assert manifest["inputs"] == {role: file_digest(out / file)
                                          for role, file in inputs.items()}
            assert manifest["outputs"] == {file: file_digest(out / file)
                                           for file in outputs}
            written.update([*outputs, f"{name}.manifest.json"])
        assert written == {path.name for path in out.iterdir()}


class TestCalibrateCommand:
    def test_simulated_pipeline_matches_reference_alpha(self, tmp_path):
        out = tmp_path / "cal.json"
        config = write_config(tmp_path, **{"run.seed": 314159})
        assert run("--config", config, "calibrate", "--simulate-bright",
                   "--simulate-counts", "--out", out) == 0
        calset = read_calibration_set(out)
        modulator = ModulatorMap.from_inflection(calset.v0i, calset.v0i_err, SPECTRUM)
        alpha, alpha_err = modulator.alpha, modulator.alpha_err
        assert abs(alpha - 3.35e-16) < 2 * alpha_err
        assert calset.linear.k1 == pytest.approx(OMEGA0 / 1e15, rel=2e-2)

    def test_noiseless_single_channel_round_trip(self, tmp_path):
        """Noiseless bright scan recovers the channel-1 table row exactly and
        a constructed linear counts scan returns its own (K1, K2)."""
        config = write_config(tmp_path, **{
            "bright_source.power_noise_ch1_w": 1e-18,
            "bright_source.power_noise_ch2_w": 1e-18,
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
    def test_zero_noise_channel_is_not_fitted(self, tmp_path, channel):
        """A power noise of 0 draws a noiseless scan but cannot weight a fit:
        calibrate fitting that channel is a usage error naming its key, while
        fisher, simulate and a calibration of the other channel run."""
        key = f"bright_source.power_noise_{channel}_w"
        config = write_config(tmp_path, **{key: 0.0})
        calibrate = ["--config", config, "calibrate", "--simulate-bright",
                     "--simulate-counts", "--out", tmp_path / "cal.json"]
        code, err = _run_quietly(calibrate)
        assert code == 2
        assert f"{key} = 0.0 W" in err
        assert not (tmp_path / "cal.json").exists()
        other = "ch2" if channel == "ch1" else "ch1"
        assert run(*calibrate, "--channels", other) == 0
        assert run("--config", config, "fisher", "--n-points", 3,
                   "--out", tmp_path / "f.csv") == 0
        assert run("--config", config, "simulate", "--out", tmp_path / "counts.csv") == 0

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

    def test_manifest_records_the_arguments(self, tmp_path):
        """Two calibrations that differ only in --channels write different
        files, and their manifests say why."""
        out = tmp_path / "cal.json"
        manifests = []
        for channels in ([], ["--channels", "ch2"]):
            assert run("calibrate", "--simulate-bright", "--simulate-counts",
                       *channels, "--out", out) == 0
            manifests.append(json.loads((tmp_path / "cal.json.manifest.json").read_text()))
        both, ch2 = manifests
        assert [key for key in both if both[key] != ch2[key]] == [
            "arguments", "outputs", "created_utc"]
        assert both["arguments"] == ["calibrate", "--simulate-bright", "--simulate-counts",
                                     "--out", str(out)]
        assert ch2["arguments"] == ["calibrate", "--simulate-bright", "--simulate-counts",
                                    "--channels", "ch2", "--out", str(out)]

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

    def test_window_is_the_scans_own(self, tmp_path):
        """calibrate --counts records the voltage range of the scan it read,
        not the protocol's."""
        assert run("--out-dir", tmp_path, "calibrate", "--simulate-bright",
                   "--simulate-counts", "--keep-intermediate") == 0
        config = write_config(tmp_path, **{"calibration_protocol.v_a_volt": 1.0,
                                           "calibration_protocol.v_b_volt": 9.0,
                                           "calibration_protocol.n_steps": 7,
                                           "calibration_protocol.repeats": 3})
        out = tmp_path / "cal.json"
        assert run("--config", config, "calibrate", "--simulate-bright",
                   "--counts", tmp_path / "calibration_scan.csv", "--out", out) == 0
        assert json.loads(out.read_text())["linear"]["window_volt"] == [3.6, 4.4]


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
        t, tau, sigma, flags = read_delay_series(delays, 1.0, "run.integration_time_s")
        assert len(tau) == 400
        assert (flags == DELAY_FLAGS.index("ok")).all()
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
        _, tau, _, _ = read_delay_series(delays, 1.0, "run.integration_time_s")
        np.testing.assert_allclose(tau, target, rtol=1e-9)

    def test_dark_dominated_rows_flagged(self, tmp_path, calibrated):
        counts = tmp_path / "counts.csv"
        rows = ["t_s,c1,c2"] + [f"{float(i)!r},2,3" for i in range(6)]
        counts.write_text("\n".join(rows) + "\n")
        delays = tmp_path / "delays.csv"
        assert run("estimate", "--counts", counts,
                   "--calibration", calibrated, "--out", delays) == 0
        _, _, _, flags = read_delay_series(delays, 1.0, "run.integration_time_s")
        assert (flags == DELAY_FLAGS.index("degenerate")).all()


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

    def test_seven_bins_run(self, tmp_path):
        """Seven usable bins give each of the four curves 3 samples or more."""
        delays = tmp_path / "delays.csv"
        write_delays(delays, np.arange(7), 1e-15 + 1e-18 * np.sin(np.arange(7)), 1e-18,
                     ["ok"] * 7)
        assert run("stability", "--delays", delays, "--out-prefix", tmp_path / "stab") == 0
        report = json.loads((tmp_path / "stab_report.json").read_text())
        assert report["series"] == {"n_samples": 7, "t0_s": 1.0, "dropped_bins": 0}

    def test_empty_input_data_error(self, tmp_path, capsys):
        """A header-only delay table is a data error, as every empty table is."""
        delays = tmp_path / "delays.csv"
        delays.write_text("t_s,tau_s,sigma_tau_s,flag\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the header-only table reads quietly
            assert run("stability", "--delays", delays,
                       "--out-prefix", tmp_path / "stab") == 3
        assert capsys.readouterr().err == f"fogsim: error: {delays}: no data rows\n"


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
        for report in (full_report, gap_report):
            assert report["series"]["n_samples"] + report["series"]["dropped_bins"] == self.N
        for key in ("m", "adev", "ci"):
            np.testing.assert_array_equal(gap_curves["even"][key],
                                          full_curves["even"][key])
        # n_terms = N - 2m + 1, N the finite samples of each curve's series
        half = self.N // 2
        for curves, finite in ((full_curves, (self.N, half, half, half)),
                               (gap_curves, (self.N - 1, half, half - 1, half - 1))):
            assert list(curves) == ["raw", "even", "odd", "differential"]
            for (origin, curve), n in zip(curves.items(), finite):
                np.testing.assert_array_equal(curve["n_terms"] + 2 * curve["m"] - 1, n,
                                              err_msg=origin)
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


def _window_case(key, reorder):
    """estimate on a calibration whose line's window ``key`` is ``reorder(lo, hi)``."""
    return _estimate_case(lambda d: d["linear"].update({key: reorder(*d["linear"][key])}))


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


def _counts_times_case(times):
    """estimate on a count table with these bin times, under the default 1 s bins."""
    def argv(tmp_path, calibrated):
        counts = tmp_path / "counts.csv"
        counts.write_text("t_s,c1,c2\n" + "".join(f"{t!r},500,400\n" for t in times))
        return ["estimate", "--counts", counts, "--calibration", calibrated,
                "--out", tmp_path / "delays.csv"]
    return argv


def _scan_span_case(tmp_path, calibrated):
    """A scan whose first step is at t = -1e308 s and the others at 1e308 s."""
    scan = tmp_path / "scan.csv"
    rows = ["v0_volt,t_s,c1,c2"]
    for step, v in enumerate(np.linspace(3.6, 4.4, 10)):
        t = -1e308 if step == 0 else 1e308
        rows += [f"{float(v)!r},{t!r},500,400"] * 3
    scan.write_text("\n".join(rows) + "\n")
    return ["calibrate", "--simulate-bright", "--counts", scan,
            "--out", tmp_path / "cal.json"]


def _delay_times_case(t):
    def argv(tmp_path, calibrated):
        delays = tmp_path / "delays.csv"
        write_delays(delays, t, 1e-15 + 1e-18 * np.sin(np.arange(len(t))), 1e-18,
                     ["ok"] * len(t))
        return ["stability", "--delays", delays, "--out-prefix", tmp_path / "stab"]
    return argv


def _negative_counts(tmp_path, calibrated):
    counts = _counts_csv(tmp_path / "counts.csv", [(500, 400), (-3, 400)])
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


def _odd_bins_degenerate(tmp_path, calibrated):
    """stability on 16 delays whose odd bins are all degenerate."""
    delays = tmp_path / "delays.csv"
    write_delays(delays, np.arange(16), 1e-15 + 1e-18 * np.arange(16) ** 2, 1e-18,
                 ["ok", "degenerate"] * 8)
    return ["stability", "--delays", delays, "--out-prefix", tmp_path / "stab"]


def _short_bright_scan(tmp_path, calibrated):
    """calibrate on a bright-scan file of 5 rows."""
    bright = tmp_path / "bright_scan.csv"
    bright.write_text("v0_volt,power1_w,power2_w\n" +
                      "".join(f"{v}.0,1e-07,2e-07\n" for v in range(5)))
    return ["calibrate", "--bright", bright, "--simulate-counts",
            "--out", tmp_path / "cal.json"]


def _delay_time_case(token):
    def argv(tmp_path, calibrated):
        args = _stability_case(1e-15 + 1e-18 * np.sin(np.arange(20)), "ok")(tmp_path,
                                                                             calibrated)
        _with_cell(tmp_path / "delays.csv", 0, 0, token)
        return args
    return argv


def _calibrate_case(key, value, *options):
    def argv(tmp_path, calibrated):
        return ["--config", write_config(tmp_path, **{key: value}), "calibrate",
                "--simulate-bright", "--simulate-counts", *options,
                "--out", tmp_path / "cal.json"]
    return argv


def _config_file_case(text):
    """fisher under a config file that holds ``text`` (str or bytes), or that
    is missing for None."""
    def argv(tmp_path, calibrated):
        config = tmp_path / "config.json"
        if isinstance(text, bytes):
            config.write_bytes(text)
        elif text is not None:
            config.write_text(text)
        return ["--config", config, "fisher", "--n-points", 1, "--out", tmp_path / "f.csv"]
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


def _two_sources_case(file_flag):
    """calibrate given both a file and a simulation for one stage."""
    def argv(tmp_path, calibrated):
        return ["calibrate", file_flag, tmp_path / "missing.csv", "--simulate-bright",
                "--simulate-counts", "--out", tmp_path / "cal.json"]
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


# At a calibration bin of 1 s, a pump gain above 1.03 takes gain * rate * T
# past the float64 range, whatever the step's click probability.
_OVERFLOWING_SCAN = {"run.rate_total_hz": 1.75e308,
                     "calibration_protocol.integration_time_s": 1.0}


def _scan_overflow_case(simulate_bright):
    """calibrate whose simulated counting scan overflows, drawn at the alpha of
    a simulated bright scan or of one read from a file."""
    def argv(tmp_path, calibrated):
        stage_one = ["--simulate-bright"]
        if not simulate_bright:
            assert run("--out-dir", tmp_path, "calibrate", "--simulate-bright",
                       "--simulate-counts", "--keep-intermediate") == 0
            stage_one = ["--bright", tmp_path / "bright_scan.csv"]
        return ["--config", write_config(tmp_path, **_OVERFLOWING_SCAN), "calibrate",
                *stage_one, "--simulate-counts", "--out", tmp_path / "cal.json"]
    return argv


def _allan_overflow_case(workers):
    """stability on delays of +-1e200 s, whose squared differences pass the
    float64 range inside the Allan pool's threads."""
    def argv(tmp_path, calibrated):
        tau = 1e200 * (-1.0) ** np.arange(20)
        return ["--workers", workers, *_stability_case(tau, "ok")(tmp_path, calibrated)]
    return argv


# case -> (argv builder, exit code, a fragment the error message must contain)
BAD_INPUTS = {
    "seed_fraction": (_config_case("run.seed", 1.9), 2, "run.seed"),
    "seed_bool": (_config_case("run.seed", True), 2, "run.seed"),
    "scan_points_string": (_config_case("bright_source.scan_points", "3"), 2,
                           "bright_source.scan_points"),
    "points_per_decade_unknown": (_config_case("analysis.points_per_decade", 29), 2,
                                  "unknown config keys: ['analysis']"),
    "serrodyne_override_unknown": (_config_case("geometry.serrodyne_rate_override_hz",
                                                54795.0), 2,
                                   "unknown config keys: ['geometry.serrodyne_rate_override_hz']"),
    "schema_version_4": (_config_case("schema_version", 4), 2,
                         "unsupported schema_version 4; this build reads version 5"),
    "fiber_length_null": (_config_case("geometry.fiber_length_m", None), 2,
                          "geometry.fiber_length_m must be a finite number, got None"),
    "calibration_version_1": (_estimate_case(lambda d: d.update(schema_version=1)), 3,
                              "unsupported schema_version 1"),
    "calibration_without_linear": (_estimate_case(lambda d: d.pop("linear")), 3, "linear"),
    "calibration_k1_string": (
        _estimate_case(lambda d: d["linear"].update(k1_per_fs="1.09")), 3, "k1_per_fs"),
    "calibration_negative_dark_rate": (
        _estimate_case(lambda d: d.update(dark_rates_hz=[-1e5, 0.0])), 3, "dark_rates"),
    "calibration_negative_covariance": (
        _estimate_case(lambda d: d["linear"].update(covariance=[[-1.0, 0.0], [0.0, -1.0]])),
        3, "covariance"),
    "calibration_fit_without_chi2": (
        _estimate_case(lambda d: d["fringe_fits"]["ch1"].pop("chi2")), 3, "chi2"),
    # a reversed window would flag every bin as outside it
    "calibration_tau_window_reversed": (
        _window_case("tau_window_s", lambda lo, hi: [hi, lo]), 3,
        "missing or ill-typed field: tau_window must have its first entry below its second"),
    "calibration_tau_window_equal": (
        _window_case("tau_window_s", lambda lo, hi: [lo, lo]), 3,
        "missing or ill-typed field: tau_window must have its first entry below its second"),
    "calibration_window_volt_reversed": (
        _window_case("window_volt", lambda lo, hi: [hi, lo]), 3,
        "missing or ill-typed field: window_volt must have its first entry below its second"),
    "calibration_window_volt_equal": (
        _window_case("window_volt", lambda lo, hi: [lo, lo]), 3,
        "missing or ill-typed field: window_volt must have its first entry below its second"),
    "negative_counts": (_negative_counts, 3, "counts.csv: line 3: counts must be non-negative"),
    "negative_scan_counts": (_negative_scan_counts, 3,
                             "scan.csv: line 3: counts must be non-negative"),
    "identical_scan_repeats": (_identical_scan_repeats, 3, "dx_err"),
    "counts_bin_step": (_counts_times_case([0.01 * i for i in range(4)]), 3,
                        "run.integration_time_s"),
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
    "counts_time_inf": (_counts_times_case([0.0, math.inf, math.inf]), 3,
                        "counts.csv: line 3: bin time inf s is not t0 + k T"),
    "counts_time_span_overflow": (_counts_times_case([-1e308, 1e308]), 3,
                                  "counts.csv: line 3: bin time 1e+308 s is not t0 + k T"),
    "scan_time_span_overflow": (_scan_span_case, 3,
                                "scan.csv: line 5: bin time 1e+308 s is not t0 + k T"),
    "delay_time_span_overflow": (_delay_times_case([-1e308] + [1e308] * 19), 3,
                                 "delays.csv: line 3: bin time 1e+308 s is not t0 + k T"),
    "delay_time_position_overflow": (
        _delay_times_case([1e-300 * k for k in range(19)] + [1.7e308]), 3,
        "delays.csv: line 3: bin time 1e-300 s is not t0 + k T"),
    "counts_missing_row": (_counts_times_case([0.0, 1.0, 3.0, 4.0]), 3,
                           "counts.csv: line 4: bin time 3.0 s is not t0 + k T"),
    "counts_repeated_row": (_counts_times_case([0.0, 1.0, 1.0, 2.0]), 3,
                            "counts.csv: line 4: bin time 1.0 s is not t0 + k T"),
    "delay_step_2s": (_delay_times_case([2.0 * k for k in range(20)]), 3,
                      "delays.csv: line 3: bin time 2.0 s is not t0 + k T with t0 = 0.0 s "
                      "and T = run.integration_time_s = 1.0 s"),
    "drift_preset_unknown": (_config_case("noise.drift.preset", "weekly"), 2,
                             "noise.drift.preset"),
    "section_not_object": (_config_case("run", 5), 2, "run must be an object, got 5"),
    "pump_rel_sigma_0_6": (_config_case("noise.pump_rel_sigma", 0.6), 2,
                           "pump_rel_sigma must lie in [0, 0.5]"),
    "seed_2_pow_64": (_config_case("run.seed", 2**64), 2, "seed must fit in 64 bits"),
    "drift_sine_without_period": (
        _fisher_case(**{"noise.drift.preset": "custom", "noise.drift.sine_amplitude_s": 1e-18}),
        2, "sine_period must be positive when sine_amplitude is set"),
    "drift_random_walk_negative": (
        _fisher_case(**{"noise.drift.preset": "custom",
                        "noise.drift.random_walk_s_per_sqrt_s": -1e-19}),
        2, "random_walk scale must be non-negative"),
    "config_file_missing": (_config_file_case(None), 2, "cannot read config"),
    "config_file_not_json": (_config_file_case("{\"run\": "), 2, "is not valid JSON"),
    "config_file_nested_too_deep": (_config_file_case("[" * 100_000), 2, "is not valid JSON"),
    "config_file_not_text": (_config_file_case(b"{\"run\": \"\xff\"}"), 2, "cannot read config"),
    "config_file_not_object": (_config_file_case("[1, 2]"), 2,
                               "must contain a JSON object"),
    "counts_time_nan": (_counts_times_case([0.0, math.nan, math.nan]), 3,
                        "counts.csv: line 3: bin time nan s is not t0 + k T"),
    "workers_zero": (_workers_case(0, "simulate", "--out"), 2, "--workers"),
    "workers_negative": (_workers_case(-3, "stability", "--delays"), 2, "--workers"),
    "schema_version_float": (_config_case("schema_version", 4.0), 2,
                             "schema_version must be an integer"),
    "rate_beyond_float_range": (_config_case("run.rate_total_hz", 10**400), 2,
                                "run.rate_total_hz"),
    "bright_power_nan": (_bright_scan_case("nan"), 3, "bright-scan cells"),
    "bright_power_inf": (_bright_scan_case("inf"), 3, "bright-scan cells"),
    "bright_fringe_w_zero": (_calibrate_case("bright_source.ch1.w_volt", 0.0), 2, "w_volt"),
    # an arithmetic error in a computation whose only inputs are the config
    # and the arguments is a usage error that names the computation
    "bright_noise_subnormal": (_calibrate_case("bright_source.power_noise_ch1_w", 5e-324), 2,
                               "fringe fit failed on ch1, weighted by "
                               "bright_source.power_noise_ch1_w = 5e-324 W: "
                               "overflow encountered in scalar divide "
                               "(in fogsim.calibration.fit_fringe)"),
    "bright_noise_1e-300": (_calibrate_case("bright_source.power_noise_ch1_w", 1e-300), 2,
                            "fringe fit failed on ch1, weighted by "
                            "bright_source.power_noise_ch1_w = 1e-300 W: "
                            "overflow encountered in matmul (in fogsim.calibration.fit_fringe)"),
    "bright_noise_1e308": (_calibrate_case("bright_source.power_noise_ch1_w", 1e308), 2,
                           "the bright scan could not be drawn: overflow encountered in "
                           "multiply (in fogsim.simulate.simulate_bright_scan); check "
                           "bright_source.power_noise_ch1_w, "),
    "bright_power_overflow": (_bright_scan_case("1e308"), 3,
                              "fringe fit failed on ch1, weighted by "
                              "bright_source.power_noise_ch1_w = 1e-09 W: overflow "
                              "encountered in multiply (in fogsim.calibration.fit_fringe)"),
    "bright_scan_range_overflow": (_calibrate_case("bright_source.scan_v_max", 1e308), 2,
                                   "(in fogsim.calibration.evaluate); check "),
    # a config that no calibration could finish is refused at load
    "n_steps_2": (_calibrate_case("calibration_protocol.n_steps", 2), 2,
                  "n_steps must be at least 3, got 2"),
    "scan_points_5": (_calibrate_case("bright_source.scan_points", 5), 2,
                      "scan_points must be at least 8, the fewest a fringe fit takes, got 5"),
    "bright_window_empty": (_calibrate_case("bright_source.scan_v_min", 16.0), 2,
                            "scan_v_min must be below scan_v_max, got 16.0 >= 16.0"),
    "bright_scan_narrow": (_calibrate_case("bright_source.scan_v_max", 3.0), 2,
                           "the scan from scan_v_min to scan_v_max spans 3.0 V, less than "
                           "half of ch1's fringe period, |ch1.w_volt| = 7.84 V"),
    # both fringes are always simulated, so the rule holds for an unfitted channel
    "bright_scan_narrow_other_channel": (
        _calibrate_case("bright_source.ch2.w_volt", -16.5, "--channels", "ch1"), 2,
        "spans 16.0 V, less than half of ch2's fringe period, |ch2.w_volt| = 16.5 V"),
    "bright_scan_short": (_short_bright_scan, 3, "bright_scan.csv: 5 scan points, fewer "
                          "than the 8 a fringe fit takes"),
    "odd_bins_degenerate": (_odd_bins_degenerate, 2,
                            "the odd series has 0 samples; an Allan curve needs at least 3"),
    "coil_radius_subnormal": (_config_case("geometry.coil_radius_m", 5e-324), 2,
                              "coil_radius"),
    "delay_time_inf": (_delay_time_case("inf"), 3, "delays.csv: line 2: bin time inf s"),
    "overflow_one_worker": (_overflow_case(1), 2, "(in fogsim.simulate._draw_counts)"),
    "overflow_two_workers": (_overflow_case(2), 2, "(in fogsim.simulate._draw_counts)"),
    "scan_overflow_simulated_bright": (_scan_overflow_case(True), 2,
                                       "the calibration scan could not be drawn: overflow "
                                       "encountered in multiply "
                                       "(in fogsim.simulate._draw_counts); check "),
    "scan_overflow_bright_file": (_scan_overflow_case(False), 3,
                                  "the calibration scan could not be drawn: overflow "
                                  "encountered in multiply "
                                  "(in fogsim.simulate._draw_counts); check "),
    "allan_overflow_one_worker": (_allan_overflow_case(1), 3,
                                  "overflow encountered in square (in fogsim.stability.compute)"),
    "allan_overflow_two_workers": (_allan_overflow_case(2), 3,
                                   "overflow encountered in square (in fogsim.stability.compute)"),
    "error_mode_unknown": (_config_case("calibration_protocol.error_mode", "sem"), 2,
                           "unknown config keys: ['calibration_protocol.error_mode']"),
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
    "two_bright_sources": (_two_sources_case("--bright"), 2,
                           "argument --simulate-bright: not allowed with argument --bright"),
    "two_counts_sources": (_two_sources_case("--counts"), 2,
                           "argument --simulate-counts: not allowed with argument --counts"),
}


# case -> the path of a number in a calibration file
CALIBRATION_NUMBERS = {"k1": ("linear", "k1_per_fs"), "k2": ("linear", "k2"),
                       "v0i": ("v0i_volt",), "tau_window": ("linear", "tau_window_s", 1),
                       "fringe_w": ("fringe_fits", "ch1", "w_volt")}
NOT_FINITE = {"nan": "NaN", "inf": "Infinity", "minus_inf": "-Infinity",
              "1e400": "1e400", "int_400_digits": "1" + "0" * 400}


@pytest.mark.parametrize("token", sorted(NOT_FINITE))
@pytest.mark.parametrize("field", sorted(CALIBRATION_NUMBERS))
def test_calibration_number_must_be_finite(field, token, tmp_path, calibrated):
    """Every number of a calibration file is finite, as in the config: nan,
    +-inf or an integer past the float range stops estimate with exit 3 and
    names the file and the key."""
    *parents, leaf = CALIBRATION_NUMBERS[field]

    def edit(doc):
        node = doc
        for key in parents:
            node = node[key]
        node[leaf] = "@"
    path = _calibration_with(tmp_path, calibrated, edit)
    path.write_text(path.read_text().replace('"@"', NOT_FINITE[token]))
    counts = _counts_csv(tmp_path / "counts.csv", [(500, 400)] * 4)
    code, err = _run_quietly(["estimate", "--counts", counts, "--calibration", path,
                              "--out", tmp_path / "delays.csv"])
    assert code == 3
    key = leaf if isinstance(leaf, str) else parents[-1]
    assert err.startswith(f"fogsim: error: {path}: missing or ill-typed field: "
                          f"{key} must be a finite number, got ")


# case -> the path of an integer in a calibration file
CALIBRATION_COUNTS = {"fringe_dof": ("fringe_fits", "ch1", "dof"),
                      "fringe_iterations": ("fringe_fits", "ch1", "n_iterations"),
                      "linear_dof": ("linear", "dof")}
NOT_COUNTS = {"minus_2_5": -2.5, "1_5": 1.5, "minus_1": -1, "true": True}


@pytest.mark.parametrize("value", sorted(NOT_COUNTS))
@pytest.mark.parametrize("field", sorted(CALIBRATION_COUNTS))
def test_calibration_count_must_be_non_negative_integer(field, value, tmp_path, calibrated):
    """dof and n_iterations are counts: a fraction, a negative or a boolean
    stops estimate with exit 3 and names the file and the key."""
    *parents, leaf = CALIBRATION_COUNTS[field]

    def edit(doc):
        node = doc
        for key in parents:
            node = node[key]
        node[leaf] = NOT_COUNTS[value]
    path = _calibration_with(tmp_path, calibrated, edit)
    counts = _counts_csv(tmp_path / "counts.csv", [(500, 400)] * 4)
    code, err = _run_quietly(["estimate", "--counts", counts, "--calibration", path,
                              "--out", tmp_path / "delays.csv"])
    assert code == 3
    assert err == (f"fogsim: error: {path}: missing or ill-typed field: {leaf} must be "
                   f"a non-negative integer, got {NOT_COUNTS[value]!r}\n")


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


# Keys of schemas 2 to 4 that restated another key, fed nothing or only forked
# the analysis, and the last old version.
RETIRED = {"run.tau0_s": 1.3e-15, "modulator.alpha_s_per_v": 3.35e-16,
           "modulator.alpha_err_s_per_v": 0.0, "modulator.v0i_err_volt": 0.0095,
           "spectrum.sigma_omega_is_angular": False, "analysis": {"points_per_decade": 29},
           "calibration_protocol.error_mode": "sem",
           "geometry.serrodyne_rate_override_hz": 54795.0, "schema_version": 4}


def _every_command(tables: Path) -> list[list]:
    """One invocation of each command; the commands that read files read the
    small tables in ``tables``."""
    return [["fisher", "--n-points", 1], ["simulate"],
            ["calibrate", "--simulate-bright", "--simulate-counts"],
            ["calibrate", "--bright", tables / "bright_scan.csv",
             "--counts", tables / "calibration_scan.csv"],
            ["estimate", "--counts", tables / "counts.csv",
             "--calibration", tables / "calibration.json"],
            ["stability", "--delays", tables / "delays.csv"]]


@pytest.mark.parametrize("key", sorted(RETIRED))
def test_retired_config_fails_every_command(key, tmp_path, small_tables):
    base = ["--config", write_config(tmp_path, **{key: RETIRED[key]}), "--out-dir", tmp_path]
    for command in _every_command(small_tables[0]):
        code, err = _run_quietly([*base, *command])
        assert code == 2
        assert key in err


# A broken rule of the calibration sections -> the key its message names
CALIBRATION_RULES = {
    "scan_points_1": ({"bright_source.scan_points": 1}, "scan_points"),
    "scan_points_7": ({"bright_source.scan_points": 7}, "scan_points"),
    "scan_points_over_bin_cap": ({"bright_source.scan_points": 10**9 + 1}, "scan_points"),
    "scan_points_2_62": ({"bright_source.scan_points": 2**62}, "scan_points"),
    "scan_v_max_equal_min": ({"bright_source.scan_v_max": 0.0}, "scan_v_max"),
    "scan_narrower_than_ch1": ({"bright_source.scan_v_max": 3.0}, "ch1.w_volt"),
    "scan_narrower_than_ch2": ({"bright_source.ch2.w_volt": -16.5}, "ch2.w_volt"),
    "power_noise_negative": ({"bright_source.power_noise_ch1_w": -1e-9},
                             "power_noise_ch1_w"),
    "v_b_equal_v_a": ({"calibration_protocol.v_b_volt": 3.6}, "v_b_volt"),
    "v_b_below_v_a": ({"calibration_protocol.v_b_volt": 3.0}, "v_b_volt"),
    "n_steps_1": ({"calibration_protocol.n_steps": 1}, "n_steps"),
    "n_steps_2": ({"calibration_protocol.n_steps": 2}, "n_steps"),
    "repeats_1": ({"calibration_protocol.repeats": 1}, "repeats"),
    "integration_time_zero": ({"calibration_protocol.integration_time_s": 0.0},
                              "integration_time_s"),
    "integration_time_1e308": ({"calibration_protocol.integration_time_s": 1e308},
                               "integration_time_s"),
    "scan_over_bin_cap": ({"calibration_protocol.n_steps": 10**5,
                           "calibration_protocol.repeats": 10**5}, "n_steps * repeats"),
}


@pytest.mark.parametrize("case", sorted(CALIBRATION_RULES))
def test_calibration_rule_fails_every_command(case, tmp_path, small_tables):
    """A document that breaks a bright_source or calibration_protocol rule
    is a configuration error in every command, whatever the command reads."""
    changes, key = CALIBRATION_RULES[case]
    base = ["--config", write_config(tmp_path, **changes), "--out-dir", tmp_path]
    for command in _every_command(small_tables[0]):
        code, err = _run_quietly([*base, *command])
        assert code == 2, command
        assert key in err, command


def _leaves(node, path: tuple = ()):
    """The paths of a JSON document's values that are neither objects nor lists."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(value, (dict, list)):
            yield from _leaves(value, (*path, key))
        else:
            yield (*path, key)


CONFIG_LEAVES = sorted(".".join(path) for path in _leaves(default_config_dict()))
# The keys that set how much work a command does take only small numbers,
# and the run's bin length takes only lengths that give few bins or none.
SIZE_KEYS = {"bright_source.scan_points", "calibration_protocol.n_steps",
             "calibration_protocol.repeats", "run.duration_s"}
_NOT_NUMBERS = (st.booleans(), st.none(), st.text(max_size=4),
                st.lists(st.integers(), max_size=2),
                st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
ANY_JSON = st.one_of(st.sampled_from([0, -1, 2**70, 1e308, -1e308]),
                     st.integers(max_value=-1), st.floats(), *_NOT_NUMBERS)
SMALL_JSON = st.one_of(st.sampled_from([0, -1]), st.integers(-3, 40),
                       st.floats(-3.0, 40.0), *_NOT_NUMBERS)
BIN_LENGTH_JSON = st.one_of(st.sampled_from([0, -1, 5e-324, 1e-300]),
                            st.floats(min_value=1e-3), *_NOT_NUMBERS)
CELL_TOKENS = ["nan", "inf", "-inf", "-1", "0", "2.0", "1e400", "abc", ""]


def _json_for(key: str):
    """The values a damaged config leaf takes."""
    if key == "run.integration_time_s":
        return BIN_LENGTH_JSON
    return SMALL_JSON if key in SIZE_KEYS else ANY_JSON


def _exits_cleanly(argv) -> None:
    """The property: exit 0, 2 or 3, nothing raised, no traceback, no warning."""
    code, err = _run_quietly(argv)
    assert code in (0, 2, 3), err


# The config of the small tables: every command on them takes a few ms.
SMALL_TABLES = {"run.duration_s": 30.0, "bright_source.scan_points": 40,
                "calibration_protocol.n_steps": 12, "calibration_protocol.repeats": 3}


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_config_document_exits_cleanly(tmp_path, small_tables, data):
    """Every command survives one or two leaves of the small tables' document
    replaced by any JSON value; the commands that read files read the small
    tables."""
    keys = data.draw(st.lists(st.sampled_from(CONFIG_LEAVES), min_size=1, max_size=2,
                              unique=True))
    config = write_config(tmp_path, **{
        **SMALL_TABLES, **{key: data.draw(_json_for(key), label=key) for key in keys}})
    for command in _every_command(small_tables[0]):
        _exits_cleanly(["--workers", 2, "--config", config, "--out-dir", tmp_path,
                        *command])


@pytest.fixture(scope="module")
def small_tables(tmp_path_factory):
    """Small valid tables of the four kinds a command reads, and their config."""
    tmp_path = tmp_path_factory.mktemp("tables")
    config = write_config(tmp_path, **SMALL_TABLES)
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


def _fresh_run(code: str, *args, env=None, **options) -> subprocess.CompletedProcess:
    """``code`` run in a new interpreter that imports this fogsim, with the
    variables ``env`` added to its environment; the test modules themselves
    have already loaded scipy."""
    src = str(Path(fogsim.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src, **(env or {})}, **options)


def _fresh_python(code: str, *args, env=None) -> str:
    """The stdout of ``code`` run by ``_fresh_run``, which must succeed."""
    return _fresh_run(code, *args, env=env, check=True).stdout


def test_import_leaves_out_scipy():
    """Only the drawing functions need scipy, and they import it themselves."""
    code = ("import fogsim.cli, sys; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert _fresh_python(code).strip() == "[]"


def test_analysis_commands_leave_out_scipy(tmp_path, small_tables):
    """fisher, estimate and stability draw nothing, so none of them loads scipy."""
    source, config = small_tables
    base = ["--config", config, "--out-dir", str(tmp_path)]
    commands = [[*base, "fisher", "--n-points", "1"],
                [*base, "estimate", "--counts", str(source / "counts.csv"),
                 "--calibration", str(source / "calibration.json")],
                [*base, "stability", "--delays", str(source / "delays.csv")]]
    code = ("import json, sys\n"
            "from fogsim.cli import main\n"
            "loaded = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n"
            "    loaded.append(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            "print(json.dumps(loaded))\n")
    stdout = _fresh_python(code, json.dumps(commands))
    assert json.loads(stdout.splitlines()[-1]) == [[], [], []]


def test_stability_leaves_out_numpy_ma(tmp_path, small_tables):
    """stability dedups its Allan grids without plain np.unique, which
    imports numpy.ma (about 20 ms a process with numpy 2.4); so, with one
    worker or two, it loads no numpy.ma."""
    source, config = small_tables
    code = ("import sys\n"
            "from fogsim.cli import main\n"
            "delays, *base = sys.argv[1:]\n"
            "for workers in ('1', '2'):\n"
            "    assert main([*base, '--workers', workers, 'stability', '--delays', delays]) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    stdout = _fresh_python(code, source / "delays.csv", "--config", config,
                           "--out-dir", tmp_path)
    assert stdout.splitlines()[-1] == "False"


def test_one_worker_leaves_out_the_thread_pool(tmp_path, small_tables):
    """At one worker no command starts a pool, so none imports
    concurrent.futures (with logging and queue, about 5 ms a process);
    stability at two workers runs its pool."""
    source, config = small_tables
    base = ["--config", config, "--out-dir", str(tmp_path), "--workers"]
    commands = [[*base, "1", "fisher", "--n-points", "1"],
                [*base, "1", "simulate"],
                [*base, "1", "estimate", "--counts", str(source / "counts.csv"),
                 "--calibration", str(source / "calibration.json")],
                [*base, "1", "stability", "--delays", str(source / "delays.csv")],
                [*base, "2", "stability", "--delays", str(source / "delays.csv")]]
    code = ("import json, sys\n"
            "from fogsim.cli import main\n"
            "loaded = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n"
            "    loaded.append('concurrent.futures' in sys.modules)\n"
            "print(json.dumps(loaded))\n")
    stdout = _fresh_python(code, json.dumps(commands))
    assert json.loads(stdout.splitlines()[-1]) == [False, False, False, False, True]


def test_drawing_commands_leave_out_scipy_at_the_papers_flux(tmp_path):
    """At the default config's 3*10^5 counts per bin and at the low-flux
    run's 100, numpy settles every count comparison, so simulate and
    calibrate load no scipy; a run of about 5 counts per bin still asks
    scipy's pdtr."""
    configs = {}
    for name, rate in (("low", 20000.0), ("sparse", 1000.0)):
        (tmp_path / name).mkdir()
        configs[name] = write_config(tmp_path / name, **{
            "run.rate_total_hz": rate, "run.integration_time_s": 0.01,
            "run.duration_s": 1000.0})
    base = ["--out-dir", str(tmp_path)]
    commands = [[*base, "simulate"],
                [*base, "calibrate", "--simulate-bright", "--simulate-counts"],
                ["--config", configs["low"], *base, "simulate", "--out", "low.csv"],
                ["--config", configs["low"], *base, "calibrate", "--simulate-bright",
                 "--simulate-counts", "--out", "low.json"],
                ["--config", configs["sparse"], *base, "simulate", "--out", "sparse.csv"]]
    code = ("import json, sys\n"
            "from fogsim.cli import main\n"
            "loaded = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n"
            "    loaded.append('scipy.special' in sys.modules)\n"
            "print(json.dumps(loaded))\n")
    stdout = _fresh_python(code, json.dumps(commands))
    assert json.loads(stdout.splitlines()[-1]) == [False, False, False, False, True]


_MAIN = "import sys; from fogsim.cli import main; sys.exit(main(sys.argv[1:]))"


def test_fresh_process_workers_write_same_bytes(tmp_path):
    """--workers 1 and 2 write the same counts when each run is the first
    in its process to draw; 70,000 bins span several chunks.  At about 3,000
    counts per bin numpy settles the count comparisons, so neither run is
    likely to import scipy."""
    config = write_config(tmp_path, **{"run.integration_time_s": 0.01,
                                       "run.duration_s": 700.0})
    digests = []
    for workers in (2, 1):
        out = tmp_path / f"counts_{workers}.csv"
        _fresh_python(_MAIN, "--config", config, "--workers", workers, "simulate",
                      "--out", out)
        digests.append(file_digest(out))
    assert digests[0] == digests[1]


# case -> (config, arguments, the line that names where it ran out): each runs
# out inside the draw that _computing names, with the keys that size it
OUT_OF_MEMORY = {
    "simulate": ({"run.duration_s": 2e6, "run.integration_time_s": 0.01}, ["simulate"],
                 "the run could not be drawn: ran out of memory; check the run, noise, "
                 "spectrum and modulator keys"),
    "fisher": ({}, ["fisher", "--n-points", 10**9],
               "the Fisher information failed: ran out of memory; check --n-points, "
               "--tau-min, --tau-max, spectrum.lambda0_m and spectrum.sigma_omega"),
    "calibrate": ({"calibration_protocol.n_steps": 100_000,
                   "calibration_protocol.repeats": 10_000},
                  ["calibrate", "--simulate-bright", "--simulate-counts"],
                  "the calibration scan could not be drawn: ran out of memory; check "
                  "run.rate_total_hz and the calibration_protocol, noise and spectrum keys"),
    "calibrate_bright_scan": ({"bright_source.scan_points": 10**9},
                              ["calibrate", "--simulate-bright", "--simulate-counts"],
                              "the bright scan could not be drawn: ran out of memory; check "
                              "bright_source.power_noise_ch1_w, "
                              "bright_source.power_noise_ch2_w, bright_source.scan_points, "
                              "bright_source.scan_v_min, bright_source.scan_v_max, "
                              "bright_source.ch1 and bright_source.ch2"),
}


@pytest.mark.parametrize("command", sorted(OUT_OF_MEMORY))
def test_out_of_memory_exits_3_without_traceback(command, tmp_path):
    """A command in a process whose address space is capped at 1.5 GB, a
    cap set in that process alone, names the computation that ran out."""
    config, argv, line = OUT_OF_MEMORY[command]
    cap = 1_500_000_000
    result = _fresh_run(_MAIN, "--config", write_config(tmp_path, **config),
                        "--out-dir", tmp_path, *argv,
                        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert result.returncode == 3
    assert "Traceback" not in result.stderr
    assert result.stderr == f"fogsim: error: {line}\n"


@pytest.mark.parametrize("stage", ["bright", "counts"])
def test_calibrate_out_of_memory_names_the_stage_that_ran_out(stage, tmp_path, small_tables):
    """calibrate names the stage that draws its scan and runs out, and not
    the other stage, which reads its table."""
    tables = small_tables[0]
    if stage == "bright":
        config = {"bright_source.scan_points": 10**9}
        argv = ["--simulate-bright", "--counts", tables / "calibration_scan.csv"]
        line = OUT_OF_MEMORY["calibrate_bright_scan"][2]
    else:
        config = {"calibration_protocol.n_steps": 100_000,
                  "calibration_protocol.repeats": 10_000}
        argv = ["--bright", tables / "bright_scan.csv", "--simulate-counts"]
        line = OUT_OF_MEMORY["calibrate"][2]
    cap = 1_500_000_000
    result = _fresh_run(_MAIN, "--config", write_config(tmp_path, **config),
                        "--out-dir", tmp_path, "calibrate", *argv,
                        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert result.returncode == 3
    assert "Traceback" not in result.stderr
    assert result.stderr == f"fogsim: error: {line}\n"


def test_out_of_memory_names_the_table(tmp_path):
    """A command that runs out of memory reading a table names that table,
    as it names a table it cannot read.  4 x 10^6 rows take 36 MB on disk and
    140 MB once read (35 B per row), more than the child's 200 MB cap leaves
    after its start-up of about 110 MB with one OpenBLAS thread."""
    table = tmp_path / "delays.csv"
    table.write_text("t_s,tau_s,sigma_tau_s,flag\n" + "0,0,0,ok\n" * 4_000_000)
    cap = 200_000_000
    result = _fresh_run(_MAIN, "stability", "--delays", table, "--out-prefix", tmp_path / "s",
                        env={"OPENBLAS_NUM_THREADS": "1"},
                        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert result.returncode == 3
    assert "Traceback" not in result.stderr
    assert result.stderr == f"fogsim: error: {table}: ran out of memory\n"


@pytest.mark.parametrize("json_errors", [False, True])
def test_out_of_memory_elsewhere_names_the_command(json_errors, tmp_path, calibrated,
                                                   monkeypatch, capsys):
    """Running out of memory outside every file and computation that names
    itself, here in estimate_delays, names the command."""
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr("fogsim.cli.estimate_delays", exhausted)
    counts = _counts_csv(tmp_path / "counts.csv", [(500, 400)] * 4)
    flag = ["--json-errors"] if json_errors else []
    assert run(*flag, "estimate", "--counts", counts, "--calibration", calibrated,
               "--out", tmp_path / "delays.csv") == 3
    err = capsys.readouterr().err
    if json_errors:
        assert json.loads(err) == {"error": {"type": "DataError",
                                             "message": "estimate ran out of memory"}}
    else:
        assert err == "fogsim: error: estimate ran out of memory\n"


# case -> (the arguments in a test's directory, the path the write fails on
# there, the reason): a regular file where the output directory should be, a
# directory where the output or its manifest should be, a symbolic link to
# itself as the output
WRITE_FAILURES = {
    "out_dir_is_a_file": (lambda d: ["--out-dir", d / "F", "fisher", "--n-points", 3],
                          "F", "File exists"),
    "out_is_a_directory": (lambda d: ["fisher", "--n-points", 3, "--out", d / "D"],
                           "D", "Is a directory"),
    "manifest_is_a_directory": (lambda d: ["--config", d / "tiny.json", "simulate",
                                           "--out", d / "x.csv"],
                                "x.csv.manifest.json", "Is a directory"),
    "out_is_a_symlink_loop": (lambda d: ["fisher", "--n-points", 3, "--out", d / "loop"],
                              "loop", "Too many levels of symbolic links"),
}


@pytest.mark.parametrize("case", sorted(WRITE_FAILURES))
def test_write_failure_names_the_path(case, tmp_path):
    """A file or directory that cannot be written exits 3 as ``path: reason``,
    as an input that cannot be read does."""
    (tmp_path / "F").touch()
    (tmp_path / "D").mkdir()
    (tmp_path / "x.csv.manifest.json").mkdir()
    (tmp_path / "loop").symlink_to("loop")
    (tmp_path / "tiny.json").write_text('{"run": {"duration_s": 100.0}}')
    argv, name, reason = WRITE_FAILURES[case]
    code, err = _run_quietly(argv(tmp_path))
    assert code == 3
    assert err == f"fogsim: error: {tmp_path / name}: {reason}\n"


@pytest.fixture(scope="module")
def tiny_chain(tmp_path_factory):
    """A 100 s run's config, counts, calibration and delays, each with its
    manifest, and the calibration's kept counting scan; the delays are named
    d_allan.csv and the scan s.json.manifest.json."""
    tmp_path = tmp_path_factory.mktemp("tiny_chain")
    (tmp_path / "tiny.json").write_text('{"run": {"duration_s": 100.0}}')
    base = ["--config", tmp_path / "tiny.json", "--out-dir", tmp_path]
    assert run(*base, "simulate", "--out", "c.csv") == 0
    assert run(*base, "calibrate", "--simulate-bright", "--simulate-counts",
               "--keep-intermediate", "--out", "cal.json") == 0
    (tmp_path / "calibration_scan.csv").rename(tmp_path / "s.json.manifest.json")
    (tmp_path / "bright_scan.csv").unlink()
    assert run(*base, "estimate", "--counts", tmp_path / "c.csv",
               "--calibration", tmp_path / "cal.json", "--out", "d_allan.csv") == 0
    return tmp_path


def _estimate(d):
    return ["--config", d / "tiny.json", "estimate", "--counts", d / "c.csv",
            "--calibration", d / "cal.json"]


# case -> (the arguments in a copy of tiny_chain, the output they name there,
# what it would overwrite and that file there): an output that is the config,
# an input, under --out-dir or through a symbolic link, or an output the
# command named before
OVERWRITES = {
    "estimate_out_is_its_counts": (lambda d: [*_estimate(d), "--out", d / "c.csv"],
                                   "c.csv", "the input counts", "c.csv"),
    "estimate_out_is_its_calibration": (lambda d: [*_estimate(d), "--out", d / "cal.json"],
                                        "cal.json", "the input calibration", "cal.json"),
    "simulate_out_is_the_config": (
        lambda d: ["--config", d / "tiny.json", "simulate", "--out", d / "tiny.json"],
        "tiny.json", "the config", "tiny.json"),
    "stability_allan_table_is_its_delays": (
        lambda d: ["--config", d / "tiny.json", "stability", "--delays", d / "d_allan.csv",
                   "--out-prefix", d / "d"],
        "d_allan.csv", "the input delays", "d_allan.csv"),
    "out_dir_holds_the_counts": (
        lambda d: ["--config", d / "tiny.json", "--out-dir", d / "D", "estimate",
                   "--counts", d / "D" / "c.csv", "--calibration", d / "cal.json",
                   "--out", "c.csv"],
        "D/c.csv", "the input counts", "D/c.csv"),
    "out_is_a_symlink_to_the_counts": (lambda d: [*_estimate(d), "--out", d / "link.csv"],
                                       "link.csv", "the input counts", "c.csv"),
    "out_is_a_hard_link_to_the_counts": (lambda d: [*_estimate(d), "--out", d / "hard.csv"],
                                         "hard.csv", "the input counts", "c.csv"),
    "manifest_is_its_counts": (
        lambda d: ["--config", d / "tiny.json", "estimate", "--counts",
                   d / "x.csv.manifest.json", "--calibration", d / "cal.json",
                   "--out", d / "x.csv"],
        "x.csv.manifest.json", "the input counts", "x.csv.manifest.json"),
    "calibration_is_its_kept_bright_scan": (
        lambda d: ["--config", d / "tiny.json", "--out-dir", d, "calibrate",
                   "--simulate-bright", "--simulate-counts", "--keep-intermediate",
                   "--out", "bright_scan.csv"],
        "bright_scan.csv", "an earlier output", "bright_scan.csv"),
    # refused before the bright scan it would keep is drawn
    "calibration_manifest_is_its_scan": (
        lambda d: ["--config", d / "tiny.json", "--out-dir", d, "calibrate",
                   "--simulate-bright", "--counts", d / "s.json.manifest.json",
                   "--keep-intermediate", "--out", "s.json"],
        "s.json.manifest.json", "the input calibration_scan", "s.json.manifest.json"),
}


@pytest.mark.parametrize("case", sorted(OVERWRITES))
def test_output_may_not_overwrite_an_input(case, tmp_path, tiny_chain):
    """An output that is the config, an input or an earlier output, through
    a symbolic or a hard link too, or whose manifest would be one of them, is
    a usage error, raised before the command reads, computes or writes
    anything: no file that was there changes and no file of any kind
    appears."""
    d = tmp_path / "chain"
    shutil.copytree(tiny_chain, d)
    (d / "D").mkdir()
    shutil.copy(d / "c.csv", d / "D" / "c.csv")
    (d / "link.csv").symlink_to("c.csv")
    os.link(d / "c.csv", d / "hard.csv")
    shutil.copy(d / "c.csv", d / "x.csv.manifest.json")
    paths = set(d.rglob("*"))
    before = {path: path.read_bytes() for path in paths
              if path.is_file() and not path.is_symlink()}
    argv, out, what, other = OVERWRITES[case]
    code, err = _run_quietly(argv(d))
    assert code == 2
    assert err == (f"fogsim: error: {d / out}: an output may not overwrite "
                   f"{what} ({d / other})\n")
    assert set(d.rglob("*")) == paths
    assert {path: path.read_bytes() for path in before} == before


def test_refused_output_costs_no_computation(tmp_path, tiny_chain, monkeypatch):
    """A refused output is refused before the command computes: estimate
    never estimates a delay for an --out that is its counts."""
    def estimated(*args):
        raise AssertionError("estimate_delays was called")

    monkeypatch.setattr("fogsim.cli.estimate_delays", estimated)
    d = tmp_path / "chain"
    shutil.copytree(tiny_chain, d)
    code, _ = _run_quietly(OVERWRITES["estimate_out_is_its_counts"][0](d))
    assert code == 2


# case -> (the arguments in a copy of tiny_chain, with an --out-dir "new"
# that does not exist yet, and the exit code): a command that stops on an
# input it cannot read, or on an output it refuses, before it writes
STOPS_BEFORE_WRITING = {
    "missing_counts": (lambda d: ["--config", d / "tiny.json", "--out-dir", d / "new",
                                  "estimate", "--counts", d / "missing.csv",
                                  "--calibration", d / "cal.json"], 3),
    "refused_later_output": (lambda d: ["--config", d / "tiny.json", "--out-dir", d / "new",
                                        "calibrate", "--simulate-bright", "--simulate-counts",
                                        "--keep-intermediate", "--out", "bright_scan.csv"], 2),
}


@pytest.mark.parametrize("case", sorted(STOPS_BEFORE_WRITING))
def test_out_dir_is_made_by_the_first_write(case, tmp_path, tiny_chain):
    """--out-dir is made when the command writes its first file, so one that
    stops before leaves no directory behind; one that writes makes it, its
    parents too."""
    d = tmp_path / "chain"
    shutil.copytree(tiny_chain, d)
    argv, exit_code = STOPS_BEFORE_WRITING[case]
    code, _ = _run_quietly(argv(d))
    assert code == exit_code
    assert not (d / "new").exists()
    assert run("--out-dir", d / "new" / "deeper", "fisher", "--n-points", 3) == 0
    assert (d / "new" / "deeper" / "fisher.csv.manifest.json").is_file()


def test_default_chain_bytes_do_not_depend_on_simd_level(tmp_path):
    """The default chain writes the same data files with numpy's dispatch
    native and held to its baseline, every target it found above that
    disabled, all but fisher.csv: np.exp, np.sin and the like give other
    last bits at other SIMD levels."""
    found = np.show_config(mode="dicts")["SIMD Extensions"].get("found")
    if not found:
        pytest.skip("numpy found no SIMD extension above its baseline on this CPU")
    code = ("import json, os, sys\n"
            "import numpy as np\n"
            "from fogsim.cli import main\n"
            "if 'NPY_DISABLE_CPU_FEATURES' in os.environ:\n"
            "    assert not np.show_config(mode='dicts')['SIMD Extensions'].get('found')\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n")
    files = {}
    disabled = {"NPY_DISABLE_CPU_FEATURES": " ".join(found)}
    for name, env in (("native", None), ("baseline", disabled)):
        out = tmp_path / name
        commands = [["--out-dir", str(out), *argv] for argv in (
            ["fisher"], ["simulate"], ["calibrate", "--simulate-bright", "--simulate-counts"],
            ["estimate", "--counts", str(out / "counts.csv"),
             "--calibration", str(out / "calibration.json")],
            ["stability", "--delays", str(out / "delays.csv")])]
        _fresh_python(code, json.dumps(commands), env=env)
        files[name] = {path.name: file_digest(path) for path in sorted(out.iterdir())
                       if not path.name.endswith(".manifest.json")}
    assert sorted(files["native"]) == ["calibration.json", "counts.csv", "delays.csv",
                                       "fisher.csv", "stability_allan.csv",
                                       "stability_report.json"]
    del files["native"]["fisher.csv"], files["baseline"]["fisher.csv"]
    assert files["native"] == files["baseline"]


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
        assert payload["error"]["type"] == "ParameterError"
        # a usage error is caught while the arguments are parsed
        assert run("--json-errors", "--workers", 0, "stability", "--delays", "x") == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"]["type"] == "ParameterError"
        assert "--workers" in payload["error"]["message"]

    def test_custom_drift_sets_every_term(self, tmp_path):
        drift = {"preset": "custom", "linear_s_per_s": 1e-18, "sine_amplitude_s": 2e-18,
                 "sine_period_s": 600.0, "random_walk_s_per_sqrt_s": 1e-19}
        assert config_from_dict({"noise": {"drift": drift}}).noise.drift == DriftModel(
            linear=1e-18, sine_amplitude=2e-18, sine_period=600.0, random_walk=1e-19)
        digests = []
        for document in ({}, {"noise": {"drift": drift}}):
            config, out = tmp_path / "config.json", tmp_path / f"counts{len(digests)}.csv"
            config.write_text(json.dumps({"run": {"duration_s": 60.0}, **document}))
            assert run("--config", config, "simulate", "--out", out) == 0
            digests.append(file_digest(out))
        assert digests[0] != digests[1]

    def test_float_key_is_stored_and_hashed_as_float(self):
        as_int = config_from_dict({"run": {"duration_s": 32400}})
        as_float = config_from_dict({"run": {"duration_s": 32400.0}})
        assert type(as_int.document["run"]["duration_s"]) is float
        assert as_int.hash == as_float.hash

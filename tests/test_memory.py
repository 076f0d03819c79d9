"""Traced memory of the per-bin work of simulate, estimate and stability.

Each bound is the traced peak (tracemalloc, which sees numpy's buffers) in
bytes per bin of one call on 2 x 10^5 bins, measured with numpy 2.4, plus
at most 25 %.  A warm-up call on a few bins first keeps one-off allocations
of a first call out of the peak.
"""

import contextlib
import io
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from fogsim import (CalibrationSet, CountSeries, DelaySeries, DriftModel, LinearCalibration,
                    NoiseModel, RunConfig, Spectrum, overlapping_allan_deviation,
                    simulate_run)
from fogsim.calibration import estimate_delays
from fogsim.cli import main
from fogsim.io_formats import (read_delay_series, write_calibration_set, write_count_series,
                               write_delay_series)

N = 200_000
STEP = 0.01


def traced_peak_per_bin(call, *args, **kwargs) -> float:
    tracemalloc.start()
    try:
        call(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / N


def _counts(n: int) -> CountSeries:
    rng = np.random.default_rng(2401)
    c1, c2 = rng.poisson(1133, n), rng.poisson(867, n)
    c1[::1000] = 0  # degenerate bins
    return CountSeries(np.arange(n) * STEP, c1, c2, STEP)


CALSET = SimpleNamespace(dark_rates=(2.0, 3.0), linear=LinearCalibration(
    k1=1.0937, k2=-1.3432, covariance=((1e-6, 0.0), (0.0, 1e-6)),
    tau_window=(1.2e-15, 1.5e-15)))


@pytest.fixture(scope="module")
def counts():
    return _counts(N)


def test_estimate_delays(counts):
    """The results (tau, sigma and one flag code) take 17 B per bin; the
    temporaries are block-sized.  23.2 B/bin measured; 41.6 with the flags
    as a list of labels and blocks of 65,536 bins, 101 at whole-array
    temporaries."""
    estimate_delays(_counts(16), CALSET)
    assert traced_peak_per_bin(estimate_delays, counts, CALSET) < 29


def test_read_delay_series(tmp_path, counts):
    """The four columns take 35 B per bin, 11 of them the flag's bytes, and
    the flag codes 1 B; the bin times are checked a block at a time.  41.6
    B/bin measured; 45.0 with a full-length grid check, 77.0 with the flags
    read as 11-character strings as well, 114 with np.isin too."""
    path = tmp_path / "delays.csv"
    write_delay_series(path, counts.t, *estimate_delays(counts, CALSET))
    small = tmp_path / "small.csv"
    write_delay_series(small, counts.t[:16], *estimate_delays(_counts(16), CALSET))
    read_delay_series(small, STEP, "run.integration_time_s")
    assert traced_peak_per_bin(read_delay_series, path, STEP, "run.integration_time_s") < 56


def _allan_peak_per_bin(workers: int) -> float:
    values = 1.3e-15 + 1e-18 * np.random.default_rng(2402).standard_normal(N)
    overlapping_allan_deviation(DelaySeries(STEP, values[:16]), workers=workers)
    return traced_peak_per_bin(overlapping_allan_deviation, DelaySeries(STEP, values),
                               workers=workers)


def test_overlapping_allan_deviation():
    """The prefix sums hi and lo take 16 B per bin and the worker's buffer of
    terms 8 more, its second buffer being block-sized.  26.7 B/bin measured;
    33.2 with two full-length buffers, 40.0 with full-length prefix-sum
    temporaries."""
    assert _allan_peak_per_bin(1) < 34


def test_overlapping_allan_deviation_two_workers():
    """Each worker adds one full-length buffer of terms and a block-sized
    one.  38.4 B/bin measured; 49.2 with two full-length buffers per worker."""
    assert _allan_peak_per_bin(2) < 48


@pytest.fixture(scope="module")
def chain_files(tmp_path_factory):
    """A config of 10 ms bins, a calibration, and the counts and delays of
    16 bins (for warm-up calls) and of N bins, all from CALSET."""
    d = tmp_path_factory.mktemp("memory")
    (d / "config.json").write_text(json.dumps({"run": {"integration_time_s": STEP}}))
    write_calibration_set(d / "cal.json", CalibrationSet(
        fringe_fits={}, v0i=3.8596, v0i_err=0.0095, linear=CALSET.linear,
        dark_rates=CALSET.dark_rates))
    for name, n in (("small", 16), ("big", N)):
        counts = _counts(n)
        write_count_series(d / f"{name}_counts.csv", counts)
        write_delay_series(d / f"{name}_delays.csv", counts.t,
                           *estimate_delays(counts, CALSET))
    return d


def _command_peak_per_bin(d, command) -> float:
    """The traced peak of ``fogsim --workers 1 <command(size)>`` on the big
    files, after one run on the small ones."""
    def run(size: str) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return main(["--config", str(d / "config.json"), "--out-dir", str(d),
                         *command(size)])
    assert run("small") == 0
    return traced_peak_per_bin(run, "big")


def test_estimate_command(chain_files):
    """estimate holds the count table (24 B per bin), writes tau and sigma
    over its counts and adds one flag code (1 B), and works both a block at
    a time.  50.8 B/bin measured; 55.6 with the writer's cell indices as
    int64, 69.7 with tau and sigma in arrays of their own and every float
    spelled by repr in a chunk held as Python strings, 106 with a copy of
    the table's times, the flags as a list of labels and the writer's rows
    joined 65,536 at a time."""
    d = chain_files
    peak = _command_peak_per_bin(d, lambda size: [
        "estimate", "--counts", str(d / f"{size}_counts.csv"),
        "--calibration", str(d / "cal.json"), "--out", f"{size}_out.csv"])
    assert peak < 65


def test_stability_command(chain_files):
    """stability reads one table of 35 B per row and the flag codes (1 B)
    and makes the raw series (8 B) from them, which sets the peak; the Allan
    curves come after the table is freed.  45.5 B/bin measured; 47.8 with a
    full-length buffer in the bin-time check.  The bound sits between the
    two, 3 % over the measurement."""
    d = chain_files
    peak = _command_peak_per_bin(d, lambda size: [
        "stability", "--delays", str(d / f"{size}_delays.csv"), "--out-prefix", size])
    assert peak < 47


def _run(n: int, noise: NoiseModel = NoiseModel(2.0, 3.0, 0.01)) -> CountSeries:
    config = RunConfig(rate_total=20e3, integration_time=STEP, duration=n * STEP,
                       tau0=1.294e-15, seed=2403)
    return simulate_run(config, Spectrum(1550e-9, 0.25e12), noise)


def test_simulate_run():
    """tau, c1 and c2 take 24 B per bin while the counts are drawn, with t
    freed; each chunk's click probabilities and draw add their own
    temporaries, 3.6 MB at 16,384 bins.  43.1 B/bin measured; 50.0 with p1
    and p2 made for the whole run first, 57.4 with t and tau held as well.
    The bound lies between the first two."""
    _run(16)
    assert traced_peak_per_bin(_run, N) < 48


def test_simulate_run_random_walk():
    """The random walk's steps take one buffer of 8 B per bin, drawn a chunk
    at a time and freed before the counts are drawn, so the draws still set
    the peak.  43.1 B/bin measured; 50.0 with p1 and p2 made for the whole
    run first, 112.0 with every uniform of the walk drawn at once."""
    noise = NoiseModel(2.0, 3.0, 0.01, DriftModel(random_walk=1e-19))
    _run(16, noise)
    assert traced_peak_per_bin(_run, N, noise) < 48

"""Seeded Monte Carlo photon-count generator.

Produces count time series, bright-source fringe scans and stepped
calibration scans with Poisson shot noise, per-channel dark counts,
common-mode pump fluctuation and a configurable slow delay drift.

Every random quantity is an inverse-CDF transform of open-interval uniforms
drawn from a counter-based Philox4x64-10 stream keyed per bin, so output is
bit-identical for a given seed regardless of chunking or worker count, and
nearby parameter changes perturb rather than reshuffle a realization.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .calibration import (MIN_REPEATS, MIN_SCAN_HALF_PERIODS, MIN_SCAN_POINTS, MIN_STEPS,
                          FringeParams)
from .errors import DataError, ParameterError
from .model import ModulatorMap, Spectrum, click_probabilities

__all__ = [
    "CountSeries",
    "DriftModel",
    "NoiseModel",
    "RunConfig",
    "BrightSourceSettings",
    "CalibrationProtocol",
    "BrightScan",
    "CalibrationScan",
    "overnight_drift",
    "simulate_run",
    "simulate_bright_scan",
    "simulate_calibration_scan",
    "RNG_ALGORITHM",
]

_CHUNK = 16384
MAX_BINS = 10**9  # a larger run's counts CSV alone would take tens of GB
MAX_MEAN_COUNT = 1e15  # per bin; keeps k and k +- 1 exact in float64

RNG_ALGORITHM = "philox4x64-10"


def derive_keys(seed: int, n_keys: int) -> np.ndarray:
    """Expand one user seed into ``n_keys`` independent 128-bit Philox keys."""
    state = np.random.SeedSequence(seed).generate_state(2 * n_keys, np.uint64)
    return state.reshape(n_keys, 2)


def block_uniforms(key: np.ndarray, start: int, n: int) -> np.ndarray:
    """Four open-interval (0, 1) doubles for each index start, ..., start + n - 1.

    Index k's doubles come from the Philox4x64-10 block at counter
    [k, 0, 0, 0] under ``key``.  numpy increments the counter before it
    produces a block, so the generator is set to start - 1; for start 0
    that is the all-ones counter, which wraps to 0.  Each call builds its
    own bit generator, so threads share no state and chunk order cannot
    matter.
    """
    bits = np.random.Philox(key=key, counter=(start - 1) % 2**256)
    return _uniforms_from_words(bits.random_raw(4 * n).reshape(n, 4))


def _uniforms_from_words(words: np.ndarray) -> np.ndarray:
    """((w >> 11) + 0.5) 2^-53 for each 64-bit word, strictly inside (0, 1).

    The half-ulp offset keeps 0 unreachable.  The top word rounds up to
    exactly 1.0 in float64, so it is clamped to the largest double below 1;
    inverse-CDF transforms of the output are therefore always finite.
    """
    u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return np.minimum(u, 1.0 - 2.0**-53)


class CountSeries:
    """Per-bin photon counts of both channels (columns t, c1, c2), one integration
    time; a negative count raises DataError naming its row.  The bin times are
    not checked here: simulated ones lie on the grid by construction, and the
    readers check a table's with check_bin_times."""

    def __init__(self, t: np.ndarray, c1: np.ndarray, c2: np.ndarray,
                 integration_time: float):
        self.t = np.asarray(t, dtype=np.float64)
        self.c1 = np.asarray(c1, dtype=np.int64)
        self.c2 = np.asarray(c2, dtype=np.int64)
        self.integration_time = float(integration_time)
        if not (len(self.t) == len(self.c1) == len(self.c2)):
            raise ParameterError("t, c1, c2 must have equal length")
        negative = np.flatnonzero((self.c1 < 0) | (self.c2 < 0))
        if len(negative):
            raise DataError("counts must be non-negative", row=int(negative[0]))
        if not self.integration_time > 0:
            raise ParameterError("integration_time must be positive")

    def __len__(self) -> int:
        return len(self.t)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CountSeries)
                and self.integration_time == other.integration_time
                and np.array_equal(self.t, other.t)
                and np.array_equal(self.c1, other.c1)
                and np.array_equal(self.c2, other.c2))


@dataclass(frozen=True)
class DriftModel:
    """Slow drift of the inter-path delay, as a sum of simple terms.

    linear: s/s; sine_amplitude: s with sine_period: s; random_walk:
    step scale in s per sqrt(s) (integrated with the bin spacing).
    """

    linear: float = 0.0
    sine_amplitude: float = 0.0
    sine_period: float = 0.0
    random_walk: float = 0.0

    def __post_init__(self):
        if self.sine_amplitude != 0.0 and not self.sine_period > 0.0:
            raise ParameterError("sine_period must be positive when sine_amplitude is set")
        if self.random_walk < 0.0:
            raise ParameterError("random_walk scale must be non-negative")

    def deterministic(self, t) -> np.ndarray:
        """Drift value at times t, excluding the random-walk term."""
        t = np.asarray(t, dtype=np.float64)
        out = self.linear * t
        if self.sine_amplitude != 0.0:
            out = out + self.sine_amplitude * np.sin(2.0 * np.pi * t / self.sine_period)
        return out


def overnight_drift() -> DriftModel:
    """Overnight drift preset: 10 as accumulated linearly over 9 h plus a
    1 as, 10-minute-period oscillation standing in for medium-term pump
    instability."""
    return DriftModel(linear=10e-18 / (9 * 3600.0),
                      sine_amplitude=1e-18, sine_period=600.0)


@dataclass(frozen=True)
class NoiseModel:
    """Detector and source noise: dark rates (Hz), relative 1-sigma of the
    common-mode pump multiplier per bin, and the slow delay drift."""

    dark_rate_1: float = 0.0
    dark_rate_2: float = 0.0
    pump_rel_sigma: float = 0.0
    drift: DriftModel = field(default_factory=DriftModel)

    def __post_init__(self):
        if self.dark_rate_1 < 0 or self.dark_rate_2 < 0:
            raise ParameterError("dark rates must be non-negative")
        if not 0.0 <= self.pump_rel_sigma <= 0.5:
            raise ParameterError("pump_rel_sigma must lie in [0, 0.5]")


@dataclass(frozen=True)
class RunConfig:
    """Acquisition parameters of a simulated counting run.

    rate_total: combined mean detected rate R, Hz; integration_time: bin
    length T, s; duration: total run length, s; tau0: set-point delay, s;
    seed: 64-bit reproducibility seed.
    """

    rate_total: float
    integration_time: float
    duration: float
    tau0: float
    seed: int

    def __post_init__(self):
        if self.rate_total < 0:
            raise ParameterError("rate_total must be non-negative")
        if not self.integration_time > 0:
            raise ParameterError("integration_time must be positive")
        if not math.isfinite(self.duration):
            raise ParameterError(f"duration must be finite, got {self.duration}")
        if self.duration < self.integration_time:
            raise ParameterError("duration must cover at least one integration bin")
        bins = self.duration / self.integration_time
        if bins > MAX_BINS:
            raise ParameterError(f"a run may have at most {MAX_BINS:.0e} bins, "
                                 f"got duration / integration_time = {bins:.3g}")
        if not math.isfinite(self.tau0):
            raise ParameterError("tau0 must be finite")
        if not 0 <= int(self.seed) < 2**64:
            raise ParameterError("seed must fit in 64 bits")

    @property
    def n_bins(self) -> int:
        return int(math.floor(self.duration / self.integration_time + 1e-9))


def _delay_track(t: np.ndarray, tau0, noise: NoiseModel,
                 key_drift: np.ndarray, integration_time: float) -> np.ndarray:
    """Per-bin delay: set point plus deterministic drift plus random walk."""
    from scipy.special import ndtri
    tau = np.asarray(tau0, dtype=np.float64) + noise.drift.deterministic(t)
    if noise.drift.random_walk > 0.0 and len(t) > 1:
        # step k is drawn from column 0 of index k's uniforms, _CHUNK steps at a
        # time; the walk is their running sum, from 0 at bin 0
        scale = noise.drift.random_walk * math.sqrt(integration_time)
        walk = np.empty(len(t) - 1)
        for lo in range(0, len(walk), _CHUNK):
            block = walk[lo:lo + _CHUNK]
            np.multiply(scale, ndtri(block_uniforms(key_drift, lo, len(block))[:, 0]),
                        out=block)
        tau[1:] += np.cumsum(walk, out=walk)
    return tau


def _poisson_quantile(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Smallest integer k >= 0 with pdtr(k, lam) >= u, elementwise.

    This is the definition SciPy's poisson.ppf implements; lam = 0 gives
    0.  The search starts from the Cornish-Fisher guess
    w = lam + sqrt(lam) z + (z^2 - 1) / 6 with z = ndtri(u), continuity
    corrected to floor(w + 1/2), then steps down while the count below still
    reaches u and up while k falls short; each step evaluates pdtr only
    where k is still moving, about 2 calls per draw.  The start sets only
    the number of steps: k is fixed by the pdtr comparisons alone.  u must
    lie in (0, 1); u = 1 would never stop stepping, and neither would a
    mean so large that k - 1 == k in float64.
    """
    from scipy.special import ndtri, pdtr
    if not np.all(lam <= MAX_MEAN_COUNT):  # also rejects NaN
        raise ParameterError(f"the mean count per bin must be at most "
                             f"{MAX_MEAN_COUNT:.0e}, got {np.max(lam):.3g}")
    z = ndtri(u)
    k = np.maximum(np.floor(lam + np.sqrt(lam) * z + (z * z - 1.0) / 6.0 + 0.5), 0.0)
    down = np.flatnonzero(k > 0)
    while down.size:
        down = down[pdtr(k[down] - 1.0, lam[down]) >= u[down]]
        k[down] -= 1.0
        down = down[k[down] > 0]
    up = np.flatnonzero(pdtr(k, lam) < u)
    while up.size:
        k[up] += 1.0
        up = up[pdtr(k[up], lam[up]) < u[up]]
    return k.astype(np.int64)


def _draw_counts(start: int, key_counts: np.ndarray, p1: np.ndarray,
                 p2: np.ndarray, mean_total: float, dark_counts: tuple[float, float],
                 pump_rel_sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Counts for bins start, start + 1, ...; a pure function of (key, bin index)."""
    from scipy.special import ndtri
    u = block_uniforms(key_counts, start, len(p1))
    gain = np.maximum(1.0 + pump_rel_sigma * ndtri(u[:, 0]), 0.0)
    lam1 = gain * mean_total * p1 + dark_counts[0]
    lam2 = gain * mean_total * p2 + dark_counts[1]
    return _poisson_quantile(u[:, 1], lam1), _poisson_quantile(u[:, 2], lam2)


def _count_series(n_bins: int, integration_time: float, tau_set, run: RunConfig,
                  spectrum: Spectrum, noise: NoiseModel, workers: int) -> CountSeries:
    """Counts of n_bins bins at t_k = k T around the set-point delay tau_set
    (one value, or one per bin), under the run's seed and rate.  At most four
    full-length columns are held at once: t and tau are freed while the counts
    are drawn, and t is made again after."""
    key_counts, key_drift = derive_keys(run.seed, 2)
    tau = _delay_track(_bin_times(n_bins, integration_time), tau_set, noise, key_drift,
                       integration_time)
    p1, p2 = click_probabilities(tau, spectrum)
    del tau
    mean_total = run.rate_total * integration_time
    dark_counts = (noise.dark_rate_1 * integration_time,
                   noise.dark_rate_2 * integration_time)
    c1 = np.empty(n_bins, dtype=np.int64)
    c2 = np.empty(n_bins, dtype=np.int64)
    slices = [slice(lo, min(lo + _CHUNK, n_bins)) for lo in range(0, n_bins, _CHUNK)]

    def fill(sl: slice) -> None:
        c1[sl], c2[sl] = _draw_counts(sl.start, key_counts, p1[sl], p2[sl],
                                      mean_total, dark_counts, noise.pump_rel_sigma)

    # Pool threads start under numpy's default error handling; each takes the caller's.
    with ThreadPoolExecutor(workers, initializer=partial(np.seterr, **np.geterr())) as pool:
        list(pool.map(fill, slices))
    del p1, p2
    return CountSeries(_bin_times(n_bins, integration_time), c1, c2, integration_time)


def _bin_times(n_bins: int, integration_time: float) -> np.ndarray:
    """t_k = k T, s, in one buffer."""
    t = np.arange(n_bins, dtype=np.float64)
    t *= integration_time
    return t


def simulate_run(config: RunConfig, spectrum: Spectrum, noise: NoiseModel,
                 workers: int = 1) -> CountSeries:
    """Simulate a counting run of floor(duration / T) bins.

    Bin k at t_k = k T sees delay tau0 + drift(t_k); both channels draw
    Poisson counts with mean g_k R T p_i + dark_i T, where g_k is the
    common-mode pump multiplier (clipped at zero).  Identical
    (config, spectrum, noise) give bit-identical output for any ``workers``.
    """
    return _count_series(config.n_bins, config.integration_time, config.tau0, config,
                         spectrum, noise, workers)


@dataclass(frozen=True)
class BrightSourceSettings:
    """A bright-source fringe scan: scan_points voltages from scan_v_min to
    scan_v_max (V), the fringe of each output, and the 1-sigma Gaussian
    noise (W) on each output's power."""

    power_noise: tuple[float, float]
    scan_v_min: float
    scan_v_max: float
    scan_points: int
    ch1: FringeParams
    ch2: FringeParams

    def __post_init__(self):
        if self.ch1.w == 0 or self.ch2.w == 0:
            raise ParameterError("a bright-source fringe needs w_volt != 0")
        if not self.scan_v_min < self.scan_v_max:
            raise ParameterError("scan_v_min must be below scan_v_max, got "
                                 f"{self.scan_v_min} >= {self.scan_v_max}")
        span = self.scan_v_max - self.scan_v_min
        for name, fringe in (("ch1", self.ch1), ("ch2", self.ch2)):
            if span < MIN_SCAN_HALF_PERIODS * abs(fringe.w):
                raise ParameterError(
                    f"the scan from scan_v_min to scan_v_max spans {span} V, less than "
                    f"half of {name}'s fringe period, |{name}.w_volt| = {abs(fringe.w)} V, "
                    "the least a fringe fit takes")
        if self.scan_points < MIN_SCAN_POINTS:
            raise ParameterError(f"scan_points must be at least {MIN_SCAN_POINTS}, the "
                                 f"fewest a fringe fit takes, got {self.scan_points}")
        if min(self.power_noise) < 0:
            raise ParameterError("power_noise_ch1_w and power_noise_ch2_w must be "
                                 f"non-negative, got {self.power_noise}")


@dataclass(frozen=True)
class CalibrationProtocol:
    """A stepped calibration scan: n_steps voltages from v_a_volt to v_b_volt,
    repeats bins of integration_time_s (s) at each."""

    v_a_volt: float
    v_b_volt: float
    n_steps: int
    repeats: int
    integration_time_s: float

    def __post_init__(self):
        if not self.v_a_volt < self.v_b_volt:
            raise ParameterError("v_a_volt must be below v_b_volt, got "
                                 f"{self.v_a_volt} >= {self.v_b_volt}")
        for key, least in (("n_steps", MIN_STEPS), ("repeats", MIN_REPEATS)):
            if getattr(self, key) < least:
                raise ParameterError(f"{key} must be at least {least}, got {getattr(self, key)}")
        if not self.integration_time_s > 0:
            raise ParameterError("integration_time_s must be positive, "
                                 f"got {self.integration_time_s}")
        if self.n_bins > MAX_BINS:
            raise ParameterError(f"a scan may have at most {MAX_BINS:.0e} bins, got "
                                 f"n_steps * repeats = {self.n_bins}")
        if not math.isfinite(self.n_bins * self.integration_time_s):
            raise ParameterError("the scan length n_steps * repeats * integration_time_s "
                                 "must be finite")

    @property
    def n_bins(self) -> int:
        return self.n_steps * self.repeats


@dataclass(frozen=True)
class BrightScan:
    """Bright-source power scan: per-voltage optical power of both outputs."""

    v0: np.ndarray
    power1: np.ndarray
    power2: np.ndarray


def simulate_bright_scan(settings: BrightSourceSettings, seed: int) -> BrightScan:
    """Sweep the modulator voltage under a bright source.

    power_i(v) = f0_i + a_i sin(pi (v - v0i_i) / w_i) plus Gaussian noise of
    the channel's sigma (W), none for a sigma of 0; deterministic under the seed.
    """
    from scipy.special import ndtri
    v0 = np.linspace(settings.scan_v_min, settings.scan_v_max, settings.scan_points)
    key = derive_keys(seed, 1)[0]
    u = block_uniforms(key, 0, settings.scan_points)
    powers = [params.evaluate(v0) + sigma * ndtri(u[:, channel])
              for channel, (params, sigma) in enumerate(zip((settings.ch1, settings.ch2),
                                                            settings.power_noise))]
    return BrightScan(v0, *powers)


@dataclass(frozen=True)
class CalibrationScan:
    """Stepped calibration acquisition: the set-point voltage of each step, and
    the counts of all steps in order, ``repeats`` bins per step."""

    v0: np.ndarray
    counts: CountSeries

    def __post_init__(self):
        if len(self.v0) == 0 or len(self.counts) % len(self.v0):
            raise ParameterError(f"{len(self.counts)} bins do not split evenly over "
                                 f"{len(self.v0)} voltage steps")

    @property
    def repeats(self) -> int:
        return len(self.counts) // len(self.v0)


def simulate_calibration_scan(protocol: CalibrationProtocol, run: RunConfig,
                              spectrum: Spectrum, modulator: ModulatorMap,
                              noise: NoiseModel, workers: int = 1) -> CalibrationScan:
    """Step the voltage from v_a_volt to v_b_volt, acquiring ``repeats`` bins
    of the protocol's bin length per step.

    Each step sets tau = alpha * v0 (plus any configured drift over the scan
    timeline).  The scan takes the seed and rate of ``run``, not its bin
    length, duration or tau0; counting statistics and determinism match
    :func:`simulate_run`.
    """
    v0 = np.linspace(protocol.v_a_volt, protocol.v_b_volt, protocol.n_steps)
    tau_set = np.repeat(modulator.alpha * v0, protocol.repeats)
    return CalibrationScan(v0, _count_series(protocol.n_bins, protocol.integration_time_s,
                                             tau_set, run, spectrum, noise, workers))

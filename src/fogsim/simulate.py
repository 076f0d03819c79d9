"""Seeded Monte Carlo photon-count generator.

Produces count time series, bright-source fringe scans and stepped
calibration scans with Poisson shot noise, per-channel dark counts,
common-mode pump fluctuation and a configurable slow delay drift.

Every random quantity is an inverse-CDF transform of open-interval uniforms
drawn from a counter-based Philox4x64-10 stream keyed per bin, so output is
bit-identical for a given seed regardless of chunking, and nearby parameter
changes perturb rather than reshuffle a realization.
"""

from __future__ import annotations

import math
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
    own bit generator, so a block does not depend on the blocks drawn
    before it.
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
        # a full-length mask only for a column that has a negative count
        negative = [int(np.argmax(c < 0)) for c in (self.c1, self.c2) if c.min(initial=0) < 0]
        if negative:
            raise DataError("counts must be non-negative", row=min(negative))
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
        for name in ("dark_rate_1", "dark_rate_2"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be non-negative, got {getattr(self, name)}")
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


# cephes ndtri, the standard normal quantile scipy.special.ndtri computes:
# a rational function of (u - 1/2)^2 where |u - 1/2| <= 1/2 - e^-2, and in
# each tail one of 1/x with x = sqrt(-2 log u) below and from 8 on.
# Coefficients from the highest power down; each Q leads with cephes' implied 1.
_EXP_M2 = 0.13533528323661269189
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: np.ndarray, coefs) -> np.ndarray:
    """The polynomial with ``coefs`` (highest power first) at x, by Horner's rule."""
    out = np.full_like(x, coefs[0])
    for c in coefs[1:]:
        out *= x
        out += c
    return out


def _per_element(fn, x: np.ndarray) -> np.ndarray:
    """The float function ``fn`` of the math module at each element of x."""
    return np.fromiter(map(fn, x.tolist()), np.float64, len(x))


def _ndtri(u: np.ndarray, log=partial(_per_element, math.log)) -> np.ndarray:
    """The standard normal quantile at each u in (0, 1), in cephes' operation
    order: bit-equal to scipy.special.ndtri with the default ``log``, math.log,
    as np.log rounds its last bit by the SIMD level.  Only the tails take logs."""
    upper = u > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - u, u)
    x = np.empty_like(y)
    mid = y > _EXP_M2
    c = y[mid] - 0.5
    c2 = c * c
    x[mid] = (c + c * (c2 * _polevl(c2, _NDTRI_P0) / _polevl(c2, _NDTRI_Q0))) \
        * 2.50662827463100050242
    tail = np.flatnonzero(~mid)
    s = np.sqrt(-2.0 * log(y[tail]))
    z = 1.0 / s
    x1 = z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1)
    far = s >= 8.0
    x1[far] = z[far] * _polevl(z[far], _NDTRI_P2) / _polevl(z[far], _NDTRI_Q2)
    x[tail] = np.where(upper[tail], 1.0, -1.0) * (s - log(s) / s - x1)
    return x


# d[j][n] of Temme's expansion (DLMF 8.12.12), from the lowest power up, as
# float() of scipy.special._precompute.gammainc_asy.compute_d(K, 16) computed
# under mpmath.workdps(50) (mpmath 1.3.0): rows 0-3 with K = 4, rows 4-7 with
# K = 8 (about 5 minutes; its rows 0-3 differ from these in the last bit of 5
# entries).  Row j keeps its first 16 - 2j powers; the rest would move a
# value in the region below by at most 3e-15 at a = 20 and 1e-16 from a = 30.
_TEMME_D = (
    (-0.3333333333333333, 0.08333333333333333, -0.014814814814814815, 0.0011574074074074073,
     0.0003527336860670194, -0.0001787551440329218, 3.919263178522438e-05,
     -2.1854485106799924e-06, -1.85406221071516e-06, 8.296711340953087e-07,
     -1.7665952736826078e-07, 6.707853543401498e-09, 1.0261809784240309e-08,
     -4.382036018453353e-09, 9.14769958223679e-10, -2.551419399494625e-11),
    (-0.001851851851851852, -0.003472222222222222, 0.0026455026455026454,
     -0.0009902263374485596, 0.00020576131687242798, -4.018775720164609e-07,
     -1.8098550334489977e-05, 7.64916091608111e-06, -1.6120900894563446e-06,
     4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
     1.1951628599778148e-08, -1.7543241719747647e-11),
    (0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049,
     2.0093878600823047e-06, -0.00010736653226365161, 5.2923448829120125e-05,
     -1.2760635188618728e-05, 3.423578734096138e-08, 1.3721957309062932e-06,
     -6.298992138380055e-07, 1.4280614206064242e-07, -2.0477098421990866e-10),
    (0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557,
     0.00026772063206283885, -7.561801671883977e-05, -2.396505113867297e-07,
     1.1082654115347302e-05, -5.6749528269915965e-06, 1.4230900732435883e-06,
     -2.7861080291528143e-11),
    (-0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902,
     -1.4638452578843418e-06, 6.641498215465122e-05, -3.968365047179435e-05,
     1.1375726970678419e-05, 2.507497226237533e-10),
    (-0.00033679855336635813, -6.972813758365857e-05, 0.0002772753244959392,
     -0.00019932570516188847, 6.797780477937208e-05, 1.419062920643967e-07),
    (0.0005313079364639922, -0.0005921664373536939, 0.0002708782096718045,
     7.902353232660328e-07),
    (0.00034436760689237765, 5.171790908260592e-05),
)
# log Gamma*(a) = log Gamma(a) - (a - 1/2) log a + a - log(2 pi) / 2 by
# Stirling's series, B_2n / (2n (2n - 1)) a^(1 - 2n) for n = 1 ... 5, from the
# lowest power up; the next term is below 1e-17 for a >= 20
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)
# erfc(x) = t exp(P(s) - x^2) for 0 <= x <= 7, with t = 3 / (3 + x) and
# s = (20 t - 13) / 7 in [-1, 1]; P, highest power first, is float() of
# mpmath.chebyfit(P, [-1, 1], 22) with P(s) = log(erfc(x) e^(x^2) / t), under
# mpmath.mp.dps = 40 (mpmath 1.3.0; fit error 1.3e-17 in P)
_ERFC_P = (-1.0691093017676069e-10, 7.871985480684816e-11, 1.4428983632232904e-09,
           -6.037443000482116e-10, -1.2701161083733564e-08, 3.6047679945657025e-10,
           9.857276889141443e-08, 3.7878332644749386e-08, -7.26972715812846e-07,
           -5.98264848703629e-07, 5.1501681914785064e-06, 6.980845440668737e-06,
           -3.47568571834187e-05, -7.41067546208107e-05, 0.00021550601005214772,
           0.0007730945833597455, -0.001021496199376262, -0.008447139070323132,
           -0.003950984760311483, 0.1066388310002959, 0.6669163660958566,
           -0.7610262447451971)
# _poisson_cdf(k, lam) holds where a = k + 1 >= _TEMME_MIN_K1, lam <=
# _TEMME_MAX_MEAN and _TEMME_MIN_T <= lam / a - 1 <= _TEMME_MAX_T, which takes
# in every start a draw with a >= 20 can reach.  There its values and those
# one and two pmf steps away settle pdtr(k, lam) >= u where |F - u| > _TIE,
# 36 times their largest difference from pdtr (2.7e-14 on 2.2e7 points, five
# values each).  Above _TEMME_MAX_MEAN pdtr itself strays from the expansion
# and from mpmath, by up to 4e-11 below 1e6 and 7e-9 below 3e6.
_TEMME_MIN_K1 = 20.0
_TEMME_MAX_MEAN = 4e5
_TEMME_MIN_T = -0.8
_TEMME_MAX_T = 3.5
_TIE = 1e-12


def _erfc(x: np.ndarray) -> np.ndarray:
    """erfc at each x, within 1e-15: the fit above at |x|, its polynomial held
    at 7 beyond (where erfc is below 5e-23), and 2 - erfc(-x) below 0."""
    y = np.abs(x)
    t = 3.0 / (3.0 + np.minimum(y, 7.0))
    e = t * np.exp(_polevl((20.0 * t - 13.0) / 7.0, _ERFC_P) - y * y)
    return 1.0 - np.copysign(1.0 - e, x)


def _expansion_holds(k: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Whether _poisson_cdf(k, lam) lies in its region, elementwise."""
    a = k + 1.0
    return ((a >= _TEMME_MIN_K1) & (lam <= _TEMME_MAX_MEAN)
            & (lam >= (1.0 + _TEMME_MIN_T) * a) & (lam <= (1.0 + _TEMME_MAX_T) * a))


def _poisson_cdf(k: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P(N <= k) = Q(k + 1, lam) and P(N = k + 1) for N ~ Poisson(lam), by
    Temme's uniform expansion of the incomplete gamma function to order
    (k + 1)^-7 (DLMF 8.12; DiDonato and Morris, ACM TOMS 12, 1986).  With
    a = k + 1 and t = lam / a - 1 the pmf is e^(-a (t - log1p t)) over
    sqrt(2 pi a) Gamma*(a), from the expansion's own exponent; (k + 1) log lam
    - lam - lgamma(k + 2) would cancel to 4e-10 relative at lam = 3e5.
    Accurate only in the region above."""
    a = k + 1.0
    t = (lam - a) / a
    # t - log1p(t) >= 0, but its rounding may fall below 0 next to t = 0
    half_eta2 = np.maximum(t - np.log1p(t), 0.0)
    eta = np.copysign(np.sqrt(2.0 * half_eta2), t)
    series = np.zeros_like(a)
    for row in reversed(_TEMME_D):
        series /= a
        series += _polevl(eta, row[::-1])
    density = np.exp(-a * half_eta2) / np.sqrt(2.0 * np.pi * a)
    return (0.5 * _erfc(eta * np.sqrt(0.5 * a)) + density * series,
            density * np.exp(-_polevl(1.0 / (a * a), _STIRLING[::-1]) / a))


def _pdtr_reaches(k: np.ndarray, lam: np.ndarray, u: np.ndarray, cdf: np.ndarray,
                  held: np.ndarray) -> np.ndarray:
    """pdtr(k, lam) >= u, elementwise.  Where ``held``, ``cdf`` is numpy's
    value of pdtr(k, lam) and settles each comparison it is sure of; scipy's
    pdtr, imported here and nowhere else, settles the rest, so pdtr alone
    still defines every count."""
    gap = cdf - u
    reaches = gap > 0.0
    unsure = ~held | (np.abs(gap) <= _TIE)
    if unsure.any():
        from scipy.special import pdtr
        reaches[unsure] = pdtr(k[unsure], lam[unsure]) >= u[unsure]
    return reaches


def _poisson_quantile(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Smallest integer k >= 0 with pdtr(k, lam) >= u, elementwise.

    This is the definition SciPy's poisson.ppf implements; lam = 0 gives
    0.  The search starts from the Cornish-Fisher guess
    w = lam + sqrt(lam) z + (z^2 - 1) / 6 with z the normal quantile of u,
    continuity corrected to floor(w + 1/2), then steps down while the count
    below still reaches u and up while k falls short; each step compares only
    where k is still moving, and _pdtr_reaches settles each comparison.  Where
    _poisson_cdf holds at the start, its one evaluation gives pdtr(k - 1, lam)
    and the pmf at k, and each step carries both along by the recurrences
    pmf(k - 1) = pmf(k) k / lam and pmf(k + 1) = pmf(k) lam / (k + 1).  The
    start sets only the number of steps, so its z may take np.log: k is fixed
    by the pdtr comparisons alone.  u must lie in (0, 1); u = 1 would never
    stop stepping, and neither would a mean so large that k - 1 == k in
    float64.
    """
    if not np.all(lam <= MAX_MEAN_COUNT):  # also rejects NaN
        raise ParameterError(f"the mean count per bin must be at most "
                             f"{MAX_MEAN_COUNT:.0e}, got {np.max(lam):.3g}")
    z = _ndtri(u, np.log)
    k = np.maximum(np.floor(lam + np.sqrt(lam) * z + (z * z - 1.0) / 6.0 + 0.5), 0.0)
    # pdtr(k - 1, lam) and the pmf at k, where held
    held = _expansion_holds(k - 1.0, lam)
    below = np.zeros_like(lam)
    pmf = np.zeros_like(lam)
    at = np.flatnonzero(held)
    below[at], pmf[at] = _poisson_cdf(k[at] - 1.0, lam[at])
    down = np.flatnonzero(k > 0)
    while down.size:
        down = down[_pdtr_reaches(k[down] - 1.0, lam[down], u[down], below[down], held[down])]
        at = down[held[down]]
        pmf[at] *= k[at] / lam[at]
        below[at] -= pmf[at]
        k[down] -= 1.0
        down = down[k[down] > 0]
    up = np.flatnonzero(~_pdtr_reaches(k, lam, u, below + pmf, held))
    while up.size:
        at = up[held[up]]
        below[at] += pmf[at]
        k[up] += 1.0
        pmf[at] *= lam[at] / k[at]
        up = up[~_pdtr_reaches(k[up], lam[up], u[up], below[up] + pmf[up], held[up])]
    return k.astype(np.int64)


def _draw_counts(start: int, key_counts: np.ndarray, p1: np.ndarray,
                 p2: np.ndarray, mean_total: float, dark_counts: tuple[float, float],
                 pump_rel_sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Counts for bins start, start + 1, ...; a pure function of (key, bin index)."""
    u = block_uniforms(key_counts, start, len(p1))
    gain = np.maximum(1.0 + pump_rel_sigma * _ndtri(u[:, 0]), 0.0)
    lam1 = gain * mean_total * p1 + dark_counts[0]
    lam2 = gain * mean_total * p2 + dark_counts[1]
    return _poisson_quantile(u[:, 1], lam1), _poisson_quantile(u[:, 2], lam2)


def _count_series(n_bins: int, integration_time: float, tau_set, run: RunConfig,
                  spectrum: Spectrum, noise: NoiseModel) -> CountSeries:
    """Counts of n_bins bins at t_k = k T around the set-point delay tau_set
    (one value, or one per bin), under the run's seed and rate.

    tau starts as the set point plus the deterministic drift.  Each chunk
    adds its stretch of the random walk, then draws its counts from its own
    delays.  Step k of the walk, into bin k + 1, is column 0 of the drift
    key's uniforms at index k; the walk is one running sum carried from chunk
    to chunk, and np.cumsum adds in order, so its bits do not depend on the
    chunk size.  At most three full-length columns are held at once: tau, c1
    and c2 while the counts are drawn, and t is made again after.
    """
    key_counts, key_drift = derive_keys(run.seed, 2)
    # numpy scales a float64 arange in place, eliding the temporary; freeing
    # these bin times raises glibc's mmap threshold above a chunk's arrays,
    # which are then reused rather than mapped afresh each time
    tau = tau_set + noise.drift.deterministic(
        np.arange(n_bins, dtype=np.float64) * integration_time)
    scale = noise.drift.random_walk * math.sqrt(integration_time)
    walked = np.zeros(1)
    mean_total = run.rate_total * integration_time
    dark_counts = (noise.dark_rate_1 * integration_time,
                   noise.dark_rate_2 * integration_time)
    c1 = np.empty(n_bins, dtype=np.int64)
    c2 = np.empty(n_bins, dtype=np.int64)
    for lo in range(0, n_bins, _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        chunk = tau[sl]
        if scale > 0.0:
            steps = scale * _ndtri(block_uniforms(key_drift, lo, len(chunk))[:, 0])
            walk = np.cumsum(np.concatenate([walked, steps]))
            chunk += walk[:-1]
            walked = walk[-1:].copy()
            del steps, walk  # not held through the count draw
        p1, p2 = click_probabilities(chunk, spectrum)
        c1[sl], c2[sl] = _draw_counts(lo, key_counts, p1, p2,
                                      mean_total, dark_counts, noise.pump_rel_sigma)
    del tau, chunk
    t = np.arange(n_bins, dtype=np.float64) * integration_time
    return CountSeries(t, c1, c2, integration_time)


def simulate_run(config: RunConfig, spectrum: Spectrum, noise: NoiseModel) -> CountSeries:
    """Simulate a counting run of floor(duration / T) bins.

    Bin k at t_k = k T sees delay tau0 + drift(t_k); both channels draw
    Poisson counts with mean g_k R T p_i + dark_i T, where g_k is the
    common-mode pump multiplier (clipped at zero).  Identical
    (config, spectrum, noise) give bit-identical output.
    """
    return _count_series(config.n_bins, config.integration_time, config.tau0, config,
                         spectrum, noise)


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
        for name, fringe in (("ch1", self.ch1), ("ch2", self.ch2)):
            if fringe.w == 0:
                raise ParameterError(f"a bright-source fringe needs {name}.w_volt != 0")
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
        if self.scan_points > MAX_BINS:
            raise ParameterError(f"a bright scan may have at most {MAX_BINS:.0e} points, "
                                 f"got scan_points = {self.scan_points}")
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
    v0 = np.linspace(settings.scan_v_min, settings.scan_v_max, settings.scan_points)
    key = derive_keys(seed, 1)[0]
    u = block_uniforms(key, 0, settings.scan_points)
    powers = [params.evaluate(v0) + sigma * _ndtri(u[:, channel])
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
                              noise: NoiseModel) -> CalibrationScan:
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
                                             tau_set, run, spectrum, noise))

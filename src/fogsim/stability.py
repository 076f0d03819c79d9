"""Time-domain stability analysis of delay series.

Overlapping Allan deviation with O(N) per averaging time via compensated
float64 prefix sums, even/odd differential splitting, detection-limit
extraction, the shot-noise Cramér-Rao bound, and the stability report that
gathers them with the saturation of each curve against that bound.  An
AllanCurve holds only what the kernel measured; its averaging times, term
counts and confidence half-widths are derived from that, each in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .calibration import DEGENERATE_CODE
from .constants import EARTH_RATE_RAD_PER_S, rad_per_s_to_deg_per_hour
from .errors import DataError, ParameterError
from .geometry import GyroGeometry, delay_to_rotation, figure_of_merit, rotation_to_delay
from .model import Spectrum

__all__ = [
    "DelaySeries",
    "AllanCurve",
    "check_bin_times",
    "series_from_delay_table",
    "default_m_grid",
    "overlapping_allan_deviation",
    "even_odd_split",
    "detection_limit",
    "crb_curve",
    "stability_report",
]

ORIGINS = ("raw", "even", "odd", "differential")
# The fewest samples of an Allan curve: m = 1 is under the cap floor((N - 1) / 2) from N = 3
MIN_SAMPLES = 3
# Terms per leaf of the Allan kernel's sums, and bin times per block of
# check_bin_times.  It must be at least 128, numpy's pairwise leaf (the most
# values np.sum adds in one loop of eight partial sums), for the leaves to
# give the bits of one np.sum; blocks of 2,048 to 8,192 terms ran about twice
# as slow at two workers in the kernel, 32,768 and more did not.
_TERM_BLOCK = 65536


@dataclass(frozen=True)
class DelaySeries:
    """Evenly sampled delay estimates, any number of them: values (s) every t0 seconds."""

    t0: float
    values: np.ndarray
    origin: str = "raw"

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if not self.t0 > 0:
            raise ParameterError(f"t0 must be positive, got {self.t0}")
        if self.origin not in ORIGINS:
            raise ParameterError(f"origin must be one of {ORIGINS}, got {self.origin!r}")

    def __len__(self) -> int:
        return len(self.values)

    def drop_nonfinite(self) -> "DelaySeries":
        """The series without its non-finite samples, the rest re-indexed.

        The Allan formulas assume gap-free sampling, so dropped bins shift
        later samples earlier; series_from_delay_table counts the unusable bins.
        """
        finite = np.isfinite(self.values)
        if finite.all():
            return self
        return DelaySeries(self.t0, self.values[finite], self.origin)


@dataclass(frozen=True)
class AllanCurve:
    """Overlapping Allan deviations adev at the averaging factors m of a
    series of n_samples samples t0 apart, as the kernel measured them.

    t, n_terms and ci are formulas of these: the averaging time m t0, the
    N - 2m + 1 overlapping terms at each m, and the 1-sigma confidence
    half-width adev/sqrt(n_terms).
    """

    m: np.ndarray
    adev: np.ndarray
    n_samples: int
    t0: float

    @property
    def t(self) -> np.ndarray:
        return self.m * self.t0

    @property
    def n_terms(self) -> np.ndarray:
        return self.n_samples - 2 * self.m + 1

    @property
    def ci(self) -> np.ndarray:
        return self.adev / np.sqrt(self.n_terms)


def check_bin_times(t, step: float, key: str) -> None:
    """Bin k of a table must lie at t[0] + k step, to 1e-6 of a step.

    So the bin times are finite, none is missing or repeated, and their
    step is ``step``, the value of the config key ``key``.  The tolerance
    covers the rounding of bin times k T, about 1.2e-7 of a step at most
    up to k = 10^9.  Raises DataError naming the first row that is off.
    """
    t = np.asarray(t, dtype=np.float64)
    # |(t[0] + k step) - t|; a time past the float range, or a nan, is off the
    # grid.  The grid is an unnamed left operand, so numpy reuses it in place.
    for start in range(0, len(t), _TERM_BLOCK):
        chunk = t[start:start + _TERM_BLOCK]
        with np.errstate(over="ignore", invalid="ignore"):
            on_grid = np.abs(np.arange(start, start + len(chunk), dtype=np.float64) * step
                             + t[:1] - chunk) <= 1e-6 * step
        if not on_grid.all():
            row = start + int(np.argmin(on_grid))
            raise DataError(f"bin time {float(t[row])!r} s is not t0 + k T with "
                            f"t0 = {float(t[0])!r} s and T = {key} = {step!r} s; bin "
                            "times must be finite and one T apart, with no row missing "
                            "or repeated",
                            row=row)


def series_from_delay_table(tau, flags, t0: float) -> tuple[DelaySeries, int]:
    """The delay table as one series of bins t0 apart, its unusable bins set to nan.

    ``flags`` is a DelayFlags, as read_delay_series and estimate_delays
    give it.  Degenerate and non-finite bins stay in place, so position is
    bin index and the even/odd split keeps parity across gaps
    (NIST SP 1065); window flags are warning-grade.  Returns the series, of
    any length, and the unusable-bin count.  The table's bin times are not
    read: read_delay_series has checked that they lie t0 apart.
    """
    values = np.where(flags.codes == DEGENERATE_CODE, np.nan, tau)
    dropped = len(values) - int(np.isfinite(values).sum())
    return DelaySeries(t0, values, "raw"), dropped


def default_m_grid(n_samples: int) -> np.ndarray:
    """29 log-spaced integer m per decade, deduplicated, capped at floor((N-1)/2) >= 1."""
    m_max = (n_samples - 1) // 2
    exponents = np.arange(0.0, math.log10(m_max) + 1e-12, 1.0 / 29)
    grid = _distinct(np.round(10.0**exponents).astype(np.int64))
    return grid[(grid >= 1) & (grid <= m_max)]


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending, as np.unique gives them; plain
    np.unique imports numpy.ma, which costs a process about 20 ms."""
    values = np.sort(values)
    first = np.ones(len(values), bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def _pairwise_sum(leaf, start: int, stop: int, most: int) -> float:
    """The sum of the values start to stop - 1 in the order of numpy's pairwise
    summation, which np.sum applies to a contiguous float64 array: a run of
    more than 128 values is split after half of them, less that half's
    remainder mod 8, and the two halves' sums are added.  Runs of at most
    ``most`` values (at least 128: see _TERM_BLOCK) are summed by
    ``leaf(start, stop)`` with np.sum, so the result has the bits of one
    np.sum over all the values.

    A module-level function, not one nested in its caller: a nested function
    that calls itself is a reference cycle, which would keep the caller's
    arrays alive until the garbage collector ran.
    """
    if stop - start <= most:
        return leaf(start, stop)
    half = (stop - start) // 2
    half -= half % 8
    return (_pairwise_sum(leaf, start, start + half, most)
            + _pairwise_sum(leaf, start + half, stop, most))


def overlapping_allan_deviation(series: DelaySeries,
                                m_grid: np.ndarray | None = None,
                                workers: int = 1) -> AllanCurve:
    """Overlapping Allan deviation of a delay series.

    For each m the variance is

        sigma^2(m t0) = [2 m^2 (N - 2m + 1)]^-1
                        * sum_j ( sum_{i=j}^{j+m-1} x_{i+m} - x_i )^2

    with the inner sums taken from the prefix-sum identity
    S(j+2m) - 2 S(j+m) + S(j), so each m costs O(N).  S, the prefix sum of
    the mean-subtracted series, is the float64 pair hi + lo: the running sum
    and the running sum of its rounding errors, found by TwoSum (Ogita, Rump
    & Oishi 2005).  In basic float64 operations, whose bytes depend neither
    on the SIMD level nor on the platform's long double, that puts adev
    within 2 ulp of the rounded exact value on offset and drifting series.
    Each m's squared terms are summed in leaves of at most _TERM_BLOCK of
    them, split and added back as _pairwise_sum says, which gives the bits
    of one np.sum over all N - 2m + 1 terms; so each m holds two leaf-sized
    buffers, not one of N samples, and the leaf size leaves adev's bits
    alone.  Fewer than MIN_SAMPLES samples, or non-finite ones, raise
    ParameterError naming the series' origin; see DelaySeries.drop_nonfinite.
    """
    x = series.values
    n = len(x)
    if n < MIN_SAMPLES:
        raise ParameterError(f"the {series.origin} series has {n} samples; an "
                             f"Allan curve needs at least {MIN_SAMPLES}")
    if m_grid is None:
        m_grid = default_m_grid(n)
    m_arr = _distinct(np.asarray(m_grid, dtype=np.int64).ravel())
    m_cap = (n - 1) // 2
    bad = m_arr[(m_arr < 1) | (m_arr > m_cap)]
    if len(bad):
        raise ParameterError(
            f"m values {bad.tolist()} outside the valid range [1, {m_cap}] for N={n}")

    if not np.isfinite(x).all():
        raise ParameterError(f"{n - np.isfinite(x).sum()} non-finite samples in the "
                             f"{series.origin} series; drop them first (drop_nonfinite)")
    # lo[1:] holds the centered series, then the TwoSum error of each step of
    # its running sum hi, a block at a time, then the running sum of those
    hi, lo = np.empty(n + 1), np.empty(n + 1)
    hi[0] = lo[0] = 0.0
    np.subtract(x, x.mean(), out=lo[1:])  # the double difference is shift invariant
    np.cumsum(lo[1:], out=hi[1:])
    for start in range(0, n, _TERM_BLOCK):
        stop = min(start + _TERM_BLOCK, n)
        prev, this, err = hi[start:stop], hi[start + 1:stop + 1], lo[start + 1:stop + 1]
        b = this - prev
        err[:] = (prev - (this - b)) + (err - b)
    np.cumsum(lo[1:], out=lo[1:])

    def compute(m: int, d: np.ndarray, e: np.ndarray, start: int, stop: int) -> float:
        """The sum of the squared terms start to stop - 1 at this m, worked
        out in the leaf buffers d and e."""
        s0, s1, s2 = (slice(start + shift, stop + shift) for shift in (0, m, 2 * m))
        d, e = d[:stop - start], e[:stop - start]
        # hi as (S[j+2m] - S[j+m]) - (S[j+m] - S[j]): each difference is
        # exact where its two prefix sums agree to a factor 2 (Sterbenz)
        np.subtract(hi[s2], hi[s1], out=d)
        np.subtract(hi[s1], hi[s0], out=e)
        d -= e
        np.multiply(lo[s1], 2.0, out=e)
        np.subtract(lo[s2], e, out=e)
        e += lo[s0]
        d += e
        np.square(d, out=d)
        return float(np.sum(d))

    def curve(m: int) -> float:
        k = n - 2 * m + 1  # the overlapping terms at this m
        d, e = np.empty(min(k, _TERM_BLOCK)), np.empty(min(k, _TERM_BLOCK))
        total = _pairwise_sum(partial(compute, m, d, e), 0, k, _TERM_BLOCK)
        return math.sqrt(total / (2.0 * m * m * k))

    if workers == 1:
        # no thread, so no thread's memory arena kept, and no concurrent.futures
        # import (with logging and queue, about 5 ms a process)
        adev = [curve(m) for m in m_arr.tolist()]
    else:
        from concurrent.futures import ThreadPoolExecutor

        # Pool threads start under numpy's default error handling; each takes the caller's.
        with ThreadPoolExecutor(workers, initializer=partial(np.seterr, **np.geterr())) as pool:
            adev = list(pool.map(curve, m_arr.tolist()))

    return AllanCurve(m=m_arr, adev=np.array(adev), n_samples=n, t0=series.t0)


def even_odd_split(series: DelaySeries) -> tuple[DelaySeries, DelaySeries, DelaySeries]:
    """Split into even-index and odd-index sub-series and their difference.

    Index 0 is "even"; diff_k = even_k - odd_k, truncated to the shorter
    length, which may be too short for an Allan curve.  All three series
    sample at 2 * t0.
    """
    even = series.values[0::2]
    odd = series.values[1::2]
    n = min(len(even), len(odd))
    t0 = 2.0 * series.t0
    return (
        DelaySeries(t0, even, "even"),
        DelaySeries(t0, odd, "odd"),
        DelaySeries(t0, even[:n] - odd[:n], "differential"),
    )


def detection_limit(curve: AllanCurve) -> tuple[float, float]:
    """(t, sigma) of the minimum Allan deviation; ties go to the smaller t."""
    if len(curve.adev) == 0:
        raise ParameterError("empty Allan curve")
    i = int(np.argmin(curve.adev))
    return float(curve.t[i]), float(curve.adev[i])


def crb_curve(rate_total: float, spectrum: Spectrum, t) -> np.ndarray:
    """Shot-noise Cramér-Rao bound sigma(t) = sqrt(2 / (omega0^2 R t)), s.

    The bound on an even or odd sub-series: each holds half of the photons
    detected at total rate R over averaging time t, and one photon carries
    Fisher information omega0^2.  The cadence of the sub-series cancels out.
    """
    if not rate_total > 0:
        raise ParameterError(f"rate_total must be positive, got {rate_total}")
    t = np.asarray(t, dtype=np.float64)
    if np.any(t <= 0):
        raise ParameterError("averaging times must be positive")
    return np.sqrt(2.0 / (spectrum.omega0**2 * rate_total * t))


def stability_report(curves: dict[str, AllanCurve], dropped_bins: int,
                     rate_total: float, spectrum: Spectrum, geometry: GyroGeometry) -> dict:
    """Report on the raw, even, odd and differential Allan curves.

    Detection limits (the delay limit is the better of even and odd), the
    saturation crb_curve(t) / adev(t) of each sub-series curve on its own t
    grid (and of the differential curve against the sqrt(2)-scaled bound),
    figure of merit, equivalent rotation, Earth rate and coil geometry.  A
    zero detection limit (constant delays) raises DataError.
    """
    raw = curves["raw"]
    dls = {origin: detection_limit(curve) for origin, curve in curves.items()}
    flat = [origin for origin, dl in dls.items() if not dl[1] > 0]
    if flat:
        raise DataError(f"zero Allan deviation in {flat}: the usable delays do not vary")
    dl_tau = min((dls["even"], dls["odd"]), key=lambda d: d[1])
    dl_diff = dls["differential"]

    def saturation(origin: str, bound_scale: float = 1.0) -> dict:
        curve = curves[origin]
        bound = crb_curve(rate_total, spectrum, curve.t) * bound_scale
        return {"t_s": curve.t.tolist(), "value": (bound / curve.adev).tolist()}

    area = geometry.total_area
    earth_delay = rotation_to_delay(EARTH_RATE_RAD_PER_S, area)
    return {
        "series": {"n_samples": raw.n_samples, "t0_s": raw.t0,
                   "dropped_bins": dropped_bins},
        "detection_limit": {
            origin: {"t_s": dl[0], "sigma_s": dl[1]} for origin, dl in dls.items()
        },
        "detection_limit_tau": {"t_s": dl_tau[0], "sigma_s": dl_tau[1]},
        "detection_limit_differential": {"t_s": dl_diff[0], "sigma_s": dl_diff[1]},
        "detection_limit_differential_over_sqrt2_s": dl_diff[1] / math.sqrt(2.0),
        "crb": {"rate_total_hz": rate_total, "update_period_s": 2.0 * raw.t0,
                "formula": "sqrt(2/(omega0^2*R*t))"},
        "saturation": {
            "even": saturation("even"),
            "odd": saturation("odd"),
            "differential": saturation("differential"),
            "differential_vs_sqrt2_bound": saturation("differential", math.sqrt(2.0)),
        },
        "figure_of_merit_s_per_km2": figure_of_merit(dl_tau[1], area),
        "equivalent_rotation_deg_per_h": rad_per_s_to_deg_per_hour(
            delay_to_rotation(dl_diff[1], area)),
        "earth_rate": {
            "rate_rad_per_s": EARTH_RATE_RAD_PER_S,
            "delay_s": earth_delay,
            "detectable_at_detection_limit": bool(earth_delay > dl_tau[1]),
        },
        "geometry": {
            "total_area_m2": area,
            "n_coils": geometry.n_coils,
            "serrodyne_rate_hz_computed": geometry.serrodyne_rate,
        },
    }

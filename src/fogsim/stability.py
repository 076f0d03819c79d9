"""Time-domain stability analysis of delay series.

Overlapping Allan deviation with O(N) per averaging time via prefix sums,
even/odd differential splitting, detection-limit extraction, the
shot-noise Cramér-Rao bound, and the stability report that gathers them
with the saturation of each curve against that bound.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .constants import EARTH_RATE_RAD_PER_S, rad_per_s_to_deg_per_hour
from .errors import DataError, ParameterError
from .geometry import GyroGeometry, delay_to_rotation, figure_of_merit, rotation_to_delay
from .model import Spectrum

__all__ = [
    "DelaySeries",
    "AllanCurve",
    "series_from_delay_table",
    "default_m_grid",
    "overlapping_allan_deviation",
    "even_odd_split",
    "detection_limit",
    "crb_curve",
    "stability_report",
]

ORIGINS = ("raw", "even", "odd", "differential")


@dataclass(frozen=True)
class DelaySeries:
    """Evenly sampled delay estimates: values (s) every t0 seconds."""

    t0: float
    values: np.ndarray
    origin: str = "raw"

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if not self.t0 > 0:
            raise ParameterError(f"t0 must be positive, got {self.t0}")
        if len(self.values) < 2:
            raise ParameterError("a delay series needs at least 2 samples")
        if self.origin not in ORIGINS:
            raise ParameterError(f"origin must be one of {ORIGINS}, got {self.origin!r}")

    def __len__(self) -> int:
        return len(self.values)

    def drop_nonfinite(self) -> tuple["DelaySeries", int]:
        """Remove non-finite samples (re-indexing the rest) and report how many.

        The Allan formulas assume gap-free sampling, so dropped bins shift
        later samples earlier; callers should surface the returned count.
        """
        finite = np.isfinite(self.values)
        dropped = int((~finite).sum())
        if dropped == 0:
            return self, 0
        return DelaySeries(self.t0, self.values[finite], self.origin), dropped


@dataclass(frozen=True)
class AllanCurve:
    """Overlapping Allan deviations over a grid of averaging factors m.

    t = m * t0; ci is the 1-sigma confidence half-width adev/sqrt(n_terms);
    n_terms = N - 2m + 1 is the number of overlapping terms at each m.
    """

    m: np.ndarray
    t: np.ndarray
    adev: np.ndarray
    ci: np.ndarray
    n_terms: np.ndarray
    n_samples: int
    t0: float
    origin: str = "raw"

    def __post_init__(self):
        m = np.asarray(self.m, dtype=np.int64)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "t", np.asarray(self.t, dtype=np.float64))
        object.__setattr__(self, "adev", np.asarray(self.adev, dtype=np.float64))
        object.__setattr__(self, "ci", np.asarray(self.ci, dtype=np.float64))
        object.__setattr__(self, "n_terms", np.asarray(self.n_terms, dtype=np.int64))
        if np.any(np.diff(m) <= 0):
            raise ParameterError("m grid must be strictly increasing")
        if np.any(self.n_terms != self.n_samples - 2 * m + 1):
            raise ParameterError("n_terms must equal N - 2m + 1")
        if np.any(self.n_terms <= 0):
            raise ParameterError("every entry needs n_terms > 0")
        if not np.allclose(self.t, m * self.t0, rtol=1e-12, atol=0.0):
            raise ParameterError("t must equal m * t0")


def series_from_delay_table(t, tau, flags) -> tuple[DelaySeries, int]:
    """The delay table as one series with its unusable bins set to nan.

    Degenerate and non-finite bins stay in place, so position is bin index
    and the even/odd split keeps parity across gaps (NIST SP 1065); window
    flags are warning-grade.  Returns the series and the unusable-bin count.
    A non-finite bin time, or a missing or repeated row (uneven t), raises
    DataError naming its row.
    """
    if len(tau) == 0:
        raise ParameterError("no delay samples")
    values = np.where(np.asarray(flags) == "degenerate", np.nan, tau)
    usable = int(np.isfinite(values).sum())
    dropped = len(values) - usable
    if usable < 8:
        raise ParameterError(
            f"delay series too short after dropping {dropped} flagged bins "
            f"({usable} < 8)")
    t = np.asarray(t, dtype=np.float64)
    nonfinite = np.flatnonzero(~np.isfinite(t))
    if len(nonfinite):
        raise DataError("bin times must be finite", row=int(nonfinite[0]))
    t0 = float(np.median(np.diff(t)))
    if not t0 > 0:
        raise DataError(f"bin times do not increase (median step {t0})")
    skipped = np.flatnonzero(np.rint((t - t[0]) / t0) != np.arange(len(t)))
    if len(skipped):
        raise DataError(f"bin times are not one step of {t0} s per row from this "
                        f"row on (missing or repeated rows)", row=int(skipped[0]))
    return DelaySeries(t0, values, "raw"), dropped


def default_m_grid(n_samples: int, points_per_decade: int = 29) -> np.ndarray:
    """Log-spaced, deduplicated integer m grid capped at floor((N-1)/2)."""
    if n_samples < 3:
        raise ParameterError("need at least 3 samples for an Allan analysis")
    m_max = (n_samples - 1) // 2
    exponents = np.arange(0.0, math.log10(m_max) + 1e-12, 1.0 / points_per_decade)
    grid = np.unique(np.round(10.0**exponents).astype(np.int64))
    return grid[(grid >= 1) & (grid <= m_max)]


def overlapping_allan_deviation(series: DelaySeries,
                                m_grid: np.ndarray | None = None,
                                workers: int = 1) -> AllanCurve:
    """Overlapping Allan deviation of a delay series.

    For each m the variance is

        sigma^2(m t0) = [2 m^2 (N - 2m + 1)]^-1
                        * sum_j ( sum_{i=j}^{j+m-1} x_{i+m} - x_i )^2

    with the inner sums taken from the prefix-sum identity
    S(j+2m) - 2 S(j+m) + S(j), so each m costs O(N).  The prefix sums are
    accumulated in extended precision on the mean-subtracted series, which
    keeps the prefix/brute-force agreement at the 1e-12 level.  Confidence
    half-widths use the simple adev/sqrt(n_terms) approximation.
    """
    x = series.values
    n = len(x)
    if m_grid is None:
        m_grid = default_m_grid(n)
    m_arr = np.unique(np.asarray(m_grid, dtype=np.int64))
    m_cap = (n - 1) // 2
    bad = m_arr[(m_arr < 1) | (m_arr > m_cap)]
    if len(bad):
        raise ParameterError(
            f"m values {bad.tolist()} outside the valid range [1, {m_cap}] for N={n}")

    centered = x - x.mean()  # the double difference is shift invariant
    prefix = np.concatenate([
        np.zeros(1, dtype=np.longdouble),
        np.cumsum(centered.astype(np.longdouble)),
    ])
    adev = np.empty(len(m_arr))
    n_terms = n - 2 * m_arr + 1

    def compute(i: int) -> None:
        m = int(m_arr[i])
        k = int(n_terms[i])
        d = prefix[2 * m:2 * m + k] - 2.0 * prefix[m:m + k] + prefix[:k]
        total = float(np.sum(d * d))
        adev[i] = math.sqrt(total / (2.0 * m * m * k))

    # Pool threads start under numpy's default error handling; each takes the caller's.
    with ThreadPoolExecutor(workers, initializer=partial(np.seterr, **np.geterr())) as pool:
        list(pool.map(compute, range(len(m_arr))))

    return AllanCurve(
        m=m_arr, t=m_arr * series.t0, adev=adev,
        ci=adev / np.sqrt(n_terms), n_terms=n_terms,
        n_samples=n, t0=series.t0, origin=series.origin,
    )


def even_odd_split(series: DelaySeries) -> tuple[DelaySeries, DelaySeries, DelaySeries]:
    """Split into even-index and odd-index sub-series and their difference.

    Index 0 is "even"; diff_k = even_k - odd_k, truncated to the shorter
    length.  All three series sample at 2 * t0.
    """
    if len(series) < 4:
        raise ParameterError("need at least 4 samples to split even/odd")
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
                     rate_total: float, spectrum: Spectrum, geometry: GyroGeometry,
                     serrodyne_rate_override: float | None) -> dict:
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
            "serrodyne_rate_hz_override": serrodyne_rate_override,
        },
    }

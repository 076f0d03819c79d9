"""Two-stage sensor calibration.

Stage one fits the bright-source fringe of each output channel with a sine
and combines the per-channel inflection voltages into the delay-per-volt
constant.  Stage two fits the normalized count contrast against the applied
delay with a weighted straight line, which is then inverted to turn photon
counts into delay estimates.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError
from .model import ModulatorMap, Spectrum, click_probabilities

__all__ = [
    "FringeParams",
    "FringeFit",
    "LinearCalibration",
    "ContrastPoint",
    "CalibrationSet",
    "fit_fringe",
    "combine_inflection",
    "normalize_count_arrays",
    "contrast_points_from_scan",
    "fit_linear_calibration",
    "delay_from_contrast",
    "DelayFlags",
    "estimate_delays",
    "ideal_linear_calibration",
]

_GN_MAX_ITER = 200
_GN_REL_TOL = 1e-10

# fs per second; the contrast slope K1 is carried in 1/fs as in the
# calibration table, all delays elsewhere are SI seconds.
_FS = 1e15

# Fractional window expansion tolerated before an estimate is flagged
# as extrapolating beyond the calibrated region.
_WINDOW_SLACK = 0.10

# Bins per block of estimate_delays
_BLOCK_ROWS = 16384
# The fewest data each fit takes
MIN_SCAN_POINTS = 8  # bright-scan points of a fringe fit
MIN_SCAN_HALF_PERIODS = 1  # fringe half-periods (w volts each) a fringe fit's scan spans
MIN_REPEATS = 2  # non-degenerate repeats of a step, for its std (ddof = 1)
MIN_STEPS = 3  # usable steps of the contrast line fit
# The flag of a delay estimate, by the code estimate_delays gives it
DELAY_FLAGS = ("ok", "degenerate", "window")
OK_CODE = DELAY_FLAGS.index("ok")
DEGENERATE_CODE = DELAY_FLAGS.index("degenerate")
WINDOW_CODE = DELAY_FLAGS.index("window")


class DelayFlags(Sequence):
    """The flag of each bin, held as one read-only uint8 code per bin (its
    label's index in DELAY_FLAGS) and read as the label.

    A slice is a DelayFlags; ``count(label)`` counts the codes, and the
    sequence equals a list of the same labels or a DelayFlags of the same codes.
    """

    __slots__ = ("codes",)

    def __init__(self, codes):
        codes = np.asarray(codes, dtype=np.uint8).view()  # the caller's array stays writable
        if codes.ndim != 1 or np.any(codes >= len(DELAY_FLAGS)):
            raise ParameterError(f"flag codes must be a 1-D array of indices into "
                                 f"{DELAY_FLAGS}")
        codes.flags.writeable = False
        self.codes = codes

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return DelayFlags(self.codes[index])
        return DELAY_FLAGS[self.codes[index]]

    def __iter__(self):
        return map(DELAY_FLAGS.__getitem__, self.codes.tolist())

    def count(self, label) -> int:
        if label not in DELAY_FLAGS:
            return 0
        return int(np.count_nonzero(self.codes == DELAY_FLAGS.index(label)))

    def __eq__(self, other):
        if isinstance(other, DelayFlags):
            return bool(np.array_equal(self.codes, other.codes))
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"DelayFlags({', '.join(f'{f}={self.count(f)}' for f in DELAY_FLAGS)})"


@dataclass(frozen=True)
class FringeParams:
    """Sine fringe model f(V) = f0 + a * sin(pi (V - v0i) / w)."""

    f0: float
    a: float
    w: float
    v0i: float

    def evaluate(self, v0):
        v0 = np.asarray(v0, dtype=np.float64)
        return self.f0 + self.a * np.sin(np.pi * (v0 - self.v0i) / self.w)


@dataclass(frozen=True)
class FringeFit(FringeParams):
    """Converged fringe fit: the fringe, its 1-sigma errors and residual stats."""

    f0_err: float
    a_err: float
    w_err: float
    v0i_err: float
    chi2: float
    dof: int
    n_iterations: int

    def __post_init__(self):
        if not (self.a > 0 and self.w > 0):
            raise ParameterError("fringe fit requires a > 0 and w > 0")


@dataclass(frozen=True)
class LinearCalibration:
    """Contrast-vs-delay line dX = k1 * tau + k2 with tau in femtoseconds.

    k1 is in 1/fs, k2 dimensionless; ``covariance`` is the 2x2 (k1, k2)
    covariance in the same units.  ``tau_window`` (s) is the delay range
    covered by the calibration points; ``window_volt`` the voltage range
    that produced them, when known.  Each range is (lowest, highest), the
    first entry below the second.
    """

    k1: float
    k2: float
    covariance: tuple[tuple[float, float], tuple[float, float]]
    tau_window: tuple[float, float] | None = None
    window_volt: tuple[float, float] | None = None
    chi2: float = 0.0
    dof: int = 0

    def __post_init__(self):
        if self.k1 == 0.0:
            raise ParameterError("k1 must be nonzero")
        (var_k1, cov_12), (cov_21, var_k2) = self.covariance
        if not (0.0 <= var_k1 < math.inf and 0.0 <= var_k2 < math.inf
                and -math.inf < cov_12 < math.inf and cov_12 == cov_21):
            raise ParameterError("covariance must be symmetric and finite with a "
                                 f"non-negative diagonal, got {self.covariance}")
        for name in ("tau_window", "window_volt"):
            window = getattr(self, name)
            if window is not None and not window[0] < window[1]:
                raise ParameterError(f"{name} must have its first entry below its second, "
                                     f"got {window}")


@dataclass(frozen=True)
class ContrastPoint:
    """Normalized per-bin contrast dx = (c1 - c2) / (c1 + c2) and its error.

    ``tau`` is the applied delay; ``degenerate`` marks bins whose
    dark-corrected counts carry no usable contrast.
    """

    dx: float
    dx_err: float
    tau: float
    degenerate: bool = False

    def __post_init__(self):
        if not self.degenerate and not -1.0 <= self.dx <= 1.0:
            raise ParameterError(f"dx must lie in [-1, 1], got {self.dx}")


@dataclass
class CalibrationSet:
    """The calibration's results, each stated once, for serialization: the
    fringe fit per channel, their combined V0i +- err in V (alpha follows by
    ``ModulatorMap.from_inflection``), stage two's line and the dark rates
    (Hz) it corrects for.  Estimation reads only linear and dark_rates."""

    fringe_fits: dict[str, FringeFit]
    v0i: float
    v0i_err: float
    linear: LinearCalibration
    dark_rates: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not all(0.0 <= rate < math.inf for rate in self.dark_rates):
            raise ParameterError(f"dark_rates must be finite and non-negative, "
                                 f"got {self.dark_rates}")


# ---------------------------------------------------------------------------
# stage one: bright fringe fit
# ---------------------------------------------------------------------------

def _fringe_jacobian(v: np.ndarray, p: np.ndarray) -> np.ndarray:
    _, a, w, v0i = p
    arg = np.pi * (v - v0i) / w
    cos = np.cos(arg)
    return np.column_stack([
        np.ones_like(v),
        np.sin(arg),
        -a * cos * arg / w,
        -a * cos * np.pi / w,
    ])


def _initial_guess(v: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Deterministic starting point for the fringe fit.

    f0 from the mean, amplitude from the peak-to-peak range, the half-period
    from the dominant discrete-spectrum component of the mean-subtracted
    scan, and v0i from the positive-going zero crossing nearest the scan
    center (a negative-going crossing shifted by w when none exists).
    """
    f0 = float(np.mean(y))
    a = float(y.max() - y.min()) / 2.0
    centered = y - f0
    n = len(v)
    span = float(v[-1] - v[0])
    amplitudes = np.abs(np.fft.rfft(centered))
    k_dom = 1 + int(np.argmax(amplitudes[1:]))
    period = span * (n / (n - 1)) / k_dom
    w = period / 2.0

    center = 0.5 * (v[0] + v[-1])
    lo, hi = centered[:-1], centered[1:]
    frac = np.divide(-lo, hi - lo, out=np.full(n - 1, np.nan), where=lo != hi)
    crossing = v[:-1] + frac * np.diff(v)
    crosses = (frac >= 0.0) & (frac <= 1.0)
    up, down = crossing[crosses & (lo < hi)], crossing[crosses & (lo > hi)]
    if len(up):
        v0i = up[np.argmin(np.abs(up - center))]
    elif len(down):
        v0i = down[np.argmin(np.abs(down - center))] - w
    else:
        v0i = center
    return np.array([f0, a, w, v0i])


def _canonicalize(p: np.ndarray, v_lo: float, v_hi: float) -> np.ndarray:
    """Reduce the sine's parameter degeneracies: a > 0, v0i near the scan."""
    f0, a, w, v0i = p
    if w < 0:  # sin is odd: (a, w) and (-a, -w) give the same fringe
        a, w = -a, -w
    if a < 0:
        a = -a
        v0i = v0i + w
    while v0i > v_hi + w:
        v0i -= 2.0 * w
    while v0i < v_lo - w:
        v0i += 2.0 * w
    return np.array([f0, a, w, v0i])


def fit_fringe(scan, sigma_power: float) -> FringeFit:
    """Fit f0 + a sin(pi (V - v0i) / w) to a bright scan by damped Gauss-Newton.

    ``scan`` is a sequence of (voltage, power) pairs, e.g. an (N, 2) array;
    ``sigma_power`` the measurement noise of every point (W), one positive
    number.  Convergence requires the relative parameter change to drop
    below 1e-10 within 200 iterations.  Parameter errors come from the
    covariance (J^T W J)^-1 at the optimum with sigma taken as exact.
    """
    arr = np.asarray(scan, dtype=np.float64)
    if len(arr) < MIN_SCAN_POINTS:
        raise ParameterError(f"need at least {MIN_SCAN_POINTS} scan points, got {len(arr)}")
    if not sigma_power > 0:
        raise ParameterError(f"sigma_power must be positive, got {sigma_power!r}")
    v, y = arr[np.argsort(arr[:, 0])].T
    weight = 1.0 / np.float64(sigma_power)  # numpy's divide: an overflow raises, not inf

    p = _initial_guess(v, y)
    for iterations in range(1, _GN_MAX_ITER + 1):
        residual = (y - FringeParams(*p).evaluate(v)) * weight
        jac = _fringe_jacobian(v, p) * weight
        try:
            step, *_ = np.linalg.lstsq(jac, residual, rcond=None)
        except np.linalg.LinAlgError as exc:
            raise DataError(f"fringe fit step failed: {exc}") from exc
        cost = residual @ residual
        damping = 1.0
        while damping >= 1e-12:
            p_try = p + damping * step
            r_try = (y - FringeParams(*p_try).evaluate(v)) * weight
            if r_try @ r_try <= cost * (1.0 + 1e-15):
                break
            damping *= 0.5
        else:
            raise DataError("fringe fit line search stalled")
        rel_change = float(np.max(np.abs(damping * step) /
                                  np.maximum(np.abs(p_try), 1e-30)))
        p = p_try
        if rel_change < _GN_REL_TOL:
            break
    else:
        raise DataError(
            f"fringe fit did not converge in {_GN_MAX_ITER} iterations "
            f"(last relative step {rel_change:.2e})")

    p = _canonicalize(p, float(v[0]), float(v[-1]))
    span = float(v[-1] - v[0])
    if span < MIN_SCAN_HALF_PERIODS * p[2]:
        raise ParameterError(
            f"scan span {span:.3g} V covers less than half a fringe period "
            f"(w = {p[2]:.3g} V); fit is unconstrained"
        )
    jac = _fringe_jacobian(v, p) * weight
    try:
        cov = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError as exc:
        raise DataError("singular fringe-fit covariance") from exc
    residual = (y - FringeParams(*p).evaluate(v)) * weight
    errors = np.sqrt(np.diag(cov))
    return FringeFit(*p.tolist(), *errors.tolist(), chi2=float(residual @ residual),
                     dof=len(v) - 4, n_iterations=iterations)


def combine_inflection(estimates) -> tuple[float, float]:
    """Inverse-variance weighted mean of (v0i, err) pairs.

    Returns (mean, err) with err = (sum 1/sigma_i^2)^(-1/2).
    """
    pairs = list(estimates)
    if not pairs:
        raise ParameterError("need at least one inflection estimate")
    values = np.array([p[0] for p in pairs], dtype=np.float64)
    errs = np.array([p[1] for p in pairs], dtype=np.float64)
    if not np.all(errs > 0):
        raise ParameterError("all inflection error bars must be positive")
    weights = 1.0 / errs**2
    total = weights.sum()
    return float((weights * values).sum() / total), float(1.0 / math.sqrt(total))


# ---------------------------------------------------------------------------
# stage two: contrast normalization and linear calibration
# ---------------------------------------------------------------------------

def normalize_count_arrays(c1, c2, dark: tuple[float, float], integration: float):
    """Dark-correct count arrays, c' = max(c - dark * T, 0), and normalize.

    dx = (c1' - c2') / (c1' + c2') and dx_err = sqrt(4 c1' c2' /
    (c1' + c2')^3) by Poisson propagation.  Returns (dx, dx_err,
    degenerate_mask); bins with an empty corrected channel are degenerate
    and nan.
    """
    if not integration > 0:
        raise ParameterError(f"integration must be positive, got {integration}")
    c1p = np.maximum(np.asarray(c1, dtype=np.float64) - dark[0] * integration, 0.0)
    c2p = np.maximum(np.asarray(c2, dtype=np.float64) - dark[1] * integration, 0.0)
    degenerate = (c1p <= 0.0) | (c2p <= 0.0)
    total = np.where(degenerate, 1.0, c1p + c2p)
    dx = np.where(degenerate, np.nan, (c1p - c2p) / total)
    # the cube as products: numpy's ** 3 gives other last bits at other SIMD levels
    cube = total * total * total
    dx_err = np.where(degenerate, np.nan, np.sqrt(4.0 * c1p * c2p / cube))
    return dx, dx_err, degenerate


def contrast_points_from_scan(scan, modulator: ModulatorMap,
                              dark: tuple[float, float]) -> list[ContrastPoint]:
    """Per-step contrast points from a stepped calibration scan.

    A step's delay is alpha * v0 under ``modulator``.  Every bin is normalized
    on its own; a step's contrast is the mean of its n non-degenerate repeats
    and its error the mean's standard error, std(ddof=1) / sqrt(n).  Steps with
    fewer than MIN_REPEATS non-degenerate repeats come back flagged degenerate.
    """
    counts = scan.counts
    dx, _, degenerate = normalize_count_arrays(counts.c1, counts.c2, dark,
                                               counts.integration_time)
    steps = (len(scan.v0), scan.repeats)
    points = []
    for tau, dx_step, degenerate_step in zip((modulator.alpha * scan.v0).tolist(),
                                             dx.reshape(steps), degenerate.reshape(steps)):
        dx_good = dx_step[~degenerate_step]
        n_good = len(dx_good)
        if n_good < MIN_REPEATS:
            points.append(ContrastPoint(dx=math.nan, dx_err=math.nan, tau=tau,
                                        degenerate=True))
            continue
        err = float(np.std(dx_good, ddof=1)) / math.sqrt(n_good)
        points.append(ContrastPoint(dx=float(np.mean(dx_good)), dx_err=err, tau=tau))
    return points


def fit_linear_calibration(points, window_volt: tuple[float, float] | None = None
                           ) -> LinearCalibration:
    """Weighted linear least squares of dX against tau (closed form).

    Degenerate points are skipped; at least MIN_STEPS usable points with
    positive errors are required, else DataError.  The covariance of
    (k1, k2) comes from the normal equations with the supplied errors taken
    as exact.
    """
    usable = [p for p in points if not p.degenerate]
    if len(usable) < MIN_STEPS:
        raise DataError(f"need at least {MIN_STEPS} usable calibration steps, got {len(usable)}")
    tau = np.array([p.tau for p in usable], dtype=np.float64)
    dx = np.array([p.dx for p in usable], dtype=np.float64)
    err = np.array([p.dx_err for p in usable], dtype=np.float64)
    if not np.all(err > 0):
        raise DataError("all dx_err must be positive")

    x = tau * _FS  # delays in fs keep the normal equations well scaled
    w = 1.0 / err**2
    s_w = w.sum()
    s_x = (w * x).sum()
    s_y = (w * dx).sum()
    s_xx = (w * x * x).sum()
    s_xy = (w * x * dx).sum()
    delta = s_w * s_xx - s_x**2
    scale = s_w * s_xx
    if not delta > 1e-12 * scale:
        raise DataError("degenerate calibration design (collinear delays)")
    k1 = (s_w * s_xy - s_x * s_y) / delta
    k2 = (s_xx * s_y - s_x * s_xy) / delta
    var_k1 = s_w / delta
    var_k2 = s_xx / delta
    cov_k1k2 = -s_x / delta
    resid = dx - (k1 * x + k2)
    chi2 = float((w * resid**2).sum())
    return LinearCalibration(
        k1=float(k1), k2=float(k2),
        covariance=((float(var_k1), float(cov_k1k2)),
                    (float(cov_k1k2), float(var_k2))),
        tau_window=(float(tau.min()), float(tau.max())),
        window_volt=window_volt,
        chi2=chi2, dof=len(usable) - 2,
    )


def delay_from_contrast(dx, dx_err, calib: LinearCalibration):
    """Invert the calibration line elementwise: tau = (dx - k2) / k1, in seconds.

    The uncertainty propagates dx_err through 1/k1 and the (k1, k2)
    covariance; a calibration with zero covariance gives the statistical
    error alone (appropriate for relative series sharing one calibration).
    Returns (tau, sigma_tau, outside), where ``outside`` marks estimates
    beyond the calibrated delay window stretched by 10% of its span; they
    are flagged rather than rejected.
    """
    tau_fs = (dx - calib.k2) / calib.k1
    (v11, v12), (_, v22) = calib.covariance
    var_fs2 = (dx_err / calib.k1) ** 2 + (tau_fs / calib.k1) ** 2 * v11 \
        + v22 / calib.k1**2 + 2.0 * tau_fs * v12 / calib.k1**2
    tau = tau_fs / _FS
    sigma = np.sqrt(np.maximum(var_fs2, 0.0)) / _FS
    outside = np.zeros(np.shape(tau), dtype=bool)
    if calib.tau_window is not None:
        lo, hi = calib.tau_window
        slack = _WINDOW_SLACK * (hi - lo)
        outside = (tau < lo - slack) | (tau > hi + slack)
    return tau, sigma, outside


def estimate_delays(counts, calset: "CalibrationSet", out=None):
    """Convert a count series into per-bin delay estimates.

    ``counts`` needs ``c1``, ``c2`` and ``integration_time`` attributes.
    Returns (tau, sigma_tau, flags): seconds, seconds, and a DelayFlags of
    one "ok" / "degenerate" / "window" per bin.  Degenerate bins come back nan
    and flagged degenerate, never window.  The bins are worked _BLOCK_ROWS
    at a time, so the temporaries of normalize_count_arrays and
    delay_from_contrast stay block-sized; their arithmetic is elementwise,
    so the bits are those of one call on the whole series.

    ``out``, a (tau, sigma_tau) pair of float64 arrays of one entry per bin,
    takes the results instead of new arrays.  Each may share memory with
    c1 or c2 bin for bin, as float64 views of the counts do: a block's
    counts are read before its results are written over them.
    """
    c1, c2 = np.asarray(counts.c1), np.asarray(counts.c2)
    n = len(c1)
    tau, sigma = (np.empty(n), np.empty(n)) if out is None else out
    code = np.empty(n, np.uint8)  # index into DELAY_FLAGS
    for lo in range(0, n, _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        dx, dx_err, degenerate = normalize_count_arrays(
            c1[block], c2[block], calset.dark_rates, counts.integration_time)
        tau[block], sigma[block], outside = delay_from_contrast(dx, dx_err, calset.linear)
        code[block] = np.where(degenerate, DEGENERATE_CODE,
                               np.where(outside, WINDOW_CODE, OK_CODE))
    return tau, sigma, DelayFlags(code)


def ideal_linear_calibration(spectrum: Spectrum, tau0: float) -> LinearCalibration:
    """Noise-free calibration from the measurement model, linearized at tau0.

    Useful as the "perfect calibration" reference in simulations: k1 is the
    exact contrast slope d(dX)/d(tau) at the operating delay and k2 absorbs
    the local offset, with zero covariance and no delay window.
    """
    p1, p2 = click_probabilities(tau0, spectrum)
    envelope = math.exp(-0.5 * (spectrum.sigma_omega * tau0) ** 2)
    slope = envelope * (spectrum.sigma_omega**2 * tau0 * math.cos(spectrum.omega0 * tau0)
                        + spectrum.omega0 * math.sin(spectrum.omega0 * tau0))
    k1 = slope / _FS
    k2 = (p1 - p2) - k1 * (tau0 * _FS)
    return LinearCalibration(k1=k1, k2=k2, covariance=((0.0, 0.0), (0.0, 0.0)))

"""Two-stage sensor calibration.

Stage one fits the bright-source fringe of each output channel with a sine
and combines the per-channel inflection voltages into the delay-per-volt
constant.  Stage two fits the normalized count contrast against the applied
delay with a weighted straight line, which is then inverted to turn photon
counts into delay estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FitError, ParameterError
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
    "estimate_delays",
    "ideal_linear_calibration",
]

# A calibration step's contrast error: the standard error of the repeat mean,
# or the bare standard deviation of the repeats.
ERROR_MODES = ("sem", "std")

_GN_MAX_ITER = 200
_GN_REL_TOL = 1e-10

# fs per second; the contrast slope K1 is carried in 1/fs as in the
# calibration table, all delays elsewhere are SI seconds.
_FS = 1e15

# Fractional window expansion tolerated before an estimate is flagged
# as extrapolating beyond the calibrated region.
_WINDOW_SLACK = 0.10


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
class FringeFit:
    """Converged fringe fit: parameters, 1-sigma errors and residual stats."""

    f0: float
    a: float
    w: float
    v0i: float
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
    that produced them, when known.
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


@dataclass(frozen=True)
class ContrastPoint:
    """Normalized per-bin contrast dx = (c1 - c2) / (c1 + c2) and its error.

    ``tau`` is the applied delay when known (nan otherwise); ``degenerate``
    marks bins whose dark-corrected counts carry no usable contrast.
    """

    dx: float
    dx_err: float
    tau: float = math.nan
    degenerate: bool = False

    def __post_init__(self):
        if not self.degenerate and not -1.0 <= self.dx <= 1.0:
            raise ParameterError(f"dx must lie in [-1, 1], got {self.dx}")


@dataclass
class CalibrationSet:
    """Everything the estimation stage needs, bundled for serialization."""

    fringe_fits: dict[str, FringeFit]
    v0i: float
    v0i_err: float
    modulator: ModulatorMap
    linear: LinearCalibration
    dark_rates: tuple[float, float] = (0.0, 0.0)
    extras: dict = field(default_factory=dict)


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
    up, down = [], []
    for i in range(n - 1):
        if centered[i] == centered[i + 1]:
            continue
        frac = -centered[i] / (centered[i + 1] - centered[i])
        if 0.0 <= frac <= 1.0:
            crossing = v[i] + frac * (v[i + 1] - v[i])
            (up if centered[i] < centered[i + 1] else down).append(crossing)
    if up:
        v0i = min(up, key=lambda z: abs(z - center))
    elif down:
        v0i = min(down, key=lambda z: abs(z - center)) - w
    else:
        v0i = center
    return np.array([f0, a, w, v0i])


def _canonicalize(p: np.ndarray, v_lo: float, v_hi: float) -> np.ndarray:
    """Reduce the sine's parameter degeneracies: a > 0, v0i near the scan."""
    f0, a, w, v0i = p
    w = abs(w)
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
    ``sigma_power`` the per-point measurement noise (W), scalar or array.
    Convergence requires the relative parameter change to drop below 1e-10
    within 200 iterations.  Parameter errors come from the covariance
    (J^T W J)^-1 at the optimum with the supplied sigma taken as exact.
    """
    arr = np.asarray(scan, dtype=np.float64)
    v, y = arr[:, 0], arr[:, 1]
    if len(v) < 8:
        raise ParameterError(f"need at least 8 scan points, got {len(v)}")
    sigma = np.broadcast_to(np.asarray(sigma_power, dtype=np.float64), v.shape)
    if not np.all(sigma > 0):
        raise ParameterError("sigma_power must be positive")
    order = np.argsort(v)
    v, y, sigma = v[order], y[order], sigma[order]
    weights = 1.0 / sigma

    p = _initial_guess(v, y)
    converged = False
    rel_change = math.inf
    iterations = 0
    for iterations in range(1, _GN_MAX_ITER + 1):
        residual = (y - FringeParams(*p).evaluate(v)) * weights
        jac = _fringe_jacobian(v, p) * weights[:, None]
        try:
            step, *_ = np.linalg.lstsq(jac, residual, rcond=None)
        except np.linalg.LinAlgError as exc:
            raise FitError(f"fringe fit step failed: {exc}") from exc
        cost = residual @ residual
        damping = 1.0
        while damping >= 1e-12:
            p_try = p + damping * step
            r_try = (y - FringeParams(*p_try).evaluate(v)) * weights
            if r_try @ r_try <= cost * (1.0 + 1e-15):
                break
            damping *= 0.5
        else:
            raise FitError("fringe fit line search stalled")
        rel_change = float(np.max(np.abs(damping * step) /
                                  np.maximum(np.abs(p_try), 1e-30)))
        p = p_try
        if rel_change < _GN_REL_TOL:
            converged = True
            break
    if not converged:
        raise FitError(
            f"fringe fit did not converge in {_GN_MAX_ITER} iterations "
            f"(last relative step {rel_change:.2e})")

    p = _canonicalize(p, float(v[0]), float(v[-1]))
    span = float(v[-1] - v[0])
    if span < p[2]:
        raise ParameterError(
            f"scan span {span:.3g} V covers less than half a fringe period "
            f"(w = {p[2]:.3g} V); fit is unconstrained"
        )
    jac = _fringe_jacobian(v, p) * weights[:, None]
    try:
        cov = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError as exc:
        raise FitError("singular fringe-fit covariance") from exc
    residual = (y - FringeParams(*p).evaluate(v)) * weights
    errors = np.sqrt(np.diag(cov))
    return FringeFit(
        f0=float(p[0]), a=float(p[1]), w=float(p[2]), v0i=float(p[3]),
        f0_err=float(errors[0]), a_err=float(errors[1]),
        w_err=float(errors[2]), v0i_err=float(errors[3]),
        chi2=float(residual @ residual), dof=len(v) - 4,
        n_iterations=iterations,
    )


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
    dx_err = np.where(degenerate, np.nan, np.sqrt(4.0 * c1p * c2p / total**3))
    return dx, dx_err, degenerate


def contrast_points_from_scan(scan, dark: tuple[float, float],
                              error_mode: str = "sem") -> list[ContrastPoint]:
    """Per-step contrast points from a stepped calibration scan.

    Every bin is normalized on its own; a step's contrast is the mean over
    its repeats and its error the standard deviation of the repeats divided
    by sqrt(n) (``error_mode="sem"``, default) or the bare standard
    deviation (``error_mode="std"``).  Steps with fewer than two
    non-degenerate repeats come back flagged degenerate.
    """
    if error_mode not in ERROR_MODES:
        raise ParameterError(f"error_mode must be one of {ERROR_MODES}, got {error_mode!r}")
    counts = scan.counts
    dx, _, degenerate = normalize_count_arrays(counts.c1, counts.c2, dark,
                                               counts.integration_time)
    steps = (len(scan.v0), scan.repeats)
    points = []
    for tau, dx_step, degenerate_step in zip(scan.tau_set.tolist(), dx.reshape(steps),
                                             degenerate.reshape(steps)):
        dx_good = dx_step[~degenerate_step]
        n_good = len(dx_good)
        if n_good < 2:
            points.append(ContrastPoint(dx=math.nan, dx_err=math.nan, tau=tau,
                                        degenerate=True))
            continue
        spread = float(np.std(dx_good, ddof=1))
        err = spread / math.sqrt(n_good) if error_mode == "sem" else spread
        points.append(ContrastPoint(dx=float(np.mean(dx_good)), dx_err=err, tau=tau))
    return points


def fit_linear_calibration(points, window_volt: tuple[float, float] | None = None
                           ) -> LinearCalibration:
    """Weighted linear least squares of dX against tau (closed form).

    Degenerate points are skipped; at least three usable points with
    positive errors are required, else FitError.  The covariance of
    (k1, k2) comes from the normal equations with the supplied errors taken
    as exact.
    """
    usable = [p for p in points if not p.degenerate]
    if len(usable) < 3:
        raise FitError(f"need at least 3 usable calibration points, got {len(usable)}")
    tau = np.array([p.tau for p in usable], dtype=np.float64)
    dx = np.array([p.dx for p in usable], dtype=np.float64)
    err = np.array([p.dx_err for p in usable], dtype=np.float64)
    if not np.all(np.isfinite(tau)):
        raise FitError("all calibration points must have tau set")
    if not np.all(err > 0):
        raise FitError("all dx_err must be positive")

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
        raise FitError("degenerate calibration design (collinear delays)")
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


def estimate_delays(counts, calset: "CalibrationSet"):
    """Convert a count series into per-bin delay estimates.

    ``counts`` needs ``c1``, ``c2`` and ``integration_time`` attributes.
    Returns (tau, sigma_tau, flags): seconds, seconds, and a list with one
    of "ok" / "degenerate" / "window" per bin.  Degenerate bins come back nan.
    """
    dx, dx_err, degenerate = normalize_count_arrays(
        counts.c1, counts.c2, calset.dark_rates, counts.integration_time)
    tau, sigma, outside = delay_from_contrast(dx, dx_err, calset.linear)
    flags = np.full(len(tau), "ok", dtype=object)
    flags[outside & ~degenerate] = "window"
    flags[degenerate] = "degenerate"
    return tau, sigma, flags.tolist()


def ideal_linear_calibration(spectrum: Spectrum, tau0: float,
                             window_volt: tuple[float, float] | None = None
                             ) -> LinearCalibration:
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
    return LinearCalibration(k1=k1, k2=k2,
                             covariance=((0.0, 0.0), (0.0, 0.0)),
                             tau_window=None, window_volt=window_volt)

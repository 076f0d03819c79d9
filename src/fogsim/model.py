"""Closed-form single-photon measurement model.

Click probabilities of the two interferometer outputs as a function of the
inter-path delay, the Fisher information they carry about that delay, and
the modulator voltage-to-delay map.
All functions are pure and accept scalars or numpy arrays for the delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_VACUUM
from .errors import OracleAccuracyError, ParameterError

__all__ = [
    "Spectrum",
    "ModulatorMap",
    "click_probabilities",
    "fisher_information",
    "fisher_information_numeric",
]

# |omega0*tau| and sigma*tau below which the Fisher formula is replaced by
# its analytic tau -> 0 limit (the raw expression is 0/0 there and loses all
# precision to cancellation well before that).
_FISHER_LIMIT_THRESHOLD = 1e-6

# Probability floor used only inside the numeric oracle's divisions.
_PROB_FLOOR = 1e-30


@dataclass(frozen=True)
class Spectrum:
    """Gaussian photon spectrum.

    lambda0: center wavelength, m.
    sigma_omega: 1-sigma linewidth of the spectral density, rad/s.
    """

    lambda0: float
    sigma_omega: float

    def __post_init__(self):
        if not self.lambda0 > 0.0:
            raise ParameterError(f"lambda0 must be positive, got {self.lambda0}")
        if not math.isfinite(self.omega0 * self.omega0):
            raise ParameterError(f"lambda0 = {self.lambda0!r} gives an omega0 whose square "
                                 "overflows")
        if not (self.sigma_omega > 0.0 and math.isfinite(self.sigma_omega)):
            raise ParameterError(f"sigma_omega must be positive and finite, got {self.sigma_omega}")
        if not self.sigma_omega < self.omega0:
            raise ParameterError("sigma_omega must be smaller than omega0")

    @property
    def omega0(self) -> float:
        """Center angular frequency 2*pi*c/lambda0, rad/s."""
        return 2.0 * math.pi * C_VACUUM / self.lambda0

    @property
    def quarter_wave_delay(self) -> float:
        """Delay giving a pi/2 dephasing at omega0: lambda0 / (4 c)."""
        return self.lambda0 / (4.0 * C_VACUUM)


@dataclass(frozen=True)
class ModulatorMap:
    """Linear map from serrodyne peak-peak voltage to inter-path delay.

    alpha: delay per volt, s/V; v0i: inflection voltage (pi/2 point), V;
    alpha_err: 1-sigma uncertainty on alpha, s/V.
    """

    alpha: float
    v0i: float
    alpha_err: float = 0.0

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ParameterError(f"alpha must be positive, got {self.alpha}")
        if not self.v0i > 0.0:
            raise ParameterError(f"v0i must be positive, got {self.v0i}")
        if self.alpha_err < 0.0:
            raise ParameterError(f"alpha_err must be non-negative, got {self.alpha_err}")

    @classmethod
    def from_inflection(cls, v0i: float, v0i_err: float, spectrum: Spectrum) -> "ModulatorMap":
        """Map implied by an inflection voltage: alpha = (lambda0/4c) / v0i."""
        if not v0i > 0.0:
            raise ParameterError(f"v0i must be positive, got {v0i}")
        alpha = spectrum.quarter_wave_delay / v0i
        return cls(alpha=alpha, v0i=v0i, alpha_err=alpha * v0i_err / v0i)


def click_probabilities(tau, spectrum: Spectrum):
    """Click probabilities (p1, p2) of the two outputs at inter-path delay tau.

    p2 = (1 + exp(-sigma^2 tau^2 / 2) cos(omega0 tau)) / 2 carries the "+"
    fringe, p1 the "-" fringe; p1 + p2 = 1 for every tau.
    """
    tau_arr = np.asarray(tau, dtype=np.float64)
    envelope = np.exp(-0.5 * (spectrum.sigma_omega * tau_arr) ** 2)
    fringe = envelope * np.cos(spectrum.omega0 * tau_arr)
    p1 = 0.5 * (1.0 - fringe)
    p2 = 0.5 * (1.0 + fringe)
    if np.isscalar(tau):
        return float(p1), float(p2)
    return p1, p2


def fisher_information(tau, spectrum: Spectrum):
    """Fisher information (s^-2) about the delay carried by one detected photon.

    Evaluates

        F(tau) = exp(-s^2 t^2) (s^2 t cos(w t) + w sin(w t))^2
                 / (1 - exp(-s^2 t^2) cos^2(w t))

    with w = omega0 and s = sigma_omega.  The denominator is computed as
    sin^2(w t) + cos^2(w t) * (1 - exp(-s^2 t^2)) so it never cancels, and
    the removable 0/0 at tau = 0 is replaced by the analytic limit
    omega0^2 + sigma_omega^2 once |omega0 tau| and |sigma_omega tau| drop
    below 1e-6.
    """
    tau_arr = np.asarray(tau, dtype=np.float64)
    w = spectrum.omega0
    s2 = spectrum.sigma_omega**2
    x = s2 * tau_arr**2
    y = w * tau_arr
    sin_y = np.sin(y)
    cos_y = np.cos(y)
    numerator = np.exp(-x) * (s2 * tau_arr * cos_y + w * sin_y) ** 2
    denominator = sin_y**2 + cos_y**2 * (-np.expm1(-x))
    limit = w**2 + s2
    near_zero = (np.abs(y) < _FISHER_LIMIT_THRESHOLD) & (
        np.sqrt(np.abs(x)) < _FISHER_LIMIT_THRESHOLD
    )
    safe = np.where(denominator > 0.0, denominator, 1.0)
    out = np.where(near_zero, limit, numerator / safe)
    if np.isscalar(tau):
        return float(out)
    return out


def fisher_information_numeric(tau, spectrum: Spectrum, step: float = 1e-20):
    """Finite-difference Fisher information, the independent oracle.

    Sums (dP_m/dtau)^2 / P_m over the two outcomes with central differences
    of :func:`click_probabilities`.  Probabilities are floored at 1e-30 in
    the division only.  Because the probabilities are even in tau, a central
    difference at tau = 0 would vanish identically, so |tau| is clamped to
    ``step``; the formula is flat there to O((omega0 step)^2).
    """
    if not step > 0.0:
        raise OracleAccuracyError(f"step must be positive, got {step}")
    if step > 0.01 / spectrum.omega0:
        raise OracleAccuracyError(
            f"step {step} too large versus 1/omega0 = {1.0 / spectrum.omega0:.3e}; "
            "the finite-difference oracle would be dominated by truncation error"
        )
    tau_arr = np.maximum(np.abs(np.asarray(tau, dtype=np.float64)), step)
    p1_plus, p2_plus = click_probabilities(tau_arr + step, spectrum)
    p1_minus, p2_minus = click_probabilities(tau_arr - step, spectrum)
    p1, p2 = click_probabilities(tau_arr, spectrum)
    d1 = (p1_plus - p1_minus) / (2.0 * step)
    d2 = (p2_plus - p2_minus) / (2.0 * step)
    out = d1**2 / np.maximum(p1, _PROB_FLOOR) + d2**2 / np.maximum(p2, _PROB_FLOOR)
    if np.isscalar(tau):
        return float(out)
    return out

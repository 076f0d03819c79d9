"""Closed-form single-photon measurement model.

Click probabilities of the two interferometer outputs as a function of the
inter-path delay, the Fisher information they carry about that delay, and
the modulator voltage-to-delay map.
All functions are pure; a scalar delay gives numpy float64 scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_VACUUM
from .errors import ParameterError

__all__ = [
    "Spectrum",
    "ModulatorMap",
    "click_probabilities",
    "fisher_information",
]

# |omega0*tau| and sigma*tau below which the Fisher formula is replaced by
# its analytic tau -> 0 limit (the raw expression is 0/0 there and loses all
# precision to cancellation well before that).
_FISHER_LIMIT_THRESHOLD = 1e-6


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

    alpha: delay per volt, s/V; alpha_err: 1-sigma uncertainty on alpha, s/V;
    both follow from the inflection voltage V0i, see :meth:`from_inflection`.
    """

    alpha: float
    alpha_err: float = 0.0

    def __post_init__(self):
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ParameterError(f"alpha must be positive and finite, got {self.alpha}")
        if self.alpha_err < 0.0:
            raise ParameterError(f"alpha_err must be non-negative, got {self.alpha_err}")

    @classmethod
    def from_inflection(cls, v0i: float, v0i_err: float, spectrum: Spectrum) -> "ModulatorMap":
        """Map implied by an inflection voltage: alpha = (lambda0/4c) / v0i."""
        if not v0i > 0.0:
            raise ParameterError(f"v0i must be positive, got {v0i}")
        alpha = spectrum.quarter_wave_delay / v0i
        return cls(alpha=alpha, alpha_err=alpha * v0i_err / v0i)


def click_probabilities(tau, spectrum: Spectrum):
    """Click probabilities (p1, p2) of the two outputs at inter-path delay tau.

    p2 = (1 + exp(-sigma^2 tau^2 / 2) cos(omega0 tau)) / 2 carries the "+"
    fringe, p1 the "-" fringe; p1 + p2 = 1 for every tau.  A scalar tau gives
    numpy.float64 scalars.
    """
    tau_arr = np.asarray(tau, dtype=np.float64)
    fringe = (np.exp(np.square(spectrum.sigma_omega * tau_arr) * -0.5)  # the envelope
              * np.cos(spectrum.omega0 * tau_arr))
    return (1.0 - fringe) * 0.5, (fringe + 1.0) * 0.5


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
    return np.where(near_zero, limit, numerator / safe)[()]


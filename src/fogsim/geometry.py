"""Fiber-coil geometry and Sagnac kinematics.

Coil count, enclosed area and serrodyne rate derived from the fiber
parameters, plus the rotation-rate/delay conversions and the area-normalized
figure of merit used to compare delay sensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import C_VACUUM, KM2_PER_M2
from .errors import ParameterError

__all__ = [
    "GyroGeometry",
    "rotation_to_delay",
    "delay_to_rotation",
    "figure_of_merit",
]


@dataclass(frozen=True)
class GyroGeometry:
    """Geometry of a multi-turn fiber coil interferometer.

    fiber_length: m; coil_radius: m; refractive_index: dimensionless.  The
    coil count, total area and serrodyne rate follow from these.
    """

    fiber_length: float
    coil_radius: float
    refractive_index: float

    def __post_init__(self):
        for name in ("fiber_length", "coil_radius", "refractive_index"):
            if not getattr(self, name) > 0:
                raise ParameterError(f"{name} must be positive, got {getattr(self, name)}")
        if not math.isfinite(self.fiber_length / self.coil_radius):
            raise ParameterError("fiber_length / coil_radius must be finite")
        if self.n_coils < 1:
            raise ParameterError("fiber_length shorter than a single coil circumference, "
                                 "2 pi coil_radius")

    @property
    def n_coils(self) -> int:
        """Number of turns, round(L / (2 pi r))."""
        return int(round(self.fiber_length / (2.0 * math.pi * self.coil_radius)))

    @property
    def total_area(self) -> float:
        """Enclosed area of all turns, n_coils * pi * r^2, m^2."""
        return self.n_coils * math.pi * self.coil_radius**2

    @property
    def serrodyne_rate(self) -> float:
        """Sawtooth repetition rate 1 / (2 n L / c), Hz: one ramp per two round trips."""
        return 1.0 / (2.0 * (self.refractive_index * self.fiber_length / C_VACUUM))


def rotation_to_delay(omega: float, total_area: float) -> float:
    """Sagnac delay tau = 4 A Omega / c^2 for rotation rate omega (rad/s).

    Uses vacuum c: the fiber index cancels in the ideal Sagnac delay.
    Odd in omega.
    """
    if not total_area > 0:
        raise ParameterError(f"total_area must be positive, got {total_area}")
    return 4.0 * total_area * omega / C_VACUUM**2


def delay_to_rotation(tau: float, total_area: float) -> float:
    """Exact inverse of :func:`rotation_to_delay`: Omega = tau c^2 / (4 A)."""
    if not total_area > 0:
        raise ParameterError(f"total_area must be positive, got {total_area}")
    return tau * C_VACUUM**2 / (4.0 * total_area)


def figure_of_merit(sigma_tau: float, total_area: float) -> float:
    """Delay detection limit per unit area, s/km^2."""
    if not (sigma_tau > 0 and total_area > 0):
        raise ParameterError("sigma_tau and total_area must be positive")
    return sigma_tau / (total_area * KM2_PER_M2)

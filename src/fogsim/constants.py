"""Physical constants and unit conversions shared across the package."""

import math

# Speed of light in vacuum, m/s (exact).
C_VACUUM = 299_792_458.0

# 1 deg/h expressed in rad/s.
RAD_PER_S_PER_DEG_PER_H = math.pi / (180.0 * 3600.0)

# Earth's rotation rate, rad/s.
EARTH_RATE_RAD_PER_S = 7.292e-5

KM2_PER_M2 = 1e-6


def rad_per_s_to_deg_per_hour(omega_rad_s: float) -> float:
    return omega_rad_s / RAD_PER_S_PER_DEG_PER_H

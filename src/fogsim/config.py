"""Experiment configuration: JSON schema, defaults and validation.

One nested JSON document drives the whole pipeline.  Missing keys fall back
to the default parameter set of the reference instrument (telecom-band,
2 km coil); unknown keys are rejected so typos cannot silently change a
run, and every value must have the JSON type of its default.
``pump_rel_sigma`` defaults to 0.01, a modeling choice: the source's
pump instability is qualitative in origin and only its common-mode
character matters, since count normalization cancels it.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .calibration import ERROR_MODES, FringeParams
from .errors import ConfigError, ParameterError
from .geometry import GyroGeometry
from .model import ModulatorMap, Spectrum
from .simulate import DriftModel, NoiseModel, RunConfig, overnight_drift

__all__ = ["ExperimentConfig", "AnalysisSettings", "BrightSourceSettings",
           "CalibrationProtocol", "default_config_dict", "load_config",
           "config_from_dict", "config_hash"]

SCHEMA_VERSION = 3


def default_config_dict() -> dict:
    """Built-in defaults mirroring the reference instrument parameters."""
    return {
        "schema_version": SCHEMA_VERSION,
        "spectrum": {
            "lambda0_m": 1550e-9,
            "sigma_omega": 0.25e12,
            "sigma_omega_is_angular": True,
        },
        "geometry": {
            "fiber_length_m": 2000.0,
            "coil_radius_m": 0.125,
            "refractive_index": 1.471,
            "serrodyne_rate_override_hz": 54795.0,
        },
        "modulator": {
            "v0i_volt": 3.8596,
        },
        "run": {
            "rate_total_hz": 631.6e3,
            "integration_time_s": 1.0,
            "duration_s": 7200.0,
            "v0_volt": 3.86,
            "seed": 20250808,
        },
        "noise": {
            "dark_rate_1_hz": 25.0,
            "dark_rate_2_hz": 25.0,
            "pump_rel_sigma": 0.01,
            "drift": {
                "preset": "none",
                "linear_s_per_s": 0.0,
                "sine_amplitude_s": 0.0,
                "sine_period_s": 0.0,
                "random_walk_s_per_sqrt_s": 0.0,
            },
        },
        "analysis": {
            "points_per_decade": 29,
        },
        "bright_source": {
            # ch2's scan is noisier by the same 3:1 ratio as the reference
            # instrument's per-channel inflection errors, so the weighted
            # combination reproduces its behavior.
            "power_noise_ch1_w": 1e-9,
            "power_noise_ch2_w": 3e-9,
            "scan_v_min": 0.0,
            "scan_v_max": 16.0,
            "scan_points": 200,
            "ch1": {"f0_w": 482e-9, "a_w": 364e-9, "w_volt": 7.84, "v0i_volt": 3.85},
            "ch2": {"f0_w": 334e-9, "a_w": 327e-9, "w_volt": 7.79, "v0i_volt": 3.93},
        },
        "calibration_protocol": {
            "v_a_volt": 3.6,
            "v_b_volt": 4.4,
            "n_steps": 100,
            "repeats": 10,
            "integration_time_s": 0.1,
            "error_mode": "sem",
        },
    }


# The key whose value is derived from the others when null.
_NULLABLE = {"geometry.serrodyne_rate_override_hz"}

# Keeps the Allan m grid small: at most about 9,000 exponents for a run of
# the 10^9-bin cap.
_MAX_POINTS_PER_DECADE = 1000


def _merge_checked(defaults: dict, override: dict, path: str = "") -> dict:
    """Defaults overlaid with the user document, each value checked against
    the JSON type of its default; unknown keys are fatal."""
    merged = {}
    for key, default_value in defaults.items():
        if key in override:
            merged[key] = _checked(default_value, override[key], path + key)
        else:
            merged[key] = default_value
    unknown = set(override) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(path + k for k in unknown)}")
    return merged


def _checked(default, value, where: str):
    """``value`` if it has the JSON type of ``default``.

    A boolean or string default takes a value of its own type, an integer
    default a JSON integer >= 0, and a float default a finite number, stored
    as float; only the _NULLABLE keys, floats otherwise, take null.
    """
    if isinstance(default, dict):
        if isinstance(value, dict):
            return _merge_checked(default, value, where + ".")
        expected = "an object"
    elif value is None and where in _NULLABLE:
        return None
    elif isinstance(default, (bool, str)):
        if isinstance(value, type(default)):
            return value
        expected = "true or false" if isinstance(default, bool) else "a string"
    elif isinstance(default, int):
        if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
            return value
        expected = "an integer >= 0"
    elif isinstance(value, (int, float)) and not isinstance(value, bool) \
            and abs(value) <= sys.float_info.max:
        return float(value)
    else:
        expected = "a finite number"
    raise ConfigError(f"{where} must be {expected}, got {value!r}")


@dataclass(frozen=True)
class AnalysisSettings:
    points_per_decade: int

    def __post_init__(self):
        if not 1 <= self.points_per_decade <= _MAX_POINTS_PER_DECADE:
            raise ParameterError(f"points_per_decade must lie in [1, {_MAX_POINTS_PER_DECADE}], "
                                 f"got {self.points_per_decade}")


@dataclass(frozen=True)
class BrightSourceSettings:
    power_noise: tuple[float, float]
    scan_v_min: float
    scan_v_max: float
    scan_points: int
    ch1: FringeParams
    ch2: FringeParams

    def __post_init__(self):
        if self.ch1.w == 0 or self.ch2.w == 0:
            raise ParameterError("a bright-source fringe needs w_volt != 0")


@dataclass(frozen=True)
class CalibrationProtocol:
    v_a_volt: float
    v_b_volt: float
    n_steps: int
    repeats: int
    integration_time_s: float
    error_mode: str

    def __post_init__(self):
        if self.error_mode not in ERROR_MODES:
            raise ParameterError(f"error_mode must be one of {ERROR_MODES}, "
                                 f"got {self.error_mode!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration with domain objects already constructed."""

    spectrum: Spectrum
    geometry: GyroGeometry
    serrodyne_rate_override: float | None
    modulator: ModulatorMap
    run: RunConfig
    noise: NoiseModel
    analysis: AnalysisSettings
    bright_source: BrightSourceSettings
    protocol: CalibrationProtocol
    document: dict

    @property
    def hash(self) -> str:
        return config_hash(self.document)


def config_hash(document: dict) -> str:
    """SHA-256 of the canonical JSON rendering of a config document."""
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# drift config key -> DriftModel field
_DRIFT_TERMS = {"linear_s_per_s": "linear", "sine_amplitude_s": "sine_amplitude",
                "sine_period_s": "sine_period", "random_walk_s_per_sqrt_s": "random_walk"}


def _build_drift(node: dict) -> DriftModel:
    """A drift preset, or the four drift terms under preset "custom"."""
    preset = node["preset"]
    if preset == "custom":
        return DriftModel(**{field: node[key] for key, field in _DRIFT_TERMS.items()})
    if preset not in ("none", "overnight"):
        raise ConfigError(f"unknown drift preset {preset!r}")
    nonzero = [key for key in _DRIFT_TERMS if node[key]]
    if nonzero:
        raise ConfigError(f"noise.drift terms {nonzero} apply only with preset "
                          f"'custom', got preset {preset!r}")
    return overnight_drift() if preset == "overnight" else DriftModel()


def _fringe_params(node: dict) -> FringeParams:
    return FringeParams(f0=node["f0_w"], a=node["a_w"], w=node["w_volt"], v0i=node["v0i_volt"])


def config_from_dict(user: dict | None = None) -> ExperimentConfig:
    """Validate a config document (or None for pure defaults) and construct it."""
    document = _merge_checked(default_config_dict(), user or {})
    if document["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {document['schema_version']!r}; "
            f"this build reads version {SCHEMA_VERSION}")

    spec_node = document["spectrum"]
    sigma_omega = spec_node["sigma_omega"]
    if not spec_node["sigma_omega_is_angular"]:
        sigma_omega *= 2.0 * math.pi
    try:
        spectrum = Spectrum.from_wavelength(spec_node["lambda0_m"], sigma_omega)

        geo_node = document["geometry"]
        geometry = GyroGeometry(geo_node["fiber_length_m"], geo_node["coil_radius_m"],
                                geo_node["refractive_index"])

        # The working point only; alpha's uncertainty is measured by calibrate.
        modulator = ModulatorMap.from_inflection(document["modulator"]["v0i_volt"], 0.0,
                                                 spectrum)
        run_node = document["run"]
        run = RunConfig(rate_total=run_node["rate_total_hz"],
                        integration_time=run_node["integration_time_s"],
                        duration=run_node["duration_s"],
                        tau0=modulator.alpha * run_node["v0_volt"], seed=run_node["seed"])

        noise_node = document["noise"]
        noise = NoiseModel(dark_rate_1=noise_node["dark_rate_1_hz"],
                           dark_rate_2=noise_node["dark_rate_2_hz"],
                           pump_rel_sigma=noise_node["pump_rel_sigma"],
                           drift=_build_drift(noise_node["drift"]))
        analysis = AnalysisSettings(document["analysis"]["points_per_decade"])
        bright_node = document["bright_source"]
        bright = BrightSourceSettings(
            power_noise=(bright_node["power_noise_ch1_w"], bright_node["power_noise_ch2_w"]),
            scan_v_min=bright_node["scan_v_min"],
            scan_v_max=bright_node["scan_v_max"],
            scan_points=bright_node["scan_points"],
            ch1=_fringe_params(bright_node["ch1"]),
            ch2=_fringe_params(bright_node["ch2"]),
        )
        protocol = CalibrationProtocol(**document["calibration_protocol"])
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc

    return ExperimentConfig(
        spectrum=spectrum,
        geometry=geometry,
        serrodyne_rate_override=geo_node["serrodyne_rate_override_hz"],
        modulator=modulator,
        run=run,
        noise=noise,
        analysis=analysis,
        bright_source=bright,
        protocol=protocol,
        document=document,
    )


def load_config(path: str | Path | None) -> ExperimentConfig:
    """Load and validate a JSON config file; None gives the defaults."""
    if path is None:
        return config_from_dict(None)
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        user = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError(f"config {path} must contain a JSON object")
    return config_from_dict(user)

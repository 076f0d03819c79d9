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
import sys
from dataclasses import dataclass
from pathlib import Path

from .calibration import FringeParams
from .errors import ParameterError
from .geometry import GyroGeometry
from .model import ModulatorMap, Spectrum
from .simulate import (BrightSourceSettings, CalibrationProtocol, DriftModel, NoiseModel,
                       RunConfig, overnight_drift)

__all__ = ["ExperimentConfig", "default_config_dict", "load_config", "config_from_dict"]

SCHEMA_VERSION = 5


def default_config_dict() -> dict:
    """Built-in defaults mirroring the reference instrument parameters."""
    return {
        "schema_version": SCHEMA_VERSION,
        "spectrum": {
            "lambda0_m": 1550e-9,
            "sigma_omega": 0.25e12,
        },
        "geometry": {
            "fiber_length_m": 2000.0,
            "coil_radius_m": 0.125,
            "refractive_index": 1.471,
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
        },
    }


def _checked(default, value, where: str = ""):
    """``value`` if it has the JSON type of ``default``.

    An object default takes an object: each value is checked against its
    default, a missing key takes the default and an unknown key is fatal.  A
    string default takes a string, an integer default a JSON integer >= 0,
    and a float default a finite number, stored as float; no key takes null.
    """
    if isinstance(default, dict):
        if isinstance(value, dict):
            prefix = where + "." if where else ""
            merged = {key: _checked(entry, value[key], prefix + key) if key in value
                      else entry for key, entry in default.items()}
            unknown = set(value) - set(default)
            if unknown:
                raise ParameterError(f"unknown config keys: {sorted(prefix + k for k in unknown)}")
            return merged
        expected = "an object"
    elif isinstance(default, str):
        if isinstance(value, str):
            return value
        expected = "a string"
    elif isinstance(default, int):
        if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
            return value
        expected = "an integer >= 0"
    elif isinstance(value, (int, float)) and not isinstance(value, bool) \
            and abs(value) <= sys.float_info.max:
        return float(value)
    else:
        expected = "a finite number"
    raise ParameterError(f"{where} must be {expected}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration with domain objects already constructed."""

    spectrum: Spectrum
    geometry: GyroGeometry
    modulator: ModulatorMap
    run: RunConfig
    noise: NoiseModel
    bright_source: BrightSourceSettings
    protocol: CalibrationProtocol
    document: dict

    @property
    def hash(self) -> str:
        """SHA-256 of the canonical JSON rendering of the config document."""
        canonical = json.dumps(self.document, sort_keys=True, separators=(",", ":"))
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
        raise ParameterError(f"noise.drift.preset must be 'none', 'overnight' or 'custom', "
                             f"got {preset!r}")
    nonzero = [key for key in _DRIFT_TERMS if node[key]]
    if nonzero:
        raise ParameterError(f"noise.drift terms {nonzero} apply only with preset "
                             f"'custom', got preset {preset!r}")
    return overnight_drift() if preset == "overnight" else DriftModel()


def _fringe_params(node: dict) -> FringeParams:
    return FringeParams(f0=node["f0_w"], a=node["a_w"], w=node["w_volt"], v0i=node["v0i_volt"])


def config_from_dict(user: dict | None = None) -> ExperimentConfig:
    """Validate a config document (or None for pure defaults) and construct it."""
    document = _checked(default_config_dict(), user or {})
    if document["schema_version"] != SCHEMA_VERSION:
        raise ParameterError(
            f"unsupported schema_version {document['schema_version']!r}; "
            f"this build reads version {SCHEMA_VERSION}")

    spec_node = document["spectrum"]
    spectrum = Spectrum(spec_node["lambda0_m"], spec_node["sigma_omega"])

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
    bright_node = document["bright_source"]
    bright = BrightSourceSettings(
        (bright_node["power_noise_ch1_w"], bright_node["power_noise_ch2_w"]),
        bright_node["scan_v_min"], bright_node["scan_v_max"], bright_node["scan_points"],
        _fringe_params(bright_node["ch1"]), _fringe_params(bright_node["ch2"]))
    protocol = CalibrationProtocol(**document["calibration_protocol"])

    return ExperimentConfig(spectrum, geometry, modulator, run, noise, bright, protocol,
                            document)


def load_config(path: str | Path | None) -> ExperimentConfig:
    """Load and validate a JSON config file; None gives the defaults."""
    if path is None:
        return config_from_dict(None)
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from exc
    try:
        user = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # nested too deep
        raise ParameterError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ParameterError(f"config {path} must contain a JSON object")
    return config_from_dict(user)

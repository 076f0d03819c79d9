"""Experiment configuration: JSON schema, defaults and validation.

One nested JSON document drives the whole pipeline.  ``_KEYS`` spells each of
its keys once, with its default and the field it sets; the defaults are the
reference instrument's (telecom-band, 2 km coil).  Unknown keys are rejected
so typos cannot silently change a run, every value must have the JSON type of
its default, and a range error names the keys it is about.
``pump_rel_sigma`` defaults to 0.01, a modeling choice: the source's pump
instability is qualitative in origin and only its common-mode character
matters, since count normalization cancels it.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .calibration import FringeParams
from .errors import ParameterError
from .geometry import GyroGeometry
from .io_formats import is_count, is_finite_number
from .model import ModulatorMap, Spectrum
from .simulate import (BrightSourceSettings, CalibrationProtocol, DriftModel, NoiseModel,
                       RunConfig, overnight_drift)

__all__ = ["ExperimentConfig", "default_config_dict", "load_config", "config_from_dict"]

SCHEMA_VERSION = 5

# key -> (default, the field of its section's class it sets), or a section's
# table of them.  A field of None marks a key read by hand: the section's
# builder in config_from_dict takes its value, in table order, before the fields.
_KEYS = {
    "schema_version": (SCHEMA_VERSION, None),
    "spectrum": {"lambda0_m": (1550e-9, "lambda0"), "sigma_omega": (0.25e12, "sigma_omega")},
    "geometry": {"fiber_length_m": (2000.0, "fiber_length"),
                 "coil_radius_m": (0.125, "coil_radius"),
                 "refractive_index": (1.471, "refractive_index")},
    "modulator": {"v0i_volt": (3.8596, None)},
    "run": {"rate_total_hz": (631.6e3, "rate_total"),
            "integration_time_s": (1.0, "integration_time"), "duration_s": (7200.0, "duration"),
            "v0_volt": (3.86, None), "seed": (20250808, "seed")},
    "noise": {"dark_rate_1_hz": (25.0, "dark_rate_1"), "dark_rate_2_hz": (25.0, "dark_rate_2"),
              "pump_rel_sigma": (0.01, "pump_rel_sigma"),
              "drift": {"preset": ("none", None), "linear_s_per_s": (0.0, "linear"),
                        "sine_amplitude_s": (0.0, "sine_amplitude"),
                        "sine_period_s": (0.0, "sine_period"),
                        "random_walk_s_per_sqrt_s": (0.0, "random_walk")}},
    "bright_source": {
        # ch2's scan is noisier by the same 3:1 ratio as the reference
        # instrument's per-channel inflection errors, so the weighted
        # combination reproduces its behavior.
        "power_noise_ch1_w": (1e-9, None), "power_noise_ch2_w": (3e-9, None),
        "scan_v_min": (0.0, "scan_v_min"), "scan_v_max": (16.0, "scan_v_max"),
        "scan_points": (200, "scan_points"),
        "ch1": {"f0_w": (482e-9, "f0"), "a_w": (364e-9, "a"), "w_volt": (7.84, "w"),
                "v0i_volt": (3.85, "v0i")},
        "ch2": {"f0_w": (334e-9, "f0"), "a_w": (327e-9, "a"), "w_volt": (7.79, "w"),
                "v0i_volt": (3.93, "v0i")}},
    "calibration_protocol": {"v_a_volt": (3.6, "v_a_volt"), "v_b_volt": (4.4, "v_b_volt"),
                             "n_steps": (100, "n_steps"), "repeats": (10, "repeats"),
                             "integration_time_s": (0.1, "integration_time_s")},
}


def _defaults(table: dict) -> dict:
    return {key: _defaults(row) if isinstance(row, dict) else row[0]
            for key, row in table.items()}


def default_config_dict() -> dict:
    """Built-in defaults mirroring the reference instrument parameters."""
    return _defaults(_KEYS)


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
        if is_count(value):
            return value
        expected = "an integer >= 0"
    elif is_finite_number(value):
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


def _leaves(table: dict, prefix: str = ""):
    """(key path, field path or None) of each key under ``table``."""
    for key, row in table.items():
        if isinstance(row, dict):
            yield from _leaves(row, f"{prefix}{key}.")
        else:
            yield prefix + key, row[1] and prefix + row[1]


def _build(document: dict, make, section: str, *sources: str, **given):
    """``make`` called with the values of the section's keys read by hand, in
    table order, then each other key's value as its field, and ``given``.  A
    ParameterError it raises gets in front the key paths its message names by
    key or field, in its order, or else the keys read by hand in ``sources``
    and the section."""
    table, node = _KEYS, document
    for key in section.split("."):
        table, node = table[key], node[key]
    rows = [(key, row[1]) for key, row in table.items() if not isinstance(row, dict)]
    try:
        return make(*[node[key] for key, field in rows if field is None],
                    **{field: node[key] for key, field in rows if field}, **given)
    except ParameterError as exc:
        named = {}
        for key, field in _leaves(table):
            names = "|".join(re.escape(name) for name in (key, field) if name)
            hit = re.search(rf"\b(?:{names})\b", str(exc))
            if hit:
                named[f"{section}.{key}"] = hit.start()
        keys = sorted(named, key=named.get) or [
            path for path, field in _leaves(_KEYS)
            if field is None and path.rpartition(".")[0] in (section, *sources)]
        if not keys:
            raise
        raise ParameterError(f"{', '.join(keys)}: {exc}") from exc


def _drift(preset: str, **terms) -> DriftModel:
    """A drift preset, or the four drift terms under preset "custom"."""
    if preset == "custom":
        return DriftModel(**terms)
    if preset not in ("none", "overnight"):
        raise ParameterError(f"preset must be 'none', 'overnight' or 'custom', got {preset!r}")
    nonzero = [field for field, value in terms.items() if value]
    if nonzero:
        raise ParameterError(f"drift terms {nonzero} apply only with preset 'custom', "
                             f"got preset {preset!r}")
    return overnight_drift() if preset == "overnight" else DriftModel()


def config_from_dict(user: dict | None = None) -> ExperimentConfig:
    """Validate a config document (or None for pure defaults) and construct it."""
    document = _checked(default_config_dict(), user or {})
    if document["schema_version"] != SCHEMA_VERSION:
        raise ParameterError(f"unsupported schema_version {document['schema_version']!r}; "
                             f"this build reads version {SCHEMA_VERSION}")
    build = partial(_build, document)
    spectrum = build(Spectrum, "spectrum")
    geometry = build(GyroGeometry, "geometry")
    # The working point only; alpha's uncertainty is measured by calibrate.
    modulator = build(partial(ModulatorMap.from_inflection, v0i_err=0.0, spectrum=spectrum),
                      "modulator")
    run = build(lambda v0, **fields: RunConfig(tau0=modulator.alpha * v0, **fields), "run",
                "modulator")
    noise = build(NoiseModel, "noise", drift=build(_drift, "noise.drift"))
    bright = build(lambda *power_noise, **fields: BrightSourceSettings(power_noise, **fields),
                   "bright_source", ch1=build(FringeParams, "bright_source.ch1"),
                   ch2=build(FringeParams, "bright_source.ch2"))
    return ExperimentConfig(spectrum, geometry, modulator, run, noise, bright,
                            build(CalibrationProtocol, "calibration_protocol"), document)


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

"""On-disk formats: CSV series, calibration JSON and run manifests.

CSV files carry a header row, dot-decimal floats rendered with shortest
round-trip precision, LF line endings and seconds as the only time unit.
JSON documents carry a schema_version field.  Reading back a written file
reproduces every floating value bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .calibration import CalibrationSet, FringeFit, LinearCalibration
from .errors import DataError
from .model import ModulatorMap
from .simulate import BrightScan, CalibrationScan, CountSeries
from .stability import AllanCurve

__all__ = [
    "RunManifest",
    "write_fisher_curve",
    "write_count_series", "read_count_series",
    "write_bright_scan", "read_bright_scan",
    "write_calibration_scan", "read_calibration_scan",
    "write_delay_series", "read_delay_series",
    "write_allan_curves", "read_allan_curves",
    "write_calibration_set", "read_calibration_set",
    "write_report", "write_manifest", "file_digest",
]

SCHEMA_VERSION = 1

FISHER_HEADER = "tau_s,fisher_s^-2"
COUNT_HEADER = "t_s,c1,c2"
BRIGHT_HEADER = "v0_volt,power1_w,power2_w"
CAL_SCAN_HEADER = "v0_volt,t_s,c1,c2"
DELAY_HEADER = "t_s,tau_s,sigma_tau_s,flag"
ALLAN_HEADER = "origin,m,t_s,adev_s,ci_s,n_terms"


def _f(x) -> str:
    """Shortest decimal that round-trips the float exactly."""
    return repr(float(x))


def _write_lines(path, header: str, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def _read_table(path, header: str) -> list[list[str]]:
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not lines or lines[0] != header:
        raise DataError(f"{path}: expected header {header!r}, got "
                        f"{lines[0]!r}" if lines else f"{path}: empty file")
    n_cols = header.count(",") + 1
    rows = [line.split(",") for line in lines[1:] if line]
    if any(len(r) != n_cols for r in rows):
        raise DataError(f"{path}: malformed row (expected {n_cols} columns)")
    return rows


@contextmanager
def _parsing(path):
    """Turn value failures, in parsing or in validation, into DataError."""
    try:
        yield
    except ValueError as exc:
        raise DataError(f"{path}: bad value: {exc}") from exc


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Fisher curve, count / power series
# ---------------------------------------------------------------------------

def write_fisher_curve(path, tau, fisher) -> None:
    _write_lines(path, FISHER_HEADER,
                 (f"{_f(a)},{_f(b)}" for a, b in zip(tau, fisher)))


def write_count_series(path, series: CountSeries) -> None:
    _write_lines(path, COUNT_HEADER,
                 (f"{_f(t)},{c1},{c2}"
                  for t, c1, c2 in zip(series.t, series.c1, series.c2)))


def read_count_series(path, integration_time: float) -> CountSeries:
    rows = _read_table(path, COUNT_HEADER)
    if not rows:
        raise DataError(f"{path}: no data rows")
    with _parsing(path):
        t = np.array([float(r[0]) for r in rows])
        c1 = np.array([int(r[1]) for r in rows])
        c2 = np.array([int(r[2]) for r in rows])
        return CountSeries(t, c1, c2, integration_time)


def write_bright_scan(path, scan: BrightScan) -> None:
    _write_lines(path, BRIGHT_HEADER,
                 (f"{_f(v)},{_f(a)},{_f(b)}"
                  for v, a, b in zip(scan.v0, scan.power1, scan.power2)))


def read_bright_scan(path) -> BrightScan:
    rows = _read_table(path, BRIGHT_HEADER)
    if not rows:
        raise DataError(f"{path}: no data rows")
    with _parsing(path):
        data = np.array([[float(x) for x in r] for r in rows])
    return BrightScan(v0=data[:, 0], power1=data[:, 1], power2=data[:, 2])


def write_calibration_scan(path, scan: CalibrationScan) -> None:
    def rows():
        for step in scan.steps():
            for t, c1, c2 in zip(step.t, step.c1, step.c2):
                yield f"{_f(step.v0)},{_f(t)},{c1},{c2}"
    _write_lines(path, CAL_SCAN_HEADER, rows())


def read_calibration_scan(path, integration_time: float,
                          modulator: ModulatorMap) -> CalibrationScan:
    """Rebuild a grouped scan; repeats are consecutive rows sharing a voltage."""
    rows = _read_table(path, CAL_SCAN_HEADER)
    if not rows:
        raise DataError(f"{path}: no data rows")
    v_groups: list[float] = []
    grouped: list[list[list[float]]] = []
    with _parsing(path):
        for r in rows:
            v = float(r[0])
            if not v_groups or v != v_groups[-1]:
                v_groups.append(v)
                grouped.append([])
            grouped[-1].append([float(r[1]), int(r[2]), int(r[3])])
    repeats = len(grouped[0])
    if any(len(g) != repeats for g in grouped):
        raise DataError(f"{path}: unequal repeat counts across voltage steps")
    v0 = np.array(v_groups)
    block = np.array(grouped, dtype=np.float64)
    with _parsing(path):
        return CalibrationScan(
            v0=v0, tau_set=modulator.alpha * v0,
            t=block[:, :, 0], c1=block[:, :, 1].astype(np.int64),
            c2=block[:, :, 2].astype(np.int64),
            integration_time=integration_time,
        )


# ---------------------------------------------------------------------------
# delay series and Allan curves
# ---------------------------------------------------------------------------

def write_delay_series(path, t, tau, sigma_tau, flags) -> None:
    _write_lines(path, DELAY_HEADER,
                 (f"{_f(a)},{_f(b)},{_f(c)},{d}"
                  for a, b, c, d in zip(t, tau, sigma_tau, flags)))


def read_delay_series(path):
    """Returns (t, tau, sigma_tau, flags) arrays; flags is a list of str.

    An empty table is returned as empty arrays so length preconditions can
    surface as usage errors downstream.
    """
    rows = _read_table(path, DELAY_HEADER)
    with _parsing(path):
        t = np.array([float(r[0]) for r in rows])
        tau = np.array([float(r[1]) for r in rows])
        sigma = np.array([float(r[2]) for r in rows])
    flags = [r[3] for r in rows]
    return t, tau, sigma, flags


def write_allan_curves(path, curves: dict[str, AllanCurve]) -> None:
    def rows():
        for origin, curve in curves.items():
            for m, t, adev, ci, n in zip(curve.m, curve.t, curve.adev,
                                         curve.ci, curve.n_terms):
                yield f"{origin},{m},{_f(t)},{_f(adev)},{_f(ci)},{n}"
    _write_lines(path, ALLAN_HEADER, rows())


def read_allan_curves(path) -> dict[str, dict[str, np.ndarray]]:
    rows = _read_table(path, ALLAN_HEADER)
    out: dict[str, dict[str, list]] = {}
    for r in rows:
        entry = out.setdefault(r[0], {"m": [], "t": [], "adev": [], "ci": [], "n_terms": []})
        entry["m"].append(int(r[1]))
        entry["t"].append(float(r[2]))
        entry["adev"].append(float(r[3]))
        entry["ci"].append(float(r[4]))
        entry["n_terms"].append(int(r[5]))
    return {origin: {k: np.array(v) for k, v in entry.items()}
            for origin, entry in out.items()}


# ---------------------------------------------------------------------------
# calibration set JSON
# ---------------------------------------------------------------------------

# FringeFit field -> calibration JSON key, in file order
_FRINGE_KEYS = {
    "f0": "f0_w", "a": "a_w", "w": "w_volt", "v0i": "v0i_volt",
    "f0_err": "f0_err_w", "a_err": "a_err_w",
    "w_err": "w_err_volt", "v0i_err": "v0i_err_volt",
    "chi2": "chi2", "dof": "dof", "n_iterations": "n_iterations",
}


def _fringe_to_dict(fit: FringeFit) -> dict:
    return {key: getattr(fit, name) for name, key in _FRINGE_KEYS.items()}


def _fringe_from_dict(d: dict) -> FringeFit:
    return FringeFit(**{name: _num(d[key], key) for name, key in _FRINGE_KEYS.items()})


def _num(value, where: str):
    """A JSON number, unchanged; TypeError for anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{where} must be a number, got {value!r}")
    return value


def _pair(value, where: str, item=_num) -> tuple:
    """A JSON list of two entries, each checked by ``item``."""
    if not isinstance(value, list) or len(value) != 2:
        raise TypeError(f"{where} must be a list of two entries, got {value!r}")
    return tuple(item(x, where) for x in value)


def write_calibration_set(path, calset: CalibrationSet) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "fringe_fits": {name: _fringe_to_dict(fit)
                        for name, fit in calset.fringe_fits.items()},
        "v0i_volt": calset.v0i,
        "v0i_err_volt": calset.v0i_err,
        "modulator": {
            "alpha_s_per_v": calset.modulator.alpha,
            "alpha_err_s_per_v": calset.modulator.alpha_err,
            "v0i_volt": calset.modulator.v0i,
        },
        "linear": {
            "k1_per_fs": calset.linear.k1,
            "k2": calset.linear.k2,
            "covariance": [list(row) for row in calset.linear.covariance],
            "tau_window_s": list(calset.linear.tau_window)
            if calset.linear.tau_window else None,
            "window_volt": list(calset.linear.window_volt)
            if calset.linear.window_volt else None,
            "chi2": calset.linear.chi2,
            "dof": calset.linear.dof,
        },
        "dark_rates_hz": list(calset.dark_rates),
        "extras": calset.extras,
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_calibration_set(path) -> CalibrationSet:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read calibration set {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: expected a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise DataError(f"{path}: unsupported schema_version {doc.get('schema_version')!r}")
    try:
        linear = doc["linear"]
        return CalibrationSet(
            fringe_fits={name: _fringe_from_dict(d)
                         for name, d in doc["fringe_fits"].items()},
            v0i=_num(doc["v0i_volt"], "v0i_volt"),
            v0i_err=_num(doc["v0i_err_volt"], "v0i_err_volt"),
            modulator=ModulatorMap(
                alpha=_num(doc["modulator"]["alpha_s_per_v"], "alpha_s_per_v"),
                v0i=_num(doc["modulator"]["v0i_volt"], "modulator.v0i_volt"),
                alpha_err=_num(doc["modulator"]["alpha_err_s_per_v"],
                               "alpha_err_s_per_v"),
            ),
            linear=LinearCalibration(
                k1=_num(linear["k1_per_fs"], "k1_per_fs"),
                k2=_num(linear["k2"], "k2"),
                covariance=_pair(linear["covariance"], "covariance", _pair),
                tau_window=None if linear["tau_window_s"] is None
                else _pair(linear["tau_window_s"], "tau_window_s"),
                window_volt=None if linear["window_volt"] is None
                else _pair(linear["window_volt"], "window_volt"),
                chi2=_num(linear["chi2"], "chi2"), dof=_num(linear["dof"], "dof"),
            ),
            dark_rates=_pair(doc["dark_rates_hz"], "dark_rates_hz"),
            extras=doc.get("extras", {}),
        )
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise DataError(f"{path}: missing or ill-typed field: {exc}") from exc


# ---------------------------------------------------------------------------
# reports and manifests
# ---------------------------------------------------------------------------

def write_report(path, report: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION, **report}
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


@dataclass
class RunManifest:
    """Reproducibility record: rerunning with the same config hash, seed and
    inputs must reproduce the same output digests (timestamps aside)."""

    config_hash: str
    seed: int
    tool_version: str
    rng_algorithm: str
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    created_utc: str = ""

    def __post_init__(self):
        if not self.created_utc:
            self.created_utc = datetime.now(timezone.utc).isoformat()


def write_manifest(path, manifest: RunManifest) -> None:
    doc = {"schema_version": SCHEMA_VERSION, **asdict(manifest)}
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")

"""On-disk formats: CSV series, calibration JSON and run manifests.

CSV files carry a header row, dot-decimal floats rendered with shortest
round-trip precision, LF line endings and seconds as the only time unit.
JSON documents carry a schema_version field.  Reading back a written file
reproduces every floating value bit for bit.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
import warnings
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from .calibration import CalibrationSet, FringeFit, LinearCalibration
from .errors import DataError
from .model import ModulatorMap
from .simulate import BrightScan, CalibrationScan, CountSeries
from .stability import ORIGINS, AllanCurve

__all__ = [
    "RunManifest",
    "write_fisher_curve",
    "write_count_series", "read_count_series",
    "write_bright_scan", "read_bright_scan",
    "write_calibration_scan", "read_calibration_scan",
    "write_delay_series", "read_delay_series",
    "write_allan_curves", "read_allan_curves",
    "write_calibration_set", "read_calibration_set",
    "write_report", "write_manifest", "file_digest", "about_file",
]

SCHEMA_VERSION = 1

FISHER_HEADER = "tau_s,fisher_s^-2"
COUNT_HEADER = "t_s,c1,c2"
BRIGHT_HEADER = "v0_volt,power1_w,power2_w"
CAL_SCAN_HEADER = "v0_volt,t_s,c1,c2"
DELAY_HEADER = "t_s,tau_s,sigma_tau_s,flag"
ALLAN_HEADER = "origin,m,t_s,adev_s,ci_s,n_terms"

DELAY_FLAGS = ("ok", "degenerate", "window")

_WRITE_ROWS = 65536
# A numeric chunk with at most this share of distinct values is formatted
# once per distinct value; one with more (bin times) cell by cell.
_DISTINCT_SHARE = 0.25


def _write_table(path, header: str, *columns) -> None:
    """One CSV row per entry of the columns: floats via repr, the rest via str.

    repr of a Python float is the shortest decimal that round-trips it.  The
    columns are written _WRITE_ROWS rows at a time, which keeps the copies
    small.  Within a chunk, a numeric column that repeats its values is
    formatted once per distinct value and the strings are looked up by
    index; floats are keyed on their bits, so -0.0, 0.0 and every nan stay
    apart.  The bytes are those of formatting each cell on its own.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(columns[0]), _WRITE_ROWS):
            cells = [_cells(c[lo:lo + _WRITE_ROWS]) for c in columns]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def _cells(chunk) -> Iterable[str]:
    """The chunk's cells as strings: floats via repr, the rest via str.

    Cell by cell, the strings are made as the rows are written, so that only
    one row's strings are held at a time.  A list, such as the delay flags,
    is formatted cell by cell as it stands."""
    if isinstance(chunk, list):
        return map(str, chunk)
    chunk = np.asarray(chunk)
    kind = chunk.dtype.kind
    text = repr if kind == "f" else str
    if kind in "fiu":
        keys = chunk.view(f"u{chunk.dtype.itemsize}") if kind == "f" else chunk
        distinct, inverse = np.unique(keys, return_inverse=True)
        if len(distinct) <= _DISTINCT_SHARE * len(chunk):
            values = distinct.view(chunk.dtype).tolist()
            return np.array(list(map(text, values)), dtype=object)[inverse].tolist()
    return map(text, chunk.tolist())


def _write_json(path, doc: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump({"schema_version": SCHEMA_VERSION, **doc}, fh, indent=2)
        fh.write("\n")


def _read_table(path, header: str, dtype: str) -> list[np.ndarray]:
    """The columns of a CSV table, typed by ``dtype`` (e.g. "f8,i8,i8").

    Integer cells must be plain integers and no line is a comment.  String
    fields are sized one character past the longest valid value, because
    loadtxt truncates longer strings to the field size.  A bad row is
    reported by its line number in the file, the header being line 1.
    """
    try:
        with open(path) as fh:
            found = fh.readline().rstrip("\n")
            if found == header:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # header-only file
                    return np.loadtxt(fh, delimiter=",", dtype=np.dtype(dtype),
                                      comments=None, ndmin=1, unpack=True)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"cannot read {path}: {_with_line_number(path, str(exc))}") from exc
    raise DataError(f"{path}: expected header {header!r}, got {found!r}")


_LOADTXT_ROW = re.compile(r" at row (\d+)")
_LOADTXT_ADVICE = "; use `usecols` to select a subset and avoid this error"


def _with_line_number(path, message: str) -> str:
    """loadtxt's error message with its row number replaced by the file line
    and without its advice on ``usecols``.

    loadtxt counts the rows it reads after the header from 0 in a bad-value
    message but from 1 in a column-count message.
    """
    message = message.replace(_LOADTXT_ADVICE, "")
    match = _LOADTXT_ROW.search(message)
    if match is None:
        return message
    line = _file_line(path, int(match[1]) - (not message.startswith("could not convert")))
    if line is None:
        return message
    return f"{message[:match.start()]} at line {line}{message[match.end():]}"


def _file_line(path, row: int) -> int | None:
    """The line number in the file of data row ``row`` (from 0), the header
    being line 1; the empty lines that the reader skips are counted.  None if
    the file has fewer rows."""
    with open(path, errors="replace") as fh:
        fh.readline()  # the header, line 1
        lines = (n for n, line in enumerate(fh, start=2) if line != "\n")
        return next(itertools.islice(lines, row, None), None)


@contextmanager
def about_file(path):
    """Name ``path``, and the file line of the bad row if known, in every
    DataError raised about the data read from it."""
    try:
        yield
    except DataError as exc:
        where = path if exc.row is None else f"{path}: line {_file_line(path, exc.row)}"
        raise DataError(f"{where}: {exc}") from exc


def _nonempty(path, columns: list[np.ndarray]) -> list[np.ndarray]:
    if len(columns[0]) == 0:
        raise DataError(f"{path}: no data rows")
    return columns


def _check_labels(path, name: str, values: np.ndarray, allowed: tuple[str, ...]) -> None:
    bad = np.flatnonzero(~np.isin(values, allowed))
    if len(bad):
        raise DataError(f"{path}: line {_file_line(path, bad[0])}: {name} "
                        f"{str(values[bad[0]])!r} is not one of {allowed}")


@contextmanager
def _parsing(path):
    """Turn validation failures of the values read into DataError."""
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
    _write_table(path, FISHER_HEADER, tau, fisher)


def write_count_series(path, series: CountSeries) -> None:
    _write_table(path, COUNT_HEADER, series.t, series.c1, series.c2)


def read_count_series(path, integration_time: float) -> CountSeries:
    t, c1, c2 = _nonempty(path, _read_table(path, COUNT_HEADER, "f8,i8,i8"))
    with _parsing(path):
        return CountSeries(t, c1, c2, integration_time)


def write_bright_scan(path, scan: BrightScan) -> None:
    _write_table(path, BRIGHT_HEADER, scan.v0, scan.power1, scan.power2)


def read_bright_scan(path) -> BrightScan:
    v0, power1, power2 = _nonempty(path, _read_table(path, BRIGHT_HEADER, "f8,f8,f8"))
    bad = np.flatnonzero(~np.isfinite(np.column_stack([v0, power1, power2])).all(axis=1))
    if len(bad):
        raise DataError(f"{path}: line {_file_line(path, bad[0])}: bright-scan cells "
                        "must be finite")
    return BrightScan(v0=v0, power1=power1, power2=power2)


def write_calibration_scan(path, scan: CalibrationScan) -> None:
    counts = scan.counts
    _write_table(path, CAL_SCAN_HEADER, np.repeat(scan.v0, scan.repeats),
                 counts.t, counts.c1, counts.c2)


def read_calibration_scan(path, integration_time: float,
                          modulator: ModulatorMap) -> CalibrationScan:
    """Rebuild a stepped scan; a step's repeats are consecutive rows sharing a
    voltage, and the bins of all steps read as one count table."""
    v, t, c1, c2 = _nonempty(path, _read_table(path, CAL_SCAN_HEADER, "f8,f8,i8,i8"))
    starts = np.flatnonzero(np.concatenate([[True], v[1:] != v[:-1]]))
    sizes = np.diff(np.append(starts, len(v)))
    if np.any(sizes != sizes[0]):
        raise DataError(f"{path}: unequal repeat counts across voltage steps")
    v0 = v[starts]
    with _parsing(path):
        return CalibrationScan(v0, modulator.alpha * v0,
                               CountSeries(t, c1, c2, integration_time))


# ---------------------------------------------------------------------------
# delay series and Allan curves
# ---------------------------------------------------------------------------

def write_delay_series(path, t, tau, sigma_tau, flags) -> None:
    _write_table(path, DELAY_HEADER, t, tau, sigma_tau, flags)


def read_delay_series(path):
    """Returns (t, tau, sigma_tau, flags) arrays; flags is a str array.

    An empty table is returned as empty arrays so length preconditions can
    surface as usage errors downstream.
    """
    t, tau, sigma, flags = _read_table(path, DELAY_HEADER, "f8,f8,f8,U11")
    _check_labels(path, "flag", flags, DELAY_FLAGS)
    return t, tau, sigma, flags


def write_allan_curves(path, curves: dict[str, AllanCurve]) -> None:
    def stacked(name):  # no curves: header only
        return np.concatenate([getattr(c, name) for c in curves.values()] or [()])
    _write_table(path, ALLAN_HEADER,
                 np.repeat(list(curves), [len(c.m) for c in curves.values()]),
                 *map(stacked, ("m", "t", "adev", "ci", "n_terms")))


def read_allan_curves(path) -> dict[str, dict[str, np.ndarray]]:
    origin, *columns = _read_table(path, ALLAN_HEADER, "U13,i8,f8,f8,f8,i8")
    _check_labels(path, "origin", origin, ORIGINS)
    names, first = np.unique(origin, return_index=True)
    return {str(name): {key: column[origin == name] for key, column in
                        zip(("m", "t", "adev", "ci", "n_terms"), columns)}
            for name in names[np.argsort(first)]}


# ---------------------------------------------------------------------------
# calibration set JSON
# ---------------------------------------------------------------------------

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


def _pair_or_null(value, where: str) -> tuple | None:
    return None if value is None else _pair(value, where)


def _record(cls, value, where: str):
    """The ``cls`` record held by a JSON object, each field checked."""
    return cls(**{name: read(value[key], key)
                  for name, (key, read) in _RECORD_KEYS[cls].items()})


def _fits(value, where: str) -> dict:
    return {name: _record(FringeFit, fit, name) for name, fit in value.items()}


# record -> {field -> (calibration JSON key, check of the value read)}, in file order
_RECORD_KEYS = {
    CalibrationSet: {
        "fringe_fits": ("fringe_fits", _fits),
        "v0i": ("v0i_volt", _num), "v0i_err": ("v0i_err_volt", _num),
        "modulator": ("modulator", partial(_record, ModulatorMap)),
        "linear": ("linear", partial(_record, LinearCalibration)),
        "dark_rates": ("dark_rates_hz", _pair),
        "extras": ("extras", lambda value, where: value),
    },
    FringeFit: {
        "f0": ("f0_w", _num), "a": ("a_w", _num), "w": ("w_volt", _num),
        "v0i": ("v0i_volt", _num), "f0_err": ("f0_err_w", _num),
        "a_err": ("a_err_w", _num), "w_err": ("w_err_volt", _num),
        "v0i_err": ("v0i_err_volt", _num), "chi2": ("chi2", _num), "dof": ("dof", _num),
        "n_iterations": ("n_iterations", _num),
    },
    ModulatorMap: {
        "alpha": ("alpha_s_per_v", _num), "alpha_err": ("alpha_err_s_per_v", _num),
        "v0i": ("v0i_volt", _num),
    },
    LinearCalibration: {
        "k1": ("k1_per_fs", _num), "k2": ("k2", _num),
        "covariance": ("covariance", partial(_pair, item=_pair)),
        "tau_window": ("tau_window_s", _pair_or_null),
        "window_volt": ("window_volt", _pair_or_null),
        "chi2": ("chi2", _num), "dof": ("dof", _num),
    },
}


def _to_json(value):
    """A calibration record as its JSON object, a dict entry by entry, and
    anything else as it is (json writes a tuple as a list)."""
    if isinstance(value, dict):
        return {name: _to_json(entry) for name, entry in value.items()}
    keys = _RECORD_KEYS.get(type(value))
    if keys is None:
        return value
    return {key: _to_json(getattr(value, name)) for name, (key, _) in keys.items()}


def write_calibration_set(path, calset: CalibrationSet) -> None:
    _write_json(path, _to_json(calset))


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
        return _record(CalibrationSet, doc, str(path))
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise DataError(f"{path}: missing or ill-typed field: {exc}") from exc


# ---------------------------------------------------------------------------
# reports and manifests
# ---------------------------------------------------------------------------

def write_report(path, report: dict) -> None:
    _write_json(path, report)


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
    _write_json(path, asdict(manifest))

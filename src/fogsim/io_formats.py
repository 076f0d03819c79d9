"""On-disk formats: CSV series, calibration JSON and run manifests.

CSV files carry a header row, dot-decimal floats rendered with shortest
round-trip precision, LF line endings and seconds as the only time unit.
A table is written in blocks of bytes spelled by numpy (_write_table), with
the bytes of formatting each cell on its own.  A writer makes its file's
directory.  JSON documents carry a schema_version field.  Reading back a
written file reproduces every floating value bit for bit.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
import sys
import warnings
from contextlib import contextmanager
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import (DELAY_FLAGS, MIN_SCAN_POINTS, CalibrationSet, DelayFlags,
                          FringeFit, LinearCalibration)
from .errors import DataError
from .simulate import RNG_ALGORITHM, BrightScan, CalibrationScan, CountSeries
from .stability import ORIGINS, AllanCurve, check_bin_times

__all__ = [
    "write_fisher_curve",
    "write_count_series", "read_count_series",
    "write_bright_scan", "read_bright_scan",
    "write_calibration_scan", "read_calibration_scan",
    "write_delay_series", "read_delay_series",
    "write_allan_curves", "read_allan_curves",
    "write_calibration_set", "read_calibration_set",
    "write_report", "write_manifest", "file_digest", "about_file",
]

SCHEMA_VERSION = 1  # reports and manifests
CALIBRATION_SCHEMA_VERSION = 2

FISHER_HEADER = "tau_s,fisher_s^-2"
COUNT_HEADER = "t_s,c1,c2"
BRIGHT_HEADER = "v0_volt,power1_w,power2_w"
CAL_SCAN_HEADER = "v0_volt,t_s,c1,c2"
DELAY_HEADER = "t_s,tau_s,sigma_tau_s,flag"
ALLAN_HEADER = "origin,m,t_s,adev_s,ci_s,n_terms"

_WRITE_ROWS = 65536  # rows whose distinct values are spelled once
_INDEX = np.min_scalar_type(_WRITE_ROWS - 1)  # uint16: indexes any of a chunk's cells
_GATHER_ROWS = 8192  # rows gathered, joined and compacted at a time
# A float 1e-4 <= x < 2**48 that is n / 10**d with 1 <= d <= _PLACES and
# n < 2**48 is spelled from the digits of n (see _float_rows).
_PLACES = 6
_SHORT_MIN, _SHORT_END = np.array([1e-4, 2.0**48]).view(np.uint64)
_REPR_WIDTH = len(repr(-2.2250738585072014e-308))  # the longest repr of a float64


@contextmanager
def _created(path, mode: str, **kwargs):
    """``path`` opened for writing inside about_file, its directory made
    first, so a command that stops before it writes leaves none behind; a
    directory that cannot be made is named itself."""
    path = Path(path)
    with about_file(path.parent):
        path.parent.mkdir(parents=True, exist_ok=True)
    with about_file(path), open(path, mode, **kwargs) as fh:
        yield fh


def _write_table(path, header: str, *columns) -> None:
    """One CSV row per entry of the columns: floats via repr, the rest via str.

    repr of a Python float is the shortest decimal that round-trips it.
    Each column's distinct values are spelled once per _WRITE_ROWS rows
    (_spelled), and those rows are written by _write_rows.  The bytes are
    those of formatting each cell on its own.
    """
    with _created(path, "wb") as fh:
        fh.write(f"{header}\n".encode())
        total = len(columns[0])
        for lo in range(0, total, _WRITE_ROWS):  # one chunk's spellings held at a time
            _write_rows(fh, [_spelled(c[lo:lo + _WRITE_ROWS]) for c in columns])


def _write_rows(fh, spelled: list[tuple[np.ndarray, np.ndarray]]) -> None:
    """Write the rows whose cells are given, column by column, as distinct
    spellings and the index of each cell's (_spelled), _GATHER_ROWS rows at
    a time: each column's spellings are gathered into a NUL-padded byte
    matrix, the matrices sit side by side with a column of commas between
    them and one of newlines at the end, and dropping the NUL bytes leaves
    the block's text."""
    commas = np.full((_GATHER_ROWS, 1), ord(","), np.uint8)
    for start in range(0, len(spelled[0][1]), _GATHER_ROWS):
        picked = slice(start, start + _GATHER_ROWS)
        rows = np.hstack([part for texts, index in spelled
                          for part in (np.take(texts, index[picked], axis=0),
                                       commas[:len(index[picked])])])
        rows[:, -1] = ord("\n")
        fh.write(rows[rows != 0])


def _spelled(chunk) -> tuple[np.ndarray, np.ndarray]:
    """The chunk's distinct cells as the rows of a NUL-padded uint8 matrix,
    floats via repr and the rest (integers, labels) via str, and the row of
    each cell.

    Floats are keyed on their bits, so -0.0, 0.0 and every nan stay apart.
    numpy's cast to bytes spells an integer or an ASCII label as str does.
    DelayFlags give their codes as the rows of their labels.  The rows are
    indexed by _INDEX, 2 B a cell, not np.unique's 8.
    """
    if isinstance(chunk, DelayFlags):
        return _ascii_rows(DELAY_FLAGS), chunk.codes
    chunk = np.asarray(chunk)
    floats = chunk.dtype.kind == "f"
    if floats:
        chunk = chunk.astype(np.float64, copy=False).view(np.uint64)
    distinct, inverse = np.unique(chunk, return_inverse=True)
    inverse = inverse.astype(_INDEX)  # before the spellings' temporaries
    return (_float_rows(distinct) if floats else _ascii_rows(distinct.astype(bytes))), inverse


def _ascii_rows(texts) -> np.ndarray:
    """ASCII strings as the rows of a NUL-padded uint8 matrix."""
    text = np.asarray(texts, dtype=bytes)
    return text.view(np.uint8).reshape(len(text), text.itemsize)


def _float_rows(bits: np.ndarray) -> np.ndarray:
    """repr of the float64 values with these bits, as _ascii_rows.

    A value x that is +0.0 or lies in [1e-4, 2**48) is spelled as the
    decimal n / 10**d for the smallest d in 1.._PLACES with n = rint(x 10**d),
    n < 2**48 and n / 10**d == x: the digits of n // 10**d, ".", then those
    of n % 10**d padded to d places.  That is repr(x):

    - It round-trips.  n and 10**d are exact in float64, so n / 10**d is
      the correctly rounded value of the rational n/10**d, as is reading
      the decimal; both are x.
    - No decimal with fewer places round-trips, and none other with d.  As
      x < 2**48 / 10**d, ulp(x) < 10**-d / 16, so the reals that round to x
      span less than 10**-d / 16, and for d' <= d the computed x 10**d'
      (rounded by at most 1/32) lies within 1/16 of m for any d'-place
      decimal m / 10**d' among them.  So the search at d' would have found
      it (an integer at d' = 1).
    - Fewest places is fewest significant digits: the decimals that round
      to x share their leading digit's position, unless a power of ten
      lies among them, and then it is the only one with fewest places.
    - repr writes its shortest digits in fixed notation with at least one
      fraction digit for 1e-4 <= x < 1e16.  The last of the d places is 0
      only if d = 1, as d - 1 places would do otherwise, so the texts agree.

    Every other value (negative, -0.0, nan, inf, small, large or long) is
    spelled by repr, _GATHER_ROWS values at a time into the one matrix, so
    that only so many Python strings are alive at once.
    """
    x = bits.view(np.float64)
    n = np.zeros(len(x), np.int64)
    places = np.zeros(len(x), np.int64)
    todo = np.flatnonzero((bits == 0) | ((bits >= _SHORT_MIN) & (bits < _SHORT_END)))
    for d in range(1, _PLACES + 1):
        scaled = np.rint(x[todo] * 10.0**d)
        hit = (scaled < 2.0**48) & (scaled / 10.0**d == x[todo])
        n[todo[hit]], places[todo[hit]] = scaled[hit], d
        todo = todo[~hit]
    decimal = places > 0
    short = _decimal_rows(n[decimal], places[decimal])
    del n, places
    if decimal.all():
        return short
    rows = np.zeros((len(x), max(short.shape[1], _REPR_WIDTH)), np.uint8)
    rows[decimal, :short.shape[1]] = short
    width = short.shape[1]
    other = np.flatnonzero(~decimal)
    for lo in range(0, len(other), _GATHER_ROWS):
        at = other[lo:lo + _GATHER_ROWS]
        text = _ascii_rows([repr(v) for v in x[at].tolist()])
        rows[at, :text.shape[1]] = text
        width = max(width, text.shape[1])
    return rows[:, :width]


def _decimal_rows(n: np.ndarray, places: np.ndarray) -> np.ndarray:
    """n / 10**places as the rows of a NUL-padded uint8 matrix: the integer
    part, ".", then exactly ``places`` fraction digits.  The digits are made
    a column at a time, the last first; leading zeros stay NUL."""
    whole, fraction = np.divmod(n, 10**places)
    most = np.max(places, initial=1)
    fraction *= 10**(most - places)  # left-aligned in `most` places
    width = len(str(np.max(whole, initial=0)))
    rows = np.zeros((len(n), width + 1 + most), np.uint8)
    rows[:, width] = ord(".")
    for col in range(width + most, width, -1):
        rows[:, col] = np.where(col - width <= places, fraction % 10 + 48, 0)
        fraction //= 10
    for col in range(width - 1, -1, -1):
        rows[:, col] = np.where((whole > 0) | (col == width - 1), whole % 10 + 48, 0)
        whole //= 10
    return rows


def _write_json(path, doc: dict, version: int = SCHEMA_VERSION) -> None:
    with _created(path, "w", newline="\n") as fh:
        json.dump({"schema_version": version, **doc}, fh, indent=2)
        fh.write("\n")


def _read_table(path, header: str, dtype: str) -> list[np.ndarray]:
    """The columns of a CSV table, typed by ``dtype`` (e.g. "f8,i8,i8").

    The table needs at least one row.  Integer cells must be plain integers
    and no line is a comment.  Label fields are bytes sized one character
    past the longest valid label, because loadtxt truncates longer cells to
    the field size: none is cut to a valid label.  A bad row raises DataError carrying its data row
    (_loadtxt_reason); read inside about_file, which names the file.
    """
    try:
        with open(path) as fh:
            found = fh.readline().rstrip("\n")
        if found == header:  # loadtxt reads a path in blocks, a handle line by line
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # header-only file
                columns = np.loadtxt(path, delimiter=",", dtype=np.dtype(dtype),
                                     comments=None, skiprows=1, ndmin=1, unpack=True)
    except ValueError as exc:  # a bad cell or cell count, or bytes that are not text
        raise DataError(*_loadtxt_reason(str(exc))) from exc
    if found != header:
        raise DataError(f"expected header {header!r}, got {found!r}")
    if len(columns[0]) == 0:
        raise DataError("no data rows")
    return columns


_LOADTXT_ROW = re.compile(r" at row (\d+)")
_LOADTXT_ADVICE = "; use `usecols` to select a subset and avoid this error"


def _loadtxt_reason(message: str) -> tuple[str, int | None]:
    """loadtxt's error message without its row number and its advice on
    ``usecols``, and the data row (from 0) that it names, if any.

    loadtxt counts the rows it reads after the header from 0 in a bad-value
    message but from 1 in a column-count message.
    """
    message = message.replace(_LOADTXT_ADVICE, "")
    match = _LOADTXT_ROW.search(message)
    if match is None:
        return message, None
    row = int(match[1]) - (not message.startswith("could not convert"))
    return message[:match.start()] + message[match.end():], row


def _file_line(path, row: int) -> tuple[int, str] | None:
    """The line number in the file of data row ``row`` (from 0), the header
    being line 1, and the line's text; the empty lines that the reader skips
    are counted.  None if the file has fewer rows."""
    with open(path, errors="replace") as fh:
        fh.readline()  # the header, line 1
        lines = ((n, line) for n, line in enumerate(fh, start=2) if line != "\n")
        return next(itertools.islice(lines, row, None), None)


@contextmanager
def about_file(path):
    """Name ``path`` in every DataError, OSError and MemoryError raised inside,
    as a DataError reading ``path: reason``, or ``path: line N: reason`` when
    the error carries a data row of the file (the header being line 1).  Every
    reader and writer runs inside this; it is the one place that names a data
    file."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc
    except MemoryError as exc:
        raise DataError(f"{path}: ran out of memory") from exc
    except DataError as exc:
        line = None if exc.row is None else _file_line(path, exc.row)
        where = path if line is None else f"{path}: line {line[0]}"
        raise DataError(f"{where}: {exc}") from exc


def _label_codes(path, column: int, name: str, values: np.ndarray,
                 allowed: tuple[str, ...]) -> np.ndarray:
    """The index in ``allowed`` of each label of a bytes column, as uint8.

    A label that is none of them raises DataError naming its row and the
    cell as the file spells it: loadtxt stores a cell as Latin-1 bytes cut
    to the field size, so the message takes the cell from the file's line.
    """
    codes = np.zeros(len(values), np.uint8)
    good = values == allowed[0].encode()
    for code, label in enumerate(allowed[1:], start=1):
        hit = values == label.encode()
        codes[hit] = code
        good |= hit
    if not good.all():
        row = int(np.argmin(good))
        cell = _file_line(path, row)[1].rstrip("\n").split(",")[column]
        raise DataError(f"{name} {cell!r} is not one of {allowed}", row=row)
    return codes


def file_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):  # 1 MiB at a time, never the whole file
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Fisher curve, count / power series
# ---------------------------------------------------------------------------

def write_fisher_curve(path, tau, fisher) -> None:
    _write_table(path, FISHER_HEADER, tau, fisher)


def write_count_series(path, series: CountSeries) -> None:
    _write_table(path, COUNT_HEADER, series.t, series.c1, series.c2)


def read_count_series(path, step: float, key: str) -> CountSeries:
    """A count table of bins ``step`` seconds long, the value of the config
    key ``key``; its bin times must lie on the grid of check_bin_times."""
    with about_file(path):
        t, c1, c2 = _read_table(path, COUNT_HEADER, "f8,i8,i8")
        series = CountSeries(t, c1, c2, step)
        check_bin_times(t, step, key)
    return series


def write_bright_scan(path, scan: BrightScan) -> None:
    _write_table(path, BRIGHT_HEADER, scan.v0, scan.power1, scan.power2)


def read_bright_scan(path) -> BrightScan:
    """A bright scan of finite cells and at least MIN_SCAN_POINTS rows."""
    with about_file(path):
        v0, power1, power2 = _read_table(path, BRIGHT_HEADER, "f8,f8,f8")
        bad = np.flatnonzero(~np.isfinite(np.column_stack([v0, power1, power2])).all(axis=1))
        if len(bad):
            raise DataError("bright-scan cells must be finite", row=int(bad[0]))
        if len(v0) < MIN_SCAN_POINTS:
            raise DataError(f"{len(v0)} scan points, fewer than the {MIN_SCAN_POINTS} "
                            "a fringe fit takes")
    return BrightScan(v0=v0, power1=power1, power2=power2)


def write_calibration_scan(path, scan: CalibrationScan) -> None:
    counts = scan.counts
    _write_table(path, CAL_SCAN_HEADER, np.repeat(scan.v0, scan.repeats),
                 counts.t, counts.c1, counts.c2)


def read_calibration_scan(path, step: float, key: str) -> CalibrationScan:
    """Rebuild a stepped scan; a step's repeats are consecutive rows sharing a
    finite voltage, and the bins of all steps read as one count table, as
    read_count_series reads it."""
    with about_file(path):
        v, t, c1, c2 = _read_table(path, CAL_SCAN_HEADER, "f8,f8,i8,i8")
        nonfinite = np.flatnonzero(~np.isfinite(v))
        starts = np.flatnonzero(np.concatenate([[True], v[1:] != v[:-1]]))
        sizes = np.diff(np.append(starts, len(v)))
        if len(nonfinite):
            raise DataError("scan voltages must be finite", row=int(nonfinite[0]))
        uneven = np.flatnonzero(sizes != sizes[0])
        if len(uneven):
            raise DataError(f"unequal repeat counts across voltage steps: {sizes[0]} in "
                            f"the first, {sizes[uneven[0]]} from this row",
                            row=int(starts[uneven[0]]))
        scan = CalibrationScan(v[starts], CountSeries(t, c1, c2, step))
        check_bin_times(t, step, key)
    return scan


# ---------------------------------------------------------------------------
# delay series and Allan curves
# ---------------------------------------------------------------------------

def write_delay_series(path, t, tau, sigma_tau, flags) -> None:
    _write_table(path, DELAY_HEADER, t, tau, sigma_tau, flags)


def read_delay_series(path, step: float, key: str):
    """Returns (t, tau, sigma_tau, flags) arrays; flags holds one uint8 code
    per row, the index of its label in DELAY_FLAGS.

    The bin times must lie on the grid of check_bin_times with step
    ``step``, the value of the config key ``key``.
    """
    with about_file(path):
        t, tau, sigma, labels = _read_table(path, DELAY_HEADER, "f8,f8,f8,S11")
        flags = _label_codes(path, 3, "flag", labels, DELAY_FLAGS)
        check_bin_times(t, step, key)
    return t, tau, sigma, flags


def write_allan_curves(path, curves: dict[str, AllanCurve]) -> None:
    def stacked(name):  # no curves: header only
        return np.concatenate([getattr(c, name) for c in curves.values()] or [()])
    _write_table(path, ALLAN_HEADER,
                 np.repeat(list(curves), [len(c.m) for c in curves.values()]),
                 *map(stacked, ("m", "t", "adev", "ci", "n_terms")))


def read_allan_curves(path) -> dict[str, dict[str, np.ndarray]]:
    with about_file(path):
        labels, *columns = _read_table(path, ALLAN_HEADER, "S13,i8,f8,f8,f8,i8")
        origin = _label_codes(path, 0, "origin", labels, ORIGINS)
    codes, first = np.unique(origin, return_index=True)
    return {ORIGINS[code]: {key: column[origin == code] for key, column in
                            zip(("m", "t", "adev", "ci", "n_terms"), columns)}
            for code in codes[np.argsort(first)]}


# ---------------------------------------------------------------------------
# calibration set JSON
# ---------------------------------------------------------------------------

def _num(value, where: str):
    """A finite JSON number, unchanged, under the config's float rule (which
    also refuses an integer past the float range); TypeError for anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise TypeError(f"{where} must be a finite number, got {value!r}")
    return value


def _count(value, where: str):
    """A non-negative JSON integer, unchanged; TypeError for anything else."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise TypeError(f"{where} must be a non-negative integer, got {value!r}")
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
        "linear": ("linear", partial(_record, LinearCalibration)),
        "dark_rates": ("dark_rates_hz", _pair),
    },
    FringeFit: {
        "f0": ("f0_w", _num), "a": ("a_w", _num), "w": ("w_volt", _num),
        "v0i": ("v0i_volt", _num), "f0_err": ("f0_err_w", _num),
        "a_err": ("a_err_w", _num), "w_err": ("w_err_volt", _num),
        "v0i_err": ("v0i_err_volt", _num), "chi2": ("chi2", _num), "dof": ("dof", _count),
        "n_iterations": ("n_iterations", _count),
    },
    LinearCalibration: {
        "k1": ("k1_per_fs", _num), "k2": ("k2", _num),
        "covariance": ("covariance", partial(_pair, item=_pair)),
        "tau_window": ("tau_window_s", _pair_or_null),
        "window_volt": ("window_volt", _pair_or_null),
        "chi2": ("chi2", _num), "dof": ("dof", _count),
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
    _write_json(path, _to_json(calset), CALIBRATION_SCHEMA_VERSION)


def read_calibration_set(path) -> CalibrationSet:
    with about_file(path):
        try:
            doc = json.loads(Path(path).read_text())
        except (ValueError, RecursionError) as exc:  # not text, not JSON, or nested too deep
            raise DataError(str(exc)) from exc
        if not isinstance(doc, dict):
            raise DataError("expected a JSON object")
        if doc.get("schema_version") != CALIBRATION_SCHEMA_VERSION:
            raise DataError(f"unsupported schema_version {doc.get('schema_version')!r}, "
                            f"expected {CALIBRATION_SCHEMA_VERSION}")
        try:
            return _record(CalibrationSet, doc, str(path))
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise DataError(f"missing or ill-typed field: {exc}") from exc


# ---------------------------------------------------------------------------
# reports and manifests
# ---------------------------------------------------------------------------

def write_report(path, report: dict) -> None:
    _write_json(path, report)


def write_manifest(path, config_hash: str, seed: int, arguments: list[str],
                   inputs: dict[str, str], outputs: dict[str, str]) -> None:
    """Reproducibility record: rerunning with the same config hash, seed,
    command-line ``arguments`` and inputs must reproduce the same output
    digests (the timestamp aside).  ``inputs`` and ``outputs`` map names to
    SHA-256 digests."""
    _write_json(path, {"config_hash": config_hash, "seed": seed, "arguments": arguments,
                       "tool_version": __version__, "rng_algorithm": RNG_ALGORITHM,
                       "inputs": inputs, "outputs": outputs,
                       "created_utc": datetime.now(timezone.utc).isoformat()})

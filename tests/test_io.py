import errno
import hashlib
import json
import math
import os
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fogsim import (
    CalibrationSet,
    CountSeries,
    DelaySeries,
    LinearCalibration,
    overlapping_allan_deviation,
)
from fogsim import io_formats
from fogsim.calibration import MIN_SCAN_POINTS, FringeFit
from fogsim.cli import main
from fogsim.errors import DataError
from fogsim.io_formats import (
    ALLAN_HEADER,
    BRIGHT_HEADER,
    CAL_SCAN_HEADER,
    COUNT_HEADER,
    DELAY_FLAGS,
    DELAY_HEADER,
    FISHER_HEADER,
    _read_table,
    _write_table,
    read_allan_curves,
    read_bright_scan,
    read_calibration_scan,
    read_calibration_set,
    read_count_series,
    read_delay_series,
    write_allan_curves,
    write_bright_scan,
    write_calibration_scan,
    write_calibration_set,
    write_count_series,
    write_delay_series,
    write_fisher_curve,
)
from fogsim.simulate import BrightScan, CalibrationScan
from fogsim.stability import ORIGINS

# values with full 17-digit mantissas, subnormals and awkward decimals
NASTY = [0.1, 1.294e-15, 2.2250738585072014e-308, 1 / 3, 9.87654321098765432e17]
# the config keys that the readers' bin-time messages name
RUN_KEY = "run.integration_time_s"
SCAN_KEY = "calibration_protocol.integration_time_s"


class TestCountSeriesRoundTrip:
    def test_bit_exact(self, tmp_path, rng):
        # 10 ms bins, each time jittered within the grid's tolerance of 1e-8 s
        t = 0.1 + 0.01 * np.arange(200) + rng.uniform(-4e-9, 4e-9, size=200)
        series = CountSeries(t, rng.integers(0, 10**6, 200),
                             rng.integers(0, 10**6, 200), 0.01)
        path = tmp_path / "counts.csv"
        write_count_series(path, series)
        back = read_count_series(path, 0.01, RUN_KEY)
        assert back == series
        np.testing.assert_array_equal(back.t, series.t)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,c1,c2\n0.0,1,2\n")
        with pytest.raises(DataError):
            read_count_series(path, 1.0, RUN_KEY)

    def test_malformed_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,c1,c2\n0.0,one,2\n")
        with pytest.raises(DataError):
            read_count_series(path, 1.0, RUN_KEY)


class TestDelaySeriesRoundTrip:
    def test_bit_exact(self, tmp_path, rng):
        n = len(NASTY)
        t = np.arange(n, dtype=float)
        tau = np.array(NASTY)
        sigma = tau / 7.0
        flags = ["ok", "degenerate", "window", "ok", "ok"]
        path = tmp_path / "delays.csv"
        write_delay_series(path, t, tau, sigma, flags)
        t2, tau2, sigma2, flags2 = read_delay_series(path, 1.0, RUN_KEY)
        np.testing.assert_array_equal(t2, t)
        np.testing.assert_array_equal(tau2, tau)
        np.testing.assert_array_equal(sigma2, sigma)
        assert flags2.dtype == np.uint8
        assert [DELAY_FLAGS[code] for code in flags2] == flags


class TestAllanCurveRoundTrip:
    def test_bit_exact(self, tmp_path, rng):
        series = DelaySeries(1.0, 1e-18 * rng.standard_normal(4000))
        curves = {"raw": overlapping_allan_deviation(series)}
        path = tmp_path / "allan.csv"
        write_allan_curves(path, curves)
        back = read_allan_curves(path)
        np.testing.assert_array_equal(back["raw"]["adev"], curves["raw"].adev)
        np.testing.assert_array_equal(back["raw"]["ci"], curves["raw"].ci)
        np.testing.assert_array_equal(back["raw"]["m"], curves["raw"].m)


class TestCalibrationSetRoundTrip:
    def test_bit_exact(self, tmp_path):
        fit = FringeFit(f0=482e-9, a=364e-9, w=7.84, v0i=3.85,
                        f0_err=1e-9, a_err=1e-9, w_err=0.04, v0i_err=0.01,
                        chi2=196.2345678901234, dof=196, n_iterations=4)
        calset = CalibrationSet(
            fringe_fits={"ch1": fit},
            v0i=3.8596, v0i_err=0.0095,
            linear=LinearCalibration(
                k1=1.0937, k2=-1.3432,
                covariance=((1.3e-5, -1.7e-5), (-1.7e-5, 2.4e-5)),
                tau_window=(1.2066e-15, 1.4747e-15),
                window_volt=(3.6, 4.4), chi2=98.3, dof=98),
            dark_rates=(25.0, 27.5),
        )
        path = tmp_path / "cal.json"
        write_calibration_set(path, calset)
        back = read_calibration_set(path)
        assert (back.v0i, back.v0i_err) == (calset.v0i, calset.v0i_err)
        assert back.linear.k1 == calset.linear.k1
        assert back.linear.covariance == calset.linear.covariance
        assert back.linear.tau_window == calset.linear.tau_window
        assert back.fringe_fits["ch1"].v0i_err == fit.v0i_err
        assert back.dark_rates == calset.dark_rates

    def test_schema_version_checked(self, tmp_path):
        """An unknown version is refused, and so is version 1, which also
        stored the modulator and extras."""
        path = tmp_path / "cal.json"
        version_1 = {"schema_version": 1, "fringe_fits": {}, "v0i_volt": 3.8596,
                     "v0i_err_volt": 0.0095,
                     "modulator": {"alpha_s_per_v": 3.3489e-16,
                                   "alpha_err_s_per_v": 8.24e-19, "v0i_volt": 3.8596},
                     "linear": {"k1_per_fs": 1.0937, "k2": -1.3432,
                                "covariance": [[1.3e-5, -1.7e-5], [-1.7e-5, 2.4e-5]],
                                "tau_window_s": None, "window_volt": None,
                                "chi2": 98.3, "dof": 98},
                     "dark_rates_hz": [25.0, 27.5], "extras": {"error_mode": "sem"}}
        for doc in ({"schema_version": 99}, version_1):
            path.write_text(json.dumps(doc))
            with pytest.raises(DataError):
                read_calibration_set(path)


# Every double but nan, subnormals included, plus the one nan the writer's
# "nan" reads back as (repr drops a nan's sign and payload).
FLOATS = st.one_of(st.floats(allow_nan=False), st.just(math.nan))
COUNTS = st.integers(0, 2**63 - 1)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# the bin length the count, calibration-scan and delay tables are read with
STEP = 0.1
ALLAN_KEYS = ("m", "t", "adev", "ci", "n_terms")


def _column(data, elements, n):
    return np.array(data.draw(st.lists(elements, min_size=n, max_size=n)))


def _bin_times(data, n):
    """n bin times STEP apart from any finite first time: the grid the
    readers require."""
    return data.draw(FINITE) + STEP * np.arange(n)


def _fisher(data):
    n = data.draw(st.integers(1, 12))
    return [_column(data, FLOATS, n) for _ in range(2)]


def _counts(data):
    n = data.draw(st.integers(1, 12))
    return [_bin_times(data, n), _column(data, COUNTS, n), _column(data, COUNTS, n)]


def _bright(data):
    # a bright scan's cells must be finite, and a fringe fit takes its rows
    n = data.draw(st.integers(MIN_SCAN_POINTS, 12))
    return [_column(data, FINITE, n) for _ in range(3)]


def _scan(data):
    # neighbouring steps differ in finite voltage, so the reader regroups
    # them; the bins follow the count table's rules
    v0 = np.array(data.draw(st.lists(FINITE, min_size=1, max_size=5, unique=True)))
    n = len(v0) * data.draw(st.integers(1, 4))
    return [v0, _bin_times(data, n), _column(data, COUNTS, n), _column(data, COUNTS, n)]


def _delays(data):
    n = data.draw(st.integers(1, 12))
    return [_bin_times(data, n)] + [_column(data, FLOATS, n) for _ in range(2)] + \
        [np.array(data.draw(st.lists(st.sampled_from(DELAY_FLAGS), min_size=n,
                                     max_size=n)), dtype=str)]


def _allan(data):
    origins = data.draw(st.lists(st.sampled_from(ORIGINS), min_size=1, unique=True))
    curves = {}
    for origin in origins:
        n = data.draw(st.integers(1, 6))
        curves[origin] = SimpleNamespace(**{
            key: _column(data, COUNTS if key in ("m", "n_terms") else FLOATS, n)
            for key in ALLAN_KEYS})
    return curves


def _scan_write(path, c):
    write_calibration_scan(path, CalibrationScan(c[0], CountSeries(*c[1:], STEP)))


def _counts_read(path):
    series = read_count_series(path, STEP, RUN_KEY)
    return [series.t, series.c1, series.c2]


def _bright_read(path):
    scan = read_bright_scan(path)
    return [scan.v0, scan.power1, scan.power2]


def _scan_read(path):
    scan = read_calibration_scan(path, STEP, SCAN_KEY)
    return [scan.v0, scan.counts.t, scan.counts.c1, scan.counts.c2]


def _delays_read(path):
    *columns, flags = read_delay_series(path, STEP, RUN_KEY)
    return [*columns, np.array(DELAY_FLAGS)[flags]]


def _allan_read(path):
    return {origin: SimpleNamespace(**entry)
            for origin, entry in read_allan_curves(path).items()}


# kind -> (columns drawn, writer, reader, column types in file order)
TABLES = {
    "fisher": (_fisher, lambda path, c: write_fisher_curve(path, *c),
               lambda path: _read_table(path, FISHER_HEADER, "f8,f8"), "ff"),
    "counts": (_counts, lambda path, c: write_count_series(path, CountSeries(*c, STEP)),
               _counts_read, "fii"),
    "bright": (_bright, lambda path, c: write_bright_scan(path, BrightScan(*c)),
               _bright_read, "fff"),
    "calibration_scan": (_scan, _scan_write, _scan_read, "ffii"),
    "delays": (_delays, lambda path, c: write_delay_series(path, *c),
               _delays_read, "fffs"),
    "allan": (_allan, write_allan_curves, _allan_read, "sifffi"),
}
BAD_CELLS = {"f": ["", "x", "1..5", "0x10"], "i": ["", "x", "1.5", "1e3"],
             "s": ["", "bogus", "OK", "degenerates", "differentials"]}


def assert_same_bits(got, want):
    if isinstance(want, dict):
        assert list(got) == list(want)
        for origin in want:
            assert_same_bits([getattr(got[origin], k) for k in ALLAN_KEYS],
                             [getattr(want[origin], k) for k in ALLAN_KEYS])
        return
    assert len(got) == len(want)
    for a, b in zip(got, want):
        a, b = np.asarray(a), np.asarray(b)
        if b.dtype.kind == "f":
            assert a.dtype == np.float64
            a, b = a.view(np.int64), b.view(np.int64)
        np.testing.assert_array_equal(a, b)


class TestTableProperties:
    """Every CSV table kind round-trips bit for bit, and a corrupted cell or
    a dropped column is a DataError."""

    @pytest.mark.parametrize("kind", sorted(TABLES))
    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_round_trip_and_damage(self, tmp_path, kind, data):
        draw, write, read, types = TABLES[kind]
        columns = draw(data)
        path = tmp_path / f"{kind}.csv"
        write(path, columns)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a header-only table reads quietly
            assert_same_bits(read(path), columns)

        header, *rows = path.read_text().splitlines()
        if not rows:
            return
        cells = [row.split(",") for row in rows]
        i = data.draw(st.integers(0, len(cells) - 1))
        j = data.draw(st.integers(0, len(types) - 1))
        good = cells[i][j]
        for bad in BAD_CELLS[types[j]]:
            cells[i][j] = bad
            path.write_text("\n".join([header] + [",".join(r) for r in cells]) + "\n")
            with pytest.raises(DataError):
                read(path)

        cells[i][j] = good
        for row in cells:
            del row[j]
        path.write_text("\n".join([header] + [",".join(r) for r in cells]) + "\n")
        with pytest.raises(DataError):
            read(path)


SCAN_ROWS = ["3.6,0.0,5,4", "3.6,0.1,5,4", "4.4,0.2,5,4", "4.4,0.3,5,4"]
MALFORMED = {
    "counts_non_integer": (COUNT_HEADER, ["0.0,2.0,3"]),
    "counts_no_rows": (COUNT_HEADER, []),
    "bright_no_rows": (BRIGHT_HEADER, []),
    "bright_nan_power": (BRIGHT_HEADER, ["0.0,1e-07,2e-07", "1.0,nan,2e-07"]),
    "bright_inf_voltage": (BRIGHT_HEADER, ["inf,1e-07,2e-07"]),
    "scan_no_rows": (CAL_SCAN_HEADER, []),
    "scan_unequal_repeats": (CAL_SCAN_HEADER, SCAN_ROWS[:3]),
    "scan_negative_count": (CAL_SCAN_HEADER, SCAN_ROWS[:3] + ["4.4,0.3,-5,4"]),
    "delays_no_rows": (DELAY_HEADER, []),
}
READERS = {COUNT_HEADER: lambda path: read_count_series(path, 1.0, RUN_KEY),
           BRIGHT_HEADER: read_bright_scan,
           CAL_SCAN_HEADER: lambda path: read_calibration_scan(path, 0.1, SCAN_KEY),
           DELAY_HEADER: lambda path: read_delay_series(path, 1.0, RUN_KEY),
           ALLAN_HEADER: read_allan_curves}
# every reader of the package, by the file it reads
READ_KINDS = {"counts": READERS[COUNT_HEADER], "bright": read_bright_scan,
              "calibration_scan": READERS[CAL_SCAN_HEADER], "delays": READERS[DELAY_HEADER],
              "allan": read_allan_curves, "calibration_set": read_calibration_set}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_table_is_data_error(tmp_path, case):
    header, rows = MALFORMED[case]
    path = tmp_path / "table.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    with pytest.raises(DataError):
        READERS[header](path)


@pytest.mark.parametrize("header", sorted(READERS))
def test_empty_table_names_file(tmp_path, header):
    path = tmp_path / "table.csv"
    path.write_text(header + "\n")
    with pytest.raises(DataError) as info:
        READERS[header](path)
    assert str(info.value) == f"{path}: no data rows"


@pytest.mark.parametrize("kind", sorted(READ_KINDS))
def test_missing_file_named_once(tmp_path, kind):
    """A reader names a file it cannot open once, with the system's reason."""
    path = tmp_path / "missing"
    with pytest.raises(DataError) as info:
        READ_KINDS[kind](path)
    assert str(info.value) == f"{path}: {os.strerror(errno.ENOENT)}"


@pytest.mark.parametrize("kind", sorted(READ_KINDS))
def test_non_text_file_is_data_error(tmp_path, kind):
    """Bytes that do not decode are a DataError that names the file."""
    path = tmp_path / "binary"
    path.write_bytes(b"\xff\xfe\x00\n")
    with pytest.raises(DataError) as info:
        READ_KINDS[kind](path)
    assert str(info.value).startswith(f"{path}: ")


def test_row_past_the_end_names_file_alone(tmp_path):
    """A row the file does not have is left out of the message."""
    path = tmp_path / "counts.csv"
    path.write_text(f"{COUNT_HEADER}\n0.0,1,2\n")
    with pytest.raises(DataError) as info, io_formats.about_file(path):
        raise DataError("reason", row=5)
    assert str(info.value) == f"{path}: reason"


def test_out_of_memory_names_file_alone(tmp_path):
    """Running out of memory inside a file's context names the file."""
    path = tmp_path / "counts.csv"
    with pytest.raises(DataError) as info, io_formats.about_file(path):
        raise MemoryError
    assert str(info.value) == f"{path}: ran out of memory"


def test_calibration_set_not_an_object(tmp_path):
    path = tmp_path / "cal.json"
    path.write_text("[1, 2]")
    with pytest.raises(DataError) as info:
        read_calibration_set(path)
    assert str(info.value) == f"{path}: expected a JSON object"
    path.write_text("[" * 100_000)  # nested past the decoder's recursion limit
    with pytest.raises(DataError, match="maximum recursion depth"):
        read_calibration_set(path)


@pytest.mark.parametrize("third_row,reason", [
    ("2.0,x,5", "could not convert string 'x' to int64, column 2."),
    ("2.0,5", "the dtype passed requires 3 columns but 2 were found"),
])
@pytest.mark.parametrize("blank_lines", [0, 2])
def test_bad_row_named_by_file_line(tmp_path, third_row, reason, blank_lines):
    """A bad value and a wrong cell count both name the file and the row's
    line in it (the header is line 1), counting the empty lines loadtxt
    skips, and nothing else: neither numpy's row number nor its advice
    follows."""
    path = tmp_path / "counts.csv"
    rows = [COUNT_HEADER, "0.0,1,2"] + [""] * blank_lines + ["1.0,3,4", third_row]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(DataError) as info:
        read_count_series(path, 1.0, RUN_KEY)
    assert str(info.value) == f"{path}: line {4 + blank_lines}: {reason}"


def _off_grid(time: str) -> str:
    """The bin-time rule's message on a table of 1 s bins from t0 = 0."""
    return (f"bin time {time} s is not t0 + k T with t0 = 0.0 s and T = {RUN_KEY} = 1.0 s; "
            "bin times must be finite and one T apart, with no row missing or repeated")


@pytest.mark.parametrize("third_row,reason", [
    ("2.0,1e-15,1e-18,bogus", "flag 'bogus' is not one of ('ok', 'degenerate', 'window')"),
    ("3.0,1e-15,1e-18,ok", _off_grid("3.0")),
] + [(f"2.0,1e-15,1e-18,{flag}",
      f"flag {flag!r} is not one of ('ok', 'degenerate', 'window')")
     for flag in ("ök", "degenerateXYZ", "")] + [
    ("2.0,1e-15,1e-18,€", "could not convert string '€' to |S11, column 4."),
])
@pytest.mark.parametrize("blank_lines", [0, 2])
def test_bad_delay_row_named_by_file_line(tmp_path, capsys, third_row, reason,
                                          blank_lines):
    """fogsim stability names a bad flag and a missing row of a 20-row delay
    table by the file and the row's line in it.  The flags are read as
    bytes, which loadtxt spells in Latin-1 and cuts to 11; a flag that is
    not ASCII, too long or empty is shown as the file spells it, and one
    outside Latin-1 fails in loadtxt itself."""
    path = tmp_path / "delays.csv"
    rows = [f"{float(i)!r},1e-15,1e-18,ok" for i in range(20)]
    rows[2] = third_row
    path.write_text("\n".join([DELAY_HEADER, rows[0]] + [""] * blank_lines + rows[1:]) + "\n")
    assert main(["stability", "--delays", str(path),
                 "--out-prefix", str(tmp_path / "stab")]) == 3
    error = capsys.readouterr().err
    assert error == f"fogsim: error: {path}: line {4 + blank_lines}: {reason}\n"


@pytest.mark.parametrize("fault", ["flag", "time"])
def test_fault_on_last_row_of_long_table(tmp_path, fault):
    """A bad flag or an off-grid time on the last row of a delay table longer
    than one block of the writer is named by its line."""
    n = 70_000
    t = np.arange(n) * 1.0
    flags = ["ok"] * n
    if fault == "flag":
        flags[-1], reason = "bogus", "flag 'bogus' is not one of ('ok', 'degenerate', 'window')"
    else:
        t[-1], reason = 70_000.5, _off_grid("70000.5")
    path = tmp_path / "delays.csv"
    write_delay_series(path, t, np.full(n, 1e-15), np.full(n, 1e-18), flags)
    with pytest.raises(DataError) as info:
        read_delay_series(path, 1.0, RUN_KEY)
    assert str(info.value) == f"{path}: line {n + 1}: {reason}"


# third data row (and the rows after it) -> the table rule it breaks; count
# tables are read with 1 s bins, calibration scans with 0.1 s bins
COUNT_RULES = {
    "negative_count": (COUNT_HEADER, "0.0,1,2", "1.0,3,4", ["2.0,-5,4"],
                       "counts must be non-negative"),
    "decreasing_time": (COUNT_HEADER, "0.0,1,2", "1.0,3,4", ["0.5,5,4"], _off_grid("0.5")),
    "infinite_time": (COUNT_HEADER, "0.0,1,2", "1.0,3,4", ["inf,5,4"], _off_grid("inf")),
    "scan_voltage_inf": (CAL_SCAN_HEADER, "3.6,0.0,1,2", "3.6,0.1,3,4",
                         ["inf,0.2,5,4", "inf,0.3,5,4"], "scan voltages must be finite"),
    "scan_voltage_nan": (CAL_SCAN_HEADER, "3.6,0.0,1,2", "3.6,0.1,3,4",
                         ["nan,0.2,5,4", "nan,0.3,5,4"], "scan voltages must be finite"),
    "scan_negative_count": (CAL_SCAN_HEADER, "3.6,0.0,1,2", "3.6,0.1,3,4",
                            ["3.7,0.2,-5,4", "3.7,0.3,5,4"], "counts must be non-negative"),
    "scan_unequal_repeats": (CAL_SCAN_HEADER, "3.6,0.0,1,2", "3.6,0.1,3,4",
                             ["3.7,0.2,5,4", "3.7,0.3,5,4", "3.7,0.4,5,4"],
                             "unequal repeat counts across voltage steps: 2 in the first, "
                             "3 from this row"),
    "bright_nonfinite": (BRIGHT_HEADER, "3.6,1e-06,2e-06", "3.7,1e-06,2e-06",
                         ["3.8,nan,2e-06"], "bright-scan cells must be finite"),
    "allan_unknown_origin": (ALLAN_HEADER, "raw,1,1.0,1e-18,1e-19,99",
                             "raw,2,2.0,1e-18,1e-19,97", ["weird,4,4.0,1e-18,1e-19,93"],
                             "origin 'weird' is not one of "
                             "('raw', 'even', 'odd', 'differential')"),
}


@pytest.mark.parametrize("case", sorted(COUNT_RULES))
@pytest.mark.parametrize("blank_lines", [0, 2])
def test_count_rule_named_by_file_line(tmp_path, case, blank_lines):
    """A table that breaks a rule of its reader (a count-table rule, a
    non-finite bright-scan cell, an unknown Allan origin) is a DataError
    naming the file and the line of the first bad row."""
    header, first, second, rest, reason = COUNT_RULES[case]
    path = tmp_path / "table.csv"
    path.write_text("\n".join([header, first] + [""] * blank_lines + [second, *rest]) + "\n")
    with pytest.raises(DataError) as info:
        READERS[header](path)
    assert str(info.value) == f"{path}: line {4 + blank_lines}: {reason}"


def _per_cell_table(header: str, *columns) -> str:
    """The oracle: each cell formatted on its own, one join per row."""
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    return "".join([header + "\n"] + [
        ",".join(repr(x) if isinstance(x, float) else str(x) for x in row) + "\n"
        for row in rows])


NAN_PAYLOAD = np.array([0x7FF8000000000001, 0xFFF0000000000002], dtype=np.uint64) \
    .view(np.float64).tolist()
SPECIAL_FLOATS = [0.0, -0.0, math.nan, -math.nan, *NAN_PAYLOAD, math.inf, -math.inf,
                  5e-324, -2.225073858507201e-308, 0.1, 1.294e-15]
SPECIAL_INTS = [0, -1, 7, 2**63 - 1, -2**63]
# values that compare equal, or are all nan, yet differ in their bits
FLOAT_POOLS = st.one_of(
    st.sampled_from([[0.0, -0.0], [math.nan, -math.nan, *NAN_PAYLOAD]]),
    st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()),
             min_size=1, max_size=3))
INT_POOLS = st.lists(st.one_of(st.sampled_from(SPECIAL_INTS),
                               st.integers(-2**63, 2**63 - 1)), min_size=1, max_size=3)
# where the writer's short-decimal spelling starts and stops (1e-4, and
# 2**48 / 10**d, each with its neighbours) and where repr turns to exponents
BOUNDARY_FLOATS = [
    1e-05, 1.2e-05, float(np.nextafter(1e-4, 0.0)), 1e-4, float(np.nextafter(1e-4, 1.0)),
    *(float(np.nextafter(2.0**48 / 10**d, toward)) for d in range(9)
      for toward in (0.0, 2.0**48 / 10**d, math.inf)),
    1e15, 1e16, float(np.nextafter(1e16, 0.0)), -0.0, 0.0, 2.0**47 + 0.5,
]
# n / 10**d with d places, both signs, n up to and past 2**48
DECIMALS = st.builds(lambda n, d, sign: sign * n / 10**d,
                     st.one_of(st.integers(0, 10**4), st.integers(0, 2**48 + 16),
                               st.integers(2**48 - 16, 2**48 + 16), st.integers(2**52, 2**53)),
                     st.integers(0, 8), st.sampled_from([1, -1]))


def _pool_column(data, pools, n):
    """A column that repeats a few values, mostly special ones."""
    return data.draw(st.lists(st.sampled_from(data.draw(pools)), min_size=n, max_size=n))


def _oracle_column(data, n):
    kind = data.draw(st.sampled_from(["float_pool", "float", "strided", "int_pool",
                                      "int", "flag_list", "decimal", "grid", "boundary"]))
    if kind == "decimal":
        return _column(data, DECIMALS, n).astype(np.float64)
    if kind == "grid":  # bin times t0 + k T from some row k0 on
        T = data.draw(st.one_of(st.sampled_from([0.01, 0.1, 1e-3, 0.25, 1.0]),
                                st.floats(1e-6, 1e4)))
        t0 = data.draw(st.one_of(st.just(0.0), st.floats(-1e6, 1e6)))
        k0 = data.draw(st.integers(0, 10**9))
        return t0 + (k0 + np.arange(n)) * T
    if kind == "boundary":
        return np.array(data.draw(st.lists(st.sampled_from(BOUNDARY_FLOATS),
                                           min_size=n, max_size=n)), dtype=np.float64)
    if kind == "float_pool":
        return np.array(_pool_column(data, FLOAT_POOLS, n), dtype=np.float64)
    if kind == "float":
        return _column(data, st.floats(), n).astype(np.float64)
    if kind == "strided":  # a non-contiguous view
        return np.array(_pool_column(data, FLOAT_POOLS, 2 * n), dtype=np.float64)[::2]
    if kind == "int_pool":
        return np.array(_pool_column(data, INT_POOLS, n), dtype=np.int64)
    if kind == "int":
        return _column(data, st.integers(-2**63, 2**63 - 1), n).astype(np.int64)
    return data.draw(st.lists(st.sampled_from(DELAY_FLAGS), min_size=n, max_size=n))


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_writer_matches_per_cell_formatting(tmp_path, monkeypatch, data):
    """_write_table writes the bytes of formatting every cell on its own,
    whether a float is spelled from its decimal digits or by repr, and with
    chunks that split the table anywhere."""
    monkeypatch.setattr(io_formats, "_WRITE_ROWS", 8)
    n = data.draw(st.integers(0, 40))
    columns = [_oracle_column(data, n) for _ in range(data.draw(st.integers(1, 4)))]
    header = ",".join(f"c{i}" for i in range(len(columns)))
    path = tmp_path / "table.csv"
    _write_table(path, header, *columns)
    assert path.read_text() == _per_cell_table(header, *columns)


def test_writer_indexes_every_cell_of_a_full_chunk(tmp_path):
    """A first chunk of _WRITE_ROWS distinct cells, so its narrow index
    reaches its largest value, and one row after it."""
    n = io_formats._WRITE_ROWS + 1
    columns = [np.arange(n)[::-1] * 1e-3 - 7.0, np.arange(n, dtype=np.int64)[::-1] - 2**40]
    path = tmp_path / "table.csv"
    _write_table(path, "t,k", *columns)
    got = path.read_text().splitlines()
    want = _per_cell_table("t,k", *columns).splitlines()
    assert len(got) == len(want)
    # the first rows that differ: pytest's diff of the whole texts takes minutes
    assert [i for i, row in enumerate(got) if row != want[i]][:3] == []


@pytest.mark.parametrize("size", [0, 1, 3 * 2**20 + 12345])
def test_file_digest_of_several_blocks(tmp_path, rng, size):
    """The digest, taken 1 MiB at a time, is the SHA-256 of the whole file."""
    path = tmp_path / "blocks.bin"
    path.write_bytes(rng.bytes(size))
    assert io_formats.file_digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()

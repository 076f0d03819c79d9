import math
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
    ModulatorMap,
    overlapping_allan_deviation,
)
from fogsim import io_formats
from fogsim.calibration import FringeFit
from fogsim.cli import main
from fogsim.errors import DataError
from fogsim.io_formats import (
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


class TestCountSeriesRoundTrip:
    def test_bit_exact(self, tmp_path, rng):
        t = np.cumsum(rng.uniform(0.9, 1.1, size=200)) + 0.1
        series = CountSeries(t, rng.integers(0, 10**6, 200),
                             rng.integers(0, 10**6, 200), 1.0)
        path = tmp_path / "counts.csv"
        write_count_series(path, series)
        back = read_count_series(path, 1.0)
        assert back == series
        np.testing.assert_array_equal(back.t, series.t)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,c1,c2\n0.0,1,2\n")
        with pytest.raises(DataError):
            read_count_series(path, 1.0)

    def test_malformed_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,c1,c2\n0.0,one,2\n")
        with pytest.raises(DataError):
            read_count_series(path, 1.0)


class TestDelaySeriesRoundTrip:
    def test_bit_exact(self, tmp_path, rng):
        n = len(NASTY)
        t = np.arange(n, dtype=float)
        tau = np.array(NASTY)
        sigma = tau / 7.0
        flags = ["ok", "degenerate", "window", "ok", "ok"]
        path = tmp_path / "delays.csv"
        write_delay_series(path, t, tau, sigma, flags)
        t2, tau2, sigma2, flags2 = read_delay_series(path)
        np.testing.assert_array_equal(t2, t)
        np.testing.assert_array_equal(tau2, tau)
        np.testing.assert_array_equal(sigma2, sigma)
        assert flags2.tolist() == flags


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
            modulator=ModulatorMap(alpha=3.3489e-16, v0i=3.8596,
                                   alpha_err=8.24e-19),
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
        assert back.modulator.alpha == calset.modulator.alpha
        assert back.linear.k1 == calset.linear.k1
        assert back.linear.covariance == calset.linear.covariance
        assert back.linear.tau_window == calset.linear.tau_window
        assert back.fringe_fits["ch1"].v0i_err == fit.v0i_err
        assert back.dark_rates == calset.dark_rates

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text('{"schema_version": 99}')
        with pytest.raises(DataError):
            read_calibration_set(path)


# Every double but nan, subnormals included, plus the one nan the writer's
# "nan" reads back as (repr drops a nan's sign and payload).
FLOATS = st.one_of(st.floats(allow_nan=False), st.just(math.nan))
COUNTS = st.integers(0, 2**63 - 1)
UNIT_MAP = ModulatorMap(alpha=1.0, v0i=1.0)
ALLAN_KEYS = ("m", "t", "adev", "ci", "n_terms")


def _column(data, elements, n):
    return np.array(data.draw(st.lists(elements, min_size=n, max_size=n)))


def _fisher(data):
    n = data.draw(st.integers(1, 12))
    return [_column(data, FLOATS, n) for _ in range(2)]


def _counts(data):
    # bin times must be finite and must not decrease; bounded so that their
    # differences stay finite
    times = st.floats(-1e300, 1e300)
    n = data.draw(st.integers(1, 12))
    return [np.sort(_column(data, times, n)), _column(data, COUNTS, n),
            _column(data, COUNTS, n)]


def _bright(data):
    # a bright scan's cells must be finite
    n = data.draw(st.integers(1, 12))
    return [_column(data, st.floats(allow_nan=False, allow_infinity=False), n)
            for _ in range(3)]


def _scan(data):
    # neighbouring steps differ in voltage, so the reader regroups them; the
    # bins follow the count table's rules
    v0 = np.array(data.draw(st.lists(st.floats(allow_nan=False), min_size=1,
                                     max_size=5, unique=True)))
    n = len(v0) * data.draw(st.integers(1, 4))
    return [v0, np.sort(_column(data, st.floats(-1e300, 1e300), n)),
            _column(data, COUNTS, n), _column(data, COUNTS, n)]


def _delays(data):
    n = data.draw(st.integers(0, 12))
    return [_column(data, FLOATS, n) for _ in range(3)] + \
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
    write_calibration_scan(path, CalibrationScan(c[0], UNIT_MAP.alpha * c[0],
                                                 CountSeries(*c[1:], 1.0)))


def _counts_read(path):
    series = read_count_series(path, 1.0)
    return [series.t, series.c1, series.c2]


def _bright_read(path):
    scan = read_bright_scan(path)
    return [scan.v0, scan.power1, scan.power2]


def _scan_read(path):
    scan = read_calibration_scan(path, 1.0, UNIT_MAP)
    return [scan.v0, scan.counts.t, scan.counts.c1, scan.counts.c2]


def _allan_read(path):
    return {origin: SimpleNamespace(**entry)
            for origin, entry in read_allan_curves(path).items()}


# kind -> (columns drawn, writer, reader, column types in file order)
TABLES = {
    "fisher": (_fisher, lambda path, c: write_fisher_curve(path, *c),
               lambda path: _read_table(path, FISHER_HEADER, "f8,f8"), "ff"),
    "counts": (_counts, lambda path, c: write_count_series(path, CountSeries(*c, 1.0)),
               _counts_read, "fii"),
    "bright": (_bright, lambda path, c: write_bright_scan(path, BrightScan(*c)),
               _bright_read, "fff"),
    "calibration_scan": (_scan, _scan_write, _scan_read, "ffii"),
    "delays": (_delays, lambda path, c: write_delay_series(path, *c),
               lambda path: list(read_delay_series(path)), "fffs"),
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
}
READERS = {COUNT_HEADER: lambda path: read_count_series(path, 1.0),
           BRIGHT_HEADER: read_bright_scan,
           CAL_SCAN_HEADER: lambda path: read_calibration_scan(path, 1.0, UNIT_MAP)}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_table_is_data_error(tmp_path, case):
    header, rows = MALFORMED[case]
    path = tmp_path / "table.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    with pytest.raises(DataError):
        READERS[header](path)


@pytest.mark.parametrize("third_row,reason", [
    ("2.0,x,5", "could not convert string 'x' to int64 at line {line}, column 2."),
    ("2.0,5", "the dtype passed requires 3 columns but 2 were found at line {line}"),
])
@pytest.mark.parametrize("blank_lines", [0, 2])
def test_bad_row_named_by_file_line(tmp_path, third_row, reason, blank_lines):
    """A bad value and a wrong cell count both name the row's line in the
    file (the header is line 1), counting the empty lines loadtxt skips, and
    nothing else: no advice of numpy's follows."""
    path = tmp_path / "counts.csv"
    rows = [COUNT_HEADER, "0.0,1,2"] + [""] * blank_lines + ["1.0,3,4", third_row]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(DataError) as info:
        read_count_series(path, 1.0)
    assert str(info.value) == f"cannot read {path}: {reason.format(line=4 + blank_lines)}"


@pytest.mark.parametrize("third_row,reason", [
    ("2.0,1e-15,1e-18,bogus", "flag 'bogus' is not one of ('ok', 'degenerate', 'window')"),
    ("3.0,1e-15,1e-18,ok", "bin times are not one step of 1.0 s per row from this row "
                           "on (missing or repeated rows)"),
])
@pytest.mark.parametrize("blank_lines", [0, 2])
def test_bad_delay_row_named_by_file_line(tmp_path, capsys, third_row, reason,
                                          blank_lines):
    """fogsim stability names a bad flag and a missing row of a 20-row delay
    table by the file and the row's line in it."""
    path = tmp_path / "delays.csv"
    rows = [f"{float(i)!r},1e-15,1e-18,ok" for i in range(20)]
    rows[2] = third_row
    path.write_text("\n".join([DELAY_HEADER, rows[0]] + [""] * blank_lines + rows[1:]) + "\n")
    assert main(["stability", "--delays", str(path),
                 "--out-prefix", str(tmp_path / "stab")]) == 3
    error = capsys.readouterr().err
    assert error == f"fogsim: error: {path}: line {4 + blank_lines}: {reason}\n"


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


def _pool_column(data, pools, n):
    """A column that repeats a few values, mostly special ones."""
    return data.draw(st.lists(st.sampled_from(data.draw(pools)), min_size=n, max_size=n))


def _oracle_column(data, n):
    kind = data.draw(st.sampled_from(["float_pool", "float", "strided", "int_pool",
                                      "int", "flag_list"]))
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
    whether a chunk of a column is formatted per distinct value or per cell,
    and with chunks that split the table anywhere."""
    monkeypatch.setattr(io_formats, "_WRITE_ROWS", 8)
    n = data.draw(st.integers(0, 40))
    columns = [_oracle_column(data, n) for _ in range(data.draw(st.integers(1, 4)))]
    header = ",".join(f"c{i}" for i in range(len(columns)))
    path = tmp_path / "table.csv"
    _write_table(path, header, *columns)
    assert path.read_text() == _per_cell_table(header, *columns)

"""Command-line front end tying the pipeline together.

Subcommands: fisher, simulate, calibrate, estimate, stability.  ``main``
loads the config, runs the subcommand and writes ``<last output>.manifest.json``
with its arguments and the digests of the files it read (its input flags)
and wrote (every path ``_out_path`` named, by its path from the manifest's
directory).  Exit codes: 0 success; 2 usage
or configuration error (ParameterError), among them an output that would
overwrite the config, an input or an output the same command named before,
refused before the command reads, computes or writes anything; 3 data or
fit error (DataError).  An arithmetic error (a floating-point overflow,
invalid operation or division by zero) stops a command with exit 3, where
numpy would warn and go on with inf or nan, and names the function it came
from.  One rule, ``_computing``, names a computation and the inputs it
declares, its flags, config keys and data files: with a data file among
them every error is a data error that opens with the file; else an
arithmetic error is a usage error, and running out of memory a data error.
It covers fisher's curve, simulate's run and calibrate's computations.  A
file that cannot be read or written, or runs out of memory, is named by its
path (io_formats.about_file); anything else by the command; all exit 3.
That holds once this module has loaded: running out at start-up, while
numpy and its OpenBLAS load, ends in the interpreter's own error with exit
1.  With --json-errors failures are also emitted as a machine-readable JSON
object on stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .calibration import (CalibrationSet, combine_inflection, contrast_points_from_scan,
                          estimate_delays, fit_fringe, fit_linear_calibration)
from .config import ExperimentConfig, key_paths, load_config
from .errors import DataError, FogsimError, ParameterError
from .io_formats import (file_digest, read_bright_scan,
                         read_calibration_scan, read_calibration_set, read_count_series,
                         read_delay_series, write_allan_curves, write_bright_scan,
                         write_calibration_scan, write_calibration_set,
                         write_count_series, write_delay_series, write_fisher_curve,
                         write_manifest, write_report)
from .model import ModulatorMap, fisher_information
from .simulate import (MAX_BINS, simulate_bright_scan, simulate_calibration_scan,
                       simulate_run)
from .stability import (even_odd_split, overlapping_allan_deviation,
                        series_from_delay_table, stability_report)

# What the imports made lives as long as the process.  Frozen, it is left out
# of every later garbage collection, the last ones at exit among them (about
# 20 ms of a 180 ms command).  Refcounting still frees it; only cycles made
# before this line are never collected.
gc.freeze()

_USAGE_EXIT = 2
_DATA_EXIT = 3
# the dests of the input flags, each the name a manifest gives the file's digest
_INPUTS = ("counts", "calibration", "delays", "bright_scan", "calibration_scan")


@contextmanager
def _computing(what: str, *inputs):
    """Name the failing computation ``what`` and its ``inputs``: its flags
    ("--n-points"), config sections and key paths, and data files (Paths).
    With a data file among them every error inside is a DataError that opens
    with the files; else a FogsimError keeps its class, an arithmetic error is
    a usage error and running out of memory a data error.  Each gains the
    prefix ``what: `` and ends with the other inputs to check, each section
    spelled as its keys in config._KEYS."""
    try:
        yield
    except (FogsimError, ArithmeticError, MemoryError) as exc:
        files = ", ".join(str(x) for x in inputs if isinstance(x, Path))
        names = list(dict.fromkeys(name for x in inputs if not isinstance(x, Path)
                                   for name in ([x] if x.startswith("--") else key_paths(x))))
        text = "ran out of memory" if isinstance(exc, MemoryError) else _error_text(exc)
        if names:
            *rest, last = names
            text += f"; check {', '.join(rest)} and {last}" if rest else f"; check {last}"
        if files:
            raise DataError(f"{files}: {what}: {text}") from exc
        error = (ParameterError if isinstance(exc, ArithmeticError)
                 else DataError if isinstance(exc, MemoryError) else type(exc))
        raise error(f"{what}: {text}") from exc


def _manifest_path(path: Path) -> Path:
    """The manifest ``main`` writes next to a command's last output ``path``."""
    return Path(f"{path}.manifest.json")


def _same_file(path, other) -> bool:
    """Whether two paths name one file: by os.path.samefile where both exist,
    so a hard link counts, else by real path (Path.resolve() raises on a
    symlink loop)."""
    if os.path.exists(path) and os.path.exists(other):
        return os.path.samefile(path, other)
    return os.path.realpath(path) == os.path.realpath(other)


def _out_path(args, name: str) -> Path:
    """The path of the output ``name``, under --out-dir unless absolute, added
    to ``args.outputs``.  A path that is the config, an input or an output
    the command named before is a usage error, and so is a path whose
    manifest would be one of them: each command names its outputs first, so
    it is refused before the command reads, computes or writes anything.
    The writer makes the directory, so a command that stops first leaves none."""
    path = Path(name)
    if not path.is_absolute() and args.out_dir:
        path = Path(args.out_dir) / path
    for target in (path, _manifest_path(path)):
        for what, other in (("the config", args.config),
                            *((f"the input {role}", p) for role, p in args.inputs.items()),
                            *(("an earlier output", p) for p in args.outputs)):
            if other is not None and _same_file(target, other):
                raise ParameterError(f"{target}: an output may not overwrite {what} "
                                     f"({other})")
    args.outputs.append(path)
    return path


# ---------------------------------------------------------------------------
# subcommands: each names its outputs with _out_path, reads its inputs, calls
# the layers and writes its outputs to the paths named
# ---------------------------------------------------------------------------

def _cmd_fisher(args, config: ExperimentConfig) -> None:
    if not 1 <= args.n_points <= MAX_BINS:
        raise ParameterError(f"n-points must lie in [1, {MAX_BINS:.0e}], got {args.n_points}")
    if args.tau_min < 0 or not math.isfinite(args.tau_min):
        raise ParameterError(f"tau-min must be >= 0, got {args.tau_min}")
    if not math.isfinite(args.tau_max):
        raise ParameterError(f"tau-max must be finite, got {args.tau_max}")
    if args.n_points > 1 and not args.tau_max > args.tau_min:
        raise ParameterError("tau-max must exceed tau-min")
    out = _out_path(args, args.out)
    with _computing("the Fisher information failed", "--n-points", "--tau-min", "--tau-max",
                    "spectrum"):
        grid = np.linspace(args.tau_min, args.tau_max, args.n_points)
        values = fisher_information(grid, config.spectrum)
    write_fisher_curve(out, grid, values)
    print(f"wrote {out} ({len(grid)} points)")


def _cmd_simulate(args, config: ExperimentConfig) -> None:
    out = _out_path(args, args.out)
    with _computing("the run could not be drawn", "run", "noise", "spectrum", "modulator"):
        series = simulate_run(config.run, config.spectrum, config.noise)
    write_count_series(out, series)
    print(f"wrote {out} ({len(series)} bins)")


def _cmd_calibrate(args, config: ExperimentConfig) -> None:
    protocol = config.protocol
    bright_out = (_out_path(args, "bright_scan.csv")
                  if args.keep_intermediate and args.simulate_bright else None)
    scan_out = (_out_path(args, "calibration_scan.csv")
                if args.keep_intermediate and args.simulate_counts else None)
    out = _out_path(args, args.out)
    # each stage's inputs: its file, or the config keys it is drawn from.  A
    # bright-scan file sets alpha, so stage two reads it as well
    bright_file = (Path(args.bright_scan),) if args.bright_scan else ()
    stage_one = bright_file or ("bright_source",)
    stage_two = bright_file + ((Path(args.calibration_scan),) if args.calibration_scan else
                               ("run.rate_total_hz", "calibration_protocol", "noise", "spectrum"))

    if args.simulate_bright:
        with _computing("the bright scan could not be drawn", *stage_one):
            bright = simulate_bright_scan(config.bright_source, config.run.seed)
        if bright_out:
            write_bright_scan(bright_out, bright)
    else:
        bright = read_bright_scan(args.bright_scan)

    fits = {}
    for name, power, sigma in zip(("ch1", "ch2"), (bright.power1, bright.power2),
                                  config.bright_source.power_noise):
        if args.channels in ("both", name):
            key, = key_paths(f"bright_source.power_noise_{name}_w")
            with _computing(f"fringe fit failed on {name}, weighted by {key} = {sigma!r} W",
                            *stage_one):
                fits[name] = fit_fringe(np.column_stack([bright.v0, power]), sigma)
    with _computing("the inflection voltage gives no modulator map", *stage_one, "spectrum"):
        v0i, v0i_err = combine_inflection([(f.v0i, f.v0i_err) for f in fits.values()])
        modulator = ModulatorMap.from_inflection(v0i, v0i_err, config.spectrum)

    if args.simulate_counts:
        with _computing("the calibration scan could not be drawn", *stage_two):
            scan = simulate_calibration_scan(protocol, config.run, config.spectrum,
                                             modulator, config.noise)
        if scan_out:
            write_calibration_scan(scan_out, scan)
    else:
        scan = read_calibration_scan(args.calibration_scan, protocol.integration_time_s,
                                     *key_paths("calibration_protocol.integration_time_s"))

    dark = (config.noise.dark_rate_1, config.noise.dark_rate_2)
    with _computing("the linear calibration failed", *stage_two, "noise.dark_rate_1_hz",
                    "noise.dark_rate_2_hz"):
        points = contrast_points_from_scan(scan, modulator, dark)
        linear = fit_linear_calibration(points, window_volt=(float(scan.v0.min()),
                                                             float(scan.v0.max())))
    write_calibration_set(out, CalibrationSet(fits, v0i, v0i_err, linear, dark))
    print(f"wrote {out}: alpha = {modulator.alpha:.4e} s/V, "
          f"k1 = {linear.k1:.4f} /fs, k2 = {linear.k2:.4f}, "
          f"{sum(p.degenerate for p in points)} degenerate steps")


def _cmd_estimate(args, config: ExperimentConfig) -> None:
    out = _out_path(args, args.out)
    calset = read_calibration_set(args.calibration)
    series = read_count_series(args.counts, config.run.integration_time,
                               *key_paths("run.integration_time_s"))
    # t, c1 and c2 are the table's three columns, 24 B per row, held to the end:
    # tau and sigma are written over c1 and c2 (estimate_delays' out), a
    # block at a time, so the results add only the flag codes' 1 B per bin
    tau, sigma, flags = estimate_delays(
        series, calset, (series.c1.view(np.float64), series.c2.view(np.float64)))
    write_delay_series(out, series.t, tau, sigma, flags)
    print(f"wrote {out} ({len(tau)} bins, {len(flags) - flags.count('ok')} flagged)")


def _cmd_stability(args, config: ExperimentConfig) -> None:
    allan_path = _out_path(args, args.out_prefix + "_allan.csv")
    report_path = _out_path(args, args.out_prefix + "_report.json")
    t, tau, sigma, flags = read_delay_series(args.delays, config.run.integration_time,
                                             *key_paths("run.integration_time_s"))
    # four columns of 25 B per row in all; t and sigma are freed before raw, a
    # copy, is made, and tau and the flag codes before the Allan kernel's
    # prefix sums (16 B per sample).  The even, odd and differential series
    # are made after raw's curve, so they are not held with its prefix sums
    del t, sigma
    raw, dropped = series_from_delay_table(tau, flags, config.run.integration_time)
    del tau, flags
    curves = {"raw": overlapping_allan_deviation(raw.drop_nonfinite(), workers=args.workers)}
    for series in even_odd_split(raw):
        curves[series.origin] = overlapping_allan_deviation(series.drop_nonfinite(),
                                                            workers=args.workers)
    report = stability_report(curves, dropped, config.run.rate_total, config.spectrum,
                              config.geometry)
    write_allan_curves(allan_path, curves)
    write_report(report_path, report)
    dl_tau = report["detection_limit_tau"]
    print(f"wrote {allan_path} and {report_path}; "
          f"DL(tau) = {dl_tau['sigma_s']:.3e} s at t = {dl_tau['t_s']:.0f} s")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors are reported like every other usage error."""

    def error(self, message):
        raise ParameterError(f"{message}\n{self.format_usage().rstrip()}")


def _worker_count(text: str) -> int:
    """The --workers value: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fogsim",
        description="Photon-counting gyroscope simulator and stability analysis")
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--out-dir", help="directory for relative output paths")
    parser.add_argument("--json-errors", action="store_true",
                        help="emit errors as JSON on stderr")
    parser.add_argument("--workers", type=_worker_count, default=1,
                        help="worker threads for the Allan analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fisher", help="tabulate the Fisher information curve")
    p.add_argument("--tau-min", type=float, default=0.0)
    p.add_argument("--tau-max", type=float, default=5000e-15)
    p.add_argument("--n-points", type=int, default=1001)
    p.add_argument("--out", default="fisher.csv")
    p.set_defaults(func=_cmd_fisher)

    p = sub.add_parser("simulate", help="generate a photon-count time series")
    p.add_argument("--out", default="counts.csv")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("calibrate", help="run the two-stage calibration; each stage "
                       "takes exactly one source, a file or a simulation")
    stage = p.add_mutually_exclusive_group(required=True)
    stage.add_argument("--bright", dest="bright_scan", help="bright-scan CSV")
    stage.add_argument("--simulate-bright", action="store_true")
    stage = p.add_mutually_exclusive_group(required=True)
    stage.add_argument("--counts", dest="calibration_scan", help="calibration-scan CSV")
    stage.add_argument("--simulate-counts", action="store_true")
    p.add_argument("--channels", choices=["both", "ch1", "ch2"], default="both")
    p.add_argument("--keep-intermediate", action="store_true",
                   help="write simulated scans next to the output")
    p.add_argument("--out", default="calibration.json")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("estimate", help="convert counts to delay estimates")
    p.add_argument("--counts", required=True)
    p.add_argument("--calibration", required=True)
    p.add_argument("--out", default="delays.csv")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("stability", help="Allan analysis and detection limits")
    p.add_argument("--delays", required=True)
    p.add_argument("--out-prefix", default="stability")
    p.set_defaults(func=_cmd_stability)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse fails before it sets any flag, so a usage error reads this one
    # from the raw arguments.
    json_errors = "--json-errors" in argv
    try:
        args = _build_parser().parse_args(argv)
        json_errors = args.json_errors
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            config = load_config(args.config)
            args.inputs = {name: getattr(args, name) for name in _INPUTS
                           if getattr(args, name, None) is not None}
            args.outputs = []
            try:
                args.func(args, config)
            except MemoryError as exc:  # outside every file and computation named
                raise DataError(f"{args.command} ran out of memory") from exc
            manifest = _manifest_path(args.outputs[-1])
            write_manifest(manifest, config.hash, config.run.seed, argv,
                           {name: file_digest(path) for name, path in args.inputs.items()},
                           {os.path.relpath(path, manifest.parent): file_digest(path)
                            for path in args.outputs})
        return 0
    except ParameterError as exc:
        _report_error(json_errors, exc)
        return _USAGE_EXIT
    except (FogsimError, ArithmeticError) as exc:
        _report_error(json_errors, exc)
        return _DATA_EXIT


def _raised_in(exc: BaseException) -> str:
    """module.function of the innermost fogsim frame an exception passed through,
    skipping frames such as ``<listcomp>`` (Python < 3.12) that name no function."""
    where = ""
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        name = tb.tb_frame.f_code.co_name
        # this module is __main__ under `python -m fogsim.cli`
        if (module == __name__ or module.startswith("fogsim.")) and not name.startswith("<"):
            where = f"{module}.{name}"
        tb = tb.tb_next
    return where


def _error_text(exc: Exception) -> str:
    """The message of an error; an arithmetic error's names where it was raised
    (Python's float ** gives its args as (errno, text))."""
    if isinstance(exc, ArithmeticError):
        text = str(exc.args[-1]) if exc.args else type(exc).__name__
        return f"{text} (in {_raised_in(exc)})"
    return str(exc)


def _report_error(json_errors: bool, exc: Exception) -> None:
    message = _error_text(exc)
    if json_errors:
        payload = {"error": {"type": type(exc).__name__, "message": message}}
        print(json.dumps(payload), file=sys.stderr)
    else:
        print(f"fogsim: error: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end tying the pipeline together.

Subcommands: fisher, simulate, calibrate, estimate, stability.  Exit codes:
0 success, 2 usage or configuration error, 3 data or fit error.  An
arithmetic error (a floating-point overflow, invalid operation or division
by zero) stops a command with exit 3, where numpy would warn and go on with
inf or nan, and names the function it came from; in fisher, whose only
inputs are its arguments and the config, it is a usage error.  With
--json-errors failures are also emitted as a machine-readable JSON object
on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import (CalibrationSet, combine_inflection, contrast_points_from_scan,
                          estimate_delays, fit_fringe, fit_linear_calibration)
from .config import ExperimentConfig, load_config
from .errors import ConfigError, DataError, FitError, FogsimError, ParameterError
from .io_formats import (RunManifest, about_file, file_digest, read_bright_scan,
                         read_calibration_scan, read_calibration_set, read_count_series,
                         read_delay_series, write_allan_curves, write_bright_scan,
                         write_calibration_scan, write_calibration_set,
                         write_count_series, write_delay_series, write_fisher_curve,
                         write_manifest, write_report)
from .model import ModulatorMap, fisher_information
from .simulate import (MAX_BINS, RNG_ALGORITHM, RunConfig, simulate_bright_scan,
                       simulate_calibration_scan, simulate_run)
from .stability import (default_m_grid, even_odd_split, overlapping_allan_deviation,
                        series_from_delay_table, stability_report)

_USAGE_EXIT = 2
_DATA_EXIT = 3


def _out_path(args, name: str) -> Path:
    path = Path(name)
    if not path.is_absolute() and args.out_dir:
        path = Path(args.out_dir) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _manifest(config: ExperimentConfig, inputs: dict[str, Path],
              outputs: dict[str, Path]) -> RunManifest:
    return RunManifest(
        config_hash=config.hash,
        seed=config.run.seed,
        tool_version=__version__,
        rng_algorithm=RNG_ALGORITHM,
        inputs={k: file_digest(v) for k, v in inputs.items()},
        outputs={k: file_digest(v) for k, v in outputs.items()},
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_fisher(args) -> int:
    config = load_config(args.config)
    if not 1 <= args.n_points <= MAX_BINS:
        raise ParameterError(f"n-points must lie in [1, {MAX_BINS:.0e}], got {args.n_points}")
    if args.tau_min < 0 or not math.isfinite(args.tau_min):
        raise ParameterError(f"tau-min must be >= 0, got {args.tau_min}")
    if not math.isfinite(args.tau_max):
        raise ParameterError(f"tau-max must be finite, got {args.tau_max}")
    if args.n_points > 1 and not args.tau_max > args.tau_min:
        raise ParameterError("tau-max must exceed tau-min")
    grid = np.linspace(args.tau_min, args.tau_max, args.n_points)
    try:
        values = fisher_information(grid, config.spectrum)
    except ArithmeticError as exc:
        # fisher reads no data file: its arguments and the config are the inputs
        raise ParameterError(f"the Fisher information failed: {_arithmetic_text(exc)}; "
                             "check --tau-min, --tau-max, spectrum.lambda0_m and "
                             "spectrum.sigma_omega") from exc
    out = _out_path(args, args.out)
    write_fisher_curve(out, grid, values)
    print(f"wrote {out} ({len(grid)} points)")
    return 0


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    series = simulate_run(config.run, config.spectrum, config.noise, workers=args.workers)
    out = _out_path(args, args.out)
    write_count_series(out, series)
    manifest_path = Path(str(out) + ".manifest.json")
    write_manifest(manifest_path, _manifest(config, {}, {out.name: out}))
    print(f"wrote {out} ({len(series)} bins) and {manifest_path}")
    return 0


def _fit_channels(bright, sigmas: tuple[float, float], channels: str):
    """The fringe fits of the channels that --channels names: ch1, ch2 or both."""
    fits = {}
    for name, power, sigma in zip(("ch1", "ch2"), (bright.power1, bright.power2), sigmas):
        if channels not in ("both", name):
            continue
        try:
            fits[name] = fit_fringe(np.column_stack([bright.v0, power]),
                                    sigma if sigma > 0 else 1.0)
        except FitError as exc:
            raise FitError(f"fringe fit failed on {name}: {exc}") from exc
    return fits


def _check_bin_step(path, counts, key: str) -> None:
    """A count table's median bin step must be the configured bin length.

    The tolerance covers the rounding of bin times k T, which grows with k:
    up to about 2e-7 of T at the 10^9-bin cap.
    """
    if len(counts) < 2:
        return
    step = float(np.median(np.diff(counts.t)))
    if not math.isclose(step, counts.integration_time, rel_tol=1e-6):
        raise DataError(f"{path}: the median bin step is {step!r} s, but {key} is "
                        f"{counts.integration_time!r} s")


def _cmd_calibrate(args) -> int:
    config = load_config(args.config)
    inputs: dict[str, Path] = {}
    protocol = config.protocol
    bright_cfg = config.bright_source

    if args.bright is not None:
        bright = read_bright_scan(args.bright)
        inputs["bright_scan"] = Path(args.bright)
    elif args.simulate_bright:
        bright = simulate_bright_scan(
            (bright_cfg.scan_v_min, bright_cfg.scan_v_max), bright_cfg.scan_points,
            (bright_cfg.ch1, bright_cfg.ch2), bright_cfg.power_noise,
            seed=config.run.seed)
        if args.keep_intermediate:
            path = _out_path(args, "bright_scan.csv")
            write_bright_scan(path, bright)
            inputs["bright_scan"] = path
    else:
        raise ParameterError("provide --bright PATH or --simulate-bright")

    fits = _fit_channels(bright, bright_cfg.power_noise, args.channels)
    v0i, v0i_err = combine_inflection([(f.v0i, f.v0i_err) for f in fits.values()])
    modulator = ModulatorMap.from_inflection(v0i, v0i_err, config.spectrum)

    if args.counts is not None:
        scan = read_calibration_scan(args.counts, protocol.integration_time_s, modulator)
        _check_bin_step(args.counts, scan.counts, "calibration_protocol.integration_time_s")
        inputs["calibration_scan"] = Path(args.counts)
    elif args.simulate_counts:
        scan_run = RunConfig(
            rate_total=config.run.rate_total,
            integration_time=protocol.integration_time_s,
            duration=protocol.integration_time_s * protocol.n_steps * protocol.repeats,
            tau0=config.run.tau0, seed=config.run.seed)
        scan = simulate_calibration_scan(
            protocol.v_a_volt, protocol.v_b_volt, protocol.n_steps, protocol.repeats,
            scan_run, config.spectrum, modulator, config.noise, workers=args.workers)
        if args.keep_intermediate:
            path = _out_path(args, "calibration_scan.csv")
            write_calibration_scan(path, scan)
            inputs["calibration_scan"] = path
    else:
        raise ParameterError("provide --counts PATH or --simulate-counts")

    dark = (config.noise.dark_rate_1, config.noise.dark_rate_2)
    points = contrast_points_from_scan(scan, dark, protocol.error_mode)
    linear = fit_linear_calibration(points, window_volt=(protocol.v_a_volt,
                                                         protocol.v_b_volt))
    calset = CalibrationSet(
        fringe_fits=fits, v0i=v0i, v0i_err=v0i_err,
        modulator=modulator, linear=linear, dark_rates=dark,
        extras={"error_mode": protocol.error_mode,
                "n_degenerate_steps": sum(p.degenerate for p in points)},
    )
    out = _out_path(args, args.out)
    write_calibration_set(out, calset)
    manifest_path = Path(str(out) + ".manifest.json")
    write_manifest(manifest_path, _manifest(config, inputs, {out.name: out}))
    print(f"wrote {out}: alpha = {modulator.alpha:.4e} s/V, "
          f"k1 = {linear.k1:.4f} /fs, k2 = {linear.k2:.4f}")
    return 0


def _cmd_estimate(args) -> int:
    config = load_config(args.config)
    calset = read_calibration_set(args.calibration)
    series = read_count_series(args.counts, config.run.integration_time)
    _check_bin_step(args.counts, series, "run.integration_time_s")
    tau, sigma, flags = estimate_delays(series, calset)
    out = _out_path(args, args.out)
    write_delay_series(out, series.t, tau, sigma, flags)
    manifest_path = Path(str(out) + ".manifest.json")
    write_manifest(manifest_path, _manifest(
        config,
        {"counts": Path(args.counts), "calibration": Path(args.calibration)},
        {out.name: out}))
    n_flagged = sum(1 for f in flags if f != "ok")
    print(f"wrote {out} ({len(tau)} bins, {n_flagged} flagged)")
    return 0


def _cmd_stability(args) -> int:
    config = load_config(args.config)
    t, tau, _, flags = read_delay_series(args.delays)
    with about_file(args.delays):
        raw, dropped = series_from_delay_table(t, tau, flags)
    curves = {}
    for series in (raw, *even_odd_split(raw)):
        series, _ = series.drop_nonfinite()
        grid = default_m_grid(len(series), config.analysis.points_per_decade)
        curves[series.origin] = overlapping_allan_deviation(series, grid,
                                                            workers=args.workers)
    report = stability_report(curves, dropped, config.run.rate_total, config.spectrum,
                              config.geometry, config.serrodyne_rate_override)

    allan_path = _out_path(args, args.out_prefix + "_allan.csv")
    report_path = _out_path(args, args.out_prefix + "_report.json")
    write_allan_curves(allan_path, curves)
    write_report(report_path, report)
    write_manifest(Path(str(report_path) + ".manifest.json"), _manifest(
        config, {"delays": Path(args.delays)},
        {allan_path.name: allan_path, report_path.name: report_path}))
    dl_tau = report["detection_limit_tau"]
    print(f"wrote {allan_path} and {report_path}; "
          f"DL(tau) = {dl_tau['sigma_s']:.3e} s at t = {dl_tau['t_s']:.0f} s")
    return 0


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
                        help="worker threads for bin generation / Allan analysis")
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

    p = sub.add_parser("calibrate", help="run the two-stage calibration")
    p.add_argument("--bright", help="bright-scan CSV")
    p.add_argument("--simulate-bright", action="store_true")
    p.add_argument("--counts", help="calibration-scan CSV")
    p.add_argument("--simulate-counts", action="store_true")
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
            return args.func(args)
    except (ConfigError, ParameterError) as exc:
        _report_error(json_errors, exc)
        return _USAGE_EXIT
    except (FogsimError, ArithmeticError) as exc:
        _report_error(json_errors, exc)
        return _DATA_EXIT


def _arithmetic_text(exc: ArithmeticError) -> str:
    """The message of an arithmetic error; Python's float ** gives (errno, text)."""
    return str(exc.args[-1]) if exc.args else type(exc).__name__


def _raised_in(exc: BaseException) -> str:
    """module.function of the innermost fogsim frame an exception passed through."""
    where = ""
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        # this module is __main__ under `python -m fogsim.cli`
        if module == __name__ or module.startswith("fogsim."):
            where = f"{module}.{tb.tb_frame.f_code.co_name}"
        tb = tb.tb_next
    return where


def _report_error(json_errors: bool, exc: Exception) -> None:
    message = str(exc)
    if isinstance(exc, ArithmeticError):
        message = f"{_arithmetic_text(exc)} (in {_raised_in(exc)})"
    if json_errors:
        payload = {"error": {"type": type(exc).__name__, "message": message}}
        print(json.dumps(payload), file=sys.stderr)
    else:
        print(f"fogsim: error: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())

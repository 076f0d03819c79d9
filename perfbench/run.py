"""Benchmark of fogsim's five-command CLI chain.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs ``fisher -> simulate -> calibrate -> estimate -> stability`` as fresh
``python -m fogsim.cli`` processes from the checkout's ``src/``, the way a
user runs them.  A run repeats the chain a fixed number of times that
depends only on the workload and ``--seconds``, so two commits measured
with the same arguments do the same work.  A workload that runs the chain
once runs ``simulate`` and ``stability`` a second time on the same inputs,
so that every run checks that repeated commands write byte-identical data.
Every command's exit code and every output file is checked.  The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Before it come the environment, the data-file digests of the
first chain, every untraced command's wall time and a table of every metric
with its unit and sample count.
The exit code is 0 only if every check passed; without fogsim sources next
to ``perfbench/`` it is 2.

Metric names, units, directions and bounds, and the workload names, come
from ``BENCHMARK.json`` at the checkout root.  ``--trace 0`` reports the
end-to-end metrics.  ``--trace 1`` also runs as many chains again under
``launch.py``, which records spans around the package's layer calls, and
reports the per-layer metrics; the table then shows both.  The workload
seed goes into the generated config as ``run.seed``; fogsim sees nothing
else of the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import checks
from spans import COMMANDS, chain_layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# Set-up is the median of this many no-work commands, spread evenly over the
# run (the first before any chain, the last after all of them) so that they
# sample the machine at different times.  Reading the config imports fogsim
# in this process first, which warms the file cache and, unless
# PYTHONDONTWRITEBYTECODE is set, writes the bytecode cache, so no warm-up
# command is needed.
SETUP_REPEATS = 5
# Commands still running this long after the start are killed, and count as
# failed, so that a run ends inside the 180 s the benchmark is allowed.
RUN_BUDGET_S = 170.0
# Rerun on the first chain's inputs when a run does one chain: these two
# commands are the ones that run thread pools.
REPEATED = ("simulate", "stability")


@dataclass(frozen=True)
class Workload:
    config: dict
    workers: int
    # At the default 631.6 kHz flux the checks expect >= 99 % of bins flagged
    # ok and k1 within 2 % of ideal (seed-to-seed scatter 0.15 %); at lower
    # flux k1 scatters by 0.8 %, so it must lie within 5 %.
    default_flux: bool
    nominal_chain_s: float  # one chain on the reference machine (2 cores)

    def chains(self, seconds: int) -> int:
        return max(1, int(seconds // self.nominal_chain_s))


WORKLOADS = {
    "overnight_9h": Workload(
        {"run": {"duration_s": 32400.0}, "noise": {"drift": {"preset": "overnight"}}},
        1, True, 12.5),
    "lowflux_1m": Workload(
        {"run": {"duration_s": 10000.0, "integration_time_s": 0.01,
                 "rate_total_hz": 20000.0}}, 2, False, 35.0),
}

_IO_MOVES = "chain_s, peak_rss_mb on lowflux_1m; hardly overnight_9h"
_START_MOVES = "setup_s, chain_s on overnight_9h"
_CALIBRATE_MOVES = "chain_s on every workload (calibration is the same size on all)"
_ALLAN_MOVES = "chain_s, cpu_s on lowflux_1m"

# Per-layer metric -> the end-to-end metrics and workload it should move.
MOVES = {
    "cli.simulate.wall_s": "chain_s on overnight_9h and lowflux_1m",
    "cli.calibrate.wall_s": _CALIBRATE_MOVES,
    "cli.estimate.wall_s": "chain_s on lowflux_1m",
    "cli.stability.wall_s": _ALLAN_MOVES,
    "simulate.simulate_run.self_s": "chain_s on overnight_9h; must not worsen lowflux_1m",
    "simulate.simulate_run.bins": "none (work count)",
    "simulate.simulate_calibration_scan.self_s": _CALIBRATE_MOVES,
    "simulate.simulate_bright_scan.s": _CALIBRATE_MOVES,
    "philox.block_uniforms.s": "chain_s on lowflux_1m",
    "philox.block_uniforms.blocks": "chain_s on lowflux_1m",
    "model.click_probabilities.s": "chain_s on overnight_9h",
    "model.fisher_information.s": "chain_s on overnight_9h",
    "calibration.fit_fringe.s": _CALIBRATE_MOVES,
    "calibration.fit_fringe.iterations": _CALIBRATE_MOVES,
    "calibration.contrast_points_from_scan.s": _CALIBRATE_MOVES,
    "calibration.contrast_points_from_scan.degenerate_steps": _CALIBRATE_MOVES,
    "calibration.fit_linear_calibration.s": _CALIBRATE_MOVES,
    "calibration.estimate_delays.s": "chain_s on lowflux_1m",
    "calibration.estimate_delays.ok_ratio": "chain_s on lowflux_1m",
    **{f"stability.overlapping_allan_deviation.{origin}.s": _ALLAN_MOVES
       for origin in ("raw", "even", "odd", "differential")},
    "stability.overlapping_allan_deviation.terms": _ALLAN_MOVES,
    "stability.even_odd_split.s": "chain_s on lowflux_1m",
    **{f"io_formats.{name}.s": _IO_MOVES for name in (
        "write_count_series", "read_count_series", "write_delay_series",
        "read_delay_series", "write_allan_curves", "write_calibration_set",
        "read_calibration_set", "write_report", "write_manifest", "file_digest")},
    "io_formats.rows": _IO_MOVES,
    "io_formats.bytes": _IO_MOVES,
    "config.load_config.s": _START_MOVES,
    "cli.import_s": _START_MOVES,
    **{f"cli.{command}.self_s": _START_MOVES for command in COMMANDS},
    "trace.overhead_s": "none (cost of tracing)",
}


@dataclass(frozen=True)
class Finished:
    """One command as its parent saw it: wall and CPU seconds, peak RSS."""

    command: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int


class Tally:
    """Operations attempted and failed: command runs and correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def command(self, done: Finished, log: Path) -> None:
        self.attempted += 1
        if done.returncode != 0:
            self.failed += 1
            print(f"FAIL {done.command}: exit {done.returncode}, log {log}", file=sys.stderr)

    def check(self, name: str, check, *args) -> None:
        self.attempted += 1
        try:
            failures = check(*args)
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            failures = [f"{type(exc).__name__}: {exc}"]
        if failures:
            self.failed += 1
            for message in failures:
                print(f"FAIL {name}: {message}", file=sys.stderr)


# The bundled OpenBLAS otherwise starts a thread per core in every command,
# at import, although fogsim makes no BLAS call large enough to use them; on a
# small machine they contend with the command's own threads.  The data files
# are the same either way.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def run_command(argv: list[str], log: Path, timeout: float) -> Finished:
    """Run one child process to completion; kill it after ``timeout`` s."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **CHILD_ENV)
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    command = next(a for a in argv if a in COMMANDS)
    return Finished(command, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, proc.returncode)


def chain_commands(config: Path, out_dir: Path, workers: int,
                   in_dir: Path | None = None) -> dict[str, list[str]]:
    """fogsim argument lists of the five commands, in order.  Inputs are read
    from ``in_dir``, by default the chain's own ``out_dir``."""
    in_dir = in_dir or out_dir
    base = ["--config", str(config), "--out-dir", str(out_dir), "--workers", str(workers)]
    return {
        "fisher": base + ["fisher"],
        "simulate": base + ["simulate"],
        "calibrate": base + ["calibrate", "--simulate-bright", "--simulate-counts"],
        "estimate": base + ["estimate", "--counts", str(in_dir / "counts.csv"),
                            "--calibration", str(in_dir / "calibration.json")],
        "stability": base + ["stability", "--delays", str(in_dir / "delays.csv"),
                             "--out-prefix", "run1"],
    }


def load_spec() -> dict:
    """BENCHMARK.json: the workload and metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def setup_points(n_commands: int) -> set[int]:
    """After which of a run's untraced commands a set-up command runs
    (0 = before the first), ``SETUP_REPEATS`` of them spread evenly."""
    return {round(i * n_commands / (SETUP_REPEATS - 1)) for i in range(SETUP_REPEATS)}


class Bench:
    def __init__(self, name: str, seed: int, seconds: int, deadline: float):
        self.name = name
        self.workload = WORKLOADS[name]
        self.n_chains = self.workload.chains(seconds)
        self.deadline = deadline
        self.tally = Tally()
        self.config = WORK / "config.json"
        document = json.loads(json.dumps(self.workload.config))
        document["run"]["seed"] = seed
        self.config.write_text(json.dumps(document, indent=2) + "\n")
        self.bins, self.ideal_k1 = _config_facts(self.config)
        self.first_digests: dict[str, str] | None = None
        n_plain = len(COMMANDS) * self.n_chains + (len(REPEATED) if self.n_chains == 1 else 0)
        self.setup_after = setup_points(n_plain)
        self.plain_done = 0
        self.setup_s: list[float] = []
        self.samples: dict[str, list[Finished]] = {c: [] for c in COMMANDS}

    def run(self, argv: list[str], log: Path) -> Finished:
        done = run_command(argv, log, self.deadline - time.monotonic())
        self.tally.command(done, log)
        return done

    def setup(self) -> None:
        argv = [sys.executable, "-m", "fogsim.cli", "--config", str(self.config),
                "--out-dir", str(WORK / "setup"), "fisher", "--n-points", "1"]
        self.setup_s.append(self.run(argv, WORK / "setup.log").wall_s)

    def plain(self, fogsim_argv: list[str], log: Path) -> None:
        """Run one untraced command; keep its sample; set up where due."""
        if self.plain_done == 0 and 0 in self.setup_after:
            self.setup()
        done = self.run([sys.executable, "-m", "fogsim.cli", *fogsim_argv], log)
        self.samples[done.command].append(done)
        self.plain_done += 1
        if self.plain_done in self.setup_after:
            self.setup()

    def chain(self, index: int, traced: bool) -> tuple[list[list[dict]], float]:
        """Run, check and remove one chain; return a traced one's spans and
        wall time."""
        tag = f"{'traced' if traced else 'plain'}{index}"
        out_dir = WORK / tag
        out_dir.mkdir()
        spans, wall_s = [], 0.0
        for command, fogsim_argv in chain_commands(self.config, out_dir,
                                                   self.workload.workers).items():
            log = WORK / f"{tag}.{command}.log"
            if not traced:
                self.plain(fogsim_argv, log)
                continue
            spans_path = WORK / f"{tag}.{command}.spans.json"
            wall_s += self.run([sys.executable, str(HERE / "launch.py"), str(spans_path),
                                self.name, tag, *fogsim_argv], log).wall_s
            if spans_path.is_file():
                spans.append(json.loads(spans_path.read_text()))
        self.check_chain(out_dir)
        if not traced and self.n_chains == 1:
            self.repeat(out_dir)
        shutil.rmtree(out_dir)
        return spans, wall_s

    def repeat(self, chain_dir: Path) -> None:
        """Rerun ``REPEATED`` on ``chain_dir``'s inputs; compare their data."""
        out_dir = WORK / "repeat"
        out_dir.mkdir()
        commands = chain_commands(self.config, out_dir, self.workload.workers, chain_dir)
        for command in REPEATED:
            self.plain(commands[command], WORK / f"repeat.{command}.log")
        self.compare_digests(out_dir, [name for name in checks.DATA_FILES
                                       if (out_dir / name).exists()])
        shutil.rmtree(out_dir)

    def check_chain(self, out_dir: Path) -> None:
        tally = self.tally
        for manifest in checks.MANIFESTS:
            tally.check(f"manifest {manifest}", checks.check_manifest, out_dir, manifest)
        tally.check("row counts", checks.check_rows, out_dir, self.bins)
        tally.check("saturation", checks.check_saturation, out_dir)
        tally.check("calibration k1", checks.check_k1, out_dir, self.ideal_k1,
                    0.02 if self.workload.default_flux else 0.05)
        if self.workload.default_flux:
            tally.check("ok ratio", checks.check_ok_ratio, out_dir)
        self.compare_digests(out_dir, checks.DATA_FILES)

    def compare_digests(self, out_dir: Path, names) -> None:
        """Keep the first chain's digests; check later data files against them."""
        try:
            digests = checks.data_digests(out_dir, names)
        except OSError:
            return  # a missing data file has already failed a check
        if self.first_digests is None:
            self.first_digests = digests
        else:
            self.tally.check("repeat digests", checks.check_same_digests,
                             self.first_digests, digests)


def _config_facts(config: Path) -> tuple[int, float]:
    """Bin count and ideal calibration slope k1 (1/fs) for a config file."""
    sys.path.insert(0, str(SRC))
    from fogsim.calibration import ideal_linear_calibration
    from fogsim.config import load_config
    cfg = load_config(config)
    protocol = cfg.protocol
    tau_centre = cfg.modulator.alpha * 0.5 * (protocol.v_a_volt + protocol.v_b_volt)
    return cfg.run.n_bins, ideal_linear_calibration(cfg.spectrum, tau_centre).k1


def environment(bench: Bench, seed: int, seconds: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False).stdout.strip() or None
    tree = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        tree.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": bench.name, "bins": bench.bins, "workers": bench.workload.workers,
        "chains": bench.n_chains, "seed": seed, "seconds": seconds,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "git_sha": sha, "src_sha256": tree.hexdigest(),
    }


def chain_metrics(samples: dict[str, list[Finished]]) -> tuple[dict[str, float],
                                                               dict[str, int]]:
    """End-to-end chain metrics and command wall times from every untraced
    sample of each command: a chain is the sum of its commands' medians."""
    wall = {c: statistics.median(d.wall_s for d in done) for c, done in samples.items()}
    cpu = {c: statistics.median(d.cpu_s for d in done) for c, done in samples.items()}
    rss = {c: statistics.median(d.rss_mb for d in done) for c, done in samples.items()}
    chains = min(len(done) for done in samples.values())
    values = {"chain_s": sum(wall.values()), "cpu_s": sum(cpu.values()),
              "peak_rss_mb": max(rss.values()),
              **{f"cli.{c}.wall_s": wall[c] for c in COMMANDS}}
    counts = {"chain_s": chains, "cpu_s": chains, "peak_rss_mb": chains,
              **{f"cli.{c}.wall_s": len(samples[c]) for c in COMMANDS}}
    return values, counts


def medians(samples: list[dict[str, float]]) -> tuple[dict[str, float], dict[str, int]]:
    names = {name for sample in samples for name in sample}
    values = {name: [s[name] for s in samples if name in s] for name in names}
    return ({name: statistics.median(v) for name, v in values.items()},
            {name: len(v) for name, v in values.items()})


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fogsim" / "cli.py").is_file():
        print(f"perfbench: no fogsim sources at {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("perfbench: --seed must fit in 64 bits", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, args.seconds, deadline)
    print("env " + json.dumps(environment(bench, args.seed, args.seconds)))

    for index in range(bench.n_chains):
        bench.chain(index, traced=False)
    print("digests " + json.dumps(bench.first_digests))
    print("wall_s " + json.dumps({"setup": bench.setup_s, **{
        c: [d.wall_s for d in done] for c, done in bench.samples.items()}}))

    e2e, counts = chain_metrics(bench.samples)
    e2e["setup_s"] = statistics.median(bench.setup_s)
    counts["setup_s"] = len(bench.setup_s)
    # (name, value, unit, samples, what it should move)
    table = [(m["name"], e2e[m["name"]], m["unit"], counts[m["name"]], "")
             for m in spec["end_to_end"]]

    if args.trace:
        traced = [bench.chain(index, traced=True) for index in range(bench.n_chains)]
        layer, layer_counts = medians([chain_layers(spans) for spans, _ in traced])
        for name in e2e:
            if name.startswith("cli."):  # command wall times come from the plain chains
                layer[name], layer_counts[name] = e2e[name], counts[name]
        layer["trace.overhead_s"] = (statistics.median(wall for _, wall in traced)
                                     - e2e["chain_s"])
        layer_counts["trace.overhead_s"] = bench.n_chains
        layer_counts["cli.import_s"] = len(COMMANDS) * bench.n_chains
        missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layer]
        bench.tally.check("per-layer metrics", lambda: [f"{n} not recorded" for n in missing])
        table += [(m["name"], layer[m["name"]], m["unit"], layer_counts[m["name"]],
                   MOVES[m["name"]]) for m in spec["per_layer"] if m["name"] in layer]

    tally = bench.tally
    for name, value, unit, n, moves in table:
        print(f"{name:56s} {value:14.6g} {unit:5s} n={n:<3d} {moves}".rstrip())
    print(f"{'fail_ratio':56s} {tally.failed / tally.attempted:14.6g} ratio "
          f"n={tally.attempted}")
    reported = table[len(spec["end_to_end"]):] if args.trace else table
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, *_ in reported},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""SHA-256 digests of the data files of five reference chains.

    python tools/reference_digests.py

Runs fogsim's commands from this checkout's ``src/`` as fresh
``python -m fogsim.cli`` processes in a temporary directory, on five chains:

- ``default``: no config file;
- ``overnight_9h``: the benchmark's 9 h drift run, seed 1;
- ``lowflux_1m``: the benchmark's 10^6-bin low-flux run, seed 1, two workers;
- ``random_walk``: the default config with a random-walk drift;
- ``sparse_gaps``: 10^5 bins of 10 ms at 1 kHz, seed 1, two workers, about
  one bin in a hundred degenerate, so ``stability`` drops the non-finite
  samples of each curve.

Each chain writes ten files: ``fisher.csv``, ``counts.csv``, the kept
``bright_scan.csv`` and ``calibration_scan.csv``, ``calibration.json``, a
calibration re-run from the kept files, a ``--channels ch2`` calibration,
``delays.csv``, ``run1_allan.csv`` and ``run1_report.json``.  The output is
one JSON object, chain -> file -> digest, on stdout.  Two checkouts that
print the same object write the same bytes.  Some digests depend on numpy's
runtime SIMD dispatch, so stderr names the numpy and scipy versions and the
SIMD extensions numpy found on this CPU (``np.show_config``'s "SIMD
Extensions").  The whole run takes about 26 s on 2 cores, about 11 s of it
in the lowflux_1m chain, whose ``estimate`` peaks at about 185 MB of memory,
and about 4 s in sparse_gaps.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# chain -> (config document or None for no config file, --workers)
CHAINS = {
    "default": (None, 1),
    "overnight_9h": ({"run": {"duration_s": 32400.0, "seed": 1},
                      "noise": {"drift": {"preset": "overnight"}}}, 1),
    "lowflux_1m": ({"run": {"duration_s": 10000.0, "integration_time_s": 0.01,
                            "rate_total_hz": 20000.0, "seed": 1}}, 2),
    "random_walk": ({"noise": {"drift": {"preset": "custom",
                                         "random_walk_s_per_sqrt_s": 1e-19}}}, 1),
    "sparse_gaps": ({"run": {"duration_s": 1000.0, "integration_time_s": 0.01,
                             "rate_total_hz": 1000.0, "seed": 1}}, 2),
}

FILES = ("fisher.csv", "counts.csv", "bright_scan.csv", "calibration_scan.csv",
         "calibration.json", "calibration_rerun.json", "calibration_ch2.json",
         "delays.csv", "run1_allan.csv", "run1_report.json")


def _commands(out: Path) -> list[list[str]]:
    return [
        ["fisher"],
        ["simulate"],
        ["calibrate", "--simulate-bright", "--simulate-counts", "--keep-intermediate"],
        ["calibrate", "--bright", str(out / "bright_scan.csv"),
         "--counts", str(out / "calibration_scan.csv"), "--out", "calibration_rerun.json"],
        ["calibrate", "--simulate-bright", "--simulate-counts", "--channels", "ch2",
         "--out", "calibration_ch2.json"],
        ["estimate", "--counts", str(out / "counts.csv"),
         "--calibration", str(out / "calibration.json")],
        ["stability", "--delays", str(out / "delays.csv"), "--out-prefix", "run1"],
    ]


def chain_digests(work: Path, name: str) -> dict[str, str]:
    document, workers = CHAINS[name]
    out = work / name
    out.mkdir()
    base = [sys.executable, "-m", "fogsim.cli", "--out-dir", str(out),
            "--workers", str(workers)]
    if document is not None:
        config = work / f"{name}.json"
        config.write_text(json.dumps(document))
        base += ["--config", str(config)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for command in _commands(out):
        subprocess.run(base + command, env=env, check=True, stdout=subprocess.DEVNULL)
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in FILES}


def print_environment() -> None:
    """The numpy and scipy versions and numpy's SIMD extensions, on stderr."""
    import numpy as np
    import scipy
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    print(f"numpy {np.__version__}, scipy {scipy.__version__}, "
          f"SIMD extensions {json.dumps(simd)}", file=sys.stderr)


def main() -> int:
    print_environment()
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: chain_digests(Path(tmp), name) for name in CHAINS}
    print(json.dumps(digests, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())

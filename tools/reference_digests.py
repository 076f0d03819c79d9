"""SHA-256 digests of the data files of five reference chains.

    python tools/reference_digests.py [--check]

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
Extensions").  The whole run takes about 23 s on 2 cores, about 9 s of it
in the lowflux_1m chain and about 4 s in sparse_gaps; README "Memory" gives
each command's peak memory on the lowflux_1m chain.

``reference_digests.json`` next to this file records the digests with the
numpy and scipy versions and the SIMD extensions found that made them.
``--check`` compares the digests with it and exits 1, naming each differing
(chain, file), if any differs.  It compares ``fisher.csv`` only when numpy
found the recorded SIMD extensions, since that file moves with them, and
nothing under other numpy or scipy versions, whose kernels may round
differently; it says on stderr what it left out.  A change that moves bytes
on purpose puts this tool's output in the file's "digests" in the same
change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
REFERENCE = Path(__file__).with_name("reference_digests.json")

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


def chain_arguments(work: Path, name: str) -> list[list[str]]:
    """The fogsim argument lists of chain ``name``, one per command, which
    write into ``work / name``."""
    document, workers = CHAINS[name]
    out = work / name
    out.mkdir()
    base = ["--out-dir", str(out), "--workers", str(workers)]
    if document is not None:
        config = work / f"{name}.json"
        config.write_text(json.dumps(document))
        base += ["--config", str(config)]
    return [base + command for command in _commands(out)]


def file_digests(out: Path) -> dict[str, str]:
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in FILES}


def chain_digests(work: Path, name: str) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for arguments in chain_arguments(work, name):
        subprocess.run([sys.executable, "-m", "fogsim.cli", *arguments], env=env,
                       check=True, stdout=subprocess.DEVNULL)
    return file_digests(work / name)


def environment() -> dict:
    """The numpy and scipy versions and the SIMD extensions numpy found."""
    import numpy as np
    import scipy
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "simd_found": simd.get("found", [])}


def read_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def version_mismatch(reference: dict, found: dict) -> str | None:
    """Why the digests cannot be compared with the reference, or None."""
    differ = [f"{lib} {found[lib]} (recorded {reference[lib]})"
              for lib in ("numpy", "scipy") if found[lib] != reference[lib]]
    return f"not compared under {', '.join(differ)}" if differ else None


def differences(digests: dict, reference: dict, found: dict) -> list[tuple[str, str]]:
    """The (chain, file) pairs of ``digests`` that differ from the reference;
    fisher.csv only when numpy found the recorded SIMD extensions."""
    simd_same = found["simd_found"] == reference["simd_found"]
    return [(chain, name) for chain, files in digests.items()
            for name, digest in files.items()
            if (simd_same or name != "fisher.csv")
            and digest != reference["digests"][chain][name]]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with reference_digests.json; exit 1 if any differs")
    check = parser.parse_args(argv).check
    found = environment()
    print(f"numpy {found['numpy']}, scipy {found['scipy']}, "
          f"SIMD extensions found {json.dumps(found['simd_found'])}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: chain_digests(Path(tmp), name) for name in CHAINS}
    print(json.dumps(digests, indent=2))
    if not check:
        return 0
    reference = read_reference()
    reason = version_mismatch(reference, found)
    if reason is not None:
        print(f"reference digests {reason}", file=sys.stderr)
        return 0
    if found["simd_found"] != reference["simd_found"]:
        print(f"fisher.csv not compared: recorded SIMD extensions "
              f"{json.dumps(reference['simd_found'])}", file=sys.stderr)
    differ = differences(digests, reference, found)
    for chain, name in differ:
        print(f"{chain}: {name} differs from {REFERENCE.name}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

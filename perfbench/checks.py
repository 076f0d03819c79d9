"""Correctness checks on the files one five-command chain leaves behind.

Each check returns a list of failure messages; an empty list is a pass.
The numbers are the acceptance thresholds of the benchmark: saturation at
the shortest averaging time within 10 % of 1, calibration slope k1 within
a workload's tolerance of the model's ideal slope at the window centre, and
at least 99 % of bins flagged ``ok`` at the default photon flux.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DATA_FILES = ("fisher.csv", "counts.csv", "calibration.json", "delays.csv",
              "run1_allan.csv", "run1_report.json")
MANIFESTS = ("counts.csv.manifest.json", "calibration.json.manifest.json",
             "delays.csv.manifest.json", "run1_report.json.manifest.json")
MANIFEST_INPUTS = {"counts": "counts.csv", "calibration": "calibration.json",
                   "delays": "delays.csv"}
SATURATION_CURVES = ("even", "odd", "differential_vs_sqrt2_bound")


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def data_digests(chain_dir: Path, names=DATA_FILES) -> dict[str, str]:
    return {name: sha256(chain_dir / name) for name in names}


def check_manifest(chain_dir: Path, manifest_name: str) -> list[str]:
    """Every digest the manifest records, of outputs and inputs alike, equals
    the SHA-256 of that file in the chain directory."""
    try:
        doc = json.loads((chain_dir / manifest_name).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{manifest_name}: unreadable ({exc})"]
    if not doc.get("outputs"):
        return [f"{manifest_name}: records no outputs"]
    recorded = dict(doc["outputs"])
    recorded.update({MANIFEST_INPUTS[k]: v for k, v in doc.get("inputs", {}).items()})
    failures = []
    for name, digest in recorded.items():
        target = chain_dir / name
        if not target.is_file():
            failures.append(f"{manifest_name}: {name} is missing")
        elif sha256(target) != digest:
            failures.append(f"{manifest_name}: {name} digest differs from the file")
    return failures


def check_rows(chain_dir: Path, bins: int) -> list[str]:
    """counts.csv and delays.csv hold one row per bin below their header."""
    failures = []
    for name in ("counts.csv", "delays.csv"):
        with open(chain_dir / name, "rb") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != bins:
            failures.append(f"{name}: {rows} rows, expected {bins}")
    return failures


def ok_ratio(chain_dir: Path) -> float:
    with open(chain_dir / "delays.csv", "rb") as fh:
        next(fh)
        flags = [line.rstrip(b"\n").rsplit(b",", 1)[1] for line in fh]
    return flags.count(b"ok") / len(flags)


def check_ok_ratio(chain_dir: Path, minimum: float = 0.99) -> list[str]:
    ratio = ok_ratio(chain_dir)
    return [] if ratio >= minimum else [f"ok ratio {ratio:.4f} < {minimum}"]


def check_saturation(chain_dir: Path, tolerance: float = 0.10) -> list[str]:
    report = json.loads((chain_dir / "run1_report.json").read_text())
    failures = []
    for curve in SATURATION_CURVES:
        value = report["saturation"][curve]["value"][0]
        if not abs(value - 1.0) <= tolerance:
            failures.append(f"saturation {curve} at shortest t = {value:.4f}, "
                            f"outside 1 +- {tolerance}")
    return failures


def check_k1(chain_dir: Path, ideal_k1: float, tolerance: float) -> list[str]:
    k1 = json.loads((chain_dir / "calibration.json").read_text())["linear"]["k1_per_fs"]
    if abs(k1 / ideal_k1 - 1.0) <= tolerance:
        return []
    return [f"k1 = {k1:.5f} /fs, ideal {ideal_k1:.5f} /fs (tolerance {tolerance:.0%})"]


def check_same_digests(first: dict[str, str], other: dict[str, str]) -> list[str]:
    """Every file in ``other`` has the digest ``first`` records for it."""
    return [f"{name} differs from the first chain's"
            for name in other if first[name] != other[name]]

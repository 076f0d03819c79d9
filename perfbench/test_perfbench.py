"""Tests of the benchmark's own logic: span arithmetic, output checks and the
run tables that BENCHMARK.json does not hold.

    python -m pytest perfbench
"""

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import checks
import run
from spans import Tracer, chain_layers, covered, self_times


def span(id_, name, start, end, parent=None, **attrs):
    return {"id": id_, "name": name, "start": start, "end": end, "parent": parent,
            "thread": 1, "workload": "w", "run_id": "r", "attrs": attrs}


def test_covered_merges_overlaps_and_gaps():
    assert covered([]) == 0.0
    assert covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == 3.0
    assert covered([(2.0, 3.0), (0.0, 5.0)]) == 5.0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(1, "cli.simulate", 0.0, 10.0),
        span(2, "simulate.simulate_run", 1.0, 6.0, parent=1),
        # two worker-thread children overlapping each other
        span(3, "philox.block_uniforms", 2.0, 4.0, parent=2),
        span(4, "philox.block_uniforms", 3.0, 5.0, parent=2),
        span(5, "model.click_probabilities", 5.5, 6.5, parent=2),  # overruns its parent
    ]
    selfs = self_times(spans)
    assert selfs[1] == 10.0 - 5.0
    assert selfs[2] == 5.0 - (3.0 + 0.5)
    assert selfs[3] == 2.0
    assert selfs[4] == 2.0


def test_chain_layers_sums_times_and_counts():
    fisher = [span(0, "cli.import", 0.0, 1.0),
              span(1, "cli.fisher", 1.0, 2.0),
              span(2, "model.fisher_information", 1.2, 1.5, parent=1)]
    stability = [
        span(0, "cli.import", 0.0, 3.0),
        span(1, "cli.stability", 3.0, 9.0),
        span(2, "io_formats.read_delay_series", 3.0, 4.0, parent=1, rows=10, bytes=200),
        span(3, "stability.overlapping_allan_deviation", 4.0, 5.0, parent=1,
             origin="raw", terms=7),
        span(4, "stability.overlapping_allan_deviation", 5.0, 5.5, parent=1,
             origin="even", terms=3),
        span(5, "calibration.estimate_delays", 6.0, 6.5, parent=1, ok=3, estimated=4),
    ]
    layers = chain_layers([fisher, stability])
    assert layers["cli.fisher.self_s"] == pytest.approx(0.7)
    assert layers["cli.stability.self_s"] == pytest.approx(6.0 - 3.0)
    assert layers["cli.import_s"] == 2.0
    assert layers["stability.overlapping_allan_deviation.raw.s"] == 1.0
    assert layers["stability.overlapping_allan_deviation.even.s"] == 0.5
    assert layers["stability.overlapping_allan_deviation.terms"] == 10
    assert layers["io_formats.rows"] == 10
    assert layers["io_formats.bytes"] == 200
    assert layers["calibration.estimate_delays.ok_ratio"] == 0.75


def test_worker_thread_spans_belong_to_the_waiting_call():
    tracer = Tracer("w", "r")
    leaf = tracer.wrap("philox.block_uniforms", lambda n: n,
                       counter=lambda args, result: {"blocks": result})

    def outer():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return sum(pool.map(leaf, [3, 4, 5]))

    assert tracer.wrap("simulate.simulate_run", outer)() == 12
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s["name"], []).append(s)
    (parent,) = by_name["simulate.simulate_run"]
    assert parent["parent"] is None
    assert [s["parent"] for s in by_name["philox.block_uniforms"]] == [parent["id"]] * 3
    assert sorted(s["attrs"]["blocks"] for s in by_name["philox.block_uniforms"]) == [3, 4, 5]


def write_chain(tmp_path: Path) -> Path:
    (tmp_path / "counts.csv").write_text("t_s,c1,c2\n0.0,1,2\n1.0,3,4\n")
    digest = hashlib.sha256((tmp_path / "counts.csv").read_bytes()).hexdigest()
    manifest = {"inputs": {}, "outputs": {"counts.csv": digest}}
    (tmp_path / "counts.csv.manifest.json").write_text(json.dumps(manifest))
    return tmp_path


def test_manifest_check_passes_then_fails_on_a_tampered_file(tmp_path):
    chain = write_chain(tmp_path)
    assert checks.check_manifest(chain, "counts.csv.manifest.json") == []
    with open(chain / "counts.csv", "a") as fh:
        fh.write("2.0,5,6\n")
    assert checks.check_manifest(chain, "counts.csv.manifest.json") == [
        "counts.csv.manifest.json: counts.csv digest differs from the file"]


def test_manifest_check_fails_on_a_missing_file(tmp_path):
    chain = write_chain(tmp_path)
    (chain / "counts.csv").unlink()
    assert checks.check_manifest(chain, "counts.csv.manifest.json") != []


def test_repeat_digest_check_names_the_differing_file():
    first = {name: "a" for name in checks.DATA_FILES}
    assert checks.check_same_digests(first, dict(first)) == []
    assert checks.check_same_digests(first, dict(first, **{"delays.csv": "b"})) == [
        "delays.csv differs from the first chain's"]
    assert checks.check_same_digests(first, {"counts.csv": "a"}) == []
    assert checks.check_same_digests(first, {"counts.csv": "c"}) == [
        "counts.csv differs from the first chain's"]


def test_value_checks_apply_their_thresholds(tmp_path):
    curves = {c: {"t_s": [2.0], "value": [0.95]} for c in checks.SATURATION_CURVES}
    (tmp_path / "run1_report.json").write_text(json.dumps({"saturation": curves}))
    (tmp_path / "calibration.json").write_text(json.dumps({"linear": {"k1_per_fs": 1.2}}))
    (tmp_path / "delays.csv").write_text(
        "t_s,tau_s,sigma_tau_s,flag\n" + "0,0,0,ok\n" * 98 + "0,0,0,window\n" * 2)
    assert checks.check_saturation(tmp_path) == []
    assert len(checks.check_saturation(tmp_path, tolerance=0.04)) == 3
    assert checks.check_k1(tmp_path, 1.21, 0.02) == []
    assert checks.check_k1(tmp_path, 1.25, 0.02) != []
    assert checks.check_k1(tmp_path, 1.25, 0.05) == []
    assert checks.ok_ratio(tmp_path) == 0.98
    assert checks.check_ok_ratio(tmp_path) != []


def test_every_benchmark_name_has_its_run_table_entry():
    spec = run.load_spec()
    assert set(run.WORKLOADS) == {w["name"] for w in spec["workloads"]}
    assert set(run.MOVES) == {m["name"] for m in spec["per_layer"]}


@pytest.mark.parametrize("seconds", [1, 50, 200])
def test_set_up_runs_spread_over_the_whole_run(seconds):
    for workload in run.WORKLOADS.values():
        chains = workload.chains(seconds)
        commands = len(run.COMMANDS) * chains + (len(run.REPEATED) if chains == 1 else 0)
        points = run.setup_points(commands)
        assert len(points) == run.SETUP_REPEATS
        assert min(points) == 0 and max(points) == commands


def test_run_refuses_a_checkout_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "overnight_9h", "--seed", "1",
                     "--seconds", "1", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""

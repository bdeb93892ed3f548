"""Tests of the benchmark itself: run with ``python3 -m pytest bench/tests``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import metrics
import tracing
import workloads
import worker

ROOT = Path(__file__).resolve().parents[2]
ITEMS = {"sweep": 40, "boundary": 3, "cli": 2}


def run(name, workdir, seed=5, traced=False, workload=None):
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workload or workloads.WORKLOADS[name](seed, workdir)
    tracer = tracing.Tracer() if traced else None
    if tracer:
        tracer.install()
    try:
        return worker.measure(workload, float("inf"), tracer, ITEMS[name]), tracer
    finally:
        if tracer:
            tracer.uninstall()


@pytest.mark.parametrize("name", sorted(ITEMS))
def test_wrappers_are_transparent(name, tmp_path):
    plain, _ = run(name, tmp_path / "plain")
    traced, tracer = run(name, tmp_path / "traced", traced=True)
    assert (traced["digest"], traced["attempted"]) == (plain["digest"], plain["attempted"])
    assert traced["failed"] == plain["failed"] == 0
    assert traced["counters"] == plain["counters"]
    assert len(tracer.spans) > traced["attempted"]


@pytest.mark.parametrize("name", sorted(ITEMS))
def test_same_seed_same_outputs(name, tmp_path):
    first, _ = run(name, tmp_path / "a")
    second, _ = run(name, tmp_path / "b")
    assert (first["digest"], first["attempted"]) == (second["digest"], second["attempted"])
    other, _ = run(name, tmp_path / "c", seed=6)
    assert other["digest"] != first["digest"]


def _nudge_wac(name, output):
    """The item's output with an Alice-Charlie witness moved by 1e-3."""
    if name == "sweep":
        s, pair, inside = output
        return s, pair._replace(w_ac=pair.w_ac + 1e-3), inside
    if name == "boundary":
        point, result = output
        result.pair = result.pair._replace(w_ac=result.pair.w_ac + 1e-3)
        return point, result
    return [(code, out.replace("max W_AC = 0.750000", "max W_AC = 0.751000"), err)
            for code, out, err in output]


@pytest.mark.parametrize("name", sorted(ITEMS))
def test_corrupted_result_counts_as_failure(name, tmp_path):
    workload = workloads.WORKLOADS[name](5, tmp_path)
    workload.resum_share = 1.0  # sweep: re-sum every item, so every nudge is seen
    honest = workload.run_item
    workload.run_item = lambda item: _nudge_wac(name, honest(item))
    result, _ = run(name, tmp_path, workload=workload)
    assert result["attempted"] == ITEMS[name]
    assert result["failed"] == result["attempted"]


def test_traced_run_fills_every_layer_of_its_workload(tmp_path):
    for name in ITEMS:
        result, tracer = run(name, tmp_path / name, traced=True)
        totals = tracing.self_times(tracer.spans, [1.0] * result["attempted"])
        values = metrics.per_layer_values(totals, result["counters"], result["attempted"])
        for metric, _, _, workload, _ in metrics.PER_LAYER:
            if workload == name:
                assert values[metric] > 0, metric
        assert not any(tracer.errors.values())


def test_self_time_subtracts_children():
    spans = [
        ("item", 0, 100, -1, 0),
        ("a", 10, 60, 0, 0),
        ("b", 20, 30, 1, 0),
        ("b", 70, 90, 0, 0),
    ]
    assert tracing.self_times(spans, [2.0]) == {
        "item": (1, 60.0), "a": (1, 80.0), "b": (2, 60.0)}


@pytest.mark.parametrize("n, p", [(5, 50), (11, 9), (35, 71), (100, 90), (5000, 99)])
def test_tail_percentile_leaves_ten_items(n, p):
    assert metrics.tail_percentile(n) == p


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        metrics.per_layer_specs()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_checkout_without_program_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

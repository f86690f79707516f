"""Smoke test of the benchmark at tiny size.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import bench  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

# 3 detectors x 1 antenna count x (4 reference + 1 seeded) trials
TINY = dataclasses.replace(bench.WORKLOADS["desk-serial"], antennas=(4,), reference_trials=4, seeded_trials=1)
SEED = 7


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setitem(bench.WORKLOADS, "desk-serial", TINY)
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)


def run_bench(capsys, trace):
    code = bench.main(
        ["--workload", "desk-serial", "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


def test_declared_metrics_match_the_benchmark_file():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == bench.END_TO_END_UNITS
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == bench.PER_LAYER_UNITS
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(tiny, capsys, trace):
    lines, result = run_bench(capsys, trace)
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)), name
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines[:-1]), name


def test_failing_trial_is_counted_not_raised(tiny, capsys, monkeypatch):
    original = bench.cli.run_single_trial
    seeded = SEED + TINY.reference_trials

    def flaky(config, seed, detector):
        if seed == seeded and detector == "bcd":
            raise bench.ConvergenceError("injected")
        return original(config, seed, detector)

    monkeypatch.setattr(bench.cli, "run_single_trial", flaky)
    _, result = run_bench(capsys, trace=0)
    assert result["failed"] == 1
    assert result["correct"] is False
    assert result["attempted"] == 15


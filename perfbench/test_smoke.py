"""Keeps the benchmark harness runnable: every workload, end to end, tiny.

    python3 -m pytest perfbench/test_smoke.py -q

The smoke tests run ``run.py --smoke`` as the benchmark command does and
check its result line against ``BENCHMARK.json``; the others check the
workload definitions, the oracle check, and that the benchmark refuses
to run where the program is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, check  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "5", "--seconds", "1",
         *args], cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(HERE.parent, "--workload", workload, "--trace", str(trace),
                "--smoke")
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert "env {" in proc.stdout and "records digest" in proc.stdout


def test_benchmark_json_names_the_workloads():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}


def test_specs_are_a_function_of_seed_and_run():
    for workload in WORKLOADS.values():
        assert workload.spec(3, 1) == workload.spec(3, 1)
        seeds = {workload.spec(seed, run)["seed"]
                 for seed in (3, 4) for run in range(3)}
        assert len(seeds) == 6


def test_oracle_check_flags_a_wrong_mean():
    summary = {"expected_trials": 100, "trials": 100, "quarantined": 0,
               "per_n": {"5": {"trials": 100, "not_stopped": 0,
                               "not_correct": 100, "mean_converged_at": 19.0,
                               "var_converged_at": 100.0}}}
    oracle = WORKLOADS["oracle-small-n"]
    assert check(oracle, summary) == []
    summary["per_n"]["5"]["mean_converged_at"] = 21.0  # (5-1)^2 = 16
    assert [count for _, count in check(oracle, summary)] == [100]
    # The same records fail the correctness check of a predicate workload.
    assert check(WORKLOADS["epidemic-large-n"], summary)


def test_timings_are_taken_to_reference_host_speed():
    from hostspeed import REFERENCE_S
    from run import end_to_end

    half = REFERENCE_S / 2
    fast = {"setup_s": 0.5, "first_record_s": 0.25, "wall_s": 2.0,
            "executed": 10, "summary": {"interactions": 1000},
            "resume_s": [0.1, 0.3, 0.2], "peak_rss_mb": 40.0,
            "calibration_s": {"pre": [half, half], "resume": [half],
                              "post": [half, half]}}
    # The same sweep on a host running at a quarter of the speed.
    twice = REFERENCE_S * 2
    slow = dict(fast, setup_s=2.0, first_record_s=1.0, wall_s=8.0,
                resume_s=[0.4, 1.2, 0.8],
                calibration_s={"pre": [twice, twice], "resume": [twice],
                               "post": [twice, twice]})
    on_slow, on_fast = end_to_end([slow], [slow]), end_to_end([fast], [fast])
    for name, values in on_fast.items():
        assert on_slow[name] == pytest.approx(values), name
    rescaled = end_to_end([fast], [])
    assert rescaled["trials_per_s"] == pytest.approx([2.5])
    assert rescaled["resume_s"] == pytest.approx([0.4])
    assert end_to_end([fast], [], rescaled=False)["trials_per_s"] == [5.0]
    # Own-process timings follow the sweep's own CPU only.
    mixed = dict(fast, calibration_s={"pre": [half, twice],
                                      "resume": [half],
                                      "post": [half, twice]})
    assert end_to_end([mixed], [])["setup_s"] == pytest.approx([1.0])
    assert end_to_end([mixed], [])["trials_per_s"] == pytest.approx(
        [10 / (2.0 * REFERENCE_S / (1.25 * REFERENCE_S))])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "oracle-small-n", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

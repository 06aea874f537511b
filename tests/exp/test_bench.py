"""Tests for the kernel benchmark harness and its regression gate."""

import json
import os
import re
import time

import pytest

from repro.exp.bench import (
    ENGINE_PAIRS,
    FAULT_OVERHEAD_PAIRS,
    FLEET_PAIRS,
    FULL_GRID,
    SMOKE_GRID,
    compare_to_baseline,
    faulted_overhead_check,
    format_rows,
    load_bench_file,
    run_fleet_benchmarks,
    run_kernel_benchmarks,
    run_supervision_benchmark,
    speedup_summary,
    write_bench_file,
)


def _row(protocol="leader-election", n=100, engine="multiset", steps=50,
         unit="interactions", seconds=0.1, ips=500.0):
    return {"protocol": protocol, "n": n, "engine": engine, "steps": steps,
            "unit": unit, "seconds": seconds, "ips": ips}


class TestGrids:
    def test_grids_cover_every_engine_pair(self):
        # The fleet pairs come from run_fleet_benchmarks, not the grids.
        for grid in (FULL_GRID, SMOKE_GRID):
            engines = {e for w in grid for e in w["engines"]}
            for reference, fast in ENGINE_PAIRS:
                if (reference, fast) in FLEET_PAIRS:
                    continue
                assert reference in engines
                assert fast in engines

    def test_smoke_run_produces_rows(self):
        # The real smoke grid is a few seconds of work; run it once and
        # check the row shape end to end.
        rows = run_kernel_benchmarks(smoke=True, repeats=1)
        assert len(rows) == sum(len(w["engines"]) for w in SMOKE_GRID)
        for row in rows:
            assert row["ips"] > 0
            assert row["seconds"] > 0
            assert row["unit"] in ("interactions", "reactive-steps",
                                   "interactions-equiv")
            # Provenance: every row records the kernel backend it
            # actually ran on (the default here — nothing requested).
            assert row["backend"] == "numpy"
        # Every workload-local engine pair got a speedup entry (the
        # standalone fluid workload has no discrete twin at n = 1e9, so
        # it contributes a row but no ratio).
        speedups = speedup_summary(rows)
        expected = sum(
            1 for w in SMOKE_GRID for ref, fast in ENGINE_PAIRS
            if ref in w["engines"] and fast in w["engines"])
        assert len(speedups) == expected
        assert all(s["speedup"] > 0 for s in speedups)
        assert format_rows(rows).count("\n") == len(rows)

    def test_smoke_run_with_explicit_backend_records_it(self):
        # --backend python only applies to the engines that have a
        # kernel seam (the batched ones); every other row stays numpy.
        rows = run_kernel_benchmarks(smoke=True, repeats=1,
                                     backend="python")
        backends_seen = {r["engine"]: r["backend"] for r in rows}
        assert backends_seen["batched-agent"] == "python"
        assert backends_seen["ensemble-multiset"] == "numpy"
        assert backends_seen["multiset"] == "numpy"
        assert "backend" in format_rows(rows).splitlines()[0]

    def test_smoke_grid_covers_the_fluid_engine(self):
        # The n = 1e9 fluid row is a committed-baseline acceptance
        # artifact; it must sit under the CI smoke gate.
        fluid = [w for w in SMOKE_GRID for e in w["engines"] if e == "fluid"]
        assert fluid and fluid[0]["n"] == 10 ** 9


class TestConstructionCharging:
    """Every engine's row charges construction the same way."""

    #: One tiny workload per engine name the grids use.
    TINY = {
        "fluid": ("leader-election", 50, 200, {}),
        "ensemble-multiset": ("leader-election", 50, 0,
                              {"trials": 4, "trial_steps": 100}),
        "ensemble-multiset-faulted": ("leader-election", 50, 0,
                                      {"trials": 4, "trial_steps": 100}),
        "multiset": ("leader-election", 50, 200, {}),
        "agent": ("leader-election", 50, 200, {}),
        "batched-agent": ("leader-election", 50, 200, {}),
        "batched-agent-faulted": ("leader-election", 50, 200, {}),
        "skipping-rebuild": ("threshold-mixed", 50, 5, {}),
        "skipping-incremental": ("threshold-mixed", 50, 5, {}),
    }

    def test_tiny_table_covers_every_grid_engine(self):
        engines = {e for grid in (FULL_GRID, SMOKE_GRID)
                   for w in grid for e in w["engines"]}
        assert engines == set(self.TINY)

    @pytest.mark.parametrize("engine", sorted(TINY))
    def test_clock_starts_before_construction(self, engine, monkeypatch):
        # A constructor made 30 ms slower must show in both the row's
        # seconds and its construct share, whichever engine it is.
        from repro.exp import bench

        workload = bench._engine_workload

        def slow_build(*args, **kwargs):
            build, run = workload(*args, **kwargs)

            def build_slowly():
                time.sleep(0.03)
                return build()

            return build_slowly, run

        monkeypatch.setattr(bench, "_engine_workload", slow_build)
        protocol_name, n, steps, extra = self.TINY[engine]
        protocol = bench._build_protocol(protocol_name)
        counts = bench._input_counts(protocol_name, n)
        seconds, construct, backend = bench._time_engine(
            engine, protocol, counts, steps, 7, **extra)
        assert 0.03 <= construct < seconds
        assert backend == "numpy"

    def test_rows_carry_construct_s(self, monkeypatch):
        from repro.exp import bench

        monkeypatch.setattr(bench, "SMOKE_GRID", (
            {"protocol": "leader-election", "n": 50, "steps": 300,
             "engines": ("agent", "batched-agent")},))
        rows = run_kernel_benchmarks(smoke=True, repeats=2)
        assert [r["engine"] for r in rows] == ["agent", "batched-agent"]
        for row in rows:
            assert 0 < row["construct_s"] < row["seconds"]

    def test_baselines_without_construct_s_still_gate(self, tmp_path):
        old = tmp_path / "old.json"
        old.write_text(json.dumps({"schema": 1, "seed": 0,
                                   "rows": [_row(ips=1000.0)],
                                   "speedups": []}))
        baseline = load_bench_file(str(old))
        assert "construct_s" not in baseline[0]
        fresh = [dict(_row(ips=100.0), construct_s=0.01)]
        assert len(compare_to_baseline(fresh, baseline,
                                       max_regression=3.0)) == 1


class TestSupervisionBenchmark:
    def test_smoke_run_reports_overhead(self):
        result = run_supervision_benchmark(smoke=True, repeats=1)
        assert result["overhead"] >= 1.0
        assert result["per_task_s"] >= 0.0
        assert result["trial_s"] > 0.0
        assert result["plain_s"] > 0.0
        assert result["supervised_s"] > 0.0
        assert result["protocol"] == "leader-election"

    def test_one_fast_plain_round_does_not_fail_the_gate(self, monkeypatch):
        # Every round the supervised calibration sweep takes 2 ms more
        # than the plain one, but one plain round is 80 ms faster than
        # the rest: the ratio of best-of times would read 1.0214, over
        # the 1.02 gate, while the median of the paired rounds reads
        # about 1.0005.
        import types

        from repro.exp import bench, runner

        clock = [0.0]
        plain = iter([0.100] * 3 + [0.020] + [0.100] * 2)  # warm-up first

        def fake_run_experiment(spec, **kwargs):
            if spec.trials == 4:  # the healthy trials, 80 ms each
                clock[0] += 4 * 0.080
            elif spec.execution.timeout_s is not None:
                clock[0] += 0.102
            else:
                clock[0] += next(plain)
            return types.SimpleNamespace(failures=[])

        monkeypatch.setattr(runner, "run_experiment", fake_run_experiment)
        monkeypatch.setattr(bench.time, "perf_counter", lambda: clock[0])
        result = run_supervision_benchmark(smoke=True, repeats=5)
        assert next(plain, None) is None
        assert result["plain_s"] == pytest.approx(0.100)
        assert result["trial_s"] == pytest.approx(0.080)
        assert result["overhead"] == pytest.approx(1 + 0.002 / 48 / 0.080,
                                                   abs=1e-4)


class TestFleetBenchmark:
    def test_smoke_run_produces_all_four_rows(self):
        rows = run_fleet_benchmarks(smoke=True, repeats=1)
        by_engine = {r["engine"]: r for r in rows}
        assert set(by_engine) == {"sweep-cold-pool", "sweep-warm-fleet",
                                  "sweep-startup-cold",
                                  "sweep-startup-warm"}
        for row in rows:
            assert row["seconds"] > 0
            assert row["ips"] > 0
            assert row["protocol"] == "leader-election"
        assert by_engine["sweep-cold-pool"]["unit"] == "trials"
        assert by_engine["sweep-startup-cold"]["unit"] == "sweeps"
        assert by_engine["sweep-startup-cold"]["steps"] == 1
        # Both fleet pairs resolve to a speedup entry.
        fleet_speedups = [s for s in speedup_summary(rows)
                          if (s["reference"], s["fast"]) in FLEET_PAIRS]
        assert len(fleet_speedups) == 2

    def test_smoke_rows_match_committed_baseline_keys(self):
        # Unlike the kernel grid, the fleet workload shape is identical
        # in smoke and full runs, so the smoke CI gate always finds its
        # rows in the full-run baseline.  Guard that by matching the
        # smoke row keys against the committed artifact.
        import os

        path = os.path.join(os.path.dirname(__file__), "..", "..",
                            "BENCH_engines.json")
        baseline = {(r["protocol"], r["n"], r["engine"], r["steps"],
                     r["unit"])
                    for r in load_bench_file(path)}
        rows = run_fleet_benchmarks(smoke=True, repeats=1)
        for row in rows:
            key = (row["protocol"], row["n"], row["engine"], row["steps"],
                   row["unit"])
            assert key in baseline


class TestBaselineGate:
    def test_round_trip(self, tmp_path):
        rows = [_row(), _row(engine="ensemble-multiset", ips=2500.0)]
        path = tmp_path / "bench.json"
        write_bench_file(str(path), rows)
        assert load_bench_file(str(path)) == rows
        payload = json.loads(path.read_text())
        assert payload["schema"] == 1
        assert payload["speedups"] == [
            {"protocol": "leader-election", "n": 100, "steps": 50,
             "reference": "multiset", "fast": "ensemble-multiset",
             "speedup": 5.0}]

    def test_environment_block(self, tmp_path):
        import numpy
        import scipy

        path = tmp_path / "bench.json"
        write_bench_file(str(path), [_row()])
        env = json.loads(path.read_text())["environment"]
        assert set(env) == {"python", "numpy", "scipy", "cpu_count",
                            "git_commit"}
        assert env["numpy"] == numpy.__version__
        assert env["scipy"] == scipy.__version__
        assert env["cpu_count"] == os.cpu_count()
        commit = env["git_commit"]
        assert commit is None or re.fullmatch("[0-9a-f]{40}(-dirty)?", commit)

    @pytest.mark.parametrize("status, suffix",
                             [("", ""), (" M src/x.py\n", "-dirty")],
                             ids=["clean", "dirty"])
    def test_environment_marks_a_dirty_tree(self, monkeypatch, status,
                                            suffix):
        import subprocess

        from repro.util.environment import git_commit

        head = "0123456789abcdef0123456789abcdef01234567"
        calls = []

        def fake_git(args, **kwargs):
            calls.append(args[1:])
            out = head + "\n" if args[1] == "rev-parse" else status
            return subprocess.CompletedProcess(args, 0, stdout=out)

        monkeypatch.setattr(subprocess, "run", fake_git)
        assert git_commit() == head + suffix
        assert calls == [["rev-parse", "HEAD"],
                         ["status", "--porcelain", "--untracked-files=no"]]

    def test_environment_without_git(self, tmp_path, monkeypatch):
        import subprocess

        def no_git(*args, **kwargs):
            raise FileNotFoundError("git")

        monkeypatch.setattr(subprocess, "run", no_git)
        path = tmp_path / "bench.json"
        write_bench_file(str(path), [_row()])
        assert json.loads(path.read_text())["environment"]["git_commit"] \
            is None

    def test_loads_files_without_environment(self, tmp_path):
        # Baselines written before the environment block still load.
        rows = [_row()]
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": 1, "seed": 0, "rows": rows,
                                    "speedups": []}))
        assert load_bench_file(str(path)) == rows

    def test_rejects_non_baseline_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError):
            load_bench_file(str(path))

    def test_regression_detected(self):
        baseline = [_row(ips=1000.0)]
        fine = compare_to_baseline([_row(ips=400.0)], baseline,
                                   max_regression=3.0)
        assert fine == []
        bad = compare_to_baseline([_row(ips=100.0)], baseline,
                                  max_regression=3.0)
        assert len(bad) == 1
        assert bad[0]["ratio"] == 10.0
        assert bad[0]["engine"] == "multiset"

    def test_unmatched_rows_ignored(self):
        baseline = [_row(ips=1000.0)]
        new_workload = [_row(n=999, ips=1.0)]
        assert compare_to_baseline(new_workload, baseline) == []

    def test_gate_is_backend_keyed(self):
        # A slow python-backend run must not trip a numpy baseline (and
        # vice versa) — only like-for-like rows are compared.
        baseline = [_row(ips=1000.0)]
        python_rows = [dict(_row(ips=1.0), backend="python")]
        assert compare_to_baseline(python_rows, baseline) == []
        python_baseline = [dict(_row(ips=1000.0), backend="python")]
        bad = compare_to_baseline([dict(_row(ips=100.0), backend="python")],
                                  python_baseline, max_regression=3.0)
        assert len(bad) == 1
        assert bad[0]["backend"] == "python"

    def test_legacy_baseline_rows_read_as_numpy(self):
        # Baselines committed before the backend field existed gate the
        # default backend exactly as before.
        legacy_baseline = [_row(ips=1000.0)]
        numpy_rows = [dict(_row(ips=100.0), backend="numpy")]
        bad = compare_to_baseline(numpy_rows, legacy_baseline,
                                  max_regression=3.0)
        assert len(bad) == 1

    def test_speedups_never_fail_the_gate(self):
        baseline = [_row(ips=1000.0)]
        assert compare_to_baseline([_row(ips=9000.0)], baseline) == []

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            compare_to_baseline([], [], max_regression=0.0)

    def test_committed_baseline_meets_fault_overhead_gate(self):
        # The committed rows must themselves satisfy the <= 10% faulted
        # batched overhead contract (ISSUE-8): same-run row pairs, so
        # the check is hardware-independent.
        import os

        path = os.path.join(os.path.dirname(__file__), "..", "..",
                            "BENCH_engines.json")
        rows = load_bench_file(path)
        engines = {r["engine"] for r in rows}
        for plain, faulted in FAULT_OVERHEAD_PAIRS:
            assert plain in engines and faulted in engines
        assert "ensemble-multiset-faulted" in engines
        assert faulted_overhead_check(rows, max_overhead=1.10) == []

    def test_committed_baseline_meets_acceptance_targets(self):
        # BENCH_engines.json at the repo root is the committed artifact
        # these speedup targets read: incremental skipping >= 3x on the
        # wide-live-set threshold workload, ensemble >= 10x on the
        # 256-trial leader-election sweep at n = 1e4.
        import os

        path = os.path.join(os.path.dirname(__file__), "..", "..",
                            "BENCH_engines.json")
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        by_pair = {(s["protocol"], s["n"], s["reference"], s["fast"]):
                   s["speedup"] for s in payload["speedups"]}
        assert by_pair[("threshold-mixed", 5_000, "skipping-rebuild",
                        "skipping-incremental")] >= 3.0
        assert by_pair[("leader-election", 10_000, "multiset",
                        "ensemble-multiset")] >= 10.0

    def test_committed_baseline_meets_fleet_targets(self):
        # ISSUE-10 acceptance: warm fleet >= 3x on sweep startup
        # latency, >= 1.5x end-to-end on a many-point small-trial
        # sweep.  Same-run row pairs, so hardware cancels.
        import os

        path = os.path.join(os.path.dirname(__file__), "..", "..",
                            "BENCH_engines.json")
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        by_pair = {(s["reference"], s["fast"]): s["speedup"]
                   for s in payload["speedups"]}
        assert by_pair[("sweep-startup-cold", "sweep-startup-warm")] >= 3.0
        assert by_pair[("sweep-cold-pool", "sweep-warm-fleet")] >= 1.5


class TestFaultedOverheadGate:
    def _pair(self, plain_ips, faulted_ips):
        return [_row(engine="batched-agent", ips=plain_ips),
                _row(engine="batched-agent-faulted", ips=faulted_ips)]

    def test_overhead_within_gate_passes(self):
        assert faulted_overhead_check(self._pair(1000.0, 950.0)) == []

    def test_overhead_beyond_gate_detected(self):
        problems = faulted_overhead_check(self._pair(1000.0, 800.0))
        assert len(problems) == 1
        assert problems[0]["engine"] == "batched-agent-faulted"
        assert problems[0]["plain_engine"] == "batched-agent"
        assert problems[0]["overhead"] == 1.25

    def test_faulted_speedup_never_fails(self):
        # Noise can make the faulted row *faster*; that is never a gate
        # violation.
        assert faulted_overhead_check(self._pair(1000.0, 1100.0)) == []

    def test_missing_twin_is_skipped(self):
        lonely = [_row(engine="batched-agent-faulted", ips=1.0)]
        assert faulted_overhead_check(lonely) == []

    def test_ungated_engines_are_ignored(self):
        rows = [_row(engine="ensemble-multiset", ips=1000.0),
                _row(engine="ensemble-multiset-faulted", ips=100.0)]
        assert faulted_overhead_check(rows) == []

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            faulted_overhead_check([], max_overhead=0.9)

    def _gate_run(self, monkeypatch, plain_s, faulted_s):
        """Rows of a gated workload whose k-th timed round takes
        ``plain_s[k]`` and ``faulted_s[k]`` seconds."""
        from repro.exp import bench

        times = {"batched-agent": [plain_s[0]] + list(plain_s),
                 "batched-agent-faulted": [faulted_s[0]] + list(faulted_s)}

        def fake_time_engine(engine, *args, **kwargs):
            return times[engine].pop(0), 0.001, "numpy"

        monkeypatch.setattr(bench, "_time_engine", fake_time_engine)
        monkeypatch.setattr(bench, "SMOKE_GRID", (
            {"protocol": "leader-election", "n": 1_000, "steps": 500_000,
             "engines": FAULT_OVERHEAD_PAIRS[0]},))
        rows = run_kernel_benchmarks(smoke=True, repeats=1)
        assert [len(t) for t in times.values()] == [0, 0]
        return rows

    def test_gate_reads_median_of_paired_rounds(self, monkeypatch):
        # Every round the faulted twin takes 1.15x its fault-free twin,
        # but one lucky faulted round is the fastest of all: the ratio of
        # best-of times reads below 1, the paired median reads 1.15.
        plain = [0.030 + 0.001 * (k % 3) for k in range(30)]
        faulted = [1.15 * s for s in plain]
        faulted[17] = 0.029
        rows = self._gate_run(monkeypatch, plain, faulted)
        plain_row, faulted_row = rows
        assert plain_row["ips"] < faulted_row["ips"]
        assert "overhead_median" not in plain_row
        assert faulted_row["overhead_median"] == pytest.approx(1.15)
        problems = faulted_overhead_check(rows, max_overhead=1.10)
        assert [p["overhead"] for p in problems] == [1.15]

    def test_one_fast_plain_round_does_not_fail_the_gate(self, monkeypatch):
        # The mirror case: a single rare fast fault-free round makes the
        # best-of ratio read 1.41x although the twins run within 3%.
        plain = [0.030] * 30
        plain[4] = 0.022
        faulted = [0.031] * 30
        rows = self._gate_run(monkeypatch, plain, faulted)
        assert rows[0]["ips"] / rows[1]["ips"] > 1.4
        assert rows[1]["overhead_median"] == pytest.approx(0.031 / 0.030,
                                                           abs=1e-4)
        assert faulted_overhead_check(rows, max_overhead=1.10) == []

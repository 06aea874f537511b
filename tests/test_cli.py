"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import _parse_counts, build_parser, main


class TestParseCounts:
    def test_basic(self):
        assert _parse_counts("x=3,y=4") == {"x": 3, "y": 4}

    def test_whitespace_tolerant(self):
        assert _parse_counts(" x = 3 , y = 4 ") == {"x": 3, "y": 4}

    def test_rejects_missing_value(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_counts("x")

    def test_rejects_non_integer(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_counts("x=three")

    def test_rejects_empty(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_counts("")


class TestQeCommand:
    def test_prints_quantifier_free_form(self, capsys):
        assert main(["qe", "E k. x = 2*k"]) == 0
        out = capsys.readouterr().out
        assert "2 |" in out

    def test_parse_error_propagates(self):
        from repro.presburger.parser import ParseError

        with pytest.raises(ParseError):
            main(["qe", "x <"])


class TestSimulateCommand:
    def test_positive_verdict(self, capsys):
        code = main(["simulate", "20*e >= e + h", "--counts", "e=2,h=38",
                     "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict : 1" in out

    def test_negative_verdict(self, capsys):
        code = main(["simulate", "x >= 3", "--counts", "x=1,pad=5",
                     "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict : 0" in out

    def test_budget_too_small_reports_failure(self, capsys):
        code = main(["simulate", "x = y", "--counts", "x=6,y=6",
                     "--seed", "1", "--max-steps", "1",
                     "--patience", "1000000"])
        assert code == 1


class TestVerifyCommand:
    def test_holds(self, capsys):
        assert main(["verify", "x < y", "--size", "4"]) == 0
        assert "HOLDS" in capsys.readouterr().out

    def test_small_size(self, capsys):
        assert main(["verify", "x = 0 mod 2", "--size", "3"]) == 0


class TestExactCommand:
    def test_probabilities_printed(self, capsys):
        code = main(["exact", "x = 1 mod 2", "--counts", "x=3,pad=2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "P[output 1] = 1.0" in out
        assert "E[interactions to convergence]" in out


class TestProtocolsCommand:
    def test_lists_catalogue(self, capsys):
        assert main(["protocols"]) == 0
        out = capsys.readouterr().out
        assert "count-to-k" in out
        assert "flock-of-birds" in out


class TestRunCommand:
    def test_builtin_protocol(self, capsys):
        code = main(["run", "count-to-k", "--counts", "1=6,0=14",
                     "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict  : 1" in out
        assert "truth    : 1" in out

    def test_parameterized(self, capsys):
        code = main(["run", "count-to-k", "--counts", "1=3,0=5",
                     "--params", "k=3", "--seed", "1"])
        assert code == 0
        assert "verdict  : 1" in capsys.readouterr().out

    def test_unknown_protocol(self):
        with pytest.raises(KeyError):
            main(["run", "warp-drive", "--counts", "1=3"])

    def test_function_protocol_prints_outputs(self, capsys):
        code = main(["run", "quotient-3", "--counts", "1=7,0=5",
                     "--seed", "3", "--patience", "5000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "protocol : quotient-3" in out


class TestRobustnessCommand:
    def test_emits_resilience_table(self, capsys):
        code = main(["robustness", "--protocol", "epidemic",
                     "--trials", "3", "--seed", "1",
                     "--patience", "2000", "--max-steps", "50000"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("protocol")
        assert "no faults" in out
        # Fault-free epidemic is always right.
        assert " 1.00" in out

    def test_accepts_snake_case_and_repeats(self, capsys):
        code = main(["robustness", "--protocol", "count_to_k",
                     "--protocol", "redundant-count-to-k",
                     "--trials", "2", "--seed", "1",
                     "--patience", "2000", "--max-steps", "50000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "count-to-k" in out
        assert "redundant-count-to-k" in out
        assert "crash token holder (pile >= 3)" in out

    def test_unknown_protocol_is_clean_error(self, capsys):
        code = main(["robustness", "--protocol", "warp-drive"])
        captured = capsys.readouterr()
        assert code == 1
        assert "unknown protocol" in captured.err

    def test_non_predicate_protocol_is_clean_error(self, capsys):
        code = main(["robustness", "--protocol", "quotient-3"])
        captured = capsys.readouterr()
        assert code == 1
        assert "does not compute a predicate" in captured.err

    def test_engine_choices_are_the_harness_engines(self):
        from repro.analysis.robustness import ROBUSTNESS_ENGINES

        parser = build_parser()
        sub = next(action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction))
        engine = next(action for action
                      in sub.choices["robustness"]._actions
                      if action.dest == "engine")
        assert tuple(engine.choices) == ROBUSTNESS_ENGINES


class TestJsonOutput:
    def test_run_json_payload(self, capsys):
        import json

        code = main(["run", "count-to-k", "--counts", "1=6,0=14",
                     "--seed", "1", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["protocol"] == "count-to-k"
        assert payload["n"] == 20
        assert payload["output"] == 1
        assert payload["truth"] == 1
        assert payload["correct"] is True
        assert payload["input"] == {"0": 14, "1": 6}

    def test_robustness_json_rows(self, capsys):
        import json

        code = main(["robustness", "--protocol", "epidemic",
                     "--trials", "2", "--seed", "1",
                     "--patience", "2000", "--max-steps", "50000",
                     "--json"])
        rows = json.loads(capsys.readouterr().out)
        assert code == 0
        assert rows[0]["protocol"] == "epidemic"
        assert rows[0]["scenario"] == "no faults"
        assert rows[0]["rate"] == 1.0


EXP_FLAGS = ["--protocol", "epidemic", "--ns", "6,8", "--trials", "2",
             "--input", "ones:1", "--patience", "500",
             "--max-steps", "20000", "--seed", "3"]


class TestExpRunCommand:
    def test_inline_sweep_prints_report(self, capsys):
        code = main(["exp", "run"] + EXP_FLAGS)
        out = capsys.readouterr().out
        assert code == 0
        assert "plan     : 4 trials (4 executed, 0 resumed)" in out
        assert "mean converged_at" in out
        assert "fitted exponent" in out

    def test_store_enables_resume(self, tmp_path, capsys):
        store = str(tmp_path / "sweep.jsonl")
        assert main(["exp", "run", "--store", store] + EXP_FLAGS) == 0
        first = capsys.readouterr().out
        assert "(4 executed, 0 resumed)" in first

        assert main(["exp", "run", "--store", store] + EXP_FLAGS) == 0
        second = capsys.readouterr().out
        assert "(0 executed, 4 resumed)" in second

    def test_resume_skips_lines_that_are_no_records(self, tmp_path, capsys):
        # Complete lines that parse but are no usable record: JSON that
        # is not an object, and trial or failure records without a
        # string id.  The store skips them like unparseable lines and
        # leaves them on disk.
        import json

        path = tmp_path / "sweep.jsonl"
        assert main(["exp", "run", "--store", str(path), "--json"]
                    + EXP_FLAGS) == 0
        first = json.loads(capsys.readouterr().out)
        header, *records = path.read_text(encoding="utf-8").splitlines()
        foreign = ["5", "[1, 2]", "null", '{"kind":"trial"}',
                   '{"kind":"trial","id":7}',
                   '{"kind":"trial-failure","n":1}']
        # One record is dropped, so exactly one trial runs again.
        lines = [header, *foreign[:3], *records[:2], *foreign[3:],
                 *records[3:]]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["exp", "run", "--store", str(path), "--json"]
                    + EXP_FLAGS) == 0
        second = json.loads(capsys.readouterr().out)
        assert (second["executed"], second["skipped"]) == (1, 3)
        assert second["points"] == first["points"]
        kept = path.read_text(encoding="utf-8").splitlines()
        assert kept[:len(lines)] == lines
        assert kept[len(lines):] == [records[2]]

    def test_spec_file(self, tmp_path, capsys):
        from repro.exp.spec import ExperimentSpec, InputGrid, StopRule

        spec = ExperimentSpec(protocol="epidemic", ns=(6,), trials=2,
                              inputs=InputGrid(kind="ones", ones=1),
                              stop=StopRule(patience=500,
                                            max_steps=20_000), seed=3)
        path = tmp_path / "spec.json"
        path.write_text(spec.canonical_json(), encoding="utf-8")
        code = main(["exp", "run", "--spec", str(path)])
        assert code == 0
        assert "2 trials" in capsys.readouterr().out

    def test_json_report(self, capsys):
        import json

        code = main(["exp", "run", "--json"] + EXP_FLAGS)
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["executed"] == 4
        assert [p["n"] for p in payload["points"]] == [6, 8]

    def test_workers_flag_matches_serial_output(self, capsys):
        assert main(["exp", "run", "--json"] + EXP_FLAGS) == 0
        serial = capsys.readouterr().out
        assert main(["exp", "run", "--json", "--workers", "2"]
                    + EXP_FLAGS) == 0
        parallel = capsys.readouterr().out
        # --json omits executed/skipped differences only when equal; here
        # both run everything, so the whole payload must match bytewise.
        assert serial == parallel

    def test_fleet_flag_matches_serial_output(self, capsys):
        import json

        assert main(["exp", "run", "--json"] + EXP_FLAGS) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(["exp", "run", "--json", "--workers", "2"]
                    + EXP_FLAGS) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert parallel["points"] == serial["points"]

    def test_fleet_store_resume(self, tmp_path, capsys):
        store = str(tmp_path / "sweep.jsonl")
        assert main(["exp", "run", "--store", store,
                     "--workers", "2"] + EXP_FLAGS) == 0
        assert "(4 executed, 0 resumed)" in capsys.readouterr().out

        assert main(["exp", "run", "--store", store,
                     "--workers", "2"] + EXP_FLAGS) == 0
        assert "(0 executed, 4 resumed)" in capsys.readouterr().out

    def test_missing_protocol_is_clean_error(self, capsys):
        code = main(["exp", "run", "--ns", "6"])
        captured = capsys.readouterr()
        assert code == 1
        assert "--protocol" in captured.err

    def test_unknown_protocol_is_clean_error(self, capsys):
        code = main(["exp", "run", "--protocol", "warp-drive",
                     "--ns", "6", "--trials", "1"])
        assert code == 1
        assert "warp-drive" in capsys.readouterr().err

    def test_fault_needs_intensities(self, capsys):
        code = main(["exp", "run", "--fault", "omission-rate"] + EXP_FLAGS)
        assert code == 1
        assert "--intensities" in capsys.readouterr().err


class TestExpReportCommand:
    def run_sweep(self, tmp_path) -> str:
        store = str(tmp_path / "sweep.jsonl")
        assert main(["exp", "run", "--store", store] + EXP_FLAGS) == 0
        return store

    def test_reads_store(self, tmp_path, capsys):
        store = self.run_sweep(tmp_path)
        capsys.readouterr()
        assert main(["exp", "report", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "mean converged_at" in out

    def test_csv_exports(self, tmp_path, capsys):
        store = self.run_sweep(tmp_path)
        trials = tmp_path / "trials.csv"
        summary = tmp_path / "summary.csv"
        code = main(["exp", "report", "--store", store,
                     "--csv", str(trials), "--summary-csv", str(summary)])
        assert code == 0
        assert trials.read_text().startswith("n,")
        assert len(summary.read_text().strip().splitlines()) == 3

    def test_json(self, tmp_path, capsys):
        import json

        store = self.run_sweep(tmp_path)
        capsys.readouterr()
        assert main(["exp", "report", "--store", store, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["points"]) == 2

    def test_headerless_store_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert main(["exp", "report", "--store", str(path)]) == 1
        assert "header" in capsys.readouterr().err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_exp_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["exp"])


CHAOS_GOOD_FLAGS = ["--protocol", "epidemic", "--ns", "8", "--trials", "2",
                    "--monitors", "conservation,containment,flicker",
                    "--confirm", "500", "--patience", "400",
                    "--max-steps", "40000", "--seed", "0"]

CHAOS_BAD_FLAGS = ["--protocol", "majority", "--ns", "10",
                   "--input", "ones:6", "--fault", "corruption-rate",
                   "--intensities", "0.005", "--trials", "2",
                   "--monitors", "conservation,containment,flicker",
                   "--confirm", "4000", "--patience", "600",
                   "--max-steps", "60000", "--seed", "0"]


class TestChaosRunCommand:
    def test_known_good_protocol_has_no_violations(self, capsys):
        code = main(["chaos", "run", "--fail-on-violation"]
                    + CHAOS_GOOD_FLAGS)
        out = capsys.readouterr().out
        assert code == 0
        assert "violations: 0 / 2 trials" in out

    def test_known_bad_protocol_violates_and_fails(self, capsys):
        code = main(["chaos", "run", "--fail-on-violation"]
                    + CHAOS_BAD_FLAGS)
        out = capsys.readouterr().out
        assert code == 1
        assert "[flicker]" in out

    def test_shrink_then_replay_round_trip(self, tmp_path, capsys):
        artifact = str(tmp_path / "repro.json")
        code = main(["chaos", "run", "--shrink", artifact]
                    + CHAOS_BAD_FLAGS)
        out = capsys.readouterr().out
        assert code == 0  # no --fail-on-violation
        assert "shrunk   :" in out

        code = main(["chaos", "replay", artifact])
        out = capsys.readouterr().out
        assert code == 0
        assert "REPRODUCED" in out

    def test_replay_json_payload(self, tmp_path, capsys):
        import json

        artifact = str(tmp_path / "repro.json")
        assert main(["chaos", "run", "--shrink", artifact]
                    + CHAOS_BAD_FLAGS) == 0
        capsys.readouterr()
        assert main(["chaos", "replay", artifact, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reproduced"] is True
        assert payload["actual"]["step"] == payload["expected"]["step"]

    def test_scheduler_axis_in_report(self, capsys):
        code = main(["chaos", "run", "--schedulers",
                     "uniform,eclipse:budget=500"] + CHAOS_GOOD_FLAGS)
        out = capsys.readouterr().out
        assert code == 0
        assert "eclipse:budget=500" in out

    def test_store_enables_resume(self, tmp_path, capsys):
        store = str(tmp_path / "chaos.jsonl")
        assert main(["chaos", "run", "--store", store]
                    + CHAOS_GOOD_FLAGS) == 0
        assert "(2 executed, 0 resumed)" in capsys.readouterr().out
        assert main(["chaos", "run", "--store", store]
                    + CHAOS_GOOD_FLAGS) == 0
        assert "(0 executed, 2 resumed)" in capsys.readouterr().out

    def test_monitors_are_required(self, tmp_path, capsys):
        from repro.exp.spec import ExperimentSpec, InputGrid, StopRule

        spec = ExperimentSpec(protocol="epidemic", ns=(6,), trials=1,
                              inputs=InputGrid(kind="ones", ones=1),
                              stop=StopRule(patience=500,
                                            max_steps=20_000), seed=3)
        path = tmp_path / "spec.json"
        path.write_text(spec.canonical_json(), encoding="utf-8")
        code = main(["chaos", "run", "--spec", str(path)])
        assert code == 1
        assert "--monitors" in capsys.readouterr().err

    def test_replay_missing_artifact_is_clean_error(self, capsys):
        code = main(["chaos", "replay", "/nonexistent/repro.json"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestChaosParser:
    def test_chaos_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos"])


class TestBenchCommand:
    def test_smoke_writes_baseline_and_gates_against_it(self, tmp_path,
                                                        capsys):
        out = tmp_path / "bench.json"
        assert main(["bench", "--smoke", "--repeats", "1",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "speedup" in text
        assert out.exists()
        # A fresh run against its own baseline passes the gate.
        assert main(["bench", "--smoke", "--repeats", "1",
                     "--baseline", str(out)]) == 0

    def test_regression_fails_the_gate(self, tmp_path, capsys):
        import json

        out = tmp_path / "bench.json"
        assert main(["bench", "--smoke", "--repeats", "1",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        # Inflate the baseline: the machine "was" 100x faster.
        payload = json.loads(out.read_text())
        for row in payload["rows"]:
            row["ips"] *= 100
        out.write_text(json.dumps(payload))
        code = main(["bench", "--smoke", "--repeats", "1",
                     "--baseline", str(out)])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_json_payload(self, capsys):
        import json

        assert main(["bench", "--smoke", "--repeats", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressions"] == []
        assert {r["engine"] for r in payload["rows"]} >= {
            "multiset", "agent", "batched-agent"}
        assert all(s["speedup"] > 0 for s in payload["speedups"])

    def test_missing_baseline_is_clean_error(self, capsys):
        code = main(["bench", "--smoke", "--repeats", "1",
                     "--baseline", "/nonexistent/bench.json"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestExpEngineFlag:
    def test_batched_engine_runs(self, capsys):
        code = main(["exp", "run", "--protocol", "leader-election",
                     "--ns", "16", "--trials", "2", "--stop", "silent",
                     "--engine", "batched", "--json"])
        assert code == 0

    def test_batched_engine_accepts_fault_axis(self, capsys):
        code = main(["exp", "run", "--protocol", "leader-election",
                     "--ns", "16", "--trials", "1",
                     "--engine", "batched",
                     "--fault", "crash-rate", "--intensities", "0.1",
                     "--json"])
        assert code == 0

    def test_batched_engine_rejects_scalar_only_monitors(self, capsys):
        code = main(["chaos", "run", "--protocol", "leader-election",
                     "--ns", "16", "--trials", "1",
                     "--engine", "batched", "--monitors", "fairness",
                     "--confirm", "0"])
        assert code == 1
        err = capsys.readouterr().err
        assert "batched" in err and "fairness" in err


class TestBackendFlag:
    def test_exp_run_with_python_backend(self, capsys):
        import json

        code = main(["exp", "run", "--protocol", "leader-election",
                     "--ns", "20", "--trials", "2", "--stop", "silent",
                     "--engine", "batched", "--backend", "python",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["backend"] == "python"
        assert payload["executed"] == 2

    def test_default_spec_carries_no_backend_field(self, capsys):
        import json

        code = main(["exp", "run", "--protocol", "leader-election",
                     "--ns", "20", "--trials", "2", "--stop", "silent",
                     "--engine", "batched", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # Hash preservation: the defaulted backend stays out of the
        # serialized spec, so pre-backend spec hashes are unchanged.
        assert "backend" not in payload["spec"]

    def test_backend_requires_backend_capable_engine(self, capsys):
        code = main(["exp", "run", "--protocol", "leader-election",
                     "--ns", "20", "--trials", "1",
                     "--backend", "python", "--json"])
        assert code == 1
        assert "step-kernel backends" in capsys.readouterr().err

    def test_unknown_backend_rejected_by_parser(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["exp", "run", "--protocol", "epidemic",
                               "--ns", "20", "--backend", "cuda"])

    def test_chaos_run_accepts_backend(self, capsys):
        code = main(["chaos", "run", "--protocol", "leader-election",
                     "--ns", "20", "--trials", "1",
                     "--engine", "batched", "--backend", "python",
                     "--fault", "crash-rate", "--intensities", "0.1",
                     "--confirm", "0", "--json"])
        assert code == 0


class TestDoctorCommand:
    def test_reports_versions_and_backends(self, capsys):
        assert main(["doctor"]) == 0
        out = capsys.readouterr().out
        assert "versions:" in out
        assert "numpy" in out and "python" in out and "numba" in out
        assert "kernel backends" in out

    def test_json_payload(self, capsys):
        import json

        assert main(["doctor", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["default_backend"] == "numpy"
        assert payload["versions"]["numpy"]
        by_name = {b["name"]: b for b in payload["backends"]}
        assert by_name["numpy"]["available"]
        assert by_name["python"]["available"]
        if payload["versions"]["numba"] is None:
            assert not by_name["numba"]["available"]
            assert "numba is not importable" in by_name["numba"]["reason"]
        else:
            assert by_name["numba"]["available"]

    def test_reports_fleet_eligibility(self, capsys):
        assert main(["doctor"]) == 0
        out = capsys.readouterr().out
        assert "worker fleet" in out
        assert "start method" in out
        assert "shared memory" not in out

    def test_json_fleet_payload(self, capsys):
        import json

        assert main(["doctor", "--json"]) == 0
        fleet = json.loads(capsys.readouterr().out)["fleet"]
        assert fleet["start_method"] in ("fork", "forkserver", "spawn")
        assert "shared_memory" not in fleet
        assert isinstance(fleet["numba"]["warm_kernels"], list)

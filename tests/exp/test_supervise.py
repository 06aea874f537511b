"""Supervised execution: timeouts, retries, crash recovery, quarantine.

The failure modes are injected through the normal protocol interface by
:mod:`repro.protocols.faulty` (poison input symbols mapped per
population size via an explicit input table), so every test drives the
full path: spec → runner → supervised worker process → engine.  The
headline assertions:

* successful-trial records are byte-identical to an unfailed run, even
  when workers were SIGKILLed and respawned along the way;
* a hung trial is cut at ``timeout_s`` (worker-side alarm) or shortly
  after (parent-side deadline when the alarm is blocked, standing in
  for a worker wedged in C code);
* a poison trial ends as a structured ``trial-failure`` record that
  resumes as a *failure*, not as pending work.

This file is also the CI supervision smoke job (see
``.github/workflows/ci.yml``).
"""

import json

import pytest

from repro.exp.runner import run_experiment, run_trial, sweep_points
from repro.exp.spec import (
    ExecutionPolicy,
    ExperimentSpec,
    InputGrid,
    StopRule,
)
from repro.exp.store import ResultStore
from repro.exp.supervise import (
    MAX_BACKOFF_S,
    TrialExecutionError,
    backoff_delay,
)
from repro.protocols import faulty

faulty.install()

#: Input tables: each population size carries one failure mode (or none).
HEALTHY = {8: {1: 1, 0: 7}}


def poison(mode: str, n: int = 9) -> dict:
    """One poison agent at population size ``n``, rest healthy."""
    return {n: {1: 1, 0: n - 2, mode: 1}}


def make_spec(table: dict, *, policy: ExecutionPolicy, trials: int = 1,
              engine: str = "agent", seed: int = 3,
              protocol: str = "misbehaving-epidemic") -> ExperimentSpec:
    # The poison bitmask opts the misbehaving protocol's alphabet into
    # every failure mode; the default build stays benign so nothing
    # that eagerly enumerates the alphabet can trip a poison symbol.
    params = ({"poison": faulty.ALL_POISON}
              if protocol == "misbehaving-epidemic" else {})
    return ExperimentSpec(
        protocol=protocol, ns=tuple(sorted(table)),
        trials=trials, params=params, inputs=InputGrid.explicit(table),
        stop=StopRule(patience=200, max_steps=5_000),
        engine=engine, execution=policy, seed=seed)


QUARANTINE = ExecutionPolicy(max_attempts=2, backoff=0.0,
                             on_error="quarantine")


@pytest.fixture
def marker_dir(tmp_path, monkeypatch):
    """Marker directory for the stateful poison modes (flaky, die)."""
    path = tmp_path / "markers"
    path.mkdir()
    monkeypatch.setenv(faulty.MARKER_DIR_ENV, str(path))
    return path


def dumps(records):
    return json.dumps(records, sort_keys=True)


class TestBackoff:
    def test_deterministic(self):
        policy = ExecutionPolicy(backoff=0.5)
        assert backoff_delay(policy, "task-a", 1) == \
            backoff_delay(policy, "task-a", 1)

    def test_jittered_exponential_growth(self):
        policy = ExecutionPolicy(backoff=0.5)
        for attempt in (1, 2, 3):
            delay = backoff_delay(policy, "task-a", attempt)
            base = 0.5 * 2 ** (attempt - 1)
            assert 0.5 * base <= delay < 1.5 * base

    def test_distinct_tasks_get_distinct_jitter(self):
        policy = ExecutionPolicy(backoff=0.5)
        delays = {backoff_delay(policy, f"task-{i}", 1) for i in range(8)}
        assert len(delays) > 1

    def test_capped(self):
        policy = ExecutionPolicy(backoff=10.0)
        assert backoff_delay(policy, "task-a", 12) == MAX_BACKOFF_S

    def test_zero_backoff_is_instant(self):
        assert backoff_delay(ExecutionPolicy(backoff=0.0), "t", 3) == 0.0


class TestSupervisedDeterminism:
    """Supervision must never change *what* is computed."""

    def test_records_match_in_process_run_trial(self):
        policy = ExecutionPolicy(timeout_s=60.0, max_attempts=2)
        spec = make_spec({**HEALTHY, 10: {1: 2, 0: 8}},
                         policy=policy, trials=2)
        result = run_experiment(spec, workers=2)
        expected = [run_trial(spec, point, trial,
                              spec_hash=result.spec_hash)
                    for point in sweep_points(spec)
                    for trial in range(spec.trials)]
        assert dumps(result.records) == dumps(
            sorted(expected, key=lambda r: (r["n"], r["trial"])))

    def test_worker_count_invariant(self):
        policy = ExecutionPolicy(timeout_s=60.0)
        spec = make_spec({**HEALTHY, 10: {1: 2, 0: 8}},
                         policy=policy, trials=3)
        solo = run_experiment(spec, workers=1)
        fleet = run_experiment(spec, workers=3)
        assert dumps(solo.records) == dumps(fleet.records)
        assert solo.supervision["tasks"] == 6

    def test_supervision_counters_clean_run(self):
        spec = make_spec(HEALTHY, policy=ExecutionPolicy(timeout_s=60.0),
                         trials=2)
        result = run_experiment(spec, workers=1)
        assert result.supervision == {
            "tasks": 2, "attempts": 2, "retries": 0, "timeouts": 0,
            "crashes": 0, "errors": 0, "quarantined": 0, "skipped": 0}


class TestPoisonTrials:
    def test_boom_quarantined_with_full_forensics(self, marker_dir):
        spec = make_spec({**HEALTHY, **poison("boom")},
                         policy=QUARANTINE, trials=1)
        result = run_experiment(spec, workers=2)
        assert [r["n"] for r in result.records] == [8]
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure["kind"] == "trial-failure"
        assert failure["n"] == 9
        assert failure["error_type"] == "RuntimeError"
        assert "boom" in failure["message"]
        assert "RuntimeError" in failure["traceback"]
        assert failure["spec_hash"] == result.spec_hash
        assert len(failure["attempts"]) == 2
        assert all("traceback" not in a for a in failure["attempts"])
        assert isinstance(failure["engine_seed"], int)
        assert result.supervision["errors"] == 2
        assert result.supervision["quarantined"] == 1

    def test_on_error_raise_aborts(self, marker_dir):
        policy = ExecutionPolicy(max_attempts=2, backoff=0.0)
        spec = make_spec(poison("boom"), policy=policy)
        with pytest.raises(TrialExecutionError, match="boom"):
            run_experiment(spec, workers=1)

    def test_on_error_skip_drops_silently(self, marker_dir):
        policy = ExecutionPolicy(max_attempts=1, on_error="skip")
        spec = make_spec({**HEALTHY, **poison("boom")}, policy=policy)
        result = run_experiment(spec, workers=1)
        assert [r["n"] for r in result.records] == [8]
        assert result.failures == []
        assert result.supervision["skipped"] == 1


class TestTransientFailures:
    def test_flaky_trial_retries_to_byte_identical_record(self, marker_dir,
                                                          monkeypatch,
                                                          tmp_path):
        policy = ExecutionPolicy(max_attempts=3, backoff=0.0,
                                 on_error="quarantine")
        spec = make_spec({**HEALTHY, **poison("flaky")}, policy=policy)
        result = run_experiment(spec, workers=1)
        assert result.failures == []
        assert [r["n"] for r in result.records] == [8, 9]
        assert result.supervision["retries"] == 1
        assert result.supervision["errors"] == 1

        # Clean comparison run: pre-fire the marker so nothing fails.
        clean_dir = tmp_path / "clean"
        clean_dir.mkdir()
        (clean_dir / "flaky.fired").touch()
        monkeypatch.setenv(faulty.MARKER_DIR_ENV, str(clean_dir))
        clean = run_experiment(spec, workers=1)
        assert clean.supervision["retries"] == 0
        assert dumps(result.records) == dumps(clean.records)

    def test_sigkilled_worker_respawns_and_records_match(self, marker_dir,
                                                         monkeypatch,
                                                         tmp_path):
        """The acceptance criterion: a sweep whose worker is SIGKILLed
        mid-trial completes with records byte-identical to an unfailed
        run."""
        policy = ExecutionPolicy(timeout_s=60.0, max_attempts=3,
                                 backoff=0.0, on_error="quarantine")
        spec = make_spec({**HEALTHY, **poison("die")},
                         policy=policy, trials=2)
        result = run_experiment(spec, workers=2)
        assert result.supervision["crashes"] == 1
        assert result.failures == []
        assert len(result.records) == 4

        clean_dir = tmp_path / "clean"
        clean_dir.mkdir()
        (clean_dir / "die.fired").touch()
        monkeypatch.setenv(faulty.MARKER_DIR_ENV, str(clean_dir))
        clean = run_experiment(spec, workers=2)
        assert clean.supervision["crashes"] == 0
        assert dumps(result.records) == dumps(clean.records)


class TestTimeouts:
    def test_hung_trial_cut_at_timeout(self, marker_dir):
        policy = ExecutionPolicy(timeout_s=0.3, max_attempts=1,
                                 on_error="quarantine")
        spec = make_spec({**HEALTHY, **poison("hang")}, policy=policy)
        result = run_experiment(spec, workers=1)
        assert [r["n"] for r in result.records] == [8]
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure["error_type"] == "TrialTimeout"
        assert failure["attempts"][0]["elapsed_s"] >= 0.25
        assert failure["attempts"][0]["elapsed_s"] < 5.0
        assert result.supervision["timeouts"] == 1

    def test_alarm_proof_hang_killed_by_parent_deadline(self, marker_dir):
        policy = ExecutionPolicy(timeout_s=0.3, max_attempts=1,
                                 on_error="quarantine")
        spec = make_spec({**HEALTHY, **poison("hang-hard")},
                         policy=policy)
        result = run_experiment(spec, workers=1)
        assert [r["n"] for r in result.records] == [8]
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure["error_type"] == "TrialTimeout"
        assert "supervisor deadline" in failure["message"]
        assert result.supervision["timeouts"] == 1


class TestQuarantineResume:
    def test_quarantined_trials_resume_as_failures(self, marker_dir,
                                                   tmp_path):
        spec = make_spec({**HEALTHY, **poison("boom")},
                         policy=QUARANTINE)
        store_path = tmp_path / "results.jsonl"
        first = run_experiment(spec, store=ResultStore(store_path),
                               workers=1)
        assert len(first.failures) == 1

        reopened = ResultStore(store_path)
        assert reopened.quarantined_ids() == {first.failures[0]["id"]}
        resumed = run_experiment(spec, store=reopened, workers=1)
        assert resumed.executed == 0
        assert resumed.supervision["tasks"] == 0
        assert dumps(resumed.failures) == dumps(first.failures)

    def test_retry_quarantined_reexecutes(self, marker_dir, tmp_path):
        spec = make_spec({**HEALTHY, **poison("boom")},
                         policy=QUARANTINE)
        store_path = tmp_path / "results.jsonl"
        run_experiment(spec, store=ResultStore(store_path), workers=1)
        retried = run_experiment(spec, store=ResultStore(store_path),
                                 workers=1, retry_quarantined=True)
        assert retried.supervision["tasks"] == 1  # just the poison trial
        assert retried.supervision["errors"] == 2

    def test_late_success_supersedes_stored_failure(self, marker_dir,
                                                    tmp_path):
        # flaky with max_attempts=1: the single attempt consumes the
        # marker and fails -> quarantined.  The retry-quarantined rerun
        # finds the marker already fired and succeeds.
        policy = ExecutionPolicy(max_attempts=1, on_error="quarantine")
        spec = make_spec({**HEALTHY, **poison("flaky")}, policy=policy)
        store_path = tmp_path / "results.jsonl"
        first = run_experiment(spec, store=ResultStore(store_path),
                               workers=1)
        assert len(first.failures) == 1
        second = run_experiment(spec, store=ResultStore(store_path),
                                workers=1, retry_quarantined=True)
        assert second.failures == []
        assert len(second.records) == 2
        reopened = ResultStore(store_path)
        assert reopened.failures() == []
        assert reopened.quarantined_ids() == set()


class TestEnsembleSupervision:
    """The ensemble engine compiles the *whole* input alphabet up front,
    so poison symbols cannot ride along in a healthy spec the way they
    do under the lazy agent engine.  Failure is injected instead via an
    input symbol outside the (plain epidemic) alphabet, which the
    ensemble engine rejects inside the worker."""

    def test_ensemble_point_batch_quarantines_every_trial(self):
        policy = ExecutionPolicy(max_attempts=1, on_error="quarantine")
        spec = make_spec({**HEALTHY, 9: {1: 1, 0: 6, "junk": 1}},
                         policy=policy, trials=3, engine="ensemble",
                         protocol="epidemic")
        result = run_experiment(spec, workers=1)
        assert [r["n"] for r in result.records] == [8, 8, 8]
        assert len(result.failures) == 3
        assert {f["trial"] for f in result.failures} == {0, 1, 2}
        assert all(f["error_type"] == "ValueError"
                   for f in result.failures)
        assert all("junk" in f["message"] for f in result.failures)

    def test_ensemble_worker_count_invariant(self):
        policy = ExecutionPolicy(timeout_s=60.0)
        spec = make_spec({**HEALTHY, 10: {1: 2, 0: 8}},
                         policy=policy, trials=4, engine="ensemble",
                         protocol="epidemic")
        solo = run_experiment(spec, workers=1)
        fleet = run_experiment(spec, workers=2)
        assert dumps(solo.records) == dumps(fleet.records)


class TestSmokeSweep:
    """The CI supervision smoke scenario in one sweep: a crashing, a
    hanging, and a flaky-then-succeeding trial beside a healthy one."""

    def test_combined_failure_sweep(self, marker_dir):
        policy = ExecutionPolicy(timeout_s=0.5, max_attempts=2,
                                 backoff=0.0, on_error="quarantine")
        table = dict(HEALTHY)
        table.update(poison("die", 9))
        table.update(poison("hang", 10))
        table.update(poison("flaky", 11))
        spec = make_spec(table, policy=policy)
        result = run_experiment(spec, workers=2)

        # Healthy, crashed-then-respawned, and flaky-then-retried trials
        # all end as normal records; only the hang is quarantined.
        assert [r["n"] for r in result.records] == [8, 9, 11]
        assert [f["n"] for f in result.failures] == [10]
        assert result.failures[0]["error_type"] == "TrialTimeout"
        assert len(result.failures[0]["attempts"]) == 2
        stats = result.supervision
        assert stats["crashes"] >= 1
        assert stats["timeouts"] >= 2
        assert stats["retries"] >= 2
        assert stats["quarantined"] == 1

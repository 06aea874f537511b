"""Worker fleet: byte identity, warm reuse, supervision, lifecycle.

The headline contracts, each asserted byte-for-byte:

* fleet records are identical to the in-process (``workers=1``) run and
  to the temporary fleet ``run_experiment(workers=2)`` spawns — the
  fleet changes *where* trials execute, never *what* they produce;
* a fleet passed as ``fleet=`` keeps its processes and compile caches
  warm across sweeps;
* the full supervision contract (timeouts, retries, crash recovery,
  quarantine) holds when trials run on fleet workers, with a respawned
  worker given the running sweep's spec; under the default policy a
  raising trial re-raises its original exception, and a killed worker
  aborts the sweep instead of hanging it;
* a sweep with nothing to run in parallel spawns no process at all.

Failure modes are injected exactly as in ``test_supervise.py``: poison
input symbols of :mod:`repro.protocols.faulty` mapped per population
size.  This file is also the CI fleet smoke job (see
``.github/workflows/ci.yml``).
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
import repro.exp.fleet as fleet_module
from repro.exp.fleet import WorkerFleet, fleet_report
from repro.exp.runner import run_experiment
from repro.exp.spec import (
    ExecutionPolicy,
    ExperimentSpec,
    FaultAxis,
    InputGrid,
    StopRule,
)
from repro.exp.store import ResultStore
from repro.protocols import faulty
from repro.sim.backends import available_backends

faulty.install()

HEALTHY = {8: {1: 1, 0: 7}}

QUARANTINE = ExecutionPolicy(max_attempts=2, backoff=0.0,
                             on_error="quarantine")


def poison(mode: str, n: int = 9) -> dict:
    """One poison agent at population size ``n``, rest healthy."""
    return {n: {1: 1, 0: n - 2, mode: 1}}


def make_spec(**overrides) -> ExperimentSpec:
    base = dict(protocol="epidemic", ns=(6, 8), trials=3,
                inputs=InputGrid(kind="ones", ones=1),
                stop=StopRule(patience=500, max_steps=20_000), seed=7)
    base.update(overrides)
    return ExperimentSpec(**base)


def poison_spec(table: dict, *, policy: ExecutionPolicy,
                trials: int = 1, seed: int = 3) -> ExperimentSpec:
    return ExperimentSpec(
        protocol="misbehaving-epidemic", ns=tuple(sorted(table)),
        trials=trials, params={"poison": faulty.ALL_POISON},
        inputs=InputGrid.explicit(table),
        stop=StopRule(patience=200, max_steps=5_000),
        engine="agent", execution=policy, seed=seed)


@pytest.fixture
def marker_dir(tmp_path, monkeypatch):
    """Marker directory for the stateful poison modes (flaky, die)."""
    path = tmp_path / "markers"
    path.mkdir()
    monkeypatch.setenv(faulty.MARKER_DIR_ENV, str(path))
    return path


@pytest.fixture(params=available_backends())
def backend(request):
    return request.param


def dumps(records):
    return json.dumps(records, sort_keys=True)


class TestByteIdentity:
    def test_fleet_matches_in_process_run(self):
        spec = make_spec()
        serial = run_experiment(spec, workers=1)
        with WorkerFleet(2) as fleet:
            result = run_experiment(spec, fleet=fleet)
        assert dumps(result.records) == dumps(serial.records)
        assert result.fleet["workers"] == 2

    def test_fleet_matches_cold_pool(self):
        spec = make_spec(trials=4)
        pool = run_experiment(spec, workers=2)
        with WorkerFleet(2) as fleet:
            result = run_experiment(spec, fleet=fleet)
        assert dumps(result.records) == dumps(pool.records)

    def test_single_worker_fleet(self):
        spec = make_spec()
        serial = run_experiment(spec, workers=1)
        with WorkerFleet(1) as fleet:
            result = run_experiment(spec, fleet=fleet)
        assert dumps(result.records) == dumps(serial.records)

    def test_fault_axis_sweep(self):
        spec = make_spec(faults=FaultAxis("omission-rate", (0.0, 0.4)))
        serial = run_experiment(spec, workers=1)
        with WorkerFleet(2) as fleet:
            result = run_experiment(spec, fleet=fleet)
        assert dumps(result.records) == dumps(serial.records)

    def test_batched_engine_across_backends(self, backend):
        spec = make_spec(engine="batched", backend=backend,
                         ns=(16,), trials=2)
        serial = run_experiment(spec, workers=1)
        with WorkerFleet(2) as fleet:
            result = run_experiment(spec, fleet=fleet)
        assert dumps(result.records) == dumps(serial.records)

    def test_ensemble_engine(self):
        spec = make_spec(engine="ensemble", ns=(16,), trials=4)
        serial = run_experiment(spec, workers=1)
        with WorkerFleet(2) as fleet:
            result = run_experiment(spec, fleet=fleet)
        assert dumps(result.records) == dumps(serial.records)

    def test_store_resume_through_fleet(self, tmp_path):
        spec = make_spec()
        serial = run_experiment(spec, workers=1)
        store = ResultStore(tmp_path / "results.jsonl")
        with WorkerFleet(2) as fleet:
            first = run_experiment(spec, store=store, fleet=fleet)
            assert first.executed == len(first.records)
            again = run_experiment(
                spec, store=ResultStore(tmp_path / "results.jsonl"),
                fleet=fleet)
        assert again.executed == 0
        assert again.skipped == len(serial.records)
        assert dumps(again.records) == dumps(serial.records)


class TestStoreLines:
    """A fleet task's records reach the store in one write of
    worker-encoded lines; the store must hold exactly the lines an
    in-process sweep writes one record at a time."""

    @pytest.mark.parametrize("spec", [
        # 40 pending trials on 2 workers: chunks of 5 trials per task.
        make_spec(trials=20),
        make_spec(engine="ensemble", ns=(16, 24), trials=6),
        make_spec(trials=3, execution=QUARANTINE),
    ], ids=["chunked-agent", "ensemble", "supervised"])
    def test_worker_counts_leave_identical_store_lines(self, spec, tmp_path):
        lines = {}
        for workers in (1, 2):
            path = tmp_path / f"workers-{workers}.jsonl"
            store = ResultStore(path)
            result = run_experiment(spec, store=store, workers=workers)
            store.close()
            assert result.executed == len(result.records) > 0
            lines[workers] = sorted(path.read_text("utf-8").splitlines())
        assert lines[1] == lines[2]
        assert len(lines[1]) == 1 + len(result.records)

    def test_task_lines_reach_the_store_before_progress(self, tmp_path):
        path = tmp_path / "r.jsonl"
        stored_first = []

        def progress(record):
            on_disk = {json.loads(line)["id"] for line
                       in path.read_text("utf-8").splitlines()[1:]}
            stored_first.append(record["id"] in on_disk)

        result = run_experiment(make_spec(trials=20), store=ResultStore(path),
                                workers=2, progress=progress)
        assert len(stored_first) == len(result.records) == 40
        assert all(stored_first)


class TestWarmReuse:
    def test_second_sweep_reuses_workers_and_compile_cache(self):
        spec = make_spec(engine="batched", ns=(16,), trials=2)
        with WorkerFleet(2) as fleet:
            first = run_experiment(spec, fleet=fleet)
            pids = [w["pid"] for w in fleet.worker_stats() if w]
            # A different seed defeats the trial memo, so the second
            # sweep actually executes — on the same warm processes.
            second = run_experiment(make_spec(engine="batched", ns=(16,),
                                              trials=2, seed=11),
                                    fleet=fleet)
            stats = [w for w in fleet.worker_stats() if w]
        assert first.failures == [] and second.failures == []
        assert [w["pid"] for w in stats] == pids
        # Install compiles once per spec; trials then hit the keyed
        # compile memo in every worker that executed one.
        assert any(w["compile_cache"]["hits"] > 0 for w in stats)
        assert all(len(w["installed"]) == 2 for w in stats)

    def test_evicted_spec_is_installed_again(self):
        """Installing more specs than a worker keeps evicts the oldest on
        both sides, so a later sweep of it installs it again."""
        specs = [make_spec(seed=100 + i)
                 for i in range(fleet_module.MAX_INSTALLED_SPECS + 1)]
        serial = run_experiment(specs[0], workers=1)
        with WorkerFleet(1) as fleet:
            for spec in specs:
                fleet.install(spec)
            result = run_experiment(specs[0], fleet=fleet)
        assert dumps(result.records) == dumps(serial.records)

    def test_install_is_idempotent(self):
        spec = make_spec()
        with WorkerFleet(1) as fleet:
            first = fleet.install(spec)
            installs = fleet.stats.installs
            assert fleet.install(spec) == first
            assert fleet.stats.installs == installs


class TestSupervisionThroughFleet:
    def test_poison_trial_quarantined(self, marker_dir):
        spec = poison_spec({**HEALTHY, **poison("boom")},
                           policy=QUARANTINE)
        with WorkerFleet(2) as fleet:
            result = run_experiment(spec, fleet=fleet)
        assert [r["n"] for r in result.records] == [8]
        assert len(result.failures) == 1
        assert result.failures[0]["error_type"] == "RuntimeError"
        assert "boom" in result.failures[0]["message"]
        assert result.supervision["quarantined"] == 1

    def test_hung_trial_cut_at_timeout(self, marker_dir):
        policy = ExecutionPolicy(timeout_s=0.3, max_attempts=1,
                                 on_error="quarantine")
        spec = poison_spec({**HEALTHY, **poison("hang")}, policy=policy)
        with WorkerFleet(2) as fleet:
            result = run_experiment(spec, fleet=fleet)
        assert [r["n"] for r in result.records] == [8]
        assert result.failures[0]["error_type"] == "TrialTimeout"
        assert result.supervision["timeouts"] == 1

    def test_sigkilled_worker_respawns_warm(self, marker_dir, monkeypatch,
                                            tmp_path):
        policy = ExecutionPolicy(timeout_s=60.0, max_attempts=3,
                                 backoff=0.0, on_error="quarantine")
        spec = poison_spec({**HEALTHY, **poison("die")},
                           policy=policy, trials=2)
        with WorkerFleet(2) as fleet:
            result = run_experiment(spec, fleet=fleet)
            assert result.supervision["crashes"] == 1
            assert result.fleet["respawns"] == 1
            assert result.failures == []
            assert len(result.records) == 4
            # The respawned worker was re-armed with the installed spec:
            # every worker reports it, and the fleet keeps serving.
            assert all(len(w["installed"]) == 1
                       for w in fleet.worker_stats() if w)

        clean_dir = tmp_path / "clean"
        clean_dir.mkdir()
        (clean_dir / "die.fired").touch()
        monkeypatch.setenv(faulty.MARKER_DIR_ENV, str(clean_dir))
        clean = run_experiment(spec, workers=2)
        assert clean.supervision["crashes"] == 0
        assert dumps(result.records) == dumps(clean.records)

    def test_fleet_survives_failed_sweep(self, marker_dir):
        """A sweep full of failures leaves the fleet usable."""
        spec = poison_spec({**HEALTHY, **poison("boom")},
                           policy=QUARANTINE)
        healthy = make_spec()
        serial = run_experiment(healthy, workers=1)
        with WorkerFleet(2) as fleet:
            run_experiment(spec, fleet=fleet)
            after = run_experiment(healthy, fleet=fleet)
        assert dumps(after.records) == dumps(serial.records)

    def test_default_policy_error_raises(self):
        spec = poison_spec(poison("boom"), policy=ExecutionPolicy())
        from repro.exp.supervise import TrialExecutionError

        with WorkerFleet(1) as fleet:
            with pytest.raises(RuntimeError, match="boom") as raised:
                run_experiment(spec, fleet=fleet)
        assert not isinstance(raised.value, TrialExecutionError)

    def test_default_policy_parallel_sweep_raises_original(self):
        spec = poison_spec({**HEALTHY, **poison("boom")},
                           policy=ExecutionPolicy(), trials=3)
        with pytest.raises(RuntimeError, match="boom") as raised:
            run_experiment(spec, workers=2)
        assert "boom" in str(raised.value.__cause__)

    def test_default_policy_unpicklable_error_raises_trial_error(
            self, monkeypatch):
        import repro.exp.runner as runner_mod
        from repro.exp.supervise import TrialExecutionError

        def explode(*args, **kwargs):
            error = RuntimeError("unpicklable")
            error.hook = lambda: None  # no pickle can carry this
            raise error

        # Patched before the fleet forks, so its workers run `explode`.
        monkeypatch.setattr(runner_mod, "_run_slot", explode)
        with WorkerFleet(1) as fleet:
            with pytest.raises(TrialExecutionError,
                               match="unpicklable") as raised:
                run_experiment(make_spec(), fleet=fleet)
        assert raised.value.failure["error_type"] == "RuntimeError"


#: Runs a default-policy ``workers=2`` sweep whose ``die`` trial
#: SIGKILLs its worker, then prints the outcome as one JSON line.
_KILLED_WORKER_SCRIPT = textwrap.dedent("""
    import json, sys
    from repro.exp.runner import run_experiment
    from repro.exp.spec import (
        ExecutionPolicy, ExperimentSpec, InputGrid, StopRule)
    from repro.exp.supervise import TrialExecutionError
    from repro.protocols import faulty

    faulty.install()
    spec = ExperimentSpec(
        protocol="misbehaving-epidemic", ns=(8, 9), trials=2,
        params={"poison": faulty.ALL_POISON},
        inputs=InputGrid.explicit({8: {1: 1, 0: 7},
                                   9: {1: 1, 0: 7, "die": 1}}),
        stop=StopRule(patience=200, max_steps=5_000),
        execution=ExecutionPolicy(), seed=3)
    try:
        run_experiment(spec, workers=2)
    except TrialExecutionError as exc:
        print(json.dumps({"raised": type(exc).__name__,
                          "error_type": exc.failure["error_type"]}))
    else:
        print(json.dumps({"raised": None}))
""")


class TestKilledWorker:
    def test_default_policy_killed_worker_raises_not_hangs(self, marker_dir):
        """A SIGKILLed worker under the default policy aborts the sweep.

        The sweep runs in a subprocess with a deadline, so a regression
        to hanging fails this test instead of wedging the suite.
        """
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        completed = subprocess.run(
            [sys.executable, "-c", _KILLED_WORKER_SCRIPT], env=env,
            capture_output=True, text=True, timeout=60)
        assert completed.returncode == 0, completed.stderr
        outcome = json.loads(completed.stdout.strip().splitlines()[-1])
        assert outcome == {"raised": "TrialExecutionError",
                           "error_type": "WorkerCrashed"}


class TestNoSpawnWhenNothingRuns:
    @pytest.fixture
    def no_fleet(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a worker fleet was spawned")

        monkeypatch.setattr(fleet_module, "WorkerFleet", refuse)

    def test_resume_of_completed_store(self, tmp_path, no_fleet):
        spec = make_spec()
        path = tmp_path / "results.jsonl"
        run_experiment(spec, store=ResultStore(path), workers=1)
        again = run_experiment(spec, store=ResultStore(path), workers=2)
        assert again.executed == 0
        assert again.skipped == len(again.records) == 6

    def test_one_point_ensemble_sweep(self, no_fleet):
        spec = make_spec(engine="ensemble", ns=(16,), trials=4)
        result = run_experiment(spec, workers=2)
        assert result.executed == 4


class TestFleetReport:
    def test_payload_shape(self):
        report = fleet_report()
        assert report["start_method"] in ("fork", "forkserver", "spawn")
        assert set(report) == {"start_method", "numba"}
        assert isinstance(report["numba"]["available"], bool)
        assert isinstance(report["numba"]["warm_kernels"], list)


class TestSharedFleet:
    """A fleet shared across sweeps is closed explicitly; afterwards it
    refuses work."""

    def test_closed_fleet_rejects_runs(self):
        fleet = WorkerFleet(1)
        fleet.close()
        with pytest.raises(RuntimeError):
            run_experiment(make_spec(), fleet=fleet)

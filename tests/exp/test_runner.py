"""Tests for the experiment runner's two core invariants.

1. **Parallel-vs-serial determinism** — the same spec produces identical
   result records whether it runs on one worker or four, because every
   trial's seeds derive from ``(spec hash, point, trial)`` alone.
2. **Resume-after-interrupt** — truncating the store mid-sweep and
   re-running executes only the missing trials and reconstructs the
   exact same record set.
"""

import hashlib
import json
import os

import pytest

from repro.exp.report import trials_csv
from repro.exp.runner import (
    SweepPoint,
    plan_size,
    run_experiment,
    run_task,
    run_trial,
    sweep_points,
    trial_id,
    trial_ids,
    trial_keys,
    trial_seeds,
)
from repro.exp.spec import ExperimentSpec, FaultAxis, InputGrid, StopRule
from repro.exp.store import ResultStore
from repro.util.rng import derive_seed


def make_spec(**overrides) -> ExperimentSpec:
    base = dict(protocol="epidemic", ns=(6, 8), trials=3,
                inputs=InputGrid(kind="ones", ones=1),
                stop=StopRule(patience=500, max_steps=20_000), seed=7)
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSeedDerivation:
    def test_pure_function_of_identity(self):
        point = SweepPoint(8, 0.3)
        assert trial_seeds("abc", point, 2) == trial_seeds("abc", point, 2)

    def test_distinct_across_trials_points_and_streams(self):
        seeds = set()
        for point in (SweepPoint(8), SweepPoint(16), SweepPoint(8, 0.1)):
            for trial in range(5):
                engine, fault = trial_seeds("abc", point, trial)
                seeds.update((engine, fault))
        assert len(seeds) == 30  # no collisions anywhere

    def test_spec_hash_feeds_the_seeds(self):
        point = SweepPoint(8)
        assert trial_seeds("abc", point, 0) != trial_seeds("abd", point, 0)

    def test_trial_id_stable(self):
        assert trial_id("abc", SweepPoint(8), 1) == \
            trial_id("abc", SweepPoint(8), 1)
        assert trial_id("abc", SweepPoint(8), 1) != \
            trial_id("abc", SweepPoint(8), 2)


def _keys_from_first_principles(spec_hash: str, point: SweepPoint,
                                trial: int) -> tuple:
    """One trial's ``((engine_seed, fault_seed), id)``, hashed whole."""
    seeds = (derive_seed(spec_hash, point.key, trial, "engine"),
             derive_seed(spec_hash, point.key, trial, "fault"))
    text = f"{spec_hash}|{point.key}|trial={trial}"
    return seeds, hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class TestTrialKeys:
    """The per-point helper hashes each constant prefix once; its seeds
    and ids must equal the whole-label hashes bit for bit."""

    HASHES = (make_spec().content_hash(), make_spec(seed=8).content_hash())
    POINTS = (SweepPoint(8), SweepPoint(8, 0.25), SweepPoint(12, 0.0),
              SweepPoint(6, None, "partition:blocks=2,heal=50"),
              SweepPoint(5, 0.125, "eclipse:budget=3"))
    TRIALS = list(range(2048)) + [10**6, 2**31 - 1, 2**31, 2**63 + 5]

    @pytest.mark.parametrize("spec_hash", HASHES)
    @pytest.mark.parametrize("point", POINTS, ids=lambda p: p.key)
    def test_equal_the_whole_label_hashes(self, spec_hash, point):
        seeds, ids = trial_keys(spec_hash, point, self.TRIALS)
        assert len(seeds) == len(ids) == len(self.TRIALS)
        assert trial_ids(spec_hash, point, self.TRIALS) == ids
        for trial, seed_pair, tid in zip(self.TRIALS, seeds, ids):
            assert (seed_pair, tid) == _keys_from_first_principles(
                spec_hash, point, trial), trial

    @pytest.mark.parametrize("point", POINTS, ids=lambda p: p.key)
    def test_one_trial_calls_agree(self, point):
        spec_hash = self.HASHES[0]
        for trial in (0, 1, 2047, 10**6):
            seed_pair, tid = _keys_from_first_principles(spec_hash, point,
                                                         trial)
            assert trial_seeds(spec_hash, point, trial) == seed_pair
            assert trial_id(spec_hash, point, trial) == tid

    def test_subset_of_trials_keeps_each_trials_keys(self):
        spec_hash, point = self.HASHES[1], SweepPoint(8, 0.25)
        all_seeds, all_ids = trial_keys(spec_hash, point, range(10))
        seeds, ids = trial_keys(spec_hash, point, [7, 2, 9])
        assert seeds == [all_seeds[7], all_seeds[2], all_seeds[9]]
        assert ids == [all_ids[7], all_ids[2], all_ids[9]]


class TestSweepPoints:
    def test_without_fault_axis(self):
        assert sweep_points(make_spec()) == [SweepPoint(6), SweepPoint(8)]

    def test_with_fault_axis(self):
        spec = make_spec(faults=FaultAxis("omission-rate", (0.0, 0.5)))
        points = sweep_points(spec)
        assert points == [SweepPoint(6, 0.0), SweepPoint(6, 0.5),
                          SweepPoint(8, 0.0), SweepPoint(8, 0.5)]
        assert plan_size(spec) == 4 * spec.trials


class TestRunTrial:
    def test_reproducible(self):
        spec = make_spec()
        first = run_trial(spec, SweepPoint(6), 0)
        again = run_trial(spec, SweepPoint(6), 0)
        assert first == again

    def test_record_shape(self):
        record = run_trial(make_spec(), SweepPoint(6), 1)
        assert record["kind"] == "trial"
        assert record["n"] == 6 and record["trial"] == 1
        assert record["correct"] is True  # epidemic with one 1 is true
        assert record["output"] == 1
        assert record["converged_at"] <= record["interactions"]

    def test_faulty_trial_counts_faults(self):
        spec = make_spec(ns=(10,),
                         faults=FaultAxis("crash-at", (2.0,), at_step=5))
        record = run_trial(spec, SweepPoint(10, 2.0), 0)
        assert record["crashes"] == 2

    @pytest.mark.parametrize("engine",
                             ["agent", "batched", "ensemble", "fluid"])
    def test_correct_stable_needs_a_predicate(self, engine):
        spec = make_spec(protocol="leader-election",
                         inputs=InputGrid(kind="all-ones"),
                         stop=StopRule(rule="correct-stable",
                                       max_steps=10_000),
                         engine=engine)
        with pytest.raises(ValueError, match="correct-stable.*predicate"):
            run_experiment(spec)

    def test_silent_rule_measures_election_hitting_time(self):
        spec = make_spec(protocol="leader-election",
                         inputs=InputGrid(kind="all-ones"),
                         stop=StopRule(rule="silent", max_steps=100_000))
        record = run_trial(spec, SweepPoint(6), 0)
        assert record["stopped"]
        assert record["correct"] is None  # no ground-truth predicate
        assert 0 < record["converged_at"] <= record["interactions"]


class TestParallelSerialDeterminism:
    def test_worker_count_is_invisible(self):
        """Acceptance: workers=4 is byte-identical to workers=1."""
        spec = make_spec()
        serial = run_experiment(spec, workers=1)
        parallel = run_experiment(spec, workers=4)
        assert serial.records == parallel.records
        assert trials_csv(serial.records) == trials_csv(parallel.records)

    def test_worker_count_is_invisible_with_fault_axis(self):
        spec = make_spec(trials=2,
                         faults=FaultAxis("omission-rate", (0.0, 0.4)))
        serial = run_experiment(spec, workers=1)
        parallel = run_experiment(spec, workers=3)
        assert serial.records == parallel.records

    def test_store_contents_identical_across_worker_counts(self, tmp_path):
        spec = make_spec()
        store1 = ResultStore(tmp_path / "serial.jsonl")
        store4 = ResultStore(tmp_path / "parallel.jsonl")
        run_experiment(spec, store=store1, workers=1)
        run_experiment(spec, store=store4, workers=4)
        key = lambda r: (r["n"], r["trial"])
        assert sorted(store1.records(), key=key) == \
            sorted(store4.records(), key=key)


class TestChunkedDispatch:
    def test_chunk_size_load_balances_and_caps(self):
        from repro.exp.runner import _CHUNK_CAP, _chunk_size

        assert _chunk_size(1, 4) == 1        # floor at 1
        assert _chunk_size(100, 4) == 6      # n // (workers * 4)
        # Huge task counts no longer produce huge chunks: one straggler
        # chunk can stall a sweep for at most _CHUNK_CAP trials.
        assert _chunk_size(100_000, 4) == _CHUNK_CAP == 64
        assert _chunk_size(0, 8) == 1

    @pytest.mark.parametrize("cap", [1, 2, 64])
    def test_records_identical_across_chunk_sizes(self, cap, monkeypatch):
        import repro.exp.runner as runner_mod

        spec = make_spec(trials=4)
        serial = run_experiment(spec, workers=1)
        monkeypatch.setattr(runner_mod, "_CHUNK_CAP", cap)
        chunked = run_experiment(spec, workers=2)
        assert json.dumps(serial.records, sort_keys=True) == \
            json.dumps(chunked.records, sort_keys=True)


class TestResume:
    def test_completed_spec_executes_zero_new_trials(self, tmp_path):
        """Acceptance: re-running a completed spec is a no-op."""
        spec = make_spec()
        path = tmp_path / "r.jsonl"
        first = run_experiment(spec, store=ResultStore(path), workers=2)
        assert first.executed == plan_size(spec)

        executed_again = []
        second = run_experiment(spec, store=ResultStore(path), workers=2,
                                progress=executed_again.append)
        assert second.executed == 0
        assert executed_again == []
        assert second.skipped == plan_size(spec)
        assert second.records == first.records

    def test_truncated_store_reruns_only_missing_trials(self, tmp_path):
        """Acceptance: interrupt mid-sweep, resume, only the gap runs."""
        spec = make_spec()
        path = tmp_path / "r.jsonl"
        complete = run_experiment(spec, store=ResultStore(path), workers=1)

        # Simulate an interrupt: cut the file mid-record, losing the last
        # record entirely and tearing the one before it.
        lines = path.read_bytes().splitlines(keepends=True)
        torn = b"".join(lines[:-2]) + lines[-2][:20]
        path.write_bytes(torn)

        store = ResultStore(path)
        survivors = len(store)
        assert survivors == plan_size(spec) - 2

        resumed = run_experiment(spec, store=store, workers=2)
        assert resumed.executed == 2
        assert resumed.skipped == survivors
        assert resumed.records == complete.records
        assert trials_csv(resumed.records) == trials_csv(complete.records)

    def test_resume_works_without_a_store(self):
        # store=None simply runs everything, every time.
        spec = make_spec(ns=(6,), trials=2)
        first = run_experiment(spec)
        second = run_experiment(spec)
        assert first.records == second.records
        assert second.executed == 2 and second.skipped == 0


class TestValidationAndErrors:
    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(make_spec(trials=0))

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(make_spec(), workers=0)

    def test_unknown_protocol_surfaces(self):
        with pytest.raises(KeyError):
            run_experiment(make_spec(protocol="warp-drive", ns=(6,),
                                     trials=1))


class TestSchedulerAxis:
    def test_sweep_points_cross_scheduler_axis(self):
        spec = make_spec(schedulers=("uniform", "eclipse:budget=100"))
        points = sweep_points(spec)
        assert len(points) == 4  # 2 ns x 2 schedulers
        assert {p.scheduler for p in points} == {"uniform",
                                                 "eclipse:budget=100"}

    def test_point_key_segment_only_when_swept(self):
        assert SweepPoint(8).key == "n=8"
        assert SweepPoint(8, 0.5).key == "n=8;intensity=0.5"
        assert (SweepPoint(8, None, "eclipse:budget=3").key
                == "n=8;scheduler=eclipse:budget=3")

    def test_legacy_record_shape_preserved(self):
        # Without monitors or a scheduler axis, records keep their
        # pre-chaos shape: no "scheduler", no "violation" keys.
        record = run_trial(make_spec(), SweepPoint(6), 0)
        assert "scheduler" not in record
        assert "violation" not in record

    @pytest.mark.parametrize("scheduler", ["uniform",
                                           "partition:blocks=2,heal=50"])
    def test_scheduler_parsed_once_per_task(self, scheduler, monkeypatch):
        import repro.sim.schedulers as schedulers

        parse = schedulers._parse_scheduler_spec
        calls = []

        def counting(text):
            calls.append(text)
            return parse(text)

        spec = make_spec(scheduler=scheduler)
        spec_hash = spec.content_hash()
        monkeypatch.setattr(schedulers, "_parse_scheduler_spec", counting)
        records = list(run_task(spec, SweepPoint(8), range(8), spec_hash))
        assert len(records) == 8
        assert calls == [scheduler]

    def test_stateful_scheduler_is_fresh_for_every_trial(self):
        # In-process chunks hold several trials of one point; a scheduler
        # shared across them would carry its heal clock from trial to
        # trial and change every record after the first.
        spec = make_spec(trials=8, scheduler="partition:blocks=2,heal=50")
        swept = run_experiment(spec)
        alone = [run_trial(spec, point, trial)
                 for point in sweep_points(spec)
                 for trial in range(spec.trials)]
        assert swept.records == alone
        assert all(r["scheduler"] == "partition:blocks=2,heal=50"
                   for r in alone)

    def test_scheduler_axis_is_deterministic(self):
        spec = make_spec(schedulers=("uniform", "partition:heal=200"))
        first = run_experiment(spec).records
        second = run_experiment(spec).records
        assert first == second


class TestMonitoredTrials:
    def test_clean_monitored_trial_records_null_violation(self):
        spec = make_spec(monitors=("conservation", "containment"))
        record = run_trial(spec, SweepPoint(6), 0)
        assert record["violation"] is None
        assert record["stopped"]

    def test_main_run_violation_roundtrips_through_store(self, tmp_path):
        # First arm of run_trial: the stopping-rule run itself raises
        # MonitorViolation.  A never-healing partition leaves one leader
        # per block; the cross-block leader pair stays enabled but is
        # never scheduled, so the fairness budget runs out mid-run.
        spec = make_spec(protocol="leader-election", ns=(10,), trials=1,
                         inputs=InputGrid(kind="all-ones"),
                         scheduler="partition:heal=1000000000",
                         monitors=("fairness:budget=400",),
                         stop=StopRule(patience=5_000, max_steps=200_000))
        path = tmp_path / "r.jsonl"
        result = run_experiment(spec, store=ResultStore(path))
        record = result.records[0]
        violation = record["violation"]
        assert violation is not None
        assert violation["monitor"] == "fairness"
        assert violation["detail"]["budget"] == 400
        # The violation aborted the main run: no stop verdict exists.
        assert record["stopped"] is False
        assert record["output"] is None

        reopened = ResultStore(path)
        stored = reopened.records()[0]
        # JSON-normalized comparison: the live record may hold tuples
        # where the store (by construction) yields lists.
        assert json.dumps(stored, sort_keys=True) == \
            json.dumps(record, sort_keys=True)
        context = stored["violation"]["context"]
        assert context["protocol"] == "leader-election"
        assert context["scheduler"] == "partition:heal=1000000000"
        assert context["engine_seed"] == record["engine_seed"]

    def test_confirm_phase_violation_roundtrips_through_store(self,
                                                              tmp_path):
        # Second arm of run_trial: the flicker monitor is inert until
        # armed *after* the stopping rule fires, so a flicker violation
        # can only come from the confirm-phase arm.
        spec = ExperimentSpec(
            protocol="majority", ns=(10,), trials=1,
            inputs=InputGrid(kind="ones", ones=6),
            faults=FaultAxis("corruption-rate", (0.005,)),
            monitors=("flicker",),
            confirm=4_000,
            stop=StopRule(rule="quiescent", patience=600, max_steps=60_000),
            seed=0)
        path = tmp_path / "r.jsonl"
        result = run_experiment(spec, store=ResultStore(path))
        record = result.records[0]
        violation = record["violation"]
        assert violation is not None, \
            "confirm-phase corruption should trip the armed flicker monitor"
        assert violation["monitor"] == "flicker"
        # Armed at the stop verdict, tripped strictly afterwards.
        assert record["stopped"] is True
        assert violation["step"] > violation["detail"]["stabilized_at"]

        reopened = ResultStore(path)
        stored = reopened.records()[0]
        assert stored == record
        context = stored["violation"]["context"]
        assert context["confirm"] == 4_000
        assert context["fault"] == {"kind": "corruption-rate",
                                    "intensity": 0.005}

    def test_violation_record_carries_reproduction_context(self):
        spec = ExperimentSpec(
            protocol="majority", ns=(10,), trials=1,
            inputs=InputGrid(kind="ones", ones=6),
            faults=FaultAxis("corruption-rate", (0.005,)),
            monitors=("conservation", "containment", "flicker"),
            confirm=4_000,
            stop=StopRule(rule="quiescent", patience=600, max_steps=60_000),
            seed=0)
        result = run_experiment(spec)
        violated = [r for r in result.records
                    if r.get("violation") is not None]
        assert violated, "corruption should trip the flicker monitor"
        violation = violated[0]["violation"]
        context = violation["context"]
        assert context["protocol"] == "majority"
        assert context["engine_seed"] == violated[0]["engine_seed"]
        assert context["fault"] == {"kind": "corruption-rate",
                                    "intensity": 0.005}
        assert sum(int(c) for c in context["counts"].values()) == 10


class TestBatchedEngine:
    def test_records_identical_to_agent_engine(self):
        # Same spec hash (forced) => same derived seeds => the batched
        # engine must reproduce the agent engine's records field for
        # field; this is the fingerprint guarantee surfacing at the
        # experiment layer.
        agent_spec = make_spec(protocol="majority", ns=(60,), trials=3,
                               inputs=InputGrid(kind="ones", ones=20))
        batched_spec = make_spec(protocol="majority", ns=(60,), trials=3,
                                 inputs=InputGrid(kind="ones", ones=20),
                                 engine="batched")
        forced_hash = agent_spec.content_hash()
        for point in sweep_points(agent_spec):
            for trial in range(agent_spec.trials):
                a = run_trial(agent_spec, point, trial,
                              spec_hash=forced_hash)
                b = run_trial(batched_spec, point, trial,
                              spec_hash=forced_hash)
                assert b.pop("engine") == "batched"
                assert a == b

    def test_agent_records_carry_no_engine_key(self):
        spec = make_spec()
        record = run_trial(spec, sweep_points(spec)[0], 0)
        assert "engine" not in record

    def test_run_experiment_with_batched_engine(self):
        result = run_experiment(make_spec(protocol="leader-election",
                                          ns=(24,), trials=2,
                                          inputs=InputGrid(),
                                          engine="batched"))
        assert result.executed == 2
        assert all(r["engine"] == "batched" for r in result.records)

    def test_batched_worker_pool_matches_serial(self):
        spec = make_spec(protocol="majority", ns=(30, 40), trials=2,
                         inputs=InputGrid(kind="ones", ones=10),
                         engine="batched")
        serial = run_experiment(spec, workers=1)
        parallel = run_experiment(spec, workers=3)
        assert serial.records == parallel.records


class TestBackendProvenance:
    def test_python_backend_records_identical_plus_backend_key(self):
        # The kernel-backend contract surfacing at the experiment
        # layer: bit-identical records, plus the provenance key.
        base = make_spec(protocol="majority", ns=(60,), trials=2,
                         inputs=InputGrid(kind="ones", ones=20),
                         engine="batched")
        alt = make_spec(protocol="majority", ns=(60,), trials=2,
                        inputs=InputGrid(kind="ones", ones=20),
                        engine="batched", backend="python")
        forced_hash = base.content_hash()
        for point in sweep_points(base):
            for trial in range(base.trials):
                a = run_trial(base, point, trial, spec_hash=forced_hash)
                b = run_trial(alt, point, trial, spec_hash=forced_hash)
                assert b.pop("backend") == "python"
                assert a == b
                assert "backend" not in a

    def test_fallback_records_stay_unmarked(self):
        # An unavailable backend falls back to numpy; the record then
        # reports what actually ran (nothing — numpy is the default),
        # not what was requested.
        import warnings

        from repro.sim.backends import (available_backends,
                                        reset_backend_warnings)

        if "numba" in available_backends():
            pytest.skip("numba is installed here")
        spec = make_spec(ns=(8,), trials=1, engine="batched",
                         backend="numba")
        reset_backend_warnings()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            record = run_trial(spec, SweepPoint(8), 0)
        assert "backend" not in record
        reset_backend_warnings()


class TestEnsembleEngine:
    def test_run_experiment_executes_all_trials(self):
        spec = make_spec(protocol="leader-election", ns=(24,), trials=4,
                         inputs=InputGrid(),
                         stop=StopRule(rule="silent", max_steps=100_000),
                         engine="ensemble")
        result = run_experiment(spec)
        assert result.executed == 4
        assert all(r["engine"] == "ensemble" for r in result.records)
        assert all(r["stopped"] for r in result.records)

    def test_record_shape_matches_scalar_plus_engine_key(self):
        spec = make_spec(engine="ensemble")
        scalar_spec = make_spec()
        ensemble_record = run_experiment(spec).records[0]
        scalar_record = run_trial(scalar_spec, SweepPoint(6), 0)
        assert set(ensemble_record) == set(scalar_record) | {"engine"}
        assert ensemble_record["correct"] is True  # epidemic, one 1
        assert (ensemble_record["converged_at"]
                <= ensemble_record["interactions"])

    def test_records_carry_trial_seed_identities(self):
        spec = make_spec(ns=(8,), trials=3, engine="ensemble")
        result = run_experiment(spec)
        for record in result.records:
            engine_seed, fault_seed = trial_seeds(
                result.spec_hash, SweepPoint(8), record["trial"])
            assert record["engine_seed"] == engine_seed
            assert record["fault_seed"] == fault_seed

    def test_worker_pool_matches_serial(self):
        spec = make_spec(ns=(8, 12, 16), trials=3, engine="ensemble")
        serial = run_experiment(spec, workers=1)
        parallel = run_experiment(spec, workers=3)
        assert serial.records == parallel.records

    def test_completed_spec_resumes_to_zero_executed(self, tmp_path):
        spec = make_spec(ns=(8,), trials=3, engine="ensemble")
        path = tmp_path / "e.jsonl"
        first = run_experiment(spec, store=ResultStore(path))
        assert first.executed == 3
        second = run_experiment(spec, store=ResultStore(path))
        assert second.executed == 0
        assert second.skipped == 3
        assert second.records == first.records


class TestFluidEngine:
    def test_run_experiment_executes_all_trials(self):
        spec = make_spec(protocol="leader-election", ns=(24,), trials=4,
                         inputs=InputGrid(),
                         stop=StopRule(rule="silent", max_steps=100_000),
                         engine="fluid")
        result = run_experiment(spec)
        assert result.executed == 4
        assert all(r["engine"] == "fluid" for r in result.records)
        assert all(r["stopped"] for r in result.records)

    def test_trials_are_deterministic_copies(self):
        # One integration per point: every trial record carries the same
        # measurements but its own identity and (recorded, unused) seeds.
        spec = make_spec(ns=(8,), trials=3, engine="fluid")
        records = run_experiment(spec).records
        assert len({r["converged_at"] for r in records}) == 1
        assert len({r["interactions"] for r in records}) == 1
        assert len({r["trial"] for r in records}) == 3
        assert len({r["engine_seed"] for r in records}) == 3

    def test_astronomical_population_hits_the_closed_form(self):
        # The acceptance headline: n = 1e9 leader election to silence.
        # The fluid hitting time is n(n-1) interactions.
        n = 10 ** 9
        spec = make_spec(protocol="leader-election", ns=(n,), trials=1,
                         inputs=InputGrid(),
                         stop=StopRule(rule="silent",
                                       max_steps=2 * 10 ** 18),
                         engine="fluid")
        record = run_experiment(spec).records[0]
        assert record["stopped"]
        assert record["converged_at"] == pytest.approx(n * (n - 1),
                                                       rel=1e-3)

    def test_record_shape_matches_scalar_plus_engine_key(self):
        fluid_record = run_experiment(make_spec(engine="fluid")).records[0]
        scalar_record = run_trial(make_spec(), SweepPoint(6), 0)
        assert set(fluid_record) == set(scalar_record) | {"engine"}

    def test_worker_pool_matches_serial(self):
        spec = make_spec(ns=(8, 12, 16), trials=2, engine="fluid")
        assert (run_experiment(spec, workers=1).records
                == run_experiment(spec, workers=3).records)

    def test_completed_spec_resumes_to_zero_executed(self, tmp_path):
        spec = make_spec(ns=(8,), trials=3, engine="fluid")
        path = tmp_path / "f.jsonl"
        first = run_experiment(spec, store=ResultStore(path))
        assert first.executed == 3
        second = run_experiment(spec, store=ResultStore(path))
        assert second.executed == 0
        assert second.skipped == 3
        assert second.records == first.records


class TestWrappedCollaborators:
    """The runner imports its trial path once, at module level, but reads
    each wrappable collaborator through its module attribute at point
    setup, so a wrapper installed after ``import repro.exp.runner`` (the
    layer tracer's, a test double) is what a sweep calls."""

    @pytest.mark.parametrize("engine, target", [
        ("agent", "repro.sim.engine.simulate_counts"),
        ("batched", "repro.sim.batched.batched_simulate_counts"),
        ("agent", "repro.sim.convergence.run_until_silent"),
        ("batched", "repro.sim.convergence.run_until_silent"),
    ])
    def test_sweep_calls_the_patched_function(self, engine, target,
                                               monkeypatch):
        import importlib

        import repro.exp.runner  # noqa: F401  (imported before patching)

        module_name, attr = target.rsplit(".", 1)
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        calls = []

        def wrapped(*args, **kwargs):
            calls.append(attr)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, attr, wrapped)
        spec = make_spec(protocol="leader-election", ns=(5, 6), trials=2,
                         inputs=InputGrid(), engine=engine,
                         stop=StopRule(rule="silent", max_steps=20_000))
        result = run_experiment(spec)
        assert result.executed == 4
        assert calls == [attr] * 4

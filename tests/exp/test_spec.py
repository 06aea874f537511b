"""Tests for the declarative experiment spec."""

import pytest

from repro.exp.spec import (
    ExecutionPolicy,
    ExperimentSpec,
    FaultAxis,
    InputGrid,
    StopRule,
)
from repro.sim.faults import FaultPlan


def make_spec(**overrides) -> ExperimentSpec:
    base = dict(protocol="epidemic", ns=(6, 8), trials=2,
                inputs=InputGrid(kind="ones", ones=1),
                stop=StopRule(patience=500, max_steps=20_000), seed=7)
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSerialization:
    def test_dict_round_trip(self):
        spec = make_spec(params={"k": 3},
                         faults=FaultAxis("omission-rate", (0.0, 0.3)))
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.content_hash() == spec.content_hash()

    def test_explicit_table_round_trip_coerces_symbols(self):
        spec = make_spec(ns=(5,),
                         inputs=InputGrid.explicit({5: {1: 2, 0: 3}}))
        again = ExperimentSpec.from_dict(spec.to_dict())
        # JSON stringifies the 0/1 symbols; from_dict restores ints.
        assert again.inputs.counts_for(5) == {1: 2, 0: 3}
        assert again.content_hash() == spec.content_hash()

    def test_json_round_trip(self):
        import json

        spec = make_spec()
        again = ExperimentSpec.from_dict(json.loads(spec.canonical_json()))
        assert again == spec


class TestContentHash:
    def test_stable_across_instances(self):
        assert make_spec().content_hash() == make_spec().content_hash()

    def test_every_field_feeds_the_hash(self):
        base = make_spec()
        variants = [
            make_spec(protocol="majority"),
            make_spec(ns=(6, 8, 10)),
            make_spec(trials=3),
            make_spec(params={"k": 9}),
            make_spec(inputs=InputGrid(kind="ones", ones=2)),
            make_spec(faults=FaultAxis("crash-rate", (0.1,))),
            make_spec(stop=StopRule(patience=501, max_steps=20_000)),
            make_spec(seed=8),
        ]
        hashes = {spec.content_hash() for spec in variants}
        assert base.content_hash() not in hashes
        assert len(hashes) == len(variants)

    def test_short_hash_prefixes_full(self):
        spec = make_spec()
        assert spec.content_hash().startswith(spec.short_hash)
        assert len(spec.short_hash) == 12


class TestValidation:
    def test_valid_spec_passes(self):
        make_spec().validate()

    @pytest.mark.parametrize("overrides", [
        {"protocol": ""},
        {"ns": ()},
        {"ns": (1, 8)},
        {"ns": (8, 8)},
        {"trials": 0},
        {"scheduler": "warp"},
        {"inputs": InputGrid(kind="nope")},
        {"inputs": InputGrid(kind="ones", ones=None)},
        {"inputs": InputGrid(kind="ones", ones=9)},  # ones > min(ns)=6
        {"inputs": InputGrid(kind="fraction", fraction=1.5)},
        {"inputs": InputGrid(kind="explicit", table=None)},
        {"inputs": InputGrid.explicit({6: {1: 1}})},  # missing n=8
        {"faults": FaultAxis("omission-rate", ())},
        {"faults": FaultAxis("warp-rate", (0.1,))},
        {"faults": FaultAxis("crash-rate", (1.5,))},
        {"faults": FaultAxis("crash-at", (1.5,))},
        {"stop": StopRule(rule="sometime")},
        {"stop": StopRule(patience=0)},
        {"stop": StopRule(max_steps=0)},
    ])
    def test_bad_specs_rejected(self, overrides):
        with pytest.raises(ValueError):
            make_spec(**overrides).validate()


class TestInputGrid:
    def test_all_ones(self):
        assert InputGrid(kind="all-ones").counts_for(7) == {1: 7}

    def test_fixed_ones(self):
        assert InputGrid(kind="ones", ones=2).counts_for(10) == {1: 2, 0: 8}

    def test_fraction_floors(self):
        grid = InputGrid(kind="fraction", fraction=0.05)
        assert grid.counts_for(20) == {1: 1, 0: 19}
        assert grid.counts_for(39) == {1: 1, 0: 38}
        assert grid.counts_for(40) == {1: 2, 0: 38}

    def test_explicit(self):
        grid = InputGrid.explicit({6: {"a": 2, "b": 4}})
        assert grid.counts_for(6) == {"a": 2, "b": 4}


class TestFaultAxis:
    def test_zero_intensity_is_fault_free(self):
        axis = FaultAxis("omission-rate", (0.0, 0.5))
        assert axis.build_plan(0.0, seed=1) is None

    @pytest.mark.parametrize("kind", ["crash-rate", "corruption-rate",
                                      "omission-rate"])
    def test_rate_kinds_build_plans(self, kind):
        plan = FaultAxis(kind, (0.2,)).build_plan(0.2, seed=1)
        assert isinstance(plan, FaultPlan)
        assert len(plan.models) == 1

    def test_crash_at_uses_count_and_step(self):
        plan = FaultAxis("crash-at", (3.0,), at_step=40).build_plan(3.0, 1)
        model = plan.models[0]
        assert model.step == 40
        assert model.count == 3


class TestChaosFields:
    """The chaos-only fields (schedulers/monitors/confirm) must not
    disturb any spec written before they existed."""

    def test_defaults_stay_out_of_the_dict(self):
        data = make_spec().to_dict()
        assert "schedulers" not in data
        assert "monitors" not in data
        assert "confirm" not in data

    def test_explicit_defaults_hash_like_legacy_specs(self):
        legacy = make_spec()
        explicit = make_spec(schedulers=(), monitors=(), confirm=0)
        assert explicit.content_hash() == legacy.content_hash()

    def test_set_fields_round_trip_and_feed_the_hash(self):
        base = make_spec()
        variants = [
            make_spec(schedulers=("uniform", "eclipse:budget=100")),
            make_spec(monitors=("conservation", "flicker")),
            make_spec(confirm=500),
        ]
        for spec in variants:
            again = ExperimentSpec.from_dict(spec.to_dict())
            assert again == spec
            assert spec.content_hash() != base.content_hash()

    def test_adversarial_scheduler_spec_accepted(self):
        make_spec(scheduler="partition:blocks=2,heal=100").validate()
        make_spec(schedulers=("uniform", "eclipse:budget=10")).validate()

    @pytest.mark.parametrize("overrides", [
        {"schedulers": ("warp",)},
        {"schedulers": ("uniform", "uniform")},  # duplicate axis value
        {"monitors": ("warp",)},
        {"monitors": ("fairness:budget=x",)},
        {"confirm": -1},
    ])
    def test_bad_chaos_fields_rejected(self, overrides):
        with pytest.raises(ValueError):
            make_spec(**overrides).validate()


class TestEngineField:
    def test_defaults_to_agent_and_stays_out_of_the_hash(self):
        spec = make_spec()
        assert spec.engine == "agent"
        # Hash preservation: specs written before the field existed must
        # keep their exact content hash, so the default never serializes.
        assert "engine" not in spec.to_dict()
        assert (make_spec(engine="agent").content_hash()
                == spec.content_hash())

    def test_batched_round_trips_and_changes_the_hash(self):
        spec = make_spec(engine="batched")
        data = spec.to_dict()
        assert data["engine"] == "batched"
        assert ExperimentSpec.from_dict(data).engine == "batched"
        assert spec.content_hash() != make_spec().content_hash()

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            make_spec(engine="quantum").validate()

    def test_batched_accepts_every_fault_kind(self):
        for kind, intensities, at_step in (
                ("crash-rate", (0.1,), None),
                ("corruption-rate", (0.05,), None),
                ("omission-rate", (0.3,), None),
                ("crash-at", (5,), 100)):
            make_spec(engine="batched",
                      faults=FaultAxis(kind, intensities,
                                       at_step=at_step)).validate()

    def test_batched_accepts_vectorized_monitors(self):
        make_spec(engine="batched",
                  monitors=("conservation", "containment",
                            "flicker")).validate()

    def test_batched_rejects_scalar_only_monitors(self):
        for monitor in ("fairness", "watchdog:steps=100"):
            with pytest.raises(ValueError, match="monitors"):
                make_spec(engine="batched", monitors=(monitor,)).validate()

    def test_batched_rejects_non_uniform_scheduler(self):
        with pytest.raises(ValueError, match="scheduler"):
            make_spec(engine="batched", scheduler="stalling").validate()
        with pytest.raises(ValueError, match="scheduler axis"):
            make_spec(engine="batched",
                      schedulers=("uniform", "stalling")).validate()


class TestBackendField:
    def test_defaults_to_numpy_and_stays_out_of_the_hash(self):
        spec = make_spec()
        assert spec.backend == "numpy"
        # Hash preservation: specs written before kernel backends
        # existed must keep their exact content hash, so the default
        # never serializes.
        assert "backend" not in spec.to_dict()
        assert (make_spec(backend="numpy").content_hash()
                == spec.content_hash())

    def test_non_default_round_trips_and_changes_the_hash(self):
        spec = make_spec(engine="batched", backend="python")
        data = spec.to_dict()
        assert data["backend"] == "python"
        again = ExperimentSpec.from_dict(data)
        assert again.backend == "python"
        assert again.content_hash() == spec.content_hash()
        assert (spec.content_hash()
                != make_spec(engine="batched").content_hash())

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            make_spec(engine="batched", backend="cuda").validate()

    def test_backend_requires_a_backend_capable_engine(self):
        for engine in ("agent", "ensemble"):
            with pytest.raises(ValueError,
                               match="has no step-kernel backends"):
                make_spec(engine=engine, backend="python").validate()
        make_spec(engine="batched", backend="python").validate()

    def test_numba_request_validates_even_when_uninstalled(self):
        # Validation checks the name against the registry, not the
        # probe: a spec authored on a numba machine must load and
        # validate anywhere (the engine falls back at run time).
        make_spec(engine="batched", backend="numba").validate()

    def test_batched_uniform_fault_free_passes(self):
        make_spec(engine="batched").validate()

    def test_ensemble_round_trips_and_changes_the_hash(self):
        spec = make_spec(engine="ensemble")
        data = spec.to_dict()
        assert data["engine"] == "ensemble"
        assert ExperimentSpec.from_dict(data).engine == "ensemble"
        assert spec.content_hash() != make_spec().content_hash()
        assert spec.content_hash() != make_spec(engine="batched").content_hash()

    @pytest.mark.parametrize("overrides,match", [
        ({"monitors": ("flicker",)}, "monitors"),
        ({"scheduler": "stalling"}, "scheduler"),
        ({"schedulers": ("uniform", "stalling")}, "scheduler axis"),
        ({"confirm": 500}, "confirm"),
    ])
    def test_ensemble_rejects_unsupported_features(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            make_spec(engine="ensemble", **overrides).validate()

    def test_ensemble_accepts_fault_axes_and_vector_monitors(self):
        make_spec(engine="ensemble",
                  faults=FaultAxis("omission-rate", (0.0, 0.3)),
                  monitors=("conservation", "containment")).validate()
        make_spec(engine="ensemble",
                  faults=FaultAxis("crash-at", (5,),
                                   at_step=100)).validate()

    def test_ensemble_uniform_fault_free_passes(self):
        make_spec(engine="ensemble").validate()

    def test_fluid_round_trips_and_changes_the_hash(self):
        spec = make_spec(engine="fluid")
        data = spec.to_dict()
        assert data["engine"] == "fluid"
        assert ExperimentSpec.from_dict(data).engine == "fluid"
        assert spec.content_hash() != make_spec().content_hash()
        assert spec.content_hash() != make_spec(engine="ensemble").content_hash()

    @pytest.mark.parametrize("overrides,match", [
        ({"faults": FaultAxis("crash-at", (5,), at_step=100)},
         "crash-at"),
        ({"monitors": ("conservation",)}, "monitors"),
        ({"scheduler": "stalling"}, "scheduler"),
        ({"schedulers": ("uniform", "stalling")}, "scheduler axis"),
        ({"confirm": 500}, "confirm"),
    ])
    def test_fluid_rejects_unsupported_features(self, overrides, match):
        # crash-at is rejected per *kind*: step-indexed faults have no
        # mean-field limit, while the rate kinds below are fine.
        with pytest.raises(ValueError, match=match):
            make_spec(engine="fluid", **overrides).validate()

    def test_fluid_accepts_rate_fault_axes(self):
        for kind in ("crash-rate", "corruption-rate", "omission-rate"):
            make_spec(engine="fluid",
                      faults=FaultAxis(kind, (0.0, 0.2))).validate()

    def test_fluid_uniform_fault_free_passes(self):
        make_spec(engine="fluid").validate()

    def test_engines_tuple_tracks_the_feature_table(self):
        from repro.exp.spec import ENGINE_FEATURES, ENGINES

        assert ENGINES == tuple(ENGINE_FEATURES)
        assert "fluid" in ENGINES

    def test_unknown_engine_message_lists_fluid(self):
        with pytest.raises(ValueError, match="fluid"):
            make_spec(engine="quantum").validate()


class TestEngineValidationMessages:
    """Rejecting a spec must name the offending field and point at an
    engine that supports it — a rejected spec is a one-edit fix."""

    def test_names_offending_field_and_supporting_engine(self):
        spec = make_spec(engine="ensemble", monitors=("flicker",))
        with pytest.raises(ValueError) as err:
            spec.validate()
        message = str(err.value)
        assert "engine 'ensemble'" in message
        assert "'monitors'" in message
        assert "monitor 'flicker'" in message
        assert "engine 'agent'" in message
        assert "reference engine" in message

    def test_confirm_names_both_supporting_engines(self):
        spec = make_spec(engine="ensemble", confirm=100)
        with pytest.raises(ValueError) as err:
            spec.validate()
        message = str(err.value)
        assert "'confirm'" in message
        assert "engine 'agent' and engine 'batched'" in message

    def test_every_problem_is_listed(self):
        spec = make_spec(engine="batched",
                         monitors=("fairness",),
                         scheduler="stalling")
        with pytest.raises(ValueError) as err:
            spec.validate()
        message = str(err.value)
        assert "'monitors'" in message
        assert "'scheduler'" in message
        assert "'stalling'" in message

    def test_per_kind_rejection_names_kind_and_engines(self):
        spec = make_spec(engine="fluid",
                         faults=FaultAxis("crash-at", (5,), at_step=10))
        with pytest.raises(ValueError) as err:
            spec.validate()
        message = str(err.value)
        assert "fault kind 'crash-at'" in message
        # Every engine that does sample crash-at is enumerated.
        assert "engine 'agent'" in message
        assert "engine 'batched'" in message
        assert "engine 'ensemble'" in message


class TestExecutionPolicy:
    """The execution block must be hash-stable when defaulted: specs
    (and stores) written before supervision existed keep their ids."""

    def test_default_stays_out_of_dict_and_hash(self):
        spec = make_spec()
        assert "execution" not in spec.to_dict()
        explicit = make_spec(execution=ExecutionPolicy())
        assert explicit.content_hash() == spec.content_hash()
        assert ExecutionPolicy().is_default()

    def test_non_default_round_trips_and_feeds_the_hash(self):
        policy = ExecutionPolicy(timeout_s=30.0, max_attempts=3,
                                 backoff=1.0, on_error="quarantine")
        spec = make_spec(execution=policy)
        data = spec.to_dict()
        assert data["execution"]["timeout_s"] == 30.0
        again = ExperimentSpec.from_dict(data)
        assert again.execution == policy
        assert not again.execution.is_default()
        assert spec.content_hash() != make_spec().content_hash()

    def test_each_field_feeds_the_hash(self):
        base = make_spec()
        variants = [
            make_spec(execution=ExecutionPolicy(timeout_s=10.0)),
            make_spec(execution=ExecutionPolicy(max_attempts=2)),
            make_spec(execution=ExecutionPolicy(backoff=0.25)),
            make_spec(execution=ExecutionPolicy(on_error="skip")),
        ]
        hashes = {spec.content_hash() for spec in variants}
        assert base.content_hash() not in hashes
        assert len(hashes) == len(variants)

    @pytest.mark.parametrize("policy", [
        ExecutionPolicy(timeout_s=0.0),
        ExecutionPolicy(timeout_s=-1.0),
        ExecutionPolicy(max_attempts=0),
        ExecutionPolicy(backoff=-0.5),
        ExecutionPolicy(on_error="explode"),
    ])
    def test_bad_policies_rejected(self, policy):
        with pytest.raises(ValueError):
            make_spec(execution=policy).validate()

"""Tests for the agent-array simulation engine."""

import random

import pytest

from repro.core.population import Population, line_population
from repro.protocols.counting import CountToK, Epidemic, count_to_five
from repro.protocols.leader import LEADER, LeaderElection
from repro.sim.engine import Simulation, simulate_counts
from repro.util.multiset import FrozenMultiset


class TestConstruction:
    def test_inputs_build_initial_states(self):
        sim = Simulation(count_to_five(), [0, 1, 1], seed=0)
        assert sim.states == [0, 1, 1]

    def test_states_argument(self):
        sim = Simulation(count_to_five(), states=[4, 0], seed=0)
        assert sim.states == [4, 0]

    def test_both_arguments_rejected(self):
        with pytest.raises(ValueError):
            Simulation(count_to_five(), [0, 1], states=[0, 1])

    def test_neither_argument_rejected(self):
        with pytest.raises(ValueError):
            Simulation(count_to_five())

    def test_bad_symbol_rejected(self):
        with pytest.raises(ValueError):
            Simulation(count_to_five(), [0, 7])

    def test_population_size_mismatch(self):
        with pytest.raises(ValueError):
            Simulation(count_to_five(), [0, 1, 1],
                       population=line_population(4))

    def test_too_small(self):
        with pytest.raises(ValueError):
            Simulation(count_to_five(), [1])


class TestStepping:
    def test_deterministic_under_seed(self):
        a = Simulation(count_to_five(), [1] * 8 + [0] * 4, seed=7)
        b = Simulation(count_to_five(), [1] * 8 + [0] * 4, seed=7)
        a.run(500)
        b.run(500)
        assert a.states == b.states
        assert a.interactions == b.interactions == 500

    def test_step_returns_changed_flag(self):
        sim = Simulation(Epidemic(), [0, 0], seed=1)
        assert sim.step() is False  # nothing can change

    def test_interaction_counter(self):
        sim = Simulation(Epidemic(), [0, 1, 0], seed=1)
        sim.run(100)
        assert sim.interactions == 100

    def test_outputs_track_states(self, seed):
        sim = Simulation(Epidemic(), [1, 0, 0, 0], seed=seed)
        sim.run_until(lambda s: s.unanimous_output() == 1,
                      max_steps=10_000, check_every=1)
        assert sim.outputs() == (1, 1, 1, 1)

    def test_last_output_change_monotone(self, seed):
        sim = Simulation(Epidemic(), [1] + [0] * 9, seed=seed)
        sim.run(5000)
        final_change = sim.last_output_change
        sim.run(1000)
        assert sim.last_output_change == final_change  # all ones already


class TestViews:
    def test_multiset_view(self, seed):
        sim = Simulation(count_to_five(), [1, 1, 0], seed=seed)
        assert sim.multiset() == FrozenMultiset({1: 2, 0: 1})

    def test_configuration_snapshot_is_immutable_copy(self, seed):
        sim = Simulation(count_to_five(), [1, 1, 0], seed=seed)
        snapshot = sim.configuration()
        sim.run(100)
        assert snapshot.states == (1, 1, 0)

    def test_output_counts(self):
        sim = Simulation(count_to_five(), states=[5, 5, 0], seed=0)
        assert sim.output_counts() == {1: 2, 0: 1}

    def test_unanimous_output(self):
        sim = Simulation(count_to_five(), states=[5, 5], seed=0)
        assert sim.unanimous_output() == 1
        sim2 = Simulation(count_to_five(), states=[5, 0], seed=0)
        assert sim2.unanimous_output() is None


class TestRunUntil:
    def test_condition_met(self, seed):
        sim = Simulation(LeaderElection(), [1] * 6, seed=seed)
        met = sim.run_until(
            lambda s: sum(1 for st in s.states if st == LEADER) == 1,
            max_steps=50_000)
        assert met

    def test_budget_exhausted(self, seed):
        sim = Simulation(Epidemic(), [0] * 5, seed=seed)
        met = sim.run_until(lambda s: s.unanimous_output() == 1, max_steps=100)
        assert not met
        assert sim.interactions == 100

    def test_immediate_condition_runs_nothing(self, seed):
        sim = Simulation(Epidemic(), [1, 1], seed=seed)
        met = sim.run_until(lambda s: True, max_steps=100)
        assert met
        assert sim.interactions == 0


class TestRestrictedGraph:
    def test_edges_respected(self, seed):
        # Directed edge (0, 1) only: agent 0 always initiator.
        pop = Population(2, [(0, 1)])
        p = count_to_five()
        sim = Simulation(p, [1, 1], population=pop, seed=seed)
        sim.run(50)
        # delta(1, 1) = (2, 0); further (2, 0) no-ops. Never (0, 2).
        assert sim.states == [2, 0]


class TestSimulateCounts:
    def test_layout(self, seed):
        sim = simulate_counts(count_to_five(), {0: 2, 1: 3}, seed=seed)
        assert sorted(sim.states) == [0, 0, 1, 1, 1]

    def test_negative_count_rejected(self, seed):
        with pytest.raises(ValueError):
            simulate_counts(count_to_five(), {0: -1, 1: 3}, seed=seed)

    def test_foreign_symbol_with_a_count_rejected(self, seed):
        with pytest.raises(ValueError, match="not in alphabet"):
            simulate_counts(count_to_five(), {0: 2, 1: 1, "x": 1}, seed=seed)

    def test_foreign_symbol_with_zero_count_ignored(self, seed):
        sim = simulate_counts(count_to_five(), {0: 2, 1: 1, "x": 0},
                              seed=seed)
        assert sorted(sim.states) == [0, 0, 1]

    @pytest.mark.parametrize("name", ["epidemic", "leader-election",
                                      "majority"])
    def test_equals_the_per_agent_input_layout(self, name):
        # One initial_state per symbol gives the run a per-agent input
        # list gives, agent for agent.
        from repro.protocols import registry

        protocol = registry.get(name).build()
        counts = {1: 4, 0: 5}
        inputs = [0] * 5 + [1] * 4
        for seed in (1, 2, 3):
            by_counts = simulate_counts(protocol, counts, seed=seed)
            by_inputs = Simulation(protocol, inputs, seed=seed)
            assert _observe(by_counts) == _observe(by_inputs)
            by_counts.run(300)
            by_inputs.run(300)
            assert _observe(by_counts) == _observe(by_inputs)


# -- Stepping oracle ---------------------------------------------------------
#
# ``reference_step`` is the engine's per-interaction step as it stood
# before every entry point moved onto one hoisted loop (``_advance``): one
# scheduler call, one ``randrange`` pair, attribute lookups on every
# interaction.  The engine must reproduce it exactly — states, clocks,
# outputs and the RNG state — under every scheduler, fault plan and mix
# of entry points.


def reference_step(sim) -> bool:
    plan = sim.faults
    if plan is not None:
        plan.pre_step(sim)
    initiator, responder = sim.scheduler.next_encounter(sim.states, sim.rng)
    sim.interactions += 1
    if sim.crashed and (initiator in sim.crashed
                        or responder in sim.crashed):
        return False
    if plan is not None and plan.drop_encounter(sim):
        return False
    p, q = sim.states[initiator], sim.states[responder]
    p2, q2 = sim.protocol.delta(p, q)
    if p2 == p and q2 == q:
        return False
    sim.states[initiator] = p2
    sim.states[responder] = q2
    sim.last_change = sim.interactions
    changed_output = False
    out_p = sim.protocol.output(p2)
    if out_p != sim._outputs[initiator]:
        sim._outputs[initiator] = out_p
        changed_output = True
    out_q = sim.protocol.output(q2)
    if out_q != sim._outputs[responder]:
        sim._outputs[responder] = out_q
        changed_output = True
    if changed_output:
        sim.last_output_change = sim.interactions
    return True


class _Recorder:
    """A monitor that logs every ``after_step`` call it receives."""

    name = "recorder"

    def __init__(self):
        self.calls = []

    def on_attach(self, sim) -> None:
        pass

    def after_step(self, sim, changed: bool) -> None:
        self.calls.append((sim.interactions, changed))


class _ReferenceStepper:
    """``step``/``run``/``run_until`` of an unmonitored simulation, each
    interaction taken by :func:`reference_step`."""

    def __init__(self, sim, recorder):
        self.sim = sim
        self.recorder = recorder

    def step(self) -> bool:
        changed = reference_step(self.sim)
        if self.recorder is not None:
            self.recorder.after_step(self.sim, changed)
        return changed

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.step()

    def run_until(self, condition, max_steps: int, check_every: int) -> bool:
        if condition(self.sim):
            return True
        remaining = max_steps
        while remaining > 0:
            chunk = min(check_every, remaining)
            for _ in range(chunk):
                self.step()
            remaining -= chunk
            if condition(self.sim):
                return True
        return False


class _OwnRandom(random.Random):
    """Overrides ``random()``, so ``randrange`` no longer draws through
    ``getrandbits`` and the inline draw must not be used."""

    def random(self):
        return super().random()


def _plan(kind: str, seed: int):
    from repro.sim.faults import (
        CorruptAt,
        CorruptionRate,
        CrashAt,
        CrashRate,
        FaultPlan,
        OmissionRate,
        OmitAt,
    )

    models = {
        "crash-at": lambda: [CrashAt(4), CrashAt(37), CrashAt(38),
                             CrashAt(120)],
        "crash-rate": lambda: [CrashRate(0.02)],
        # Corruptions stamp ``last_change`` with the clock they read, and
        # crashes make inert encounters, so a stale clock shows.
        "corruption": lambda: [CrashAt(3)] + [CorruptAt(step) for step in
                                              range(9, 500, 11)]
                              + [CorruptionRate(0.03)],
        "omission": lambda: [CrashAt(6), OmitAt(range(1, 400, 5)),
                             OmissionRate(0.1)],
    }[kind]()
    return FaultPlan(models, seed=seed)


def _scheduler(kind: str, n: int, protocol):
    from repro.core.population import complete_population
    from repro.sim import schedulers as sch

    complete = complete_population(n)
    return {
        "uniform": lambda: None,
        "uniform-pair": lambda: sch.UniformPairScheduler(n),
        "edge": lambda: sch.UniformEdgeScheduler(line_population(n)),
        "round-robin": lambda: sch.RoundRobinScheduler(complete),
        "shuffled": lambda: sch.ShuffledSweepScheduler(complete),
        "weighted": lambda: sch.WeightedPairScheduler(
            n, lambda state: 1 + state),
        "stalling": lambda: sch.StallingScheduler(complete, protocol),
        "greedy": lambda: sch.GreedyChangeScheduler(complete, protocol),
        "partition": lambda: sch.PartitionScheduler(n, heal_after=50),
        "eclipse": lambda: sch.EclipseScheduler(n, target=1, budget=7),
        "delay": lambda: sch.AdversarialDelayScheduler(complete, protocol,
                                                       budget=9),
    }[kind]()


#: An interleaving of every stepping entry point, with a snapshot taken
#: mid-run and restored later.
_PROGRAM = (("step",), ("run", 7), ("run_until", 40, 5), ("step",),
            ("snapshot",), ("run", 25), ("run_until", 30, 1), ("restore",),
            ("run", 33), ("step",), ("run_until", 300, 9), ("run", 1),
            ("run_until", 200, 64), ("run", 150))


def _observe(sim) -> tuple:
    plan = sim.faults
    counters = (None if plan is None
                else (plan.crashes, plan.corruptions, plan.omissions))
    return (list(sim.states), sim.interactions, sim.last_change,
            sim.last_output_change, sim.outputs(), sorted(sim.crashed),
            counters, sim.rng.getstate())


def _check_against_reference(*, n=8, scheduler="uniform", faults=None,
                             rng_type=random.Random, monitored=False,
                             seeds=(1, 2, 3)):
    protocol = count_to_five()
    inputs = [1] * (n - n // 3) + [0] * (n // 3)
    for seed in seeds:
        def make(monitors=()):
            return Simulation(
                protocol, inputs, seed=rng_type(seed),
                scheduler=_scheduler(scheduler, n, protocol),
                faults=None if faults is None else _plan(faults, seed),
                monitors=monitors)

        engine_log = oracle_log = None
        if monitored:
            from repro.sim.monitors import build_monitors

            engine_log, oracle_log = _Recorder(), _Recorder()
            engine = make(build_monitors(
                ["conservation", "containment:check=3", "flicker"])
                + [engine_log])
        else:
            engine = make()
        oracle = make()
        reference = _ReferenceStepper(oracle, oracle_log)
        checks: dict = {"engine": [], "reference": []}
        snaps: dict = {}
        for op in _PROGRAM:
            for name, stepper, sim in (("engine", engine, engine),
                                      ("reference", reference, oracle)):
                if op[0] == "step":
                    stepper.step()
                elif op[0] == "run":
                    stepper.run(op[1])
                elif op[0] == "run_until":
                    log = checks[name]

                    def condition(s, log=log):
                        log.append(s.interactions)
                        return s.interactions - s.last_change >= 45

                    stepper.run_until(condition, max_steps=op[1],
                                      check_every=op[2])
                elif op[0] == "snapshot":
                    snaps[name] = sim.snapshot()
                else:
                    sim.restore(snaps[name])
            assert _observe(engine) == _observe(oracle), (seed, op)
        assert checks["engine"] == checks["reference"]
        if monitored:
            assert engine_log.calls == oracle_log.calls


class TestSteppingOracle:
    @pytest.mark.parametrize("n", [2, 3, 8, 17])
    def test_uniform_pairs(self, n):
        # n = 2 draws randrange(1), which loops until it draws 0.
        _check_against_reference(n=n)

    @pytest.mark.parametrize("scheduler", [
        "uniform-pair", "edge", "round-robin", "shuffled", "weighted",
        "stalling", "greedy", "partition", "eclipse", "delay"])
    def test_every_scheduler(self, scheduler):
        _check_against_reference(scheduler=scheduler)

    def test_random_subclass_draws_through_randrange(self):
        _check_against_reference(rng_type=_OwnRandom)
        _check_against_reference(n=2, rng_type=_OwnRandom)

    @pytest.mark.parametrize("faults", [
        "crash-at", "crash-rate", "corruption", "omission"])
    def test_fault_plans(self, faults):
        _check_against_reference(faults=faults)
        _check_against_reference(faults=faults, scheduler="shuffled")

    @pytest.mark.parametrize("faults", [None, "corruption"])
    def test_monitored_steps_once_per_interaction(self, faults):
        _check_against_reference(faults=faults, monitored=True)

    def test_interactions_survive_a_raising_step(self):
        class Halting(CountToK):
            def delta(self, p, q):
                if p + q >= 4:
                    raise RuntimeError("stop")
                return super().delta(p, q)

        sim = Simulation(Halting(5), [1] * 6, seed=3)
        with pytest.raises(RuntimeError, match="stop"):
            sim.run(10_000)
        oracle = Simulation(Halting(5), [1] * 6, seed=3)
        with pytest.raises(RuntimeError, match="stop"):
            while True:
                reference_step(oracle)
        assert _observe(sim) == _observe(oracle)


# -- Fused check grid oracle -------------------------------------------------
#
# ``_chunked_run_until`` and ``_chunked_run_until_silent`` are
# ``Simulation.run_until`` and ``run_until_silent`` as they stood before
# the check grid moved inside ``_advance``: one ``run`` call per chunk of
# ``check_every`` interactions, and silence decided by the generator
# ``is_silent`` on a ``FrozenMultiset`` snapshot of every agent.  The fused
# grid must reproduce them exactly: results, states, clocks, fault
# counters and the RNG state.


def _chunked_is_silent(protocol, configuration) -> bool:
    from repro.core.semantics import enabled_state_pairs

    delta = protocol.delta
    for p, q in enabled_state_pairs(configuration):
        if delta(p, q) != (p, q):
            return False
    return True


def _chunked_run_until(sim, condition, max_steps: int,
                       check_every: int = 1) -> bool:
    if condition(sim):
        return True
    remaining = max_steps
    while remaining > 0:
        chunk = min(check_every, remaining)
        sim.run(chunk)
        remaining -= chunk
        if condition(sim):
            return True
    return False


def _chunked_run_until_silent(sim, max_steps: int, check_every: int = 0):
    from repro.sim.convergence import ConvergenceResult, _verdict

    check_every = check_every or max(sim.n, 1)
    # last_change value at the previous evaluated check, and its verdict.
    checked_at = None
    verdict = False

    def silent(s) -> bool:
        nonlocal checked_at, verdict
        marker = getattr(s, "last_change", None)
        if marker is None or marker != checked_at:
            verdict = _chunked_is_silent(s.protocol, s.multiset())
            checked_at = marker
        return verdict

    stopped = _chunked_run_until(sim, silent, max_steps=max_steps,
                                 check_every=check_every)
    # Agent engines report convergence via the output assignment; the
    # multiset engines track state changes instead.
    converged = getattr(sim, "last_output_change", None)
    if converged is None:
        converged = sim.last_change
    return ConvergenceResult(
        interactions=sim.interactions,
        converged_at=converged,
        output=_verdict(sim),
        stopped=stopped,
    )


#: Registry protocol -> its 1-input count at n = 9 (the rest input 0).
_FUSED_PROTOCOLS = {"leader-election": 9, "majority": 5, "count-to-k": 6}


class TestFusedCheckGrid:
    N = 9

    def _pair(self, name: str, seed: int, faults):
        from repro.protocols import registry

        protocol = registry.get(name).build()
        counts = {1: _FUSED_PROTOCOLS[name], 0: self.N - _FUSED_PROTOCOLS[name]}

        def make():
            plan = None if faults is None else _plan(faults, seed)
            return simulate_counts(protocol, counts, seed=seed, faults=plan)

        return make(), make()

    @pytest.mark.parametrize("faults", [None, "crash-at", "corruption",
                                        "omission"])
    @pytest.mark.parametrize("check_every", [1, 7, N])
    @pytest.mark.parametrize("name", sorted(_FUSED_PROTOCOLS))
    def test_silent_rule_matches_chunked_oracle(self, name, check_every,
                                                faults):
        from repro.sim.convergence import run_until_silent

        # 1000 is a multiple of neither 7 nor 9, so the last chunk is
        # short; 103 leaves most runs on the budget.
        for seed in (1, 2, 3):
            for max_steps in (103, 1000):
                engine, oracle = self._pair(name, seed, faults)
                got = run_until_silent(engine, max_steps=max_steps,
                                       check_every=check_every)
                want = _chunked_run_until_silent(
                    oracle, max_steps=max_steps, check_every=check_every)
                assert got == want, (seed, max_steps)
                assert _observe(engine) == _observe(oracle), (seed, max_steps)

    @pytest.mark.parametrize("faults", [None, "corruption"])
    def test_condition_raising_mid_run_writes_the_clock_back(self, faults):
        def raising(log):
            def condition(s):
                log.append(s.interactions)
                if len(log) == 4:
                    raise RuntimeError("stop")
                return False
            return condition

        engine, oracle = self._pair("majority", 5, faults)
        logs: dict = {"engine": [], "oracle": []}
        with pytest.raises(RuntimeError, match="stop"):
            engine.run_until(raising(logs["engine"]), max_steps=1000,
                             check_every=7)
        with pytest.raises(RuntimeError, match="stop"):
            _chunked_run_until(oracle, raising(logs["oracle"]),
                               max_steps=1000, check_every=7)
        assert logs["engine"] == logs["oracle"] == [0, 7, 14, 21]
        assert engine.interactions == 21
        assert _observe(engine) == _observe(oracle)

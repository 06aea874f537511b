"""Tests for convergence stopping rules."""

import pytest

import repro.sim.convergence as convergence
from repro.core.dynamic import DynamicSimulation, annihilation_majority
from repro.core.multiway import GroupCountToK, MultiwaySimulation
from repro.protocols.counting import CountToK, Epidemic, count_to_five
from repro.protocols.leader import LeaderElection
from repro.protocols.majority import majority_protocol
from repro.sim.batched import BatchedSimulation, batched_simulate_counts
from repro.sim.convergence import (
    ConvergenceResult,
    run_until_correct_stable,
    run_until_quiescent,
    run_until_silent,
)
from repro.sim.engine import Simulation, simulate_counts
from repro.sim.faults import CrashAt, FaultPlan
from repro.sim.multiset_engine import MultisetSimulation
from repro.sim.skipping import SkippingSimulation
from repro.util.multiset import FrozenMultiset


class TestRunUntilSilent:
    def test_stops_on_silence(self, seed):
        sim = simulate_counts(CountToK(3), {1: 5, 0: 3}, seed=seed)
        result = run_until_silent(sim, max_steps=500_000)
        assert result.stopped
        assert result.output == 1

    def test_budget_respected(self, seed):
        # count-to-five with 4 ones never goes silent: (q0, q4) swaps forever.
        sim = simulate_counts(count_to_five(), {1: 4, 0: 4}, seed=seed)
        result = run_until_silent(sim, max_steps=3_000)
        assert not result.stopped
        assert result.output == 0  # outputs converged anyway

    def test_converged_at_recorded(self, seed):
        sim = simulate_counts(Epidemic(), {1: 1, 0: 9}, seed=seed)
        result = run_until_silent(sim, max_steps=200_000)
        assert result.stopped
        assert 0 < result.converged_at <= result.interactions

    def test_multiset_engine_supported(self, seed):
        # The multiset engines have no last_output_change tracker; the
        # driver falls back to last_change for converged_at.
        sim = MultisetSimulation(Epidemic(), {1: 1, 0: 19}, seed=seed)
        result = run_until_silent(sim, max_steps=200_000)
        assert result.stopped
        assert result.output == 1
        assert result.converged_at == sim.last_change

    def test_unchanged_state_skips_silence_checks(self, seed, monkeypatch):
        # Epidemic at n=200 spends most interactions on no-ops, so most
        # check_every=5 windows see no state change; the driver must skip
        # the is_silent scan for all of those checkpoints.
        calls = {"n": 0}
        real = convergence.is_silent

        def counting(protocol, multiset):
            calls["n"] += 1
            return real(protocol, multiset)

        monkeypatch.setattr(convergence, "is_silent", counting)
        sim = MultisetSimulation(Epidemic(), {1: 1, 0: 199}, seed=seed)
        result = run_until_silent(sim, max_steps=500_000, check_every=5)
        assert result.stopped
        checkpoints = sim.interactions // 5
        assert 0 < calls["n"] < checkpoints


class TestSilenceFromStateCounts:
    """``run_until_silent`` decides silence from each engine's
    ``state_counts()``: a plain dict of the counts its ``multiset()``
    view holds."""

    @pytest.mark.parametrize("n", [3, 33, 100])
    def test_batched_matches_agent(self, n):
        for seed in range(8):
            agent = simulate_counts(LeaderElection(), {1: n}, seed=seed)
            batched = batched_simulate_counts(LeaderElection(), {1: n},
                                              seed=seed)
            result = run_until_silent(agent, max_steps=500_000)
            assert result.stopped
            assert run_until_silent(batched, max_steps=500_000) == result
            assert batched.states == agent.states

    def test_batched_matches_agent_with_crashes(self):
        # Crashed agents count under their frozen state on both engines.
        def plan():
            return FaultPlan([CrashAt(5), CrashAt(40), CrashAt(300)],
                             seed=11)

        agent = simulate_counts(LeaderElection(), {1: 33}, seed=4,
                                faults=plan())
        batched = batched_simulate_counts(LeaderElection(), {1: 33}, seed=4,
                                          faults=plan())
        result = run_until_silent(agent, max_steps=200_000)
        assert run_until_silent(batched, max_steps=200_000) == result
        assert len(batched.crashed) == 3
        assert batched.state_counts() == agent.state_counts()

    @pytest.mark.parametrize("make", [
        lambda faults: simulate_counts(count_to_five(), {1: 7, 0: 9},
                                       seed=2, faults=faults),
        lambda faults: batched_simulate_counts(count_to_five(),
                                               {1: 7, 0: 9}, seed=2,
                                               faults=faults),
        lambda faults: MultisetSimulation(count_to_five(), {1: 7, 0: 9},
                                          seed=2, faults=faults),
        # Skipping runs refuse fault plans.
        lambda faults: SkippingSimulation(count_to_five(), {1: 7, 0: 9},
                                          seed=2),
    ], ids=["agent", "batched", "multiset", "skipping"])
    def test_counts_equal_the_multiset_view(self, make):
        sim = make(FaultPlan([CrashAt(3), CrashAt(20)], seed=5))
        for _ in range(30):
            sim.run(4)
            counts = sim.state_counts()
            assert type(counts) is dict
            # The agent-indexed engines list every agent, crashed ones
            # under their frozen state; the multiset engines count the
            # live agents.
            agents = getattr(sim, "states", None)
            assert FrozenMultiset(counts) == (
                sim.multiset() if agents is None else FrozenMultiset(agents))
        counts[-1] = 1  # a fresh dict each call
        assert -1 not in sim.state_counts()


def _never_called(sim):
    raise AssertionError("the check grid started")


class TestCheckEveryValidated:
    """A non-positive ``check_every`` used to spin forever: each chunk of
    ``min(check_every, remaining)`` interactions never shrank the budget.
    Every engine now rejects it before evaluating the condition."""

    @pytest.mark.parametrize("make", [
        lambda: simulate_counts(LeaderElection(), {1: 5}, seed=1),
        lambda: batched_simulate_counts(LeaderElection(), {1: 5}, seed=1),
        lambda: MultisetSimulation(LeaderElection(), {1: 5}, seed=1),
        lambda: SkippingSimulation(LeaderElection(), {1: 5}, seed=1),
        lambda: MultiwaySimulation(GroupCountToK(3, arity=3), [1] * 5,
                                   seed=1),
        lambda: DynamicSimulation(annihilation_majority(),
                                  ["x"] * 3 + ["y"] * 2, seed=1),
    ], ids=["agent", "batched", "multiset", "skipping", "multiway",
            "dynamic"])
    @pytest.mark.parametrize("check_every", [0, -2])
    def test_non_positive_check_every_rejected(self, make, check_every):
        sim = make()
        with pytest.raises(ValueError, match="check_every"):
            sim.run_until(_never_called, max_steps=100,
                          check_every=check_every)
        assert sim.interactions == 0


class TestRunUntilQuiescent:
    def test_patience_window(self, seed):
        sim = simulate_counts(majority_protocol(), {0: 4, 1: 6}, seed=seed)
        result = run_until_quiescent(sim, patience=5_000, max_steps=2_000_000)
        assert result.stopped
        assert result.output == 1
        assert result.interactions - result.converged_at >= 5_000

    def test_budget_exhaustion_reported(self, seed):
        sim = simulate_counts(majority_protocol(), {0: 6, 1: 6}, seed=seed)
        result = run_until_quiescent(sim, patience=10**9, max_steps=2_000)
        assert not result.stopped


class TestRunUntilCorrectStable:
    def test_measures_convergence_time(self, seed):
        sim = simulate_counts(majority_protocol(), {0: 3, 1: 9}, seed=seed)
        result = run_until_correct_stable(sim, 1, max_steps=2_000_000)
        assert result.stopped
        assert result.output == 1
        assert result.converged_at <= result.interactions

    def test_extends_when_outputs_regress(self, seed):
        # Start from scratch; outputs flip around early, so converged_at
        # must exceed zero.
        sim = simulate_counts(majority_protocol(), {0: 5, 1: 7}, seed=seed)
        result = run_until_correct_stable(sim, 1, max_steps=2_000_000)
        assert result.stopped
        assert result.converged_at > 0

    def test_already_correct_initially(self, seed):
        # All agents start with output 0 and the answer is 0.
        sim = simulate_counts(count_to_five(), {1: 2, 0: 4}, seed=seed)
        result = run_until_correct_stable(sim, 0, max_steps=100_000)
        assert result.stopped
        assert result.converged_at == 0


class TestCorrectStableReadsHistogram:
    """The correct-stable rule reads the output histogram.

    The batched engine keeps that histogram as it steps, so the rule
    never needs the O(n) ``outputs()`` walk.  The pinned results were
    measured with the rule walking ``outputs()``: the verdicts agree.
    """

    @pytest.mark.parametrize("protocol,counts,max_steps,pinned", [
        (Epidemic(), {1: 1, 0: 2_000}, 1_000_000,
         ConvergenceResult(interactions=37_000, converged_at=14_379,
                           output=1, stopped=True)),
        (majority_protocol(), {1: 700, 0: 324}, 5_000_000,
         ConvergenceResult(interactions=215_552, converged_at=105_620,
                           output=1, stopped=True)),
    ], ids=["epidemic", "majority"])
    def test_batched_result_without_outputs_walk(self, protocol, counts,
                                                 max_steps, pinned, seed,
                                                 monkeypatch):
        def walked(self):
            raise AssertionError("correct-stable walked outputs()")

        monkeypatch.setattr(BatchedSimulation, "outputs", walked)
        sim = batched_simulate_counts(protocol, counts, seed=seed)
        assert run_until_correct_stable(
            sim, 1, max_steps=max_steps) == pinned

    @pytest.mark.parametrize("make", [simulate_counts,
                                      batched_simulate_counts],
                             ids=["agent", "batched"])
    def test_crashed_wrong_agent_blocks_the_stop(self, make, seed):
        # A crashed agent keeps its frozen output in the histogram, so one
        # that crashed while wrong keeps the rule from ever firing.
        sim = make(Epidemic(), {1: 1, 0: 200}, seed=seed,
                   faults=FaultPlan(seed=1))
        wrong = sim.outputs().index(0)
        sim.crash(wrong)
        result = run_until_correct_stable(sim, 1, max_steps=100_000)
        assert result == ConvergenceResult(interactions=100_000,
                                           converged_at=1_698, output=1,
                                           stopped=False)
        assert sim.output_counts() == {0: 1, 1: 200}

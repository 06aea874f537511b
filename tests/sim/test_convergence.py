"""Tests for convergence stopping rules."""

import pytest

import repro.sim.convergence as convergence
from repro.protocols.counting import CountToK, Epidemic, count_to_five
from repro.protocols.majority import majority_protocol
from repro.sim.batched import BatchedSimulation, batched_simulate_counts
from repro.sim.convergence import (
    ConvergenceResult,
    run_until_correct_stable,
    run_until_quiescent,
    run_until_silent,
)
from repro.sim.engine import Simulation, simulate_counts
from repro.sim.faults import FaultPlan
from repro.sim.multiset_engine import MultisetSimulation


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

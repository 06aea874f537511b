"""Tests for the many-trial ensemble engine.

The ensemble engine's contract is *statistical* equivalence with the
scalar multiset engine: same protocol, same inputs, same stopping rules,
same convergence-time *distribution* — but not the same bit-for-bit
trajectories, because the fleet shares one numpy bit generator.  The
``TestStatisticalEquivalence`` suite pins the contract down with
two-sample Kolmogorov-Smirnov tests on convergence-time samples; see the
class docstring for the tolerance and what it can and cannot detect.
"""

import random

import numpy as np
import pytest

from repro.core.protocol import DictProtocol
from repro.protocols import registry
from repro.protocols.counting import CountToK, Epidemic, count_to_five
from repro.protocols.leader import FOLLOWER, LEADER, LeaderElection
from repro.protocols.majority import majority_protocol
from repro.sim.batched import batched_simulate_counts
from repro.sim.convergence import run_until_silent
from repro.sim.engine import simulate_counts
from repro.sim.ensemble import (
    EnsembleFaults,
    EnsembleMultisetSimulation,
    _seeded_rng,
    run_ensemble_until_correct_stable,
    run_ensemble_until_quiescent,
    run_ensemble_until_silent,
)
from repro.sim.multiset_engine import MultisetSimulation
from repro.util.rng import spawn_seeds
from tests.analysis.test_markov_random_protocols import random_protocol


class TestConstruction:
    def test_from_input_counts(self):
        ens = EnsembleMultisetSimulation(count_to_five(), {0: 3, 1: 2},
                                         trials=4, seed=1)
        assert ens.n == 5
        assert ens.trials == 4
        for t in range(4):
            assert ens.trial_counts(t) == {0: 3, 1: 2}

    def test_from_state_counts(self):
        ens = EnsembleMultisetSimulation(count_to_five(),
                                         state_counts={4: 1, 0: 3},
                                         trials=2, seed=1)
        assert ens.trial_counts(0) == {4: 1, 0: 3}

    def test_both_inputs_rejected(self):
        with pytest.raises(ValueError):
            EnsembleMultisetSimulation(count_to_five(), {0: 3},
                                       state_counts={0: 3}, trials=2, seed=1)

    def test_neither_input_rejected(self):
        with pytest.raises(ValueError):
            EnsembleMultisetSimulation(count_to_five(), trials=2, seed=1)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            EnsembleMultisetSimulation(count_to_five(), {0: 3, 1: 2},
                                       trials=0, seed=1)

    def test_seed_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="seeds has 2"):
            EnsembleMultisetSimulation(count_to_five(), {0: 3, 1: 2},
                                       trials=3, seeds=[1, 2])

    def test_bad_symbol_rejected(self):
        with pytest.raises(ValueError):
            EnsembleMultisetSimulation(count_to_five(), {9: 3},
                                       trials=2, seed=1)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            EnsembleMultisetSimulation(count_to_five(), {1: 1},
                                       trials=2, seed=1)

    def test_explicit_seeds_are_kept(self):
        ens = EnsembleMultisetSimulation(count_to_five(), {0: 3, 1: 2},
                                         trials=3, seeds=[7, 8, 9])
        assert ens.seeds == [7, 8, 9]


class TestSeededRng:
    """``_seeded_rng`` builds the generators ``SeedSequence(seeds)`` would."""

    EDGES = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]

    @pytest.mark.parametrize("seeds", [
        *([s] for s in EDGES),
        EDGES,
        [2**32, 0, 5, 2**63 - 1, 2**32 - 1, 1, 2**40 + 3],
        list(range(128)),
    ])
    def test_state_equals_seed_sequence(self, seeds):
        expected = np.random.SeedSequence(list(seeds))
        rng = _seeded_rng(seeds)
        assert (rng.bit_generator.seed_seq.generate_state(8)
                == expected.generate_state(8)).all()
        assert (rng.bit_generator.state
                == np.random.default_rng(expected).bit_generator.state)

    def test_spawned_seeds(self):
        seeds = spawn_seeds(12345, 128)
        assert (_seeded_rng(seeds).integers(0, 2**62, 16)
                == np.random.default_rng(
                    np.random.SeedSequence(seeds)).integers(0, 2**62, 16)
                ).all()

    def test_wide_seeds_fall_back_to_seed_sequence(self):
        seeds = [2**64, 3, 2**100 + 7]
        assert (_seeded_rng(seeds).bit_generator.state
                == np.random.default_rng(
                    np.random.SeedSequence(seeds)).bit_generator.state)

    @pytest.mark.parametrize("seeds, error", [
        ([3, -1], ValueError), ([2**64, -1], ValueError),
        ([1.5, 2], TypeError), ([2.0, 2], TypeError)])
    def test_bad_seeds_rejected_as_before(self, seeds, error):
        with pytest.raises(error):
            np.random.SeedSequence(seeds)
        with pytest.raises(error):
            _seeded_rng(seeds)
        with pytest.raises(error):
            EnsembleMultisetSimulation(count_to_five(), {0: 3, 1: 2},
                                       trials=2, seeds=seeds)


class TestAdvancement:
    def test_population_conserved_across_modes(self, seed):
        # Leader election starts reactive-dense and ends silent; the run
        # jumps through both regimes.
        ens = EnsembleMultisetSimulation(LeaderElection(), {1: 64},
                                         trials=8, seed=seed)
        ens.run(8_000)
        assert (ens.counts.sum(axis=1) == 64).all()
        assert (ens.counts >= 0).all()
        assert (ens.interactions == 8_000).all()

    def test_deterministic_under_seeds(self):
        seeds = list(range(10, 16))
        a = EnsembleMultisetSimulation(count_to_five(), {0: 6, 1: 6},
                                       trials=6, seeds=seeds)
        b = EnsembleMultisetSimulation(count_to_five(), {0: 6, 1: 6},
                                       trials=6, seeds=seeds)
        a.run(2_000)
        b.run(2_000)
        assert (a.counts == b.counts).all()
        assert (a.last_change == b.last_change).all()

    def test_run_to_staggered_targets(self, seed):
        ens = EnsembleMultisetSimulation(count_to_five(), {0: 6, 1: 6},
                                         trials=4, seed=seed)
        targets = np.array([100, 350, 720, 1_500])
        ens.run_to(targets)
        assert (ens.interactions == targets).all()

    def test_deactivated_trials_freeze(self, seed):
        ens = EnsembleMultisetSimulation(count_to_five(), {0: 6, 1: 6},
                                         trials=3, seed=seed)
        ens.deactivate([1])
        ens.run(500)
        assert ens.interactions[1] == 0
        assert ens.interactions[0] == ens.interactions[2] == 500

    @pytest.mark.parametrize("faults, faulted", [
        (None, False),
        (EnsembleFaults("omission-rate", 0.05), False),
        (EnsembleFaults("crash-rate", 0.001), True),
    ])
    def test_only_faults_that_fire_step_round_by_round(self, seed, faults,
                                                       faulted):
        # Fault-free and omission-rate runs jump every round; a crash
        # rate must offer every step boundary to the fault sampler.
        from repro.sim.monitors import ConservationMonitor

        ens = EnsembleMultisetSimulation(LeaderElection(), {1: 32},
                                         trials=8, seed=seed, faults=faults,
                                         monitors=[ConservationMonitor()])
        calls = {"round": 0, "jump": 0, "faulted": 0}

        def counting(name, method):
            def wrapped(*args):
                calls[name] += 1
                return method(*args)
            return wrapped

        # The monitor sweep runs once after every round.
        ens._check_monitors = counting("round", ens._check_monitors)
        ens._jump = counting("jump", ens._jump)
        ens._faulted_chunk = counting("faulted", ens._faulted_chunk)
        ens.run(3_000)
        assert (ens.interactions == 3_000).all()
        if faulted:
            assert calls["faulted"] > 0
        else:
            assert calls["faulted"] == 0
            assert calls["jump"] == calls["round"] > 0

    def test_trial_rows_diverge(self, seed):
        # Independent trials must not mirror each other's trajectories.
        ens = EnsembleMultisetSimulation(majority_protocol(), {1: 30, 0: 20},
                                         trials=16, seed=seed)
        ens.run(300)
        assert len({tuple(row) for row in ens.counts}) > 1


class TestSilentMask:
    def test_silent_configuration(self):
        ens = EnsembleMultisetSimulation(
            LeaderElection(), state_counts={LEADER: 1, FOLLOWER: 4},
            trials=1, seed=1)
        assert ens.silent_mask([0]).all()

    def test_reactive_off_diagonal_pair(self):
        # CountToK(3): a (2, 1) meeting aggregates, so not silent.
        ens = EnsembleMultisetSimulation(
            CountToK(3), state_counts={2: 1, 1: 1}, trials=1, seed=1)
        assert not ens.silent_mask([0]).any()

    def test_diagonal_needs_two_agents(self):
        # (L, L) is reactive, but with a single leader the diagonal pair
        # is not enabled: one leader plus followers is silent...
        one = EnsembleMultisetSimulation(
            LeaderElection(), state_counts={LEADER: 1, FOLLOWER: 1},
            trials=1, seed=1)
        assert one.silent_mask([0]).all()
        # ...while two leaders are not.
        two = EnsembleMultisetSimulation(
            LeaderElection(), state_counts={LEADER: 2}, trials=1, seed=1)
        assert not two.silent_mask([0]).any()


def _weight_silence_agrees(protocol, rng, rows=256):
    """Random count rows, mostly sparse, judged by zero reactive weight
    and by ``silent_mask``; returns how many rows were silent."""
    some = next(iter(protocol.input_alphabet))
    ens = EnsembleMultisetSimulation(protocol, {some: 2}, trials=rows,
                                     seed=1)
    k = ens.compiled.size
    counts = np.zeros((rows, k), dtype=np.int64)
    for row in counts:
        support = rng.choice(k, size=rng.integers(1, min(k, 3) + 1),
                             replace=False)
        row[support] = rng.integers(1, 4, size=support.size)
    ens.counts = counts
    silent = ~ens._weights(counts).any(axis=1)
    assert (silent == ens.silent_mask(np.arange(rows))).all()
    return int(silent.sum())


class TestWeightSilence:
    """Zero reactive weight, the jump's silence test, is ``silent_mask``."""

    @pytest.mark.parametrize("name", registry.names())
    def test_registry_protocols(self, name):
        _weight_silence_agrees(registry.get(name).build(),
                               np.random.default_rng(0))

    @pytest.mark.parametrize("master", range(12))
    def test_random_protocols(self, master):
        protocol = random_protocol(random.Random(master),
                                   n_states=2 + master % 4,
                                   density=0.2 + 0.05 * master)
        _weight_silence_agrees(protocol, np.random.default_rng(master))

    def test_diagonal_only_reactive_pairs(self):
        # Only (0, 0) and (2, 2) react: one agent of a state is silent,
        # two are not.
        protocol = DictProtocol(
            input_map={0: 0, 1: 1}, output_map={0: 0, 1: 1, 2: 0},
            transitions={(0, 0): (0, 1), (2, 2): (1, 1)})
        ens = EnsembleMultisetSimulation(
            protocol, state_counts={0: 1, 1: 1, 2: 1}, trials=6, seed=1)
        ens.counts = np.asarray([[1, 5, 1], [2, 0, 0], [0, 3, 2],
                                 [1, 0, 0], [0, 0, 1], [2, 1, 2]])
        silent = ~ens._weights(ens.counts).any(axis=1)
        assert silent.tolist() == [True, False, False, True, True, False]
        assert (silent == ens.silent_mask(np.arange(6))).all()
        assert _weight_silence_agrees(protocol,
                                      np.random.default_rng(3)) > 0


class TestSilentDriver:
    def test_all_trials_elect_one_leader(self, seed):
        n = 32
        ens = EnsembleMultisetSimulation(LeaderElection(), {1: n},
                                         trials=16, seed=seed)
        results = run_ensemble_until_silent(ens, max_steps=500_000)
        assert len(results) == 16
        for t, r in enumerate(results):
            assert r.stopped
            assert 0 < r.converged_at <= r.interactions
            assert ens.trial_counts(t)[LEADER] == 1

    def test_mean_hitting_time_tracks_paper_curve(self, seed):
        # Sect. 6: expected (n-1)^2 interactions to one leader.
        n = 32
        ens = EnsembleMultisetSimulation(LeaderElection(), {1: n},
                                         trials=64, seed=seed)
        results = run_ensemble_until_silent(ens, max_steps=500_000)
        mean = np.mean([r.converged_at for r in results])
        assert 0.6 * (n - 1) ** 2 < mean < 1.6 * (n - 1) ** 2

    def test_budget_exhaustion_reported(self, seed):
        # count-to-five with 4 ones never goes silent: (q0, q4) swaps
        # forever (the scalar driver's own budget fixture).
        ens = EnsembleMultisetSimulation(count_to_five(), {1: 4, 0: 4},
                                         trials=4, seed=seed)
        results = run_ensemble_until_silent(ens, max_steps=3_000)
        assert all(not r.stopped for r in results)
        assert all(r.interactions >= 3_000 for r in results)


class TestQuiescentDriver:
    def test_epidemic_reaches_everyone(self, seed):
        ens = EnsembleMultisetSimulation(Epidemic(), {1: 1, 0: 31},
                                         trials=8, seed=seed)
        results = run_ensemble_until_quiescent(ens, patience=2_000,
                                               max_steps=500_000)
        for r in results:
            assert r.stopped
            assert r.output == 1
            assert r.interactions - r.converged_at >= 2_000

    def test_budget_exhaustion_reported(self, seed):
        ens = EnsembleMultisetSimulation(majority_protocol(), {0: 6, 1: 6},
                                         trials=4, seed=seed)
        results = run_ensemble_until_quiescent(ens, patience=10**9,
                                               max_steps=2_000)
        assert all(not r.stopped for r in results)


class TestCorrectStableDriver:
    def test_majority_converges_to_truth(self, seed):
        ens = EnsembleMultisetSimulation(majority_protocol(), {0: 8, 1: 24},
                                         trials=8, seed=seed)
        results = run_ensemble_until_correct_stable(ens, 1,
                                                    max_steps=2_000_000)
        for r in results:
            assert r.stopped
            assert r.output == 1
            assert r.converged_at <= r.interactions

    def test_impossible_expected_output_runs_to_budget(self, seed):
        ens = EnsembleMultisetSimulation(majority_protocol(), {0: 2, 1: 10},
                                         trials=2, seed=seed)
        results = run_ensemble_until_correct_stable(ens, 7, max_steps=1_000)
        assert all(not r.stopped for r in results)


class TestOutputTracking:
    def test_untracked_histogram_matches_tracked(self, seed):
        seeds = list(range(20, 26))
        kwargs = dict(trials=6, seeds=seeds)
        tracked = EnsembleMultisetSimulation(majority_protocol(),
                                             {1: 12, 0: 8}, **kwargs)
        bare = EnsembleMultisetSimulation(majority_protocol(),
                                          {1: 12, 0: 8},
                                          track_outputs=False, **kwargs)
        tracked.run(800)
        bare.run(800)
        assert bare.output_hist is None
        assert (tracked.counts == bare.counts).all()
        for t in range(6):
            assert tracked.output_counts(t) == bare.output_counts(t)
            assert tracked.unanimous_output(t) == bare.unanimous_output(t)

    def test_silent_driver_works_untracked(self, seed):
        ens = EnsembleMultisetSimulation(LeaderElection(), {1: 16},
                                         trials=4, seed=seed,
                                         track_outputs=False)
        results = run_ensemble_until_silent(ens, max_steps=200_000)
        assert all(r.stopped for r in results)

    def test_output_drivers_require_tracking(self, seed):
        ens = EnsembleMultisetSimulation(majority_protocol(), {1: 8, 0: 4},
                                         trials=2, seed=seed,
                                         track_outputs=False)
        with pytest.raises(ValueError, match="track_outputs"):
            run_ensemble_until_quiescent(ens, patience=100, max_steps=1_000)
        with pytest.raises(ValueError, match="track_outputs"):
            run_ensemble_until_correct_stable(ens, 1, max_steps=1_000)


class TestScalarReplay:
    def test_twin_reaches_same_verdict(self, seed, kernel_backend):
        # The replay contract: an ensemble trial's seed, fed back through
        # the scalar MultisetSimulation, reproduces the trial's verdict
        # (statistically equivalent trajectory, same stopped/output).
        # The agent-level engines replay the same seed too: the batched
        # agent engine on each kernel backend reaches the identical result
        # as the reference agent engine, with the same verdict.
        ens = EnsembleMultisetSimulation(CountToK(3), {1: 5, 0: 10},
                                         trials=8, seed=seed)
        results = run_ensemble_until_silent(ens, max_steps=500_000)
        for t in (0, 3, 7):
            twin = ens.scalar_twin(t)
            assert twin.n == ens.n
            replay = run_until_silent(twin, max_steps=500_000)
            assert replay.stopped == results[t].stopped
            assert replay.output == results[t].output
            assert replay.output == 1  # five ones >= 3: predicate true
            agent = run_until_silent(
                simulate_counts(CountToK(3), {1: 5, 0: 10},
                                seed=ens.seeds[t]),
                max_steps=500_000)
            batched = batched_simulate_counts(
                CountToK(3), {1: 5, 0: 10}, seed=ens.seeds[t],
                backend=kernel_backend)
            assert batched.backend == kernel_backend
            assert run_until_silent(batched, max_steps=500_000) == agent
            assert agent.stopped == replay.stopped
            assert agent.output == replay.output

    def test_twin_preserves_state_counts_construction(self):
        ens = EnsembleMultisetSimulation(
            LeaderElection(), state_counts={LEADER: 3, FOLLOWER: 2},
            trials=2, seeds=[5, 6])
        twin = ens.scalar_twin(1)
        assert twin.multiset() == ens.multiset(1)


class TestStatisticalEquivalence:
    """KS tests pinning down the statistical-equivalence contract.

    Both engines sample the identical pair law — ordered agent pairs
    without replacement, i.e. state pair ``(p, q)`` with probability
    ``c_p (c_q - [p = q]) / (n (n - 1))`` — from different bit streams,
    so their convergence-time samples must look like two draws from one
    distribution.  Tolerance: with fixed seeds the tests are
    deterministic; they assert ``ks_2samp`` p-value > 1e-3 on ~100-trial
    samples, which reliably catches the gross sampling-law bugs this
    suite exists for (with-replacement draws, a missing self-pair
    exclusion, biased first-hit discards in the windowed mode — all of
    which shift the (n-1)^2 election curve by tens of percent) while
    keeping the false-alarm probability of an honest engine at 0.1% per
    seed choice.  O(1/n) distortions below KS resolution at this sample
    size are bounded instead by the exactness argument in
    ``repro/sim/ensemble.py``'s docstring.
    """

    def _scalar_times(self, protocol_factory, counts, seeds, max_steps):
        times = []
        for s in seeds:
            sim = MultisetSimulation(protocol_factory(), counts, seed=s)
            result = run_until_silent(sim, max_steps=max_steps)
            assert result.stopped
            times.append(result.converged_at)
        return times

    def _agent_times(self, protocol_factory, counts, seeds, max_steps,
                     backend):
        # The agent-level sample, checked against its bit-identical
        # batched twin on the given kernel backend.
        times = []
        for s in seeds:
            result = run_until_silent(
                simulate_counts(protocol_factory(), counts, seed=s),
                max_steps=max_steps)
            assert result.stopped
            twin = batched_simulate_counts(protocol_factory(), counts,
                                           seed=s, backend=backend)
            assert twin.backend == backend
            assert run_until_silent(twin, max_steps=max_steps) == result
            times.append(result.converged_at)
        return times

    def _ensemble_times(self, protocol_factory, counts, seeds, max_steps):
        ens = EnsembleMultisetSimulation(protocol_factory(), counts,
                                         trials=len(seeds), seeds=seeds)
        results = run_ensemble_until_silent(ens, max_steps=max_steps)
        assert all(r.stopped for r in results)
        return [r.converged_at for r in results]

    def test_leader_election_hitting_times(self, kernel_backend):
        from scipy.stats import ks_2samp

        n, trials, budget = 48, 128, 1_000_000
        fast = self._ensemble_times(LeaderElection, {1: n},
                                    list(range(1_000, 1_000 + trials)),
                                    budget)
        slow = self._scalar_times(LeaderElection, {1: n},
                                  list(range(2_000, 2_000 + trials)),
                                  budget)
        assert ks_2samp(fast, slow).pvalue > 1e-3
        agent = self._agent_times(LeaderElection, {1: n},
                                  list(range(2_000, 2_000 + trials)),
                                  budget, kernel_backend)
        assert ks_2samp(fast, agent).pvalue > 1e-3

    def test_threshold_predicate_times(self, kernel_backend):
        from scipy.stats import ks_2samp

        # CountToK(3) is the Sect. 4 threshold predicate "x_1 >= 3".
        counts = {1: 5, 0: 26}
        trials, budget = 96, 1_000_000
        fast = self._ensemble_times(lambda: CountToK(3), counts,
                                    list(range(3_000, 3_000 + trials)),
                                    budget)
        slow = self._scalar_times(lambda: CountToK(3), counts,
                                  list(range(4_000, 4_000 + trials)),
                                  budget)
        assert ks_2samp(fast, slow).pvalue > 1e-3
        agent = self._agent_times(lambda: CountToK(3), counts,
                                  list(range(4_000, 4_000 + trials)),
                                  budget, kernel_backend)
        assert ks_2samp(fast, agent).pvalue > 1e-3


class TestEnsembleFaults:
    def test_descriptor_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            EnsembleFaults("targeted-crash", 0.1)
        with pytest.raises(ValueError, match="at_step"):
            EnsembleFaults("crash-at", 3)
        with pytest.raises(ValueError, match="intensity"):
            EnsembleFaults("omission-rate", 1.5)
        with pytest.raises(ValueError, match="at_step only"):
            EnsembleFaults("omission-rate", 0.5, at_step=10)

    def test_population_conserved_under_every_kind(self, seed):
        for faults in (EnsembleFaults("crash-rate", 0.002),
                       EnsembleFaults("corruption-rate", 0.01),
                       EnsembleFaults("omission-rate", 0.3),
                       EnsembleFaults("crash-at", 6, at_step=500)):
            ens = EnsembleMultisetSimulation(majority_protocol(),
                                             {1: 40, 0: 24}, trials=8,
                                             seed=seed, faults=faults)
            ens.run(4_000)
            assert (ens.counts.sum(axis=1) + ens.dead == 64).all()
            assert (ens.counts >= 0).all()
            assert (ens.interactions == 4_000).all()

    def test_fault_counters(self, seed):
        ens = EnsembleMultisetSimulation(
            LeaderElection(), {1: 64}, trials=8, seed=seed,
            faults=EnsembleFaults("crash-at", 5, at_step=100))
        ens.run(2_000)
        assert (ens.dead == 5).all()
        assert (ens.crashes == 5).all()
        assert all(ens.n_alive(t) == 59 for t in range(8))

    def test_deterministic_under_seeds_and_fault_seeds(self):
        kwargs = dict(trials=6, seeds=list(range(10, 16)),
                      fault_seeds=list(range(90, 96)),
                      faults=EnsembleFaults("corruption-rate", 0.02))
        a = EnsembleMultisetSimulation(count_to_five(), {0: 6, 1: 6},
                                       **kwargs)
        b = EnsembleMultisetSimulation(count_to_five(), {0: 6, 1: 6},
                                       **kwargs)
        a.run(2_000)
        b.run(2_000)
        assert (a.counts == b.counts).all()
        assert (a.corruptions == b.corruptions).all()
        assert (a.dead == b.dead).all()

    def test_omission_deterministic_under_seeds_and_fault_seeds(self):
        # Omission thins the windowed draws with the fault stream, so
        # replay must hold across both advancement modes.
        kwargs = dict(trials=6, seeds=list(range(10, 16)),
                      fault_seeds=list(range(90, 96)),
                      faults=EnsembleFaults("omission-rate", 0.3))
        a = EnsembleMultisetSimulation(LeaderElection(), {1: 24}, **kwargs)
        b = EnsembleMultisetSimulation(LeaderElection(), {1: 24}, **kwargs)
        a.run(4_000)
        b.run(4_000)
        assert (a.counts == b.counts).all()
        assert (a.omissions == b.omissions).all()
        assert a.omissions.sum() > 0

    def test_scalar_twin_carries_the_plan(self, seed):
        ens = EnsembleMultisetSimulation(
            LeaderElection(), {1: 32}, trials=4, seed=seed,
            faults=EnsembleFaults("crash-at", 3, at_step=50))
        ens.run(1_000)
        twin = ens.scalar_twin(1)
        assert twin.faults is not None
        twin.run(1_000)
        assert twin.dead == 3

    def test_monitors_pass_on_honest_faulted_run(self, seed):
        from repro.sim.monitors import build_monitors

        ens = EnsembleMultisetSimulation(
            majority_protocol(), {1: 30, 0: 20}, trials=6, seed=seed,
            faults=EnsembleFaults("crash-rate", 0.001),
            monitors=build_monitors(["conservation", "containment"]))
        ens.run(5_000)
        assert ens.violations == {}

    def test_containment_violation_deactivates_trial(self, seed):
        from repro.sim.monitors import StateContainmentMonitor

        # An artificially narrow allowed set: majority's initial states
        # only, so the first reactive interaction in any trial trips the
        # monitor.  Violated trials freeze; the run itself survives.
        protocol = majority_protocol()
        allowed = {protocol.initial_state(1), protocol.initial_state(0)}
        ens = EnsembleMultisetSimulation(
            protocol, {1: 30, 0: 20}, trials=4, seed=seed,
            monitors=[StateContainmentMonitor(allowed)])
        ens.run(2_000)
        assert set(ens.violations) == {0, 1, 2, 3}
        for violation in ens.violations.values():
            assert violation.monitor == "containment"
        assert (ens.interactions < 2_000).all()


class TestFaultedStatisticalEquivalence:
    """KS twin of TestStatisticalEquivalence under active fault plans.

    The per-trial fault sampling (shared numpy generator, positional
    dead slots, clamped scatters) must reproduce the *scalar* faulted
    law — :class:`FaultPlan` driving a :class:`MultisetSimulation` —
    distributionally.  Same tolerance rationale as the fault-free
    suite: p > 1e-3 on ~100-trial samples catches the gross law bugs
    (mis-scaled dead-pair probability, omission applied before the
    dead-pair veto, fault RNG leaking into the pair stream).
    """

    def _scalar_times(self, protocol_factory, counts, seed_pairs, faults,
                      max_steps):
        times = []
        for s, fs in seed_pairs:
            sim = MultisetSimulation(protocol_factory(), counts, seed=s,
                                     faults=faults.build_plan(fs))
            result = run_until_silent(sim, max_steps=max_steps)
            assert result.stopped
            times.append(result.converged_at)
        return times

    def _ensemble_times(self, protocol_factory, counts, seed_pairs, faults,
                        max_steps):
        ens = EnsembleMultisetSimulation(
            protocol_factory(), counts, trials=len(seed_pairs),
            seeds=[s for s, _ in seed_pairs],
            fault_seeds=[fs for _, fs in seed_pairs], faults=faults)
        results = run_ensemble_until_silent(ens, max_steps=max_steps)
        assert all(r.stopped for r in results)
        return [r.converged_at for r in results]

    def _ks_case(self, faults, *, n=48, trials=96, budget=2_000_000):
        from scipy.stats import ks_2samp

        fast = self._ensemble_times(
            LeaderElection, {1: n},
            [(5_000 + i, 15_000 + i) for i in range(trials)], faults,
            budget)
        slow = self._scalar_times(
            LeaderElection, {1: n},
            [(6_000 + i, 16_000 + i) for i in range(trials)], faults,
            budget)
        assert ks_2samp(fast, slow).pvalue > 1e-3

    def test_omission_slowed_election_times(self):
        self._ks_case(EnsembleFaults("omission-rate", 0.5))

    def test_crash_at_election_times(self):
        self._ks_case(EnsembleFaults("crash-at", 8, at_step=50))

    def test_corruption_election_times(self):
        self._ks_case(EnsembleFaults("corruption-rate", 0.005))


class TestOmissionOracle:
    """Omission faults against the Sect. 6 closed form, not another engine.

    Each encounter is dropped independently with probability ``p``, so
    leader election's expected ``(n-1)^2`` interactions stretch to
    exactly ``(n-1)^2 / (1-p)``, and the dropped share of all
    interactions is ``p``.  Four standard errors keep a correct engine's
    false-failure rate below 1e-4 per case at these fixed seeds.
    """

    @pytest.mark.parametrize("n, p, seed", [(32, 0.3, 20040725),
                                            (64, 0.5, 20040726)])
    def test_election_time_matches_closed_form(self, n, p, seed):
        trials = 2_000
        ens = EnsembleMultisetSimulation(
            LeaderElection(), {1: n}, trials=trials, seed=seed,
            track_outputs=False, faults=EnsembleFaults("omission-rate", p))
        results = run_ensemble_until_silent(ens, max_steps=10_000_000)
        assert all(r.stopped for r in results)
        times = np.array([r.converged_at for r in results], dtype=float)
        stderr = times.std(ddof=1) / np.sqrt(trials)
        assert abs(times.mean() - (n - 1) ** 2 / (1 - p)) < 4 * stderr
        share = ens.omissions.sum() / ens.interactions.sum()
        assert abs(share - p) < 0.01

    def test_omission_never_steps_the_faulted_lockstep(self, monkeypatch):
        # Omission only ever turns an encounter into a no-op, so the jump
        # thins its reactive rounds exactly in every regime; the
        # round-by-round faulted mode is for the kinds that change the
        # counts.
        def refuse(self, idx, rounds):
            raise AssertionError("omission run entered _faulted_chunk")

        monkeypatch.setattr(EnsembleMultisetSimulation, "_faulted_chunk",
                            refuse)
        ens = EnsembleMultisetSimulation(
            LeaderElection(), {1: 32}, trials=64, seed=7,
            track_outputs=False,
            faults=EnsembleFaults("omission-rate", 0.05))
        results = run_ensemble_until_silent(ens, max_steps=10_000_000)
        assert all(r.stopped for r in results)
        assert ens.omissions.sum() > 0


class TestSilentGrid:
    """The silent driver's stop grid under the jump.

    Quiet trials run past grid points, but every stop must still land on
    the first grid point at or after the trial's last state change, and
    the budget still ends a run exactly where the scalar driver's does.
    """

    @pytest.mark.parametrize("omission", [0.0, 0.3])
    def test_stops_sit_on_the_grid(self, seed, omission):
        check_every = 20
        faults = (EnsembleFaults("omission-rate", omission) if omission
                  else None)
        ens = EnsembleMultisetSimulation(LeaderElection(), {1: 24},
                                         trials=64, seed=seed,
                                         faults=faults)
        results = run_ensemble_until_silent(ens, max_steps=10_000_000,
                                            check_every=check_every)
        for r in results:
            assert r.stopped
            assert r.interactions % check_every == 0
            assert 0 <= r.interactions - r.converged_at < check_every

    def test_budget_off_the_grid_ends_at_the_budget(self, seed):
        # 31 merges cannot all happen within 45 interactions, and 45 is
        # not a multiple of check_every = n = 32.
        ens = EnsembleMultisetSimulation(LeaderElection(), {1: 32},
                                         trials=16, seed=seed)
        results = run_ensemble_until_silent(ens, max_steps=45)
        assert all(r.interactions == 45 and not r.stopped
                   for r in results)
        assert (ens.interactions == 45).all()

    @pytest.mark.parametrize("omission", [0.0, 0.05])
    def test_rounds_scale_with_transitions_not_grid_points(self, omission):
        # Leader election at n = 32 applies n - 1 = 31 transitions per
        # trial but spends ~(n-1)^2 = 961 interactions, about 30 check
        # grid points, on them.  Only the transition that leaves a trial
        # silent holds it at a grid point, so every trial takes one jump
        # per transition plus one to reach its check: n rounds.  Holding
        # every trial at the grid point after each transition took
        # about 2 (n - 1); rounds capped by the check grid took 140 to
        # 210 on this case.
        n = 32
        calls = {"_jump": 0, "silent_mask": 0}

        def counting(name, method):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)
            return wrapped

        ens = EnsembleMultisetSimulation(
            LeaderElection(), {1: n}, trials=64, seed=7,
            track_outputs=False,
            faults=(EnsembleFaults("omission-rate", omission) if omission
                    else None))
        for name in calls:
            setattr(ens, name, counting(name, getattr(ens, name)))
        results = run_ensemble_until_silent(ens, max_steps=10_000_000)
        assert all(r.stopped for r in results)
        assert calls["_jump"] <= n
        # One check before the first step, one once every trial is held.
        assert calls["silent_mask"] <= 2

    def test_jump_slices_the_trial_axis_within_its_budget(
            self, seed, monkeypatch):
        # A budget of two gathered weights per slice jumps leader
        # election's single reactive pair two trials at a time.
        from repro.sim import ensemble

        monkeypatch.setattr(ensemble, "_ADVANCE_BUDGET", 2)
        ens = EnsembleMultisetSimulation(LeaderElection(), {1: 16},
                                         trials=9, seed=seed,
                                         faults=EnsembleFaults(
                                             "omission-rate", 0.2))
        results = run_ensemble_until_silent(ens, max_steps=10_000_000)
        assert all(r.stopped for r in results)
        assert (ens.counts.sum(axis=1) == 16).all()
        assert all(0 <= r.interactions - r.converged_at < 16
                   for r in results)

"""Randomized cross-validation of the exact chain against sampling.

Generates random small :class:`DictProtocol` instances and checks, for
each, that the Theorem 11 analysis and plain simulation tell the same
story: row-stochastic chains, convergence probabilities that bound the
sampled frequencies, and agreement of expected convergence times.  The
silence test on state counts is checked against the enabled
transitions on the same protocols.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.markov import MarkovAnalysis
from repro.core.protocol import DictProtocol
from repro.core.semantics import enabled_transitions, is_silent
from repro.sim.engine import simulate_counts
from repro.util.multiset import FrozenMultiset
from repro.util.rng import spawn_seeds


def random_protocol(rng: random.Random, n_states: int = 3,
                    density: float = 0.5) -> DictProtocol:
    """A random protocol on states 0..n_states-1 with binary outputs."""
    states = list(range(n_states))
    transitions = {}
    for p in states:
        for q in states:
            if rng.random() < density:
                transitions[(p, q)] = (rng.choice(states), rng.choice(states))
    output_map = {s: rng.randrange(2) for s in states}
    input_map = {0: 0, 1: min(1, n_states - 1)}
    return DictProtocol(input_map=input_map, output_map=output_map,
                        transitions=transitions)


@settings(max_examples=25)
@given(st.integers(0, 10_000))
def test_chain_rows_stochastic_for_random_protocols(master_seed):
    rng = random.Random(master_seed)
    protocol = random_protocol(rng)
    analysis = MarkovAnalysis(protocol, {0: 2, 1: 2})
    sums = np.asarray(analysis.transition_matrix.sum(axis=1)).ravel()
    assert np.allclose(sums, 1.0, atol=1e-12)


@settings(max_examples=25)
@given(st.integers(0, 10_000))
def test_output_probabilities_form_subdistribution(master_seed):
    rng = random.Random(master_seed)
    protocol = random_protocol(rng)
    dist = MarkovAnalysis(protocol, {0: 2, 1: 2}).convergence()
    total = sum(dist.output_probability.values())
    assert -1e-9 <= total <= 1.0 + 1e-9
    assert -1e-9 <= dist.divergence_probability <= 1.0 + 1e-9
    assert total + dist.divergence_probability == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=8)
@given(st.integers(0, 10_000))
def test_sampled_stable_hits_match_exact_probability(master_seed):
    """For random protocols, the sampled rate of *reaching the stable set
    within a horizon* is bounded by the exact absorption probability."""
    rng = random.Random(master_seed)
    protocol = random_protocol(rng)
    counts = {0: 2, 1: 2}
    analysis = MarkovAnalysis(protocol, counts)
    stable = set(analysis.output_stable_configurations())
    exact = float(analysis.absorption_probabilities()[0])

    trials = 200
    horizon = 400
    hits = 0
    for s in spawn_seeds(master_seed, trials):
        sim = simulate_counts(protocol, counts, seed=s)
        if sim.multiset() in stable:
            hits += 1
            continue
        if sim.run_until(lambda x: x.multiset() in stable,
                         max_steps=horizon, check_every=1):
            hits += 1
    rate = hits / trials
    sigma = (max(exact * (1 - exact), 0.25 / trials) / trials) ** 0.5
    # The finite horizon can only undershoot the exact probability.
    assert rate <= exact + 5 * sigma + 0.02


@settings(max_examples=200)
@given(st.integers(0, 10_000), st.integers(1, 4),
       st.lists(st.integers(0, 3), min_size=4, max_size=4))
def test_silence_on_counts_agrees_with_enabled_transitions(master_seed,
                                                           n_states,
                                                           counts):
    """``is_silent`` gives one verdict on a plain count dict (zeros
    included, as a caller may pass them), on the same configuration as a
    ``FrozenMultiset``, and by listing the enabled state changes."""
    rng = random.Random(master_seed)
    protocol = random_protocol(rng, n_states=n_states,
                               density=rng.random())
    config = dict(zip(range(n_states), counts))
    multiset = FrozenMultiset(config)
    verdict = is_silent(protocol, config)
    assert is_silent(protocol, multiset) == verdict
    assert (enabled_transitions(protocol, multiset) == []) == verdict


def test_known_protocol_sanity():
    """Pin one concrete random-style protocol end to end."""
    protocol = DictProtocol(
        input_map={0: 0, 1: 1},
        output_map={0: 0, 1: 1, 2: 1},
        transitions={(1, 0): (2, 2), (2, 1): (0, 0)},
    )
    dist = MarkovAnalysis(protocol, {0: 2, 1: 1}).convergence()
    assert dist.divergence_probability == pytest.approx(0.0, abs=1e-12)
    assert sum(dist.output_probability.values()) == pytest.approx(1.0)

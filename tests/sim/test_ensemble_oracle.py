"""The ensemble engine against the exact configuration chain.

Every other ensemble suite compares the engine with another engine
(scalar twins, other backends) or with a closed form for one protocol.
Here the reference is :class:`~repro.analysis.markov.MarkovAnalysis`:
the absorbing chain of the protocol at small ``n``, whose
:meth:`~repro.analysis.markov.MarkovAnalysis.convergence_time_cdf` is the
exact law of the number of interactions until the configuration is
output-stable.

For a protocol whose output-stable configurations are all silent, that
time is the last state change of a run that stops at silence — exactly
the ``converged_at`` that :func:`run_ensemble_until_silent` reports.
Each case asserts that precondition through the chain itself before it
compares the distributions.

Fault-free and omission-rate runs both advance by the jump to the next
reactive encounter, so every case holds the jump, and the silence
check's hold at the grid point after the last transition, to the
chain.  An omission drops each encounter independently with probability
``omega``, so after ``t`` interactions the chain has taken ``J_t ~
Binomial(t, 1 - omega)`` steps and ``P[T_omega <= t] = E[P[T <=
J_t]]``.

The comparison is a one-sample Kolmogorov-Smirnov test.  The statistic
is taken over the integer support, ``D = max_t |F_n(t) - F(t)|`` with
both CDFs right-continuous, and its p-value is read from the continuous
Kolmogorov distribution, which is conservative for a discrete law
(Noether 1963): an honest engine fails a case with probability at most
``ALPHA`` = 1e-3.  The seeds are fixed, so the suite is deterministic.
At 2 000 trials the test resolves a CDF shift of about 0.045, which
catches the sampling-law errors the ensemble could make — a
with-replacement pair draw, a missing self-pair exclusion, a biased
jump length or pair choice — all of which move these small-``n`` laws
by far more.
"""

import numpy as np
import pytest

from repro.analysis.markov import MarkovAnalysis
from repro.core.semantics import is_silent
from repro.protocols import registry
from repro.sim.ensemble import (
    EnsembleFaults,
    EnsembleMultisetSimulation,
    run_ensemble_until_silent,
)

#: Per-case false-failure bound of the conservative KS test.
ALPHA = 1e-3
TRIALS = 2_000


def _exact_cdf(analysis: MarkovAnalysis) -> np.ndarray:
    """``P[T <= t]`` for t = 0, 1, ... up to a horizon past which the
    remaining mass is below 1e-9."""
    horizon = max(64, int(40 * analysis.expected_convergence_interactions()))
    cdf = analysis.convergence_time_cdf(horizon)
    assert cdf[-1] > 1 - 1e-9, "horizon too short for the exact tail"
    return cdf


def _omitted_cdf(cdf: np.ndarray, omega: float) -> np.ndarray:
    """The CDF of ``T`` on a chain whose every step is dropped with
    probability ``omega``: ``P[T <= J_t]`` with ``J_t ~ Binomial(t, 1 -
    omega)``, evolved one interaction at a time."""
    horizon = int(cdf.size / (1 - omega)) + 64
    steps = np.zeros(cdf.size)  # P[J_t = j] for j within the horizon
    steps[0] = 1.0
    out = np.empty(horizon + 1)
    for t in range(horizon + 1):
        # Step counts past the chain's horizon have P[T <= j] ~ 1.
        out[t] = steps @ cdf + (1.0 - steps.sum())
        steps[1:] = omega * steps[1:] + (1 - omega) * steps[:-1]
        steps[0] *= omega
    assert out[-1] > 1 - 1e-9
    return out


def _ks_pvalue(samples: np.ndarray, cdf: np.ndarray) -> float:
    from scipy.stats import kstwo

    horizon = cdf.size - 1
    assert samples.max() <= horizon
    empirical = np.cumsum(np.bincount(samples, minlength=horizon + 1))
    d = float(np.abs(empirical / samples.size - cdf).max())
    return float(kstwo.sf(d, samples.size))


@pytest.mark.parametrize("name, counts, omission, seed", [
    ("leader-election", {1: 3}, 0.0, 11),
    ("leader-election", {1: 4}, 0.0, 12),
    ("leader-election", {1: 6}, 0.0, 13),
    ("leader-election", {1: 8}, 0.0, 14),
    ("epidemic", {1: 1, 0: 9}, 0.0, 15),
    # Six states (piles 0..5); five 1-inputs reach the alert, whose
    # all-alert configuration is the only output-stable one.
    ("count-to-k", {1: 5, 0: 3}, 0.0, 16),
    ("leader-election", {1: 6}, 0.3, 17),
    ("epidemic", {1: 1, 0: 9}, 0.3, 18),
    ("count-to-k", {1: 5, 0: 3}, 0.3, 19),
])
def test_converged_at_matches_markov_chain(name, counts, omission, seed):
    protocol = registry.get(name).build()
    analysis = MarkovAnalysis(protocol, counts)
    stable = analysis.output_stable_configurations()
    assert stable and all(is_silent(protocol, c) for c in stable), (
        "the oracle needs every output-stable configuration to be silent")
    cdf = _exact_cdf(analysis)
    faults = None
    if omission:
        cdf = _omitted_cdf(cdf, omission)
        faults = EnsembleFaults("omission-rate", omission)

    ens = EnsembleMultisetSimulation(protocol, counts, trials=TRIALS,
                                     seed=seed, track_outputs=False,
                                     faults=faults)
    if name == "count-to-k":
        assert ens.compiled.size >= 4
    results = run_ensemble_until_silent(ens, max_steps=1_000_000)
    assert all(r.stopped for r in results)
    times = np.array([r.converged_at for r in results], dtype=np.int64)
    assert _ks_pvalue(times, cdf) > ALPHA

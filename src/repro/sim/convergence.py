"""Stopping rules and convergence measurement.

Convergence (Sect. 3.2) is a global property — an agent can never know
locally that the computation has converged.  Experiments therefore use one
of three observers:

* **silence** — no enabled encounter changes any state; a silent
  configuration is trivially output-stable (checkable from the state
  counts alone);
* **output quiescence** — the output assignment has not changed for a long
  patience window (a heuristic, sound w.h.p. under random pairing when the
  window is large relative to the protocol's mixing time);
* **known truth** — when the experiment knows the predicate value, the
  convergence time is the last interaction at which any agent's output was
  wrong, observed over a run long enough that a later change is
  overwhelmingly unlikely.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.semantics import is_silent
from repro.sim.engine import Simulation


def _verdict(sim):
    """The unanimous output of the *surviving* agents.

    With crash faults injected, a dead sensor's frozen output must not
    count against unanimity (the paper reads the verdict off the
    remaining population).  Falls back to plain unanimity for simulations
    without the surviving-output accessor.
    """
    getter = getattr(sim, "unanimous_surviving_output", None)
    return getter() if getter is not None else sim.unanimous_output()


@dataclass
class ConvergenceResult:
    """Outcome of a convergence measurement run."""

    #: Interaction count when the measurement run stopped.
    interactions: int
    #: Interaction count after which the output assignment never changed
    #: during the run (the measured convergence time).
    converged_at: int
    #: Output assignment agreed by all agents at the end (None = no
    #: unanimity, which for predicate protocols means non-convergence).
    output: "object | None"
    #: True if the stopping rule fired (vs. hitting the step budget).
    stopped: bool


def run_until_silent(sim: Simulation, max_steps: int, check_every: int = 0) -> ConvergenceResult:
    """Run until the configuration is silent (or the budget is exhausted).

    Silence is decided from the engine's ``state_counts()`` every
    ``check_every`` interactions (default: every ``n`` interactions) —
    but only when the engine's ``last_change`` tracker advanced since the
    previous check: unchanged counts cannot change the verdict, so
    windows of pure no-ops skip both the count and the O(|states|^2)
    silence scan.  On the agent engine the check grid runs inside its
    one stepping loop (:meth:`~repro.sim.engine.Simulation.run_until`).
    """
    check_every = check_every or max(sim.n, 1)
    # last_change value at the previous evaluated check, and its verdict.
    checked_at = None
    verdict = False

    def silent(s) -> bool:
        nonlocal checked_at, verdict
        marker = getattr(s, "last_change", None)
        if marker is None or marker != checked_at:
            verdict = is_silent(s.protocol, s.state_counts())
            checked_at = marker
        return verdict

    stopped = sim.run_until(silent, max_steps=max_steps,
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


def run_until_quiescent(
    sim: Simulation,
    patience: int,
    max_steps: int,
) -> ConvergenceResult:
    """Run until the outputs have been unchanged for ``patience`` interactions.

    The measured convergence time is ``sim.last_output_change``.  This rule
    can fire early on a slow protocol; callers choose ``patience`` large
    relative to the expected convergence time (e.g. a multiple of
    ``n^2 log n`` for the Lemma 5 protocols).
    """
    def quiet(s: Simulation) -> bool:
        return s.interactions - s.last_output_change >= patience

    stopped = sim.run_until(quiet, max_steps=max_steps, check_every=max(1, patience // 8))
    return ConvergenceResult(
        interactions=sim.interactions,
        converged_at=sim.last_output_change,
        output=_verdict(sim),
        stopped=stopped,
    )


def run_until_correct_stable(
    sim: Simulation,
    expected_output,
    *,
    max_steps: int,
    settle_factor: float = 2.0,
    floor: int = 0,
) -> ConvergenceResult:
    """Measure time until all agents output ``expected_output``, stably.

    Runs until every agent outputs the expected value (an output symbol,
    never None) and then keeps going
    until the total run length is at least ``settle_factor`` times the last
    interaction at which some agent was wrong (plus ``floor``); if outputs
    regress, the target extends automatically because the last-wrong time
    advances.  Returns the last-wrong interaction index as ``converged_at``.

    The rule is defined for the agent-indexed engines (``Simulation`` and
    ``BatchedSimulation``), where a crashed agent keeps its last output
    and still counts.  On a multiset engine ``unanimous_output`` reads the
    live counts only, so there the rule asks whether the survivors agree.
    """
    floor = floor or 4 * sim.n

    def done(s: Simulation) -> bool:
        # On the agent-indexed engines every agent counts, crashed ones
        # included.  The batched engine answers from the output histogram
        # it keeps as it steps; the reference engine stops its walk at the
        # first disagreeing agent.
        if s.unanimous_output() != expected_output:
            return False
        # All correct now; the last output change is exactly the moment the
        # final wrong output was fixed.
        return s.interactions >= settle_factor * s.last_output_change + floor

    stopped = sim.run_until(done, max_steps=max_steps, check_every=max(1, sim.n // 2))
    return ConvergenceResult(
        interactions=sim.interactions,
        converged_at=sim.last_output_change,
        output=_verdict(sim),
        stopped=stopped,
    )

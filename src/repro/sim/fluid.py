"""Mean-field fluid-limit engine: astronomically large populations as ODEs.

Every discrete engine in the repo — reference, batched, ensemble — pays
at least O(n) per ``n`` interactions, which walls the sweep axis off
around ``n ~ 1e6``.  Bournez et al. (PAPERS.md: *On the Convergence of
Population Protocols When Population Goes to Infinity*) prove that as
``n -> infinity`` the *normalized count vector* ``x = counts / n``
converges to the solution of the mean-field ODE

    dx/dtau  =  sum over reactive ordered pairs (p, q) of
                x_p * x_q * Delta(p, q),

where ``tau`` is time in units of ``n`` interactions and ``Delta(p, q)``
is the count delta of the transition ``(p, q) -> delta(p, q)`` (minus one
agent each in ``p`` and ``q``, plus one each in the results).  One fluid
step costs O(|reactive pairs| * |states|) regardless of ``n``, so
populations of 1e8-1e12 integrate in milliseconds.

:class:`MeanFieldODE` derives the drift field directly from the dense
integer tables of :class:`repro.sim.compiled.CompiledProtocol` — the
same tables the batched and ensemble engines execute, so all four
engines share one transition source of truth.  :class:`FluidSimulation`
integrates it with an adaptive Dormand-Prince RK5(4) stepper over the
probability simplex (projection each accepted step), supports event
detection for the stopping-rule analogs, and optionally integrates the
finite-``n`` CLT/diffusion correction

    dSigma/dtau = J(x) Sigma + Sigma J(x)^T + B(x),

whose diagonal yields per-state standard-deviation bands of width
``sqrt(Sigma_ii / n)`` around the deterministic fractions (the classic
van Kampen / Kurtz central-limit expansion; ``B`` is the jump covariance
``sum_r w_r(x) Delta_r Delta_r^T``).

Fault dynamics
--------------

Rate faults (crash-rate / corruption-rate / omission-rate — the kinds
with a mean-field limit; deterministic schedules like crash-at have
none) enter as perturbed drift terms derived in :class:`MeanFieldODE`:
crashes add a state-proportional death flow into an explicit dead-mass
component (live fractions stay unnormalized, so the reactive drift is
automatically ``l^2``-scaled by the live mass, matching the discrete
both-parties-alive law), corruption is a transition-kernel perturbation
toward the reset-corruptor's replacement mixture, and omission thins the
reactive drift by ``1 - r``.  Cross-validation against faulted ensemble
runs lives in ``tests/sim/test_fluid_crossval.py``.

Determinism contract
--------------------

A fluid trajectory is a *deterministic* function of (protocol, input
counts, tolerances, fault rates): no RNG enters anywhere.  Where the discrete engines
produce a distribution over trials, the fluid engine produces that
distribution's ``n -> infinity`` limit — one curve, with optional CLT
bands standing in for trial scatter.  Cross-validation against the
ensemble engine at overlapping ``n`` lives in
``tests/sim/test_fluid_crossval.py``; the engine contract table is in
``docs/PERFORMANCE.md``.

Stopping-rule analogs
---------------------

The discrete stopping rules are hitting times of the Markov chain; their
fluid analogs are threshold crossings of smooth observables, calibrated
so the fluid stopping time matches the discrete expectation wherever a
closed form exists:

* **silent** — total reactive activity ``a(x) = sum_r x_p x_q`` falls to
  ``1/n^2`` (less than one enabled reactive *ordered pair* at population
  scale).  For leader election this fires at ``x_L = 1/n``, i.e. after
  ``n(n-1)`` interactions — the paper's exact ``(n-1)^2`` expectation up
  to ``n/(n-1)``.
* **quiescent** — the *output-changing* activity falls to ``1/patience``
  (less than one expected output change per patience window), after
  which the run coasts ``patience`` further interactions exactly like
  the discrete driver.
* **correct-stable** — the mass of wrong-output states falls below half
  an agent (``0.5/n``), then the clock settles to ``settle_factor *
  converged_at + floor`` with a regression watch, mirroring
  :func:`repro.sim.convergence.run_until_correct_stable`.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.core.protocol import PopulationProtocol, State, Symbol
from repro.sim.compiled import CompiledProtocol, compile_protocol
from repro.sim.convergence import ConvergenceResult
from repro.sim.trace import Trace, TracePoint

__all__ = [
    "MeanFieldODE",
    "FluidSimulation",
    "FluidTrace",
    "run_fluid_until_silent",
    "run_fluid_until_quiescent",
    "run_fluid_until_correct_stable",
]


class MeanFieldODE:
    """The mean-field drift field of a compiled protocol.

    Precomputes, from the compiled transition tables:

    * ``pairs_p`` / ``pairs_q`` — the reactive ordered pairs (dense ids);
    * ``delta`` — the ``(R, k)`` count-delta matrix, one row per reactive
      pair: ``-1`` at ``p`` and ``q``, ``+1`` at ``delta(p, q)``
      (accumulated, so self-loops and merges are exact);
    * ``output_changing`` — which reactive pairs change the output
      multiset (the quiescence observable's support).

    The drift is ``F(x) = w(x) @ delta`` with weights ``w_r = x_p x_q``
    (with-replacement pairing — the exact ``n -> infinity`` limit of the
    discrete law ``c_p (c_q - [p=q]) / (n (n-1))``).

    Fault perturbations
    -------------------

    With a rate-fault descriptor (:class:`repro.sim.faults.EnsembleFaults`
    restricted to the ``*-rate`` kinds) the drift acquires the mean-field
    limit of the discrete fault sampling:

    * **crash-rate** ``p`` — the state vector gains an explicit dead
      component (index ``k``); live fractions are *unnormalized* (their
      sum ``l`` is the live mass), which makes the reactive drift
      automatically ``l^2`` times the normalized drift — exactly the
      discrete law where both parties of a uniform pair over all ``n``
      sensors must be alive.  Crashes add a state-proportional death
      flow ``dx_s/dtau = -p x_s / l``, ``dd/dtau = +p``, gated off once
      ``l`` reaches ``crash_floor`` (the fluid reading of the discrete
      >= 2-survivors guard).
    * **corruption-rate** ``q`` — a transition-kernel perturbation
      ``dx/dtau += q (iota - x / l)`` where ``iota`` is
      :func:`~repro.sim.faults.reset_corruptor`'s replacement law (the
      uniform mixture over input-symbol initial states); mass-conserving
      on the live simplex.
    * **omission-rate** ``r`` — the reactive drift scales by ``1 - r``
      (omissions thin the surviving-encounter rate and nothing else).

    :meth:`activity` stays the *structural* silence observable (an
    omitted or dead-party encounter still counts its enabled pairs), while
    :meth:`output_activity` is fault-aware — omission thins it, and
    corruption adds its own output-flip rate — so the quiescence driver
    sees the same observable the discrete engines realize.
    """

    def __init__(self, compiled: CompiledProtocol, faults=None, *,
                 crash_floor: float = 0.0):
        self.compiled = compiled
        if faults is not None and faults.kind not in (
                "crash-rate", "corruption-rate", "omission-rate"):
            raise ValueError(
                f"fault kind {faults.kind!r} has no mean-field limit; the "
                "fluid engine supports crash-rate, corruption-rate and "
                "omission-rate (use the batched or ensemble engine for "
                "deterministic schedules)")
        self.faults = faults
        self.crash_floor = float(crash_floor)
        k = compiled.size
        #: Number of live-state components (the compiled state count).
        self.k_live = k
        #: Dead-mass component index, or None without crash faults.
        self.dead_index = (
            k if faults is not None and faults.kind == "crash-rate" else None)
        self.size = k + 1 if self.dead_index is not None else k
        flat = np.flatnonzero(compiled.reactive_mask)
        #: Initiator / responder ids of each reactive ordered pair.
        self.pairs_p = (flat // k).astype(np.int64)
        self.pairs_q = (flat % k).astype(np.int64)
        R = flat.size
        self.reactive_pairs = R
        tinit, tresp, _ = compiled.typed_arrays()
        p2 = tinit[flat]
        q2 = tresp[flat]
        delta = np.zeros((R, self.size), dtype=np.float64)
        rows = np.arange(R)
        np.add.at(delta, (rows, self.pairs_p), -1.0)
        np.add.at(delta, (rows, self.pairs_q), -1.0)
        np.add.at(delta, (rows, p2), 1.0)
        np.add.at(delta, (rows, q2), 1.0)
        self.delta = delta
        out = np.asarray(compiled.output_ids, dtype=np.int64)
        op, oq = out[self.pairs_p], out[self.pairs_q]
        op2, oq2 = out[p2], out[q2]
        # A pair changes the output *multiset* unless the result outputs
        # are a permutation of the argument outputs — the same predicate
        # the ensemble engine's last_output_change bookkeeping applies.
        self.output_changing = ~(((op == op2) & (oq == oq2))
                                 | ((op == oq2) & (oq == op2)))
        if faults is not None and faults.kind == "corruption-rate":
            # reset_corruptor's replacement law: uniform over the input
            # symbols (sorted by repr), mapped through initial_state.
            syms = sorted(compiled.initial_ids, key=repr)
            iota = np.zeros(k, dtype=np.float64)
            for sym in syms:
                iota[compiled.initial_ids[sym]] += 1.0 / len(syms)
            self._iota = iota
            # Per-state probability that one reset flips the output.
            init_out = np.asarray(
                [out[compiled.initial_ids[sym]] for sym in syms],
                dtype=np.int64)
            self._reset_flip = np.asarray(
                [float(np.mean(init_out != out[s])) for s in range(k)],
                dtype=np.float64)

    def weights(self, x: np.ndarray) -> np.ndarray:
        """Per-reactive-pair interaction rates ``x_p * x_q``."""
        return x[self.pairs_p] * x[self.pairs_q]

    def drift(self, x: np.ndarray) -> np.ndarray:
        """``F(x)``: the fraction-space velocity (rows of delta sum to 0
        and the fault terms conserve total mass, so the drift keeps the
        state on the simplex exactly)."""
        if self.reactive_pairs == 0:
            f = np.zeros(self.size)
        else:
            f = self.weights(x) @ self.delta
        if self.faults is None:
            return f
        kind = self.faults.kind
        rate = self.faults.intensity
        if kind == "omission-rate":
            return f * (1.0 - rate)
        k = self.k_live
        live = x[:k]
        ell = float(live.sum())
        if kind == "crash-rate":
            if ell > self.crash_floor:
                f[:k] -= rate * live / ell
                f[self.dead_index] += rate
        elif ell > 0.0:  # corruption-rate
            f[:k] += rate * (self._iota - live / ell)
        return f

    def activity(self, x: np.ndarray) -> float:
        """Total reactive rate: the probability-per-interaction (as
        ``n -> infinity``) that a uniform ordered pair is reactive."""
        if self.reactive_pairs == 0:
            return 0.0
        return float(self.weights(x).sum())

    def output_activity(self, x: np.ndarray) -> float:
        """Rate of output-multiset-changing events per interaction.

        Fault-aware: omission thins the reactive rate by ``1 - r`` and
        corruption adds its own output-flip rate ``q * P(reset changes
        the victim's output)``; crashes do not count (the discrete
        engines' change clocks ignore them too).
        """
        base = 0.0
        if self.reactive_pairs:
            base = float(self.weights(x)[self.output_changing].sum())
        if self.faults is None:
            return base
        kind = self.faults.kind
        rate = self.faults.intensity
        if kind == "omission-rate":
            return base * (1.0 - rate)
        if kind == "corruption-rate":
            live = x[:self.k_live]
            ell = float(live.sum())
            if ell > 0.0:
                base += rate * float((live / ell) @ self._reset_flip)
        return base

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """``J(x) = dF/dx``, the ``(k, k)`` drift Jacobian.

        Not implemented for faulted drift fields (the CLT correction is
        rejected with faults attached; see :class:`FluidSimulation`).
        """
        if self.faults is not None:
            raise NotImplementedError(
                "the fault-perturbed drift has no Jacobian/CLT support; "
                "integrate with clt=False")
        k = self.size
        if self.reactive_pairs == 0:
            return np.zeros((k, k))
        grad = np.zeros((self.reactive_pairs, k))
        rows = np.arange(self.reactive_pairs)
        # d(x_p x_q)/dx: x_q into column p, x_p into column q (+= so the
        # diagonal pairs p == q accumulate the correct 2 x_p).
        np.add.at(grad, (rows, self.pairs_p), x[self.pairs_q])
        np.add.at(grad, (rows, self.pairs_q), x[self.pairs_p])
        return self.delta.T @ grad

    def diffusion(self, x: np.ndarray) -> np.ndarray:
        """``B(x) = sum_r w_r Delta_r Delta_r^T`` — the jump covariance
        per unit fluid time (the CLT correction's source term)."""
        if self.faults is not None:
            raise NotImplementedError(
                "the fault-perturbed drift has no diffusion/CLT support; "
                "integrate with clt=False")
        k = self.size
        if self.reactive_pairs == 0:
            return np.zeros((k, k))
        w = self.weights(x)
        return self.delta.T @ (w[:, None] * self.delta)


@dataclass
class FluidTrace:
    """The recorded fluid trajectory: fractions (and optional CLT
    variances) at every accepted integrator step.

    Round-trips through the existing :class:`~repro.sim.trace.Trace`
    pipeline via :meth:`state_trace` / :meth:`output_trace`, which scale
    fractions back to integer counts at the simulation's ``n`` — the
    CSV/report tooling consumes fluid runs exactly like discrete ones.
    """

    n: int
    states: tuple
    output_symbols: tuple
    output_ids: tuple
    taus: list = field(default_factory=list)
    fractions: list = field(default_factory=list)
    #: Per-sample CLT variance diagonals (fraction^2 * n units), or None
    #: when the run integrated without the correction.
    variances: "list | None" = None

    def __len__(self) -> int:
        return len(self.taus)

    def append(self, tau: float, x: np.ndarray,
               var: "np.ndarray | None" = None) -> None:
        self.taus.append(float(tau))
        self.fractions.append(np.array(x, copy=True))
        if self.variances is not None and var is not None:
            self.variances.append(np.array(var, copy=True))

    def interactions(self) -> list:
        """Sample times in interaction units (``round(tau * n)``)."""
        return [int(round(tau * self.n)) for tau in self.taus]

    def band(self, state_index: int) -> np.ndarray:
        """Per-sample CLT standard deviation of one state's *fraction*:
        ``sqrt(Sigma_ii / n)`` — the finite-``n`` error band."""
        if self.variances is None:
            raise ValueError("trace recorded without clt=True; no bands")
        var = np.array([v[state_index] for v in self.variances])
        return np.sqrt(np.maximum(var, 0.0) / self.n)

    def state_trace(self) -> Trace:
        """The trajectory as a state-count :class:`Trace` (counts are
        ``n * x`` rounded; columns keyed by ``str(state)``)."""
        points = []
        for tau, x in zip(self.taus, self.fractions):
            counts = {str(state): int(round(self.n * float(frac)))
                      for state, frac in zip(self.states, x)}
            points.append(TracePoint(interactions=int(round(tau * self.n)),
                                     counts=counts))
        return Trace(points)

    def output_trace(self) -> Trace:
        """The trajectory as an output-histogram :class:`Trace`."""
        out_ids = np.asarray(self.output_ids, dtype=np.int64)
        m = len(self.output_symbols)
        points = []
        for tau, x in zip(self.taus, self.fractions):
            mass = np.bincount(out_ids, weights=x, minlength=m)
            counts = {str(sym): int(round(self.n * float(mass[oid])))
                      for oid, sym in enumerate(self.output_symbols)}
            points.append(TracePoint(interactions=int(round(tau * self.n)),
                                     counts=counts))
        return Trace(points)


# Dormand-Prince 5(4) tableau (the classic RK45 pair; FSAL stage kept
# simple by re-evaluating after the simplex projection).
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100)
# The 5th-order solution needs one extra stage at (1, b5) for the 4th-
# order error estimate's last weight.
_DP_B4_LAST = 1 / 40

#: Step-size controller bounds.
_H_GROW = 5.0
_H_SHRINK = 0.2
_H_SAFETY = 0.9
#: Bisection iterations for event localization on the Hermite interpolant.
_EVENT_BISECTIONS = 80


class FluidSimulation:
    """Mean-field integration of one population's fluid limit.

    Mirrors the discrete engines' constructor: pass exactly one of
    ``input_counts=`` (mapped through the protocol's initial states) or
    ``state_counts=``.  ``n`` is the implied population size — it scales
    every stopping threshold and the CLT bands, but *not* the cost of a
    step, which is how ``n = 1e9`` runs in milliseconds.

    ``rtol`` / ``atol`` control the adaptive stepper (``atol`` defaults
    to ``rtol / n``, fine enough to resolve single-agent fractions).
    ``clt=True`` co-integrates the covariance ODE for finite-``n`` error
    bands at O(k^2) extra state.  ``record=True`` (default) keeps every
    accepted step in :attr:`trace`.

    ``faults=`` attaches a rate-fault descriptor
    (:class:`repro.sim.faults.EnsembleFaults`; crash-rate /
    corruption-rate / omission-rate — deterministic schedules have no
    mean-field limit) whose perturbed drift terms are documented on
    :class:`MeanFieldODE`.  With crash faults the state vector carries an
    explicit dead-mass component and every live observable (output mass,
    unanimity, wrong-mass thresholds) reads the *surviving* population,
    matching the discrete engines.  Faults are incompatible with
    ``clt=True`` (the covariance expansion is derived for the fault-free
    jump law).
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        input_counts: "Mapping[Symbol, int] | None" = None,
        *,
        state_counts: "Mapping[State, int] | None" = None,
        compiled: "CompiledProtocol | None" = None,
        rtol: float = 1e-8,
        atol: "float | None" = None,
        clt: bool = False,
        record: bool = True,
        faults=None,
    ):
        self.protocol = protocol
        if (input_counts is None) == (state_counts is None):
            raise ValueError("pass exactly one of input_counts= or state_counts=")
        if faults is not None and not faults.active:
            faults = None
        if faults is not None and clt:
            raise ValueError(
                "clt=True is incompatible with faults: the CLT correction "
                "is derived for the fault-free jump law")
        if compiled is None:
            compiled = compile_protocol(protocol)
        if state_counts is not None:
            unknown = [s for s in state_counts if s not in compiled.index]
            if unknown:
                compiled = compile_protocol(protocol, extra_states=unknown)
        self._compiled = compiled
        k = compiled.size
        row = np.zeros(k, dtype=np.float64)
        if input_counts is not None:
            for symbol, count in input_counts.items():
                if symbol not in protocol.input_alphabet:
                    raise ValueError(f"symbol {symbol!r} not in input alphabet")
                if count < 0:
                    raise ValueError("counts must be non-negative")
                row[compiled.initial_ids[symbol]] += count
        else:
            for state, count in state_counts.items():
                if count < 0:
                    raise ValueError("counts must be non-negative")
                row[compiled.index[state]] += count
        n = int(round(float(row.sum())))
        if n < 2:
            raise ValueError("a population needs at least two agents")
        self.n = n
        # The crash floor is the fluid reading of the discrete >= 2-
        # survivors guard: crash flow gates off at two agents of live mass.
        self.ode = MeanFieldODE(compiled, faults,
                                crash_floor=2.0 / n if faults else 0.0)
        self.rtol = float(rtol)
        self.atol = float(atol) if atol is not None else self.rtol / n
        if self.rtol <= 0 or self.atol < 0:
            raise ValueError("rtol must be positive and atol non-negative")
        self.clt = bool(clt)

        #: Fluid time (units of n interactions).
        self.tau = 0.0
        #: Normalized state fractions on the simplex (plus a trailing
        #: dead-mass component under crash faults).
        self.x = row / n
        if self.ode.size != k:
            self.x = np.append(self.x, 0.0)
        #: CLT covariance (fraction^2 * n units), or None.
        self.cov = np.zeros((k, k)) if clt else None
        self._h = None  # adaptive step size, lazily initialized
        self.accepted_steps = 0
        self.rejected_steps = 0
        self.trace = None
        if record:
            self.trace = FluidTrace(
                n=n, states=compiled.states,
                output_symbols=compiled.output_symbols,
                output_ids=tuple(compiled.output_ids),
                variances=[] if clt else None)
            self._record()

    # -- Introspection ---------------------------------------------------------

    @property
    def compiled(self) -> CompiledProtocol:
        """The compiled tables the drift was derived from."""
        return self._compiled

    @property
    def interactions(self) -> int:
        """The fluid clock in interaction units (``round(tau * n)``)."""
        return int(round(self.tau * self.n))

    @property
    def faults(self):
        """The attached fault descriptor, or None."""
        return self.ode.faults

    @property
    def live_mass(self) -> float:
        """Fraction of the population still alive (1.0 without crashes)."""
        return float(self.x[:self.ode.k_live].sum())

    @property
    def dead_mass(self) -> float:
        """Crashed mass fraction (0.0 without crash faults)."""
        if self.ode.dead_index is None:
            return 0.0
        return float(self.x[self.ode.dead_index])

    def state_counts(self) -> dict:
        """Fractions scaled back to (float) counts per original state."""
        return {state: float(self.n * frac)
                for state, frac in zip(self._compiled.states, self.x)
                if frac > 0.0}

    def fractions(self) -> dict:
        """Live fractions keyed by original state."""
        return {state: float(frac)
                for state, frac in zip(self._compiled.states, self.x)
                if frac > 0.0}

    def output_mass(self) -> np.ndarray:
        """Fraction of the population per output symbol id (live mass
        only — crashed sensors have no output)."""
        out = np.asarray(self._compiled.output_ids, dtype=np.int64)
        return np.bincount(out, weights=self.x[:self.ode.k_live],
                           minlength=len(self._compiled.output_symbols))

    def output_counts(self) -> dict:
        """Output histogram in (float) agent counts."""
        mass = self.output_mass()
        return {sym: float(self.n * mass[oid])
                for oid, sym in enumerate(self._compiled.output_symbols)
                if mass[oid] > 0.0}

    def unanimous_output(self) -> "Symbol | None":
        """The common output if all but less than half an agent of mass
        agrees (the fluid reading of discrete unanimity, taken over the
        *live* population under crash faults), else None."""
        mass = self.output_mass()
        oid = int(np.argmax(mass))
        if self.n * float(mass[oid]) >= self.n * self.live_mass - 0.5:
            return self._compiled.output_symbols[oid]
        return None

    def std_bands(self) -> "np.ndarray | None":
        """Current per-state CLT standard deviations (fraction units)."""
        if self.cov is None:
            return None
        return np.sqrt(np.maximum(np.diag(self.cov), 0.0) / self.n)

    def __repr__(self) -> str:
        return (f"<FluidSimulation n={self.n} tau={self.tau:.6g} "
                f"k={self._compiled.size} clt={self.clt} "
                f"of {type(self.protocol).__name__}>")

    # -- Integration -----------------------------------------------------------

    def _rhs(self, y: np.ndarray) -> np.ndarray:
        k = self.ode.size
        if not self.clt:
            return self.ode.drift(y)
        x = y[:k]
        sigma = y[k:].reshape(k, k)
        jac = self.ode.jacobian(x)
        dsigma = jac @ sigma + sigma @ jac.T + self.ode.diffusion(x)
        return np.concatenate([self.ode.drift(x), dsigma.ravel()])

    def _pack(self) -> np.ndarray:
        if not self.clt:
            return self.x.copy()
        return np.concatenate([self.x, self.cov.ravel()])

    def _commit(self, tau: float, y: np.ndarray) -> None:
        k = self.ode.size
        x = y[:k]
        # Simplex projection: integration error can push a fraction a
        # hair negative or drift the total off 1; clip and renormalize
        # (the drift conserves mass, so the correction is fp-sized).
        x = np.maximum(x, 0.0)
        total = x.sum()
        if total <= 0.0:
            raise RuntimeError("fluid state collapsed off the simplex")
        self.x = x / total
        if self.clt:
            sigma = y[k:].reshape(k, k)
            self.cov = (sigma + sigma.T) / 2.0
        self.tau = tau
        self._record()

    def _record(self) -> None:
        if self.trace is not None:
            var = np.diag(self.cov) if self.clt else None
            # Record the live slice only: the trace's states/output_ids
            # columns are the compiled protocol's, without the dead bin.
            self.trace.append(self.tau, self.x[:self.ode.k_live], var)

    def _error_scale(self, y0: np.ndarray, y1: np.ndarray) -> np.ndarray:
        k = self.ode.size
        scale = self.atol + self.rtol * np.maximum(np.abs(y0), np.abs(y1))
        if self.clt:
            # Covariance entries live on an O(1) absolute scale, not the
            # 1/n fraction scale; loosen their atol to rtol.
            scale[k:] = np.maximum(scale[k:], self.rtol)
        return scale

    def _initial_step(self, y: np.ndarray, f: np.ndarray,
                      span: float) -> float:
        scale = self._error_scale(y, y)
        d0 = float(np.sqrt(np.mean((y / scale) ** 2)))
        d1 = float(np.sqrt(np.mean((f / scale) ** 2)))
        h = 1e-6 if d1 <= 1e-15 else 0.01 * d0 / d1
        return min(max(h, 1e-12), span)

    def advance(self, tau_target: float,
                event=None) -> bool:
        """Integrate forward to ``tau_target``; with ``event`` given,
        stop at the first ``tau`` where ``event(x) <= 0`` instead.

        Returns True iff the event fired (always False without one).
        Event localization runs bisection on the cubic Hermite
        interpolant of the accepted step, so the reported crossing is
        resolved far below one interaction even when the step spans
        millions of them.
        """
        if tau_target < self.tau:
            raise ValueError("cannot integrate backwards")
        if event is not None and event(self.x) <= 0.0:
            return True
        k = self.ode.size
        y = self._pack()
        f = self._rhs(y)
        if self._h is None:
            self._h = self._initial_step(y, f, max(tau_target - self.tau,
                                                   1e-12))
        stages = np.empty((7, y.size))
        while self.tau < tau_target:
            h = min(self._h, tau_target - self.tau)
            if h <= 0.0:
                break
            if h < 1e-14 * max(1.0, abs(self.tau)):
                raise RuntimeError(
                    f"fluid integrator step underflow at tau={self.tau!r}")
            stages[0] = f
            for i in range(1, 6):
                yi = y + h * np.tensordot(np.asarray(_DP_A[i]),
                                          stages[:i], axes=1)
                stages[i] = self._rhs(yi)
            y5 = y + h * np.tensordot(np.asarray(_DP_B5), stages[:6], axes=1)
            stages[6] = self._rhs(y5)
            y4 = (y + h * np.tensordot(np.asarray(_DP_B4), stages[:6], axes=1)
                  + h * _DP_B4_LAST * stages[6])
            scale = self._error_scale(y, y5)
            err = float(np.sqrt(np.mean(((y5 - y4) / scale) ** 2)))
            if err > 1.0:
                self.rejected_steps += 1
                self._h = h * max(_H_SHRINK, _H_SAFETY * err ** -0.2)
                continue
            # Accepted.
            self.accepted_steps += 1
            factor = _H_GROW if err == 0.0 else min(
                _H_GROW, max(_H_SHRINK, _H_SAFETY * err ** -0.2))
            self._h = h * factor
            tau0, tau1 = self.tau, self.tau + h
            if event is not None:
                x1 = np.maximum(y5[:k], 0.0)
                x1 = x1 / x1.sum()
                if event(x1) <= 0.0:
                    theta = self._locate_event(event, y, stages[0], y5,
                                               stages[6], h)
                    y_event = _hermite(y, stages[0], y5, stages[6], h, theta)
                    self._commit(tau0 + theta * h, y_event)
                    return True
            self._commit(tau1, y5)
            y = self._pack()
            f = stages[6] if not self.clt and k == y.size else self._rhs(y)
            # (after projection the cached FSAL stage is stale only at
            # fp level; recompute when the projection moved the state)
            if not np.array_equal(y, y5):
                f = self._rhs(y)
        return False

    def _locate_event(self, event, y0, f0, y1, f1, h: float) -> float:
        """Bisect the Hermite interpolant for the first ``event <= 0``."""
        k = self.ode.size

        def g(theta: float) -> float:
            x = _hermite(y0, f0, y1, f1, h, theta)[:k]
            x = np.maximum(x, 0.0)
            return event(x / x.sum())

        lo, hi = 0.0, 1.0
        if g(lo) <= 0.0:
            return 0.0
        for _ in range(_EVENT_BISECTIONS):
            mid = (lo + hi) / 2.0
            if g(mid) <= 0.0:
                hi = mid
            else:
                lo = mid
        return hi


def _hermite(y0: np.ndarray, f0: np.ndarray, y1: np.ndarray,
             f1: np.ndarray, h: float, theta: float) -> np.ndarray:
    """Cubic Hermite interpolation across one accepted step."""
    t = theta
    h00 = 2 * t ** 3 - 3 * t ** 2 + 1
    h10 = t ** 3 - 2 * t ** 2 + t
    h01 = -2 * t ** 3 + 3 * t ** 2
    h11 = t ** 3 - t ** 2
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


# -- Stopping-rule analogs -----------------------------------------------------


def run_fluid_until_silent(fl: FluidSimulation, max_steps: int,
                           check_every: int = 0) -> ConvergenceResult:
    """Fluid analog of :func:`repro.sim.convergence.run_until_silent`.

    Fires when the total reactive activity drops to ``1/n^2`` — the
    regime where less than one reactive ordered pair remains at
    population scale, the continuous reading of "no enabled encounter
    changes any state".  ``check_every`` is accepted for signature
    parity with the discrete drivers and ignored: event detection is
    continuous in the integrator.
    """
    del check_every  # continuous event detection needs no check grid
    n = fl.n
    threshold = 1.0 / (n * n)
    tau_cap = max_steps / n

    hit = fl.advance(tau_cap, event=lambda x: fl.ode.activity(x) - threshold)
    if hit:
        at = min(fl.interactions, max_steps)
        return ConvergenceResult(interactions=at, converged_at=at,
                                 output=fl.unanimous_output(), stopped=True)
    return ConvergenceResult(interactions=max_steps, converged_at=max_steps,
                             output=fl.unanimous_output(), stopped=False)


def run_fluid_until_quiescent(fl: FluidSimulation, patience: int,
                              max_steps: int) -> ConvergenceResult:
    """Fluid analog of :func:`repro.sim.convergence.run_until_quiescent`.

    The discrete rule waits for ``patience`` interactions without an
    output change; in the fluid limit output changes arrive at rate
    ``output_activity(x)`` per interaction, so the window is quiet
    exactly when that rate falls below ``1/patience``.  Like the
    discrete driver, the reported clock then overshoots the convergence
    point by the patience window itself.
    """
    if patience < 1:
        raise ValueError("patience must be positive")
    n = fl.n
    threshold = 1.0 / patience
    tau_cap = max_steps / n

    hit = fl.advance(tau_cap,
                     event=lambda x: fl.ode.output_activity(x) - threshold)
    if not hit:
        return ConvergenceResult(
            interactions=max_steps, converged_at=max_steps,
            output=fl.unanimous_output(), stopped=False)
    converged_at = min(fl.interactions, max_steps)
    total = converged_at + patience
    if total > max_steps:
        # The discrete driver would exhaust its budget before the
        # patience window elapses: not stopped.
        fl.advance(tau_cap)
        return ConvergenceResult(
            interactions=max_steps, converged_at=converged_at,
            output=fl.unanimous_output(), stopped=False)
    fl.advance(total / n)
    return ConvergenceResult(
        interactions=total, converged_at=converged_at,
        output=fl.unanimous_output(), stopped=True)


def run_fluid_until_correct_stable(
    fl: FluidSimulation,
    expected_output,
    *,
    max_steps: int,
    settle_factor: float = 2.0,
    floor: int = 0,
) -> ConvergenceResult:
    """Fluid analog of
    :func:`repro.sim.convergence.run_until_correct_stable`.

    Convergence is the wrong-output mass falling below half an agent
    (``0.5/n``); the run then settles to ``settle_factor * converged_at
    + floor`` interactions while watching for a regression above one
    agent of wrong mass (hysteresis, so the settle phase cannot chatter
    on the crossing itself), extending the target exactly like the
    discrete driver when outputs regress.
    """
    n = fl.n
    floor = floor or 4 * n
    tau_cap = max_steps / n
    symbols = fl.compiled.output_symbols
    expected_oid = next(
        (i for i, sym in enumerate(symbols) if sym == expected_output), None)
    out_ids = np.asarray(fl.compiled.output_ids, dtype=np.int64)

    if expected_oid is None:
        # The protocol can never emit the expected symbol; run to the
        # budget exactly like the discrete driver would.
        fl.advance(tau_cap)
        return ConvergenceResult(
            interactions=max_steps, converged_at=max_steps,
            output=fl.unanimous_output(), stopped=False)

    # Wrong mass lives in the live slice only: the dead component (if
    # any) is neither right nor wrong, and the event callback sees the
    # full augmented vector.
    wrong_mask = np.zeros(fl.ode.size, dtype=bool)
    wrong_mask[:fl.ode.k_live] = out_ids != expected_oid

    def wrong_mass(x: np.ndarray) -> float:
        return float(x[wrong_mask].sum())

    converge_threshold = 0.5 / n
    regress_threshold = 1.0 / n
    converged_at = max_steps
    for _ in range(100):
        hit = fl.advance(tau_cap,
                         event=lambda x: wrong_mass(x) - converge_threshold)
        if not hit:
            return ConvergenceResult(
                interactions=max_steps, converged_at=converged_at,
                output=fl.unanimous_output(), stopped=False)
        converged_at = min(fl.interactions, max_steps)
        target = settle_factor * converged_at + floor
        if target > max_steps:
            fl.advance(tau_cap)
            return ConvergenceResult(
                interactions=max_steps, converged_at=converged_at,
                output=fl.unanimous_output(), stopped=False)
        regressed = fl.advance(
            target / n, event=lambda x: regress_threshold - wrong_mass(x))
        if not regressed:
            return ConvergenceResult(
                interactions=int(math.ceil(target)),
                converged_at=converged_at,
                output=fl.unanimous_output(), stopped=True)
        # Wrong mass re-grew past one agent: keep hunting from here (the
        # last-wrong clock advances, extending the settle target).
    return ConvergenceResult(
        interactions=min(fl.interactions, max_steps),
        converged_at=converged_at,
        output=fl.unanimous_output(), stopped=False)

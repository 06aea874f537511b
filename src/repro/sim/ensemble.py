"""Vectorized ensemble engine: many Monte-Carlo trials advanced together.

The Sect. 6 quantitative claims (leader election in expected ``(n-1)^2``
interactions, the ``Theta(n^2 log n)`` coupon-collector bound, Theorem 8's
``O(n^2 log n)`` convergence) are verified empirically by sweeps of many
independent trials, and :mod:`repro.exp.runner` executed those trials one
at a time — each one paying full Python dispatch per interaction even on
the batched engine.  :class:`EnsembleMultisetSimulation` instead advances
``T`` independent trials of the *same* compiled protocol simultaneously:
the fleet is a ``(T, |states|)`` count matrix, and every numpy operation
amortizes its interpreter overhead across the whole trial axis.

Sampling law
------------

Each trial's interacting pair is an ordered sample of two agents without
replacement — the paper's uniform random pairing.  Conditioned on the
counts this gives the ordered state pair ``(p, q)`` probability ``c_p
(c_q - [p = q]) / (n (n-1))``, the **same** law as the reference
engines' state-level draw
(:class:`~repro.sim.multiset_engine.MultisetSimulation`).  Only the
randomness source differs (one shared ``numpy`` bit generator instead of
one ``random.Random`` per trial), so ensemble trajectories agree with
scalar trajectories *in distribution*, not bit for bit.  The
statistical-equivalence suite in ``tests/sim/test_ensemble.py`` pins
this down with KS tests on convergence-time distributions, and
``tests/sim/test_ensemble_oracle.py`` against the exact chain of
:class:`~repro.analysis.markov.MarkovAnalysis`; see
``docs/PERFORMANCE.md`` for the contract.

Jump advancement
----------------

Fault-free runs never draw no-op pairs.  Per :meth:`_jump` call the
engine gathers, for each of the ``A`` active trials, the weights ``w_pq
= c_p (c_q - [p = q])`` of the ``r`` compiled reactive ordered pairs (an
``(A, r)`` gather), so a round is reactive with probability ``pi =
sum(w) / (n (n-1))`` under the counts it starts from.  Rounds are i.i.d.
until the counts change, so the number of rounds up to and including the
next reactive encounter is exactly ``Geometric(pi)``; the trial advances
that many rounds (or its cap, whichever is smaller — the draw is
memoryless, so a capped trial needs nothing else) and applies one pair
drawn in proportion to ``w``.  This is the law
:class:`~repro.sim.skipping.SkippingSimulation` samples for a single
trial, vectorized across the fleet.

Faults and monitors
-------------------

A declarative :class:`EnsembleFaults` descriptor attaches per-trial
stochastic faults (crash-rate / corruption-rate / omission-rate /
crash-at — exactly the kinds :class:`repro.exp.spec.FaultAxis` can
express), sampled from a dedicated fault stream keyed by per-trial
``fault_seeds``; the engine's pair-draw stream is untouched, mirroring
the scalar engines' ``FaultPlan.rng`` split.  Omission only ever turns
an encounter into a no-op, so omission-rate runs jump too: a round is a
surviving reactive encounter with probability ``pi (1 - omega)``, and
the omitted encounters among the other rounds a jump consumes are a
binomial draw from the fault stream.  For the other kinds, while fault
events remain possible — or any trial holds crashed agents, which the
jump cannot represent — the engine steps round by round
(:meth:`EnsembleMultisetSimulation._faulted_chunk`): each round draws
an initiator index ``i ~ U[0, n)`` and a responder index uniform over
the other ``n - 1`` agents, and resolves both to state bins by a
vectorized cumulative-sum search over the count row.  The scalar-twin
replay contract extends to faults:
:meth:`EnsembleMultisetSimulation.scalar_twin` rebuilds trial ``t``
with the equivalent scalar ``FaultPlan`` seeded by ``fault_seeds[t]``,
so a faulted trial replays *deterministically* on
:class:`~repro.sim.multiset_engine.MultisetSimulation`; ensemble and
twin agree in distribution (KS-tested), not bit for bit.

Conservation and containment monitors attach vectorized: the structural
invariants are checked across the whole fleet at chunk boundaries, a
violating trial is recorded in
:attr:`EnsembleMultisetSimulation.violations` and deactivated rather
than raising (one broken trial cannot take down the other ``T - 1``),
and unmonitored ensembles skip the checks entirely — the zero
unmonitored overhead guarantee.

Per-trial seeds follow the :func:`repro.exp.runner.trial_seeds` law:
``seeds[t]`` is trial ``t``'s scalar engine seed, and
:meth:`EnsembleMultisetSimulation.scalar_twin` rebuilds the equivalent
:class:`~repro.sim.multiset_engine.MultisetSimulation` for single-trial
debugging — same protocol, same inputs, same seed, same verdict.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.protocol import PopulationProtocol, State, Symbol
from repro.sim.compiled import CompiledProtocol, compile_protocol
from repro.sim.convergence import ConvergenceResult
from repro.sim.faults import EnsembleFaults
from repro.util.multiset import FrozenMultiset
from repro.util.rng import spawn_seeds

__all__ = [
    "EnsembleFaults",
    "EnsembleMultisetSimulation",
    "run_ensemble_until_silent",
    "run_ensemble_until_quiescent",
    "run_ensemble_until_correct_stable",
]

#: Element budget of one jump's (A, r) reactive-weight gather (bounds
#: memory; larger fleets are jumped in slices of trials).
_ADVANCE_BUDGET = 1 << 22
#: Rounds per faulted chunk between fault-schedule and monitor checks.
_FAULTED_CHUNK = 256

#: Salt XORed into per-trial engine seeds to derive default fault seeds
#: (callers that care about seed provenance — the exp runner — pass
#: explicit fault_seeds=).
_FAULT_SEED_SALT = 0x9E3779B97F4A7C15

def _seeded_rng(seeds: "list[int]") -> np.random.Generator:
    """``default_rng(SeedSequence(seeds))``, without its per-seed loop.

    ``SeedSequence`` turns a list of ints into uint32 entropy words one
    int at a time: each int's little-endian 32-bit words, at least one
    per int.  For Python ints in ``[0, 2**64)`` those words are built
    here in a few vector ops and handed over as a uint32 array, which
    the sequence takes as its entropy unchanged, so the generator state
    is identical.  Any other seed list goes to ``SeedSequence`` as is (a
    negative or non-integer seed raises there, a wider one takes more
    words).
    """
    if (set(map(type, seeds)) == {int}
            and 0 <= min(seeds) and max(seeds) < 1 << 64):
        a = np.asarray(seeds, dtype=np.uint64)
        words = np.stack((a & np.uint64(0xFFFFFFFF), a >> np.uint64(32)),
                         axis=1)
        keep = words != 0
        keep[:, 0] = True
        return np.random.default_rng(
            np.random.SeedSequence(words[keep].astype(np.uint32)))
    return np.random.default_rng(np.random.SeedSequence(list(seeds)))


class EnsembleMultisetSimulation:
    """``T`` independent multiset trials advanced together.

    Every trial starts from the same inputs (one sweep point = one
    population size), holds its own ``(counts, interactions, last_change,
    last_output_change)`` row, and can be deactivated independently so
    finished trials stop consuming draws and numpy work.  Construct with
    either ``input_counts=`` or ``state_counts=`` (exactly one), plus:

    ``trials``
        Number of trials ``T``.
    ``seeds``
        Per-trial integer seeds (length ``T``).  These are the trials'
        *scalar identities* — :meth:`scalar_twin` replays trial ``t``
        through :class:`~repro.sim.multiset_engine.MultisetSimulation`
        with ``seeds[t]`` — and together they seed the ensemble's shared
        bit generator, so a given ``(inputs, seeds)`` pair reproduces the
        same ensemble trajectory exactly.
    ``seed``
        Convenience alternative: spawn ``trials`` seeds from one base
        seed via :func:`repro.util.rng.spawn_seeds`.
    ``track_outputs``
        Maintain the incremental ``(T, m)`` output histogram and the
        ``last_output_change`` clocks (default).  Silence-rule drivers
        never read either, so they pass ``False`` and the hot loops skip
        the whole output bookkeeping block; ``output_counts`` /
        ``unanimous_output`` then recompute from the count row on demand.
    ``faults``
        Optional :class:`EnsembleFaults` descriptor: every trial samples
        its own fault events from a dedicated per-trial fault stream.
    ``fault_seeds``
        Per-trial fault seeds (length ``T``); only meaningful with
        ``faults``.  Defaults to a salted derivation from ``seeds`` so a
        trial's identity stays a pure function of its engine seed.
    ``monitors``
        Runtime invariant monitors to attach (conservation/containment;
        see :meth:`attach_monitor`).
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        input_counts: "Mapping[Symbol, int] | None" = None,
        *,
        state_counts: "Mapping[State, int] | None" = None,
        trials: int,
        seeds: "Sequence[int] | None" = None,
        seed: "int | None" = None,
        compiled: "CompiledProtocol | None" = None,
        track_outputs: bool = True,
        faults: "EnsembleFaults | None" = None,
        fault_seeds: "Sequence[int] | None" = None,
        monitors=(),
    ):
        self.protocol = protocol
        if (input_counts is None) == (state_counts is None):
            raise ValueError("pass exactly one of input_counts= or state_counts=")
        if trials < 1:
            raise ValueError("an ensemble needs at least one trial")
        if seeds is not None and len(seeds) != trials:
            raise ValueError(
                f"seeds has {len(seeds)} entries for {trials} trials")
        if compiled is None:
            compiled = compile_protocol(protocol)
        if state_counts is not None:
            unknown = [s for s in state_counts if s not in compiled.index]
            if unknown:
                compiled = compile_protocol(protocol, extra_states=unknown)
        self._compiled = compiled
        k = compiled.size
        row = [0] * k
        if input_counts is not None:
            self._input_counts = dict(input_counts)
            self._state_counts = None
            for symbol, count in input_counts.items():
                if symbol not in protocol.input_alphabet:
                    raise ValueError(f"symbol {symbol!r} not in input alphabet")
                if count < 0:
                    raise ValueError("counts must be non-negative")
                row[compiled.initial_ids[symbol]] += count
        else:
            self._input_counts = None
            self._state_counts = dict(state_counts)
            for state, count in state_counts.items():
                if count < 0:
                    raise ValueError("counts must be non-negative")
                row[compiled.index[state]] += count
        self.n = sum(row)
        if self.n < 2:
            raise ValueError("a population needs at least two agents")
        self.trials = trials
        #: Per-trial scalar seeds (the replay identities).
        self.seeds: list[int] = (list(seeds) if seeds is not None
                                 else spawn_seeds(seed, trials))
        # One shared bit generator for the whole fleet, keyed by the full
        # seed list: the same (inputs, seeds) ensemble replays exactly,
        # while each trial keeps its scalar identity for scalar_twin().
        self.rng = _seeded_rng(self.seeds)

        #: ``(T, k)`` live state counts, one row per trial.
        self.counts = np.tile(np.asarray(row, dtype=np.int64), (trials, 1))
        #: Per-trial interaction clocks (trials drift apart freely).
        self.interactions = np.zeros(trials, dtype=np.int64)
        #: Per-trial last state-change interaction.
        self.last_change = np.zeros(trials, dtype=np.int64)
        #: Per-trial last output-histogram-change interaction.
        self.last_output_change = np.zeros(trials, dtype=np.int64)
        #: Stopping mask: inactive trials take no further work.
        self.active = np.ones(trials, dtype=bool)

        # Compiled tables as numpy arrays (flat [p*k + q] indexing, plus
        # (k, k) views for two-index gathers in the hot loops).
        self._tinit, self._tresp, self._out_ids = compiled.typed_arrays()
        self._tinit2d = self._tinit.reshape(k, k)
        self._tresp2d = self._tresp.reshape(k, k)
        self._react2d = compiled.reactive_mask.reshape(k, k)
        #: Flat ids of the reactive ordered pairs, their initiator and
        #: responder state ids, and 1 where the two coincide (the jump's
        #: weight gather ``c_p (c_q - [p = q])``).
        self._rflat = np.flatnonzero(compiled.reactive_mask)
        self._rp = self._rflat // k
        self._rq = self._rflat % k
        self._rself = (self._rp == self._rq).astype(np.int64)
        #: ``(k, m)`` state-to-output indicator: ``counts @ _onehot`` is
        #: the output histogram.
        self._onehot = np.zeros((k, len(compiled.output_symbols)),
                                dtype=np.int64)
        self._onehot[np.arange(k), self._out_ids] = 1
        #: ``(T, m)`` per-trial output histograms (incremental), or
        #: ``None`` when output tracking is off.
        self.output_hist = (self.counts @ self._onehot if track_outputs
                            else None)
        #: Off-diagonal reactive matrix (silence checks; the diagonal
        #: needs the count >= 2 qualifier, handled separately).
        self._react_off = self._react2d & ~np.eye(k, dtype=bool)
        self._react_diag = np.diag(self._react2d).copy()

        # -- Fault state.  The per-trial clocks below are allocated
        # unconditionally (they are T-sized and the drivers read them);
        # all per-round fault work is gated on _faults being attached.
        if faults is not None and not faults.active:
            faults = None
        if faults is None and fault_seeds is not None:
            raise ValueError("fault_seeds= is only meaningful with faults=")
        self._faults = faults
        #: Omission probability the jump thins its reactive rounds with
        #: (0.0 unless omission-rate faults are attached).
        self._omission = (faults.intensity if faults is not None
                          and faults.kind == "omission-rate" else 0.0)
        #: Per-trial crashed-agent counts.  Dead sensors still burn clock
        #: ticks (the paper's global clock) but hold no live mass: the
        #: count rows track live agents only.
        self.dead = np.zeros(trials, dtype=np.int64)
        #: Per-trial applied-fault tallies (the vectorized twins of the
        #: scalar FaultPlan's crashes/corruptions/omissions counters).
        self.crashes = np.zeros(trials, dtype=np.int64)
        self.corruptions = np.zeros(trials, dtype=np.int64)
        self.omissions = np.zeros(trials, dtype=np.int64)
        #: Per-trial fault seeds (the twins' FaultPlan seeds), or None.
        self.fault_seeds: "list[int] | None" = None
        if faults is not None:
            if fault_seeds is not None and len(fault_seeds) != trials:
                raise ValueError(
                    f"fault_seeds has {len(fault_seeds)} entries for "
                    f"{trials} trials")
            self.fault_seeds = (
                list(fault_seeds) if fault_seeds is not None
                else [s ^ _FAULT_SEED_SALT for s in self.seeds])
            # Fault randomness is a separate shared stream keyed by the
            # fault seeds, mirroring the scalar engines' FaultPlan.rng
            # split: attaching faults never perturbs the engine's
            # pair-draw stream for the same engine seeds.
            self._fault_rng = _seeded_rng(self.fault_seeds)
            if faults.kind == "crash-at":
                if faults.count > self.n - 2:
                    raise RuntimeError(
                        f"cannot crash {faults.count} of {self.n} live "
                        "agents: a crash must leave at least two live "
                        "agents")
                self._crashat_fired = np.zeros(trials, dtype=bool)
            if faults.kind == "corruption-rate":
                # reset_corruptor's law: a uniformly random input symbol
                # (sorted by repr) mapped through initial_state.
                symbols = sorted(protocol.input_alphabet, key=repr)
                self._corrupt_ids = np.asarray(
                    [compiled.initial_ids[sym] for sym in symbols],
                    dtype=np.int64)

        # -- Monitor state (see attach_monitor).
        #: Attached vectorized monitors (conservation/containment).
        self.monitors: list = []
        #: Reproduction tuple embedded into MonitorViolations.
        self.monitor_context: "dict | None" = None
        #: trial index -> MonitorViolation for trials a monitor retired.
        self.violations: dict = {}
        self._containment_masks: dict = {}
        for monitor in monitors:
            self.attach_monitor(monitor)

    # -- Introspection ---------------------------------------------------------

    @property
    def compiled(self) -> CompiledProtocol:
        """The compiled tables driving this ensemble."""
        return self._compiled

    @property
    def faults(self) -> "EnsembleFaults | None":
        """The attached fault descriptor, or None."""
        return self._faults

    def n_alive(self, t: int) -> int:
        """Trial ``t``'s live-agent count."""
        return int(self.n - self.dead[t])

    def trial_counts(self, t: int) -> dict:
        """Trial ``t``'s live state counts as a state -> count dict."""
        state_of = self._compiled.states
        row = self.counts[t]
        return {state_of[sid]: int(row[sid])
                for sid in np.flatnonzero(row)}

    def multiset(self, t: int) -> FrozenMultiset:
        """Snapshot of trial ``t``'s multiset configuration."""
        return FrozenMultiset(self.trial_counts(t))

    def _hist_row(self, t: int) -> np.ndarray:
        """Trial ``t``'s output histogram (on demand if tracking is off)."""
        if self.output_hist is not None:
            return self.output_hist[t]
        return self.counts[t] @ self._onehot

    def output_counts(self, t: int) -> dict:
        """Histogram of trial ``t``'s outputs."""
        symbols = self._compiled.output_symbols
        row = self._hist_row(t)
        return {symbols[oid]: int(row[oid]) for oid in np.flatnonzero(row)}

    def unanimous_output(self, t: int) -> "Symbol | None":
        """Trial ``t``'s common output if all agents agree, else None."""
        live = np.flatnonzero(self._hist_row(t))
        if live.size == 1:
            return self._compiled.output_symbols[int(live[0])]
        return None

    def scalar_twin(self, t: int):
        """Trial ``t`` rebuilt as a scalar ``MultisetSimulation``.

        Same protocol, same starting configuration, seeded with the
        trial's own ``seeds[t]`` — the single-trial debugging path.  With
        faults attached the twin carries the equivalent scalar
        :class:`~repro.sim.faults.FaultPlan` seeded with
        ``fault_seeds[t]``, so the twin (engine stream *and* fault
        stream) replays deterministically.  The twin's trajectory matches
        the ensemble's in distribution (and its verdict on convergent
        protocols exactly), not bit for bit.
        """
        from repro.sim.multiset_engine import MultisetSimulation

        plan = (self._faults.build_plan(self.fault_seeds[t])
                if self._faults is not None else None)
        if self._input_counts is not None:
            return MultisetSimulation(self.protocol, self._input_counts,
                                      seed=self.seeds[t], faults=plan)
        return MultisetSimulation(self.protocol,
                                  state_counts=self._state_counts,
                                  seed=self.seeds[t], faults=plan)

    def deactivate(self, trials_idx) -> None:
        """Mark trials as finished; they stop consuming draws and work."""
        self.active[np.asarray(trials_idx, dtype=np.int64)] = False

    def silent_mask(self, trials_idx) -> np.ndarray:
        """Boolean silence verdicts for the given trial rows.

        A trial is silent iff no enabled ordered pair changes any state:
        no reactive off-diagonal pair with both counts positive, and no
        reactive diagonal pair with count >= 2.  Vectorized over the
        rows, O(len(rows) * k^2).
        """
        rows = np.asarray(trials_idx, dtype=np.int64)
        live = self.counts[rows] > 0
        off = ((live @ self._react_off) & live).any(axis=1)
        diag = ((self.counts[rows] >= 2) & self._react_diag).any(axis=1)
        return ~(off | diag)

    # -- Monitors --------------------------------------------------------------

    def attach_monitor(self, monitor) -> None:
        """Attach a vectorized runtime invariant monitor.

        The ensemble supports the two structural invariants —
        conservation and containment — checked vectorized across the
        whole fleet at chunk boundaries (every jump or faulted chunk),
        not per interaction; a monitor's
        ``check_every`` is not consulted here.  A violating trial is
        recorded in :attr:`violations` and deactivated instead of
        raising, so one broken trial cannot take down the other
        ``T - 1``; callers inspect :attr:`violations` after the run.
        Unmonitored ensembles skip the checks entirely (the zero
        unmonitored overhead guarantee).
        """
        from repro.sim.monitors import (
            ConservationMonitor,
            StateContainmentMonitor,
        )

        if not isinstance(monitor, (ConservationMonitor,
                                    StateContainmentMonitor)):
            raise ValueError(
                f"monitor {type(monitor).__name__!r} is not supported on "
                "the ensemble engine; supported kinds: conservation, "
                "containment (use the reference engine for the others)")
        monitor.on_attach(self)
        if isinstance(monitor, StateContainmentMonitor):
            # Hash the allowed set once into an allowed-state-id mask.
            state_of = self._compiled.states
            allowed = monitor.allowed
            self._containment_masks[monitor] = np.asarray(
                [state_of[sid] in allowed
                 for sid in range(self._compiled.size)], dtype=bool)
        self.monitors.append(monitor)

    def _check_monitors(self) -> None:
        """Vectorized invariant sweep over the active trials."""
        idx = np.flatnonzero(self.active)
        if idx.size == 0:
            return
        for monitor in self.monitors:
            if monitor.name == "conservation":
                rows = self.counts[idx]
                ok = ((rows.sum(axis=1) + self.dead[idx] == self.n)
                      & (rows >= 0).all(axis=1))
                for t in idx[~ok]:
                    self._record_violation(
                        monitor, int(t),
                        expected=self.n,
                        live=int(self.counts[t].sum()),
                        dead=int(self.dead[t]))
            else:  # containment
                mask = self._containment_masks[monitor]
                if mask.all():
                    continue
                bad = (self.counts[idx][:, ~mask] > 0).any(axis=1)
                state_of = self._compiled.states
                for t in idx[bad]:
                    sid = int(np.flatnonzero(
                        (self.counts[t] > 0) & ~mask)[0])
                    self._record_violation(
                        monitor, int(t),
                        state=repr(state_of[sid]),
                        count=int(self.counts[t][sid]))

    def _record_violation(self, monitor, t: int, **detail) -> None:
        """Store a MonitorViolation for trial ``t`` and retire the trial."""
        from repro.sim.monitors import MonitorViolation

        self.violations[t] = MonitorViolation(
            monitor.name, int(self.interactions[t]), detail,
            context=self.monitor_context)
        self.active[t] = False

    # -- Advancement -----------------------------------------------------------

    def run(self, steps: int) -> None:
        """Advance every active trial by exactly ``steps`` interactions."""
        if steps <= 0:
            return
        self.run_to(self.interactions + np.where(self.active, steps, 0))

    def run_to(self, targets) -> None:
        """Advance each active trial to its absolute interaction target.

        While a crash-rate, corruption-rate or crash-at fault can still
        fire (or a trial holds crashed agents), every step boundary must
        be offered to the fault sampler, so the engine steps round by
        round (:meth:`_faulted_chunk`).  Fault-free and omission-rate runs
        jump each trial to its next reactive encounter (:meth:`_jump`).

        Attached monitors sweep the fleet after every round.
        """
        self._run_to(np.array(targets, dtype=np.int64))

    def _run_to(self, targets: np.ndarray, check_every: int = 0,
                origin: "np.ndarray | None" = None) -> None:
        """:meth:`run_to`'s loop, lowering ``targets`` in place.

        ``check_every`` and ``origin`` are the silence check's grid,
        the points ``origin + j * check_every``.  With them set, a trial
        is held at a grid point only where the silence check may stop
        it.  A jump whose transition at ``t`` leaves the trial's counts
        silent lowers its target to the first grid point at or after
        ``t``; a jump that leaves them reactive keeps the target, so the
        trial jumps straight on to its next reactive encounter (the
        geometric is memoryless, so the law does not change).  Faulted
        chunks apply several transitions per chunk, so they lower every
        stepped trial's target to its next grid point.
        """
        while True:
            idx = np.flatnonzero(self.active
                                 & (self.interactions < targets))
            if idx.size == 0:
                return
            if (self._faults is not None and not self._omission
                    and self._faults_pending()):
                if check_every:
                    o = origin[idx]
                    targets[idx] = np.minimum(
                        targets[idx],
                        o + ((self.interactions[idx] - o) // check_every
                             + 1) * check_every)
                rounds = min(int((targets[idx]
                                  - self.interactions[idx]).min()),
                             _FAULTED_CHUNK)
                self._faulted_chunk(idx, rounds)
            elif check_every:
                rows = self._jump(idx, targets[idx] - self.interactions[idx],
                                  silent_only=True)
                o = origin[rows]
                targets[rows] = np.minimum(
                    targets[rows],
                    o - ((o - self.interactions[rows]) // check_every)
                    * check_every)
            else:
                self._jump(idx, targets[idx] - self.interactions[idx])
            if self.monitors:
                self._check_monitors()

    def _faults_pending(self) -> bool:
        """True while any active trial still needs the fault-aware path.

        That is whenever a fault event can still fire, and also for as
        long as any active trial holds crashed agents: the jump's pair
        law divides by ``n (n - 1)`` with every agent live, so it cannot
        represent the dead sentinel bin.  Rate faults are always pending
        (omission-rate runs never ask: the jump thins its reactive
        rounds with the omission faults itself).
        """
        if self._faults.kind == "crash-at":
            act = self.active
            return bool((~self._crashat_fired & act).any()
                        or (self.dead[act] > 0).any())
        return True

    def _crash_uniform(self, c, cum, dead, rows, *, track, hist) -> None:
        """Crash one uniformly random live agent in each of ``rows``
        (chunk-local arrays, updated in place).

        The victim law matches the scalar engines: uniform over the live
        agents, i.e. state-weighted by the live counts.
        """
        u = self._fault_rng.integers(0, self.n - dead[rows])
        v = (u[:, None] >= cum[rows]).sum(axis=1)
        c[rows, v] -= 1
        dead[rows] += 1
        cum[rows] = np.cumsum(c[rows], axis=1)
        if track:
            hist[rows, self._out_ids[v]] -= 1

    def _faulted_chunk(self, idx: np.ndarray, rounds: int) -> None:
        """``rounds`` rounds with per-round fault sampling: every trial in
        ``idx`` advances exactly one interaction per round.

        The engine's only round-by-round mode.  Crash-rate,
        corruption-rate and crash-at runs take every round here while a
        fault can still fire (or a trial holds crashed agents);
        fault-free and omission-rate runs never come here, because the
        jump (:meth:`_jump`) samples them exactly.  Each round mirrors
        the scalar engines' faulted step order exactly: step-boundary
        faults first (crash / corruption), then the scheduled pair —
        drawn over all ``n`` sensors, dead ones included, so the global
        clock matches the scalar engines — with dead-party encounters
        inert.  Fault randomness comes from the dedicated fault stream,
        never the engine stream (the scalar ``FaultPlan.rng`` split).

        Dead agents are represented *positionally*: a trial's live
        agents occupy the first ``n - dead`` index slots of the cumsum
        search, so an agent index at or past the live mass resolves to
        the out-of-range bin ``k`` — the dead sentinel — without
        widening the count matrix or the transition tables.

        One deliberate deviation from the scalar engines: crashes stamp
        the ``last_change`` / ``last_output_change`` clocks (the scalar
        engines leave them untouched).  The ensemble drivers cache
        silence verdicts and quiescence windows on those clocks, and a
        crash can flip both verdicts, so the stamps keep the cached
        drivers sound; they only postpone a verdict, never fake one.
        """
        A = idx.size
        fd = self._faults
        frng = self._fault_rng
        n = self.n
        k = self._compiled.size
        ij = np.empty((rounds, 2, A), dtype=np.int64)
        u1 = self.rng.integers(0, n, size=(rounds, A))
        u2 = self.rng.integers(0, n - 1, size=(rounds, A))
        ij[:, 0] = u1
        ij[:, 1] = u2 + (u2 >= u1)
        c = np.ascontiguousarray(self.counts[idx])
        cum = np.cumsum(c, axis=1)
        dead = self.dead[idx].copy()
        base = self.interactions[idx]
        ar = np.arange(A)
        react2d = self._react2d
        tinit2d = self._tinit2d
        tresp2d = self._tresp2d
        # Change clocks as offsets from base (-1 = untouched this chunk).
        # A fault at the boundary after r rounds stamps r, the round-r
        # interaction stamps r + 1; assignments arrive in chronological
        # order, so the final value is automatically the latest change.
        lc_off = np.full(A, -1, dtype=np.int64)
        lo_off = np.full(A, -1, dtype=np.int64)
        track = self.output_hist is not None
        hist = np.ascontiguousarray(self.output_hist[idx]) if track else None
        out = self._out_ids
        if fd.kind == "crash-at":
            fired = self._crashat_fired[idx].copy()
        for r in range(rounds):
            # -- Step-boundary faults (the scalar pre_step hook). --
            if fd.kind == "crash-rate":
                fire = (frng.random(A) < fd.intensity) & (n - dead > 2)
                rows = np.flatnonzero(fire)
                if rows.size:
                    self._crash_uniform(c, cum, dead, rows,
                                        track=track, hist=hist)
                    self.crashes[idx[rows]] += 1
                    lc_off[rows] = r
                    lo_off[rows] = r
            elif fd.kind == "crash-at":
                rows = np.flatnonzero(~fired & (base + r >= fd.at_step))
                if rows.size:
                    for _ in range(fd.count):
                        self._crash_uniform(c, cum, dead, rows,
                                            track=track, hist=hist)
                    self.crashes[idx[rows]] += fd.count
                    fired[rows] = True
                    lc_off[rows] = r
                    lo_off[rows] = r
            elif fd.kind == "corruption-rate":
                rows = np.flatnonzero(frng.random(A) < fd.intensity)
                if rows.size:
                    u = frng.integers(0, n - dead[rows])
                    v = (u[:, None] >= cum[rows]).sum(axis=1)
                    repl = self._corrupt_ids[
                        frng.integers(0, self._corrupt_ids.size,
                                      size=rows.size)]
                    c[rows, v] -= 1
                    c[rows, repl] += 1
                    cum[rows] = np.cumsum(c[rows], axis=1)
                    self.corruptions[idx[rows]] += 1
                    lc_off[rows[v != repl]] = r
                    if track:
                        ov, orp = out[v], out[repl]
                        hist[rows, ov] -= 1
                        hist[rows, orp] += 1
                        lo_off[rows[ov != orp]] = r
            # -- The scheduled encounter. --
            b = (ij[r][:, :, None] >= cum[None]).sum(axis=2)
            p, q = b
            livepair = (p < k) & (q < k)
            ps = np.where(livepair, p, 0)
            qs = np.where(livepair, q, 0)
            re = react2d[ps, qs] & livepair
            if not re.any():
                continue
            # Dead-party encounters scatter as clamped identities, so
            # the unconditional arithmetic stays exact.
            p2 = np.where(re, tinit2d[ps, qs], ps)
            q2 = np.where(re, tresp2d[ps, qs], qs)
            c[ar, ps] -= 1
            c[ar, qs] -= 1
            c[ar, p2] += 1
            c[ar, q2] += 1
            np.cumsum(c, axis=1, out=cum)
            lc_off[re] = r + 1
            if track:
                op, oq = out[ps], out[qs]
                op2, oq2 = out[p2], out[q2]
                hist[ar, op] -= 1
                hist[ar, oq] -= 1
                hist[ar, op2] += 1
                hist[ar, oq2] += 1
                changed = re & ~(((op == op2) & (oq == oq2))
                                 | ((op == oq2) & (oq == op2)))
                lo_off[changed] = r + 1
        self.counts[idx] = c
        self.dead[idx] = dead
        self.interactions[idx] = base + rounds
        if fd.kind == "crash-at":
            self._crashat_fired[idx] = fired
        st = lc_off >= 0
        self.last_change[idx[st]] = base[st] + lc_off[st]
        if track:
            self.output_hist[idx] = hist
            so = lo_off >= 0
            self.last_output_change[idx[so]] = base[so] + lo_off[so]

    def _weights(self, c: np.ndarray) -> np.ndarray:
        """Reactive weights ``w_pq = c_p (c_q - [p = q])`` of count rows
        ``c``, one column per compiled reactive pair.  A row's weights
        are all zero exactly when its counts are silent
        (:meth:`silent_mask`'s verdict, in O(r) instead of O(k^2))."""
        return c[:, self._rp] * (c[:, self._rq] - self._rself)

    def _jump(self, idx: np.ndarray, caps: np.ndarray,
              silent_only: bool = False) -> np.ndarray:
        """One jump: each trial in ``idx`` advances to its next reactive
        encounter, or by its cap if that comes first, and applies that
        one transition.  Returns the trial ids that applied one; with
        ``silent_only``, only those whose counts the transition left
        silent (zero reactive weight).

        Under the counts a trial starts from, every round is an i.i.d.
        ordered pair draw, reactive with probability ``pi = sum(w) /
        (n (n-1))`` where ``w_pq = c_p (c_q - [p = q])`` runs over the
        reactive pairs.  With omission probability ``omega`` a round is
        a surviving reactive encounter with probability ``kappa = pi (1 -
        omega)``, so the round of the first one is ``G ~
        Geometric(kappa)``.  A trial with ``G`` within its cap advances
        ``G`` rounds and applies a pair drawn in proportion to ``w``;
        otherwise it advances its cap and, the geometric being
        memoryless, the next jump simply draws afresh.  A trial with
        ``kappa = 0`` advances its full cap.

        Every other round the jump consumes is a live encounter that is
        not a surviving reactive one, which happens with probability ``1
        - kappa``; it is an omission with probability ``omega / (1 -
        kappa)`` given that, so the omissions among them are one
        binomial draw from the fault stream (the scalar ``OmissionRate``
        counter).  The hit round itself is kept by definition.
        """
        per = max(1, _ADVANCE_BUDGET // max(1, self._rflat.size))
        if idx.size > per:
            return np.concatenate([
                self._jump(idx[s:s + per], caps[s:s + per],
                           silent_only=silent_only)
                for s in range(0, idx.size, per)])
        n = self.n
        w = self._weights(self.counts[idx])
        # A true division, so a fully reactive row gets exactly 1.0.
        kappa = w.sum(axis=1) / (n * (n - 1))
        if self._omission:
            kappa *= 1.0 - self._omission
        live = kappa > 0
        g = self.rng.geometric(np.where(live, kappa, 1.0))
        hit = live & (g <= caps)
        steps = np.where(hit, g, caps)
        self.interactions[idx] += steps
        if self._omission:
            self.omissions[idx] += self._fault_rng.binomial(
                steps - hit, np.minimum(self._omission / (1.0 - kappa), 1.0))

        sel = np.flatnonzero(hit)
        rows = idx[sel]
        if not sel.size:
            return rows
        # The pair: one uniform per hit trial, searched in the row's
        # cumulative reactive weights (zero-weight pairs are never hit).
        cw = np.cumsum(w[sel], axis=1)
        u = self.rng.integers(0, cw[:, -1])
        j = (cw <= u[:, None]).sum(axis=1)
        pp = self._rp[j]
        qq = self._rq[j]
        f = self._rflat[j]
        p2 = self._tinit[f]
        q2 = self._tresp[f]
        # Rows are distinct within each scatter, so plain fancy
        # indexing is exact even when pp == qq or p2 == q2.
        counts = self.counts
        counts[rows, pp] -= 1
        counts[rows, qq] -= 1
        counts[rows, p2] += 1
        counts[rows, q2] += 1
        self.last_change[rows] = self.interactions[rows]
        if self.output_hist is not None:
            out = self._out_ids
            op, oq = out[pp], out[qq]
            op2, oq2 = out[p2], out[q2]
            hist = self.output_hist
            hist[rows, op] -= 1
            hist[rows, oq] -= 1
            hist[rows, op2] += 1
            hist[rows, oq2] += 1
            same = (((op == op2) & (oq == oq2))
                    | ((op == oq2) & (oq == op2)))
            changed = rows[~same]
            self.last_output_change[changed] = self.interactions[changed]
        if silent_only:
            return rows[~self._weights(counts[rows]).any(axis=1)]
        return rows

    def __repr__(self) -> str:
        return (f"<EnsembleMultisetSimulation trials={self.trials} "
                f"n={self.n} active={int(self.active.sum())} "
                f"of {type(self.protocol).__name__}>")


# -- Vectorized convergence observers ------------------------------------------


@dataclass
class _Driver:
    """Shared scaffolding for the ensemble stopping rules: per-trial
    checkpoint loop with stopping masks, one ConvergenceResult per trial."""

    ens: EnsembleMultisetSimulation
    max_steps: int
    check_every: int
    #: Per-trial clock reported as ``converged_at`` (``last_change`` or
    #: ``last_output_change``; read once the run ends).
    marker: np.ndarray
    #: Run every trial towards the budget, held at a grid point only
    #: where the check can stop it (sound only for the silent rule:
    #: silence is a function of the counts alone, and absorbing).
    skip_quiet: bool = False

    def run(self, check) -> "list[ConvergenceResult]":
        """Drive the ensemble until every trial stopped or exhausted.

        ``check(rows) -> bool mask`` is the vectorized stopping rule; it
        is evaluated on the same per-trial interaction grid as the scalar
        drivers (every ``check_every`` interactions from the trial's
        starting clock, once before the first step, and at the budget),
        so stopping-time distributions are comparable.  Without
        ``skip_quiet`` every trial runs to its next grid point between
        checks.  With it, every trial runs towards the budget and is held
        only where the check can stop it: a jumping trial at the first
        grid point after the transition that made its counts silent, a
        trial in faulted chunks at every grid point; the skipped checks
        would all have answered "not silent".  The results are built
        once at the end, every trial's unanimous output read in one pass
        over the output histograms.
        """
        ens = self.ens
        stopped = np.zeros(ens.trials, dtype=bool)
        origin = ens.interactions.copy()
        while True:
            idx = np.flatnonzero(ens.active)
            if idx.size == 0:
                break
            met = idx[check(idx)]
            stopped[met] = True
            ens.deactivate(met)
            idx = np.flatnonzero(ens.active)
            if idx.size == 0:
                break
            exhausted = idx[ens.interactions[idx] >= self.max_steps]
            ens.deactivate(exhausted)  # budget hit: stopped stays False
            idx = np.flatnonzero(ens.active)
            if idx.size == 0:
                break
            targets = ens.interactions.copy()
            if self.skip_quiet:
                targets[idx] = self.max_steps
                ens._run_to(targets, self.check_every, origin)
            else:
                targets[idx] = np.minimum(
                    ens.interactions[idx] + self.check_every, self.max_steps)
                ens._run_to(targets)
        hist = (ens.output_hist if ens.output_hist is not None
                else ens.counts @ ens._onehot)
        live = hist > 0
        unanimous = (live.sum(axis=1) == 1).tolist()
        symbols = ens.compiled.output_symbols
        return [
            ConvergenceResult(
                interactions=interactions,
                converged_at=marker,
                output=symbols[oid] if one else None,
                stopped=done,
            )
            for interactions, marker, oid, one, done in zip(
                ens.interactions.tolist(), self.marker.tolist(),
                live.argmax(axis=1).tolist(), unanimous, stopped.tolist())
        ]


def run_ensemble_until_silent(
    ens: EnsembleMultisetSimulation,
    max_steps: int,
    check_every: int = 0,
) -> "list[ConvergenceResult]":
    """Vectorized twin of :func:`repro.sim.convergence.run_until_silent`.

    A trial stops at the first point of the scalar check grid (every
    ``check_every`` interactions, default ``n``, the scalar default, and
    the budget) at which its counts are silent.  Silence is absorbing
    and the verdict can change only when the counts do, so a jumping
    trial is not stopped at grid points while its counts are reactive:
    it jumps from transition to transition, and only the transition
    that leaves it silent holds it at the next grid point, where the
    check stops it.  That is one jump per
    transition plus one to reach the grid point.  A check whose
    ``last_change`` has not advanced reuses the previous verdict
    instead of the O(k^2) scan (the same optimization the scalar engine
    applies).  ``converged_at`` is the trial's last state change, the
    multiset engines' convergence marker.
    """
    check_every = check_every or max(ens.n, 1)
    checked_at = np.full(ens.trials, -1, dtype=np.int64)

    def silent(idx: np.ndarray) -> np.ndarray:
        need = checked_at[idx] != ens.last_change[idx]
        verdict = np.zeros(idx.size, dtype=bool)
        rows = idx[need]
        if rows.size:
            verdict[need] = ens.silent_mask(rows)
            checked_at[rows] = ens.last_change[rows]
        return verdict

    return _Driver(ens, max_steps, check_every, ens.last_change,
                   skip_quiet=True).run(silent)


def run_ensemble_until_quiescent(
    ens: EnsembleMultisetSimulation,
    patience: int,
    max_steps: int,
) -> "list[ConvergenceResult]":
    """Vectorized twin of :func:`repro.sim.convergence.run_until_quiescent`.

    On the count representation the observable is the per-trial *output
    histogram*: a trial is quiescent when its histogram has not changed
    for ``patience`` interactions.  (The scalar agent engine watches the
    per-agent output assignment; the histogram is the same signal modulo
    permutations, which uniform pairing makes statistically irrelevant.)
    """
    if ens.output_hist is None:
        raise ValueError(
            "quiescence watches outputs; build the ensemble with "
            "track_outputs=True")

    def quiet(idx: np.ndarray) -> np.ndarray:
        return (ens.interactions[idx] - ens.last_output_change[idx]
                >= patience)

    return _Driver(ens, max_steps, max(1, patience // 8),
                   ens.last_output_change).run(quiet)


def run_ensemble_until_correct_stable(
    ens: EnsembleMultisetSimulation,
    expected_output,
    *,
    max_steps: int,
    settle_factor: float = 2.0,
    floor: int = 0,
) -> "list[ConvergenceResult]":
    """Vectorized twin of
    :func:`repro.sim.convergence.run_until_correct_stable`.

    A trial is done when its whole output histogram sits on the expected
    symbol and its clock has passed ``settle_factor`` times its last
    output change (plus ``floor``) — the batched known-truth observer.
    """
    if ens.output_hist is None:
        raise ValueError(
            "known-truth stability watches outputs; build the ensemble "
            "with track_outputs=True")
    floor = floor or 4 * ens.n
    symbols = ens.compiled.output_symbols
    expected_oid = next(
        (i for i, sym in enumerate(symbols) if sym == expected_output), None)

    def done(idx: np.ndarray) -> np.ndarray:
        if expected_oid is None:
            # The protocol can never emit the expected symbol; run to the
            # budget exactly like the scalar driver would.
            return np.zeros(idx.size, dtype=bool)
        # Live mass, not n: the survivors carry the computation when
        # crash faults are attached (dead is all-zero otherwise).
        all_correct = (ens.output_hist[idx, expected_oid]
                       == ens.n - ens.dead[idx])
        settled = (ens.interactions[idx]
                   >= settle_factor * ens.last_output_change[idx] + floor)
        return all_correct & settled

    return _Driver(ens, max_steps, max(1, ens.n // 2),
                   ens.last_output_change).run(done)

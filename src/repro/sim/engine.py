"""The agent-array simulation engine.

:class:`Simulation` executes a population protocol on an explicit array of
agent states under a pluggable scheduler (uniform random pairing by
default, i.e. the conjugating-automata model of Sect. 6).  It counts
interactions, tracks when the output assignment last changed, and supports
the stopping rules in :mod:`repro.sim.convergence`.

Every entry point — :meth:`~Simulation.step`, :meth:`~Simulation.run`,
:meth:`~Simulation.run_until` — steps through one loop,
:meth:`Simulation._advance`, which hoists its attribute lookups once per
call and evaluates a ``run_until`` condition between its chunks.  Under
the default uniform scheduler and a plain ``random.Random`` it draws
each pair inline with ``getrandbits``, replaying CPython's ``randrange``
rejection sampling, so the RNG stream (and every trajectory) is the one
``randrange`` would have produced.

For fault-free runs under the default uniform scheduler, the batched twin
:class:`~repro.sim.batched.BatchedSimulation` executes the same trajectory
(bit-identical for the same seed) several times faster; see
``docs/PERFORMANCE.md`` for the engine selection guide.
"""

from __future__ import annotations

import random
from collections import _count_elements
from collections.abc import Mapping, Sequence

from repro.core.configuration import AgentConfiguration
from repro.core.population import Population
from repro.core.protocol import PopulationProtocol, State, Symbol
from repro.sim.schedulers import Scheduler, UniformEdgeScheduler, UniformPairScheduler
from repro.util.multiset import FrozenMultiset
from repro.util.rng import resolve_rng


class SimulationHalted(RuntimeError):
    """The simulation cannot take another step.

    Raised when the model's preconditions for an encounter no longer hold
    — e.g. fewer than two live agents remain, so no pair can interact.
    Distinct from a :class:`~repro.sim.monitors.MonitorViolation`: halting
    is the engine refusing to proceed, not an invariant breaking silently.
    """


class Simulation:
    """A running population-protocol execution.

    Parameters
    ----------
    protocol:
        The population protocol to execute.
    inputs:
        The input assignment: one input symbol per agent.  Alternatively
        pass ``states`` to start from explicit agent states.
    states:
        Explicit initial states (mutually exclusive with ``inputs``).
    population:
        Interaction graph; defaults to the complete graph (the standard
        population).
    scheduler:
        Encounter scheduler; defaults to uniform random pairing.
    seed:
        Seed or ``random.Random`` driving the scheduler.
    faults:
        Optional :class:`~repro.sim.faults.FaultPlan` injecting crash,
        corruption, and omission faults.  Fault randomness comes from the
        plan's own RNG, so with no plan attached (and even with one, on
        this engine) the scheduler's RNG stream is identical to a
        fault-free run of the same seed.
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        inputs: "Sequence[Symbol] | None" = None,
        *,
        states: "Sequence[State] | None" = None,
        population: "Population | None" = None,
        scheduler: "Scheduler | None" = None,
        seed: "int | None" = None,
        faults=None,
        monitors=(),
    ):
        self.protocol = protocol
        if (inputs is None) == (states is None):
            raise ValueError("pass exactly one of inputs= or states=")
        if inputs is not None:
            for symbol in inputs:
                if symbol not in protocol.input_alphabet:
                    raise ValueError(f"input symbol {symbol!r} not in alphabet")
            self.states: list[State] = [
                protocol.initial_state(symbol) for symbol in inputs]
        else:
            self.states = list(states)
        n = len(self.states)
        if n < 2:
            raise ValueError("a population needs at least two agents")
        if population is not None and population.n != n:
            raise ValueError(
                f"population has {population.n} agents but {n} states given")
        self.population = population
        if scheduler is None:
            if population is None or population.is_complete:
                scheduler = UniformPairScheduler(n)
            else:
                scheduler = UniformEdgeScheduler(population)
        self.scheduler = scheduler
        self.rng = resolve_rng(seed)
        self.interactions = 0
        self._outputs: list[Symbol] = [
            protocol.output(state) for state in self.states]
        #: Interaction count after which the output assignment last changed.
        self.last_output_change = 0
        #: Interaction count of the last effective (state-changing)
        #: transition; convergence drivers use it to skip re-checks.
        self.last_change = 0
        self._delta_cache: dict[tuple[State, State], tuple[State, State]] = {}
        #: Agents that have crashed (state frozen, encounters inert).
        self.crashed: set[int] = set()
        self._faults = faults
        if faults is not None:
            faults.bind(self)
        #: Attached runtime monitors (see :mod:`repro.sim.monitors`).
        self.monitors: list = []
        #: Reproduction tuple embedded into MonitorViolations; harnesses
        #: set this to a declarative description of the trial.
        self.monitor_context: "dict | None" = None
        for monitor in monitors:
            self.attach_monitor(monitor)

    def attach_monitor(self, monitor) -> None:
        """Attach a runtime monitor to this simulation instance.

        Swaps ``step`` for a monitored wrapper on this instance only, so
        simulations with no monitors keep the original hot path untouched.
        """
        monitor.on_attach(self)
        self.monitors.append(monitor)
        self.step = self._monitored_step

    def _monitored_step(self) -> bool:
        changed = type(self).step(self)
        for monitor in self.monitors:
            monitor.after_step(self, changed)
        return changed

    # -- Introspection ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def n_alive(self) -> int:
        """Number of agents that have not crashed."""
        return len(self.states) - len(self.crashed)

    @property
    def faults(self):
        """The attached :class:`~repro.sim.faults.FaultPlan`, or None."""
        return self._faults

    def alive_agents(self) -> list[int]:
        """Ids of the live agents, in ascending order."""
        if not self.crashed:
            return list(range(len(self.states)))
        return [a for a in range(len(self.states)) if a not in self.crashed]

    def outputs(self) -> tuple[Symbol, ...]:
        """Current output assignment."""
        return tuple(self._outputs)

    def configuration(self) -> AgentConfiguration:
        """Snapshot of the current agent-indexed configuration."""
        return AgentConfiguration(self.states)

    def multiset(self) -> FrozenMultiset:
        """Snapshot of the current multiset configuration."""
        return FrozenMultiset(self.states)

    def state_counts(self) -> dict[State, int]:
        """A fresh dict of state -> number of agents in it (crashed agents
        count with their frozen state, as in :meth:`multiset`)."""
        counts: dict[State, int] = {}
        _count_elements(counts, self.states)
        return counts

    def output_counts(self) -> dict[Symbol, int]:
        """Histogram of current agent outputs."""
        counts: dict[Symbol, int] = {}
        for out in self._outputs:
            counts[out] = counts.get(out, 0) + 1
        return counts

    def unanimous_output(self) -> "Symbol | None":
        """The common output if all agents agree, else ``None``."""
        first = self._outputs[0]
        if all(out == first for out in self._outputs[1:]):
            return first
        return None

    def surviving_outputs(self) -> list[Symbol]:
        """Outputs of the live agents (= all outputs when nothing crashed)."""
        if not self.crashed:
            return list(self._outputs)
        return [self._outputs[a] for a in range(len(self.states))
                if a not in self.crashed]

    def unanimous_surviving_output(self) -> "Symbol | None":
        """The common output of the *live* agents if they agree, else None.

        The paper reads the verdict off the surviving population: a dead
        sensor's frozen output does not count against unanimity.
        """
        outs = self.surviving_outputs()
        first = outs[0]
        if all(out == first for out in outs[1:]):
            return first
        return None

    # -- Fault primitives --------------------------------------------------------

    def crash(self, agent: int) -> None:
        """Silently stop ``agent``: freeze its state and make every later
        encounter involving it inert.

        Invariant: at least two agents must remain alive after the crash
        (a population protocol needs a pair to interact), so crashing is
        refused when only two live agents are left.  Crashing an
        already-crashed agent is a no-op.
        """
        if not 0 <= agent < len(self.states):
            raise ValueError(f"no such agent: {agent}")
        if agent in self.crashed:
            return
        if self.n_alive <= 2:
            raise RuntimeError(
                "cannot crash: a crash must leave at least two live agents")
        self.crashed.add(agent)

    def crash_random(self, count: int = 1, *, rng=None) -> list[int]:
        """Crash ``count`` uniformly chosen live agents; all-or-nothing.

        The count is validated up front against the >= 2-survivors
        invariant: an impossible request raises ``RuntimeError`` before
        any agent is crashed.  ``rng`` defaults to the engine RNG; fault
        plans pass their own.
        """
        if count < 0:
            raise ValueError("crash count must be non-negative")
        if count > self.n_alive - 2:
            raise RuntimeError(
                f"cannot crash {count} of {self.n_alive} live agents: "
                "a crash must leave at least two live agents")
        rng = self.rng if rng is None else rng
        alive = self.alive_agents()
        victims = []
        for _ in range(count):
            victim = alive.pop(rng.randrange(len(alive)))
            self.crash(victim)
            victims.append(victim)
        return victims

    def crash_matching(self, match, count: int = 1, *, rng=None) -> int:
        """Crash up to ``count`` random live agents whose state satisfies
        ``match``; returns how many were crashed.

        Best-effort (used by adversarial fault models): stops early when
        no live agent matches or only two survivors remain.
        """
        rng = self.rng if rng is None else rng
        candidates = [a for a in self.alive_agents()
                      if match(self.states[a])]
        applied = 0
        while candidates and applied < count and self.n_alive > 2:
            victim = candidates.pop(rng.randrange(len(candidates)))
            self.crash(victim)
            applied += 1
        return applied

    def set_state(self, agent: int, state: State) -> bool:
        """Overwrite one agent's state, keeping output bookkeeping intact.

        Returns True iff the state changed.  Used by corruption faults and
        by experiment code that perturbs a running simulation.
        """
        if self.states[agent] == state:
            return False
        self.states[agent] = state
        self.last_change = self.interactions
        out = self.protocol.output(state)
        if out != self._outputs[agent]:
            self._outputs[agent] = out
            self.last_output_change = self.interactions
        return True

    def corrupt_random(self, corruptor, *, rng=None) -> bool:
        """Rewrite a uniformly random live agent's state via
        ``corruptor(state, protocol, rng)``; returns True iff it changed."""
        rng = self.rng if rng is None else rng
        alive = self.alive_agents()
        agent = alive[rng.randrange(len(alive))]
        return self.set_state(
            agent, corruptor(self.states[agent], self.protocol, rng))

    # -- Checkpointing -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Capture the full simulation state (agents, clock, RNG, scheduler).

        Restoring a snapshot makes subsequent runs bit-identical to what
        they would have been at capture time — useful for branching
        experiments ("what if the computation continued twice from here?")
        and for long-run checkpointing.
        """
        import copy

        snap = {
            "states": list(self.states),
            "outputs": list(self._outputs),
            "interactions": self.interactions,
            "last_output_change": self.last_output_change,
            "last_change": self.last_change,
            "rng_state": self.rng.getstate(),
            "scheduler": copy.deepcopy(self.scheduler),
            "crashed": set(self.crashed),
        }
        if self._faults is not None:
            # Seed the memo so the plan copy keeps pointing at *this* sim
            # instead of dragging a deep copy of it into the snapshot.
            snap["faults"] = copy.deepcopy(self._faults, {id(self): self})
        return snap

    def restore(self, snap: dict) -> None:
        """Return to a previously captured :meth:`snapshot`."""
        import copy

        self.states = list(snap["states"])
        self._outputs = list(snap["outputs"])
        self.interactions = snap["interactions"]
        self.last_output_change = snap["last_output_change"]
        self.last_change = snap.get("last_change", 0)
        self.rng.setstate(snap["rng_state"])
        self.scheduler = copy.deepcopy(snap["scheduler"])
        self.crashed = set(snap.get("crashed", ()))
        if "faults" in snap:
            # Re-copy so the same snapshot can be restored repeatedly.
            self._faults = copy.deepcopy(snap["faults"], {id(self): self})

    # -- Stepping --------------------------------------------------------------

    def step(self) -> bool:
        """Run one interaction.  Returns True iff any state changed.

        With a fault plan attached, step-boundary faults (crashes and
        corruptions) are applied first; the scheduled encounter is then
        inert if either party has crashed, and may be dropped by omission
        faults.  Inert and omitted encounters still advance the
        interaction counter (global time passes).  This is
        :meth:`_advance` with ``k = 1``: every stepping entry point runs
        the same loop.
        """
        return self._advance(1)

    def _advance(self, k: int, condition=None, check_every: int = 0) -> bool:
        """Run ``k`` interactions, or until ``condition`` holds.

        Without a ``condition``, returns True iff the last interaction
        changed a state.  With one, the ``k`` interactions run in chunks
        of ``check_every``; after each chunk ``self.interactions`` is
        written and ``condition(self)`` evaluated, and the call returns
        True as soon as it holds, False once the budget is spent.  The
        condition may read the simulation and change agents in place
        (``set_state``, ``crash``), but not step it or rebind its state
        (``restore``).

        The engine's one stepping loop.  Attribute lookups are hoisted
        into locals once per call, so a whole ``run_until`` pays them
        once, and the interaction counter lives in a local that is
        written back on exit (also when the protocol, the scheduler or
        the condition raises).  Fault models read ``self.interactions``,
        so with a plan attached it is written before ``pre_step`` and
        again before ``drop_encounter``.

        Under the exact :class:`UniformPairScheduler` and an exact
        ``random.Random``, the ``randrange(n), randrange(n - 1)`` pair is
        drawn inline as CPython's ``_randbelow_with_getrandbits`` draws
        it: ``getrandbits(bit_length)`` until the value is in range.  The
        generator then ends in the same state as through ``randrange``.
        Any other scheduler is asked for ``next_encounter``, and so is
        the uniform one under a ``random.Random`` subclass, whose
        ``randrange`` may be built on an overridden ``random()``.
        """
        states = self.states
        outputs = self._outputs
        crashed = self.crashed
        plan = self._faults
        cache = self._delta_cache
        delta = self.protocol.delta
        output = self.protocol.output
        scheduler = self.scheduler
        rng = self.rng
        inline = (type(scheduler) is UniformPairScheduler
                  and type(rng) is random.Random)
        if inline:
            n = scheduler.n
            m = n - 1
            bits_n = n.bit_length()
            bits_m = m.bit_length()
            getrandbits = rng.getrandbits
        else:
            next_encounter = scheduler.next_encounter
        t = self.interactions
        changed = False
        if condition is None:
            check_every = k
        remaining = k
        try:
            while remaining > 0:
                chunk = check_every if check_every < remaining else remaining
                remaining -= chunk
                for _ in range(chunk):
                    changed = False
                    if plan is not None:
                        self.interactions = t
                        plan.pre_step(self)
                    if inline:
                        i = getrandbits(bits_n)
                        while i >= n:
                            i = getrandbits(bits_n)
                        j = getrandbits(bits_m)
                        while j >= m:
                            j = getrandbits(bits_m)
                        if j >= i:
                            j += 1
                    else:
                        i, j = next_encounter(states, rng)
                    t += 1
                    if crashed and (i in crashed or j in crashed):
                        continue
                    if plan is not None:
                        self.interactions = t
                        if plan.drop_encounter(self):
                            continue
                    p = states[i]
                    q = states[j]
                    result = cache.get((p, q))
                    if result is None:
                        result = cache[p, q] = delta(p, q)
                    p2, q2 = result
                    if p2 == p and q2 == q:
                        continue
                    states[i] = p2
                    states[j] = q2
                    self.last_change = t
                    changed = True
                    out_p = output(p2)
                    out_q = output(q2)
                    if out_p != outputs[i]:
                        outputs[i] = out_p
                        self.last_output_change = t
                    if out_q != outputs[j]:
                        outputs[j] = out_q
                        self.last_output_change = t
                if condition is not None:
                    self.interactions = t
                    if condition(self):
                        return True
        finally:
            self.interactions = t
        return changed if condition is None else False

    def run(self, steps: int) -> None:
        """Run a fixed number of interactions: one :meth:`_advance` call,
        or, with monitors attached, one monitored :meth:`step` each."""
        if self.monitors:
            step = self.step
            for _ in range(steps):
                step()
        else:
            self._advance(steps)

    def run_until(self, condition, max_steps: int, check_every: int = 1) -> bool:
        """Run until ``condition(self)`` holds or ``max_steps`` pass.

        Returns True iff the condition was met.  ``condition`` is evaluated
        every ``check_every`` interactions (and before the first step).
        Without monitors the whole budget is one :meth:`_advance` call,
        which evaluates the condition between its chunks; with monitors
        attached each chunk is one :meth:`run`, that many calls of the
        monitored :meth:`step`.
        """
        if check_every < 1:
            raise ValueError("check_every must be positive")
        if condition(self):
            return True
        if not self.monitors:
            return self._advance(max_steps, condition, check_every)
        remaining = max_steps
        while remaining > 0:
            chunk = min(check_every, remaining)
            self.run(chunk)
            remaining -= chunk
            if condition(self):
                return True
        return False


def simulate_counts(
    protocol: PopulationProtocol,
    input_counts: Mapping[Symbol, int],
    *,
    seed: "int | None" = None,
    scheduler: "Scheduler | None" = None,
    faults=None,
    monitors=(),
) -> Simulation:
    """Build a :class:`Simulation` from symbol counts (symbol-count inputs).

    Agents are laid out symbol-by-symbol; under uniform random pairing the
    layout is irrelevant.  The alphabet check and ``initial_state`` run
    once per symbol with a non-zero count, not once per agent, so the
    result equals ``Simulation(protocol, inputs)`` on the laid-out inputs.
    """
    states: list[State] = []
    for symbol, count in sorted(input_counts.items(), key=lambda kv: repr(kv[0])):
        if count < 0:
            raise ValueError("counts must be non-negative")
        if not count:
            continue
        if symbol not in protocol.input_alphabet:
            raise ValueError(f"input symbol {symbol!r} not in alphabet")
        states.extend([protocol.initial_state(symbol)] * count)
    return Simulation(protocol, states=states, seed=seed, scheduler=scheduler,
                      faults=faults, monitors=monitors)

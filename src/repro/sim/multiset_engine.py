"""Counted-multiset simulation engine.

For large populations whose live state set stays small (the common case for
the paper's protocols: a handful of leader states plus a few follower
states), simulating on the multiset of states is far cheaper than on an
agent array.  Under uniform random pairing the multiset dynamics are exactly
the agent-level dynamics projected through the counting map: an ordered
state pair ``(p, q)`` is drawn with probability proportional to
``c_p * (c_q - [p == q])``.

This engine is the reference for the count-level engines.  Runs to
silence skip the no-op encounters on
:class:`~repro.sim.skipping.SkippingSimulation`, and many trials of one
point run together, equal in law, on
:class:`~repro.sim.ensemble.EnsembleMultisetSimulation`; see
``docs/PERFORMANCE.md`` for the engine selection guide.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.protocol import PopulationProtocol, State, Symbol
from repro.sim.engine import SimulationHalted
from repro.util.multiset import FrozenMultiset
from repro.util.rng import resolve_rng


class MultisetSimulation:
    """Simulate uniform random pairing on state counts.

    Only valid for the complete interaction graph (where agent identity is
    irrelevant).  State counts are kept in a plain dict for cheap updates.
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        input_counts: "Mapping[Symbol, int] | None" = None,
        *,
        state_counts: "Mapping[State, int] | None" = None,
        seed: "int | None" = None,
        faults=None,
        monitors=(),
    ):
        self.protocol = protocol
        if (input_counts is None) == (state_counts is None):
            raise ValueError("pass exactly one of input_counts= or state_counts=")
        counts: dict[State, int] = {}
        if input_counts is not None:
            for symbol, count in input_counts.items():
                if symbol not in protocol.input_alphabet:
                    raise ValueError(f"symbol {symbol!r} not in input alphabet")
                if count < 0:
                    raise ValueError("counts must be non-negative")
                if count:
                    state = protocol.initial_state(symbol)
                    counts[state] = counts.get(state, 0) + count
        else:
            for state, count in state_counts.items():
                if count < 0:
                    raise ValueError("counts must be non-negative")
                if count:
                    counts[state] = counts.get(state, 0) + count
        self.counts = counts
        self.n = sum(counts.values())
        if self.n < 2:
            raise ValueError("a population needs at least two agents")
        self.rng = resolve_rng(seed)
        self.interactions = 0
        self.last_change = 0
        #: Interaction count at the last *output-multiset* change — the
        #: quiescence clock (:func:`repro.sim.convergence.run_until_quiescent`
        #: reads it, same as on the agent-array and batched engines).
        self.last_output_change = 0
        self._delta_cache: dict[tuple[State, State], tuple[State, State]] = {}
        #: Memo of whether a cached transition changes the output multiset.
        self._outchange_cache: dict[tuple[State, State], bool] = {}
        #: Multiset of crashed agents' frozen states (identity-free crash
        #: bookkeeping; ``counts`` holds only the live agents).
        self.crashed_counts: dict[State, int] = {}
        self.dead = 0
        self._faults = faults
        if faults is not None:
            faults.bind(self)
        #: Attached runtime monitors (see :mod:`repro.sim.monitors`).
        self.monitors: list = []
        #: Reproduction tuple embedded into MonitorViolations.
        self.monitor_context: "dict | None" = None
        for monitor in monitors:
            self.attach_monitor(monitor)

    def attach_monitor(self, monitor) -> None:
        """Attach a runtime monitor (instance-level ``step`` swap, so the
        unmonitored hot path is untouched)."""
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
    def n_alive(self) -> int:
        """Number of agents that have not crashed."""
        return self.n - self.dead

    @property
    def faults(self):
        """The attached :class:`~repro.sim.faults.FaultPlan`, or None."""
        return self._faults

    def multiset(self) -> FrozenMultiset:
        """Snapshot of the live agents' multiset configuration."""
        return FrozenMultiset(self.counts)

    def state_counts(self) -> dict[State, int]:
        """A fresh dict of live state -> count (the :meth:`multiset`
        view, without the snapshot)."""
        return dict(self.counts)

    def crashed_multiset(self) -> FrozenMultiset:
        """Snapshot of the crashed agents' frozen states."""
        return FrozenMultiset(self.crashed_counts)

    def output_counts(self) -> dict[Symbol, int]:
        """Histogram of the live agents' outputs."""
        outputs: dict[Symbol, int] = {}
        for state, count in self.counts.items():
            out = self.protocol.output(state)
            outputs[out] = outputs.get(out, 0) + count
        return outputs

    def unanimous_output(self) -> "Symbol | None":
        outputs = self.output_counts()
        if len(outputs) == 1:
            return next(iter(outputs))
        return None

    def unanimous_surviving_output(self) -> "Symbol | None":
        """Alias of :meth:`unanimous_output`: the live counts *are* the
        survivors (crashed mass lives in ``crashed_counts``)."""
        return self.unanimous_output()

    # -- Fault primitives --------------------------------------------------------

    def _remove_live(self, state: State) -> None:
        remaining = self.counts[state] - 1
        if remaining:
            self.counts[state] = remaining
        else:
            del self.counts[state]

    def _crash_state(self, state: State) -> None:
        self._remove_live(state)
        self.crashed_counts[state] = self.crashed_counts.get(state, 0) + 1
        self.dead += 1

    def crash_random(self, count: int = 1, *, rng=None) -> list[State]:
        """Crash ``count`` uniformly chosen live agents; all-or-nothing.

        Validated up front against the >= 2-survivors invariant (an
        impossible request raises before anything is applied).  Returns
        the frozen states of the victims (agents have no identity here).
        """
        if count < 0:
            raise ValueError("crash count must be non-negative")
        if count > self.n_alive - 2:
            raise RuntimeError(
                f"cannot crash {count} of {self.n_alive} live agents: "
                "a crash must leave at least two live agents")
        rng = self.rng if rng is None else rng
        victims = []
        for _ in range(count):
            state = self._sample_state(rng=rng)
            self._crash_state(state)
            victims.append(state)
        return victims

    def crash_matching(self, match, count: int = 1, *, rng=None) -> int:
        """Crash up to ``count`` random live agents whose state satisfies
        ``match``; best-effort, never below two survivors."""
        rng = self.rng if rng is None else rng
        applied = 0
        while applied < count and self.n_alive > 2:
            candidates = [(s, c) for s, c in self.counts.items() if match(s)]
            total = sum(c for _, c in candidates)
            if not total:
                break
            target = rng.randrange(total)
            acc = 0
            for state, c in candidates:
                acc += c
                if target < acc:
                    self._crash_state(state)
                    applied += 1
                    break
        return applied

    def corrupt_random(self, corruptor, *, rng=None) -> bool:
        """Rewrite a uniformly random live agent's state via
        ``corruptor(state, protocol, rng)``; returns True iff it changed."""
        rng = self.rng if rng is None else rng
        state = self._sample_state(rng=rng)
        new = corruptor(state, self.protocol, rng)
        if new == state:
            return False
        self._remove_live(state)
        self.counts[new] = self.counts.get(new, 0) + 1
        self.last_change = self.interactions
        if self.protocol.output(new) != self.protocol.output(state):
            self.last_output_change = self.interactions
        return True

    # -- Stepping --------------------------------------------------------------

    def _sample_state(self, exclude: "State | None" = None, *,
                      rng=None) -> State:
        """Sample a live state weighted by its count (minus one for
        ``exclude``)."""
        rng = self.rng if rng is None else rng
        total = self.n - self.dead - (1 if exclude is not None else 0)
        target = rng.randrange(total)
        acc = 0
        for state, count in self.counts.items():
            if state == exclude:
                count -= 1
            acc += count
            if target < acc:
                return state
        raise AssertionError("sampling fell off the end; counts corrupted?")

    def step(self) -> bool:
        """Run one interaction.  Returns True iff the configuration changed.

        With a fault plan attached, step-boundary faults apply first; when
        agents have crashed, the scheduled pair is drawn uniformly over
        *all* ``n`` sensors (dead ones included, so global time matches
        the agent-array engine) and a pair touching a dead sensor is
        inert; omission faults may then drop the live encounter.
        """
        plan = self._faults
        if plan is not None:
            plan.pre_step(self)
        alive = self.n - self.dead
        if alive < 2:
            raise SimulationHalted(
                f"only {alive} live agent(s) remain: "
                "no encounter is possible")
        self.interactions += 1
        if plan is not None:
            if self.dead:
                n, m = self.n, self.n - self.dead
                # Both parties of a uniform ordered pair over n sensors are
                # alive with probability m(m-1)/(n(n-1)).
                if plan.rng.randrange(n * (n - 1)) >= m * (m - 1):
                    return False
            if plan.drop_encounter(self):
                return False
        p = self._sample_state()
        q = self._sample_state(exclude=p)
        key = (p, q)
        result = self._delta_cache.get(key)
        if result is None:
            result = self.protocol.delta(p, q)
            self._delta_cache[key] = result
        p2, q2 = result
        if p2 == p and q2 == q:
            return False
        counts = self.counts
        for state in (p, q):
            remaining = counts[state] - 1
            if remaining:
                counts[state] = remaining
            else:
                del counts[state]
        for state in (p2, q2):
            counts[state] = counts.get(state, 0) + 1
        self.last_change = self.interactions
        oc = self._outchange_cache.get(key)
        if oc is None:
            out = self.protocol.output
            op, oq, op2, oq2 = out(p), out(q), out(p2), out(q2)
            # The output multiset changes unless the result outputs are a
            # permutation of the argument outputs.
            oc = not ((op == op2 and oq == oq2) or (op == oq2 and oq == op2))
            self._outchange_cache[key] = oc
        if oc:
            self.last_output_change = self.interactions
        return True

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.step()

    def run_until(self, condition, max_steps: int, check_every: int = 1) -> bool:
        """Run until ``condition(self)`` holds or ``max_steps`` pass."""
        if check_every < 1:
            raise ValueError("check_every must be positive")
        if condition(self):
            return True
        remaining = max_steps
        while remaining > 0:
            chunk = min(check_every, remaining)
            for _ in range(chunk):
                self.step()
            remaining -= chunk
            if condition(self):
                return True
        return False

"""Group interactions (Sect. 8: "interactions of larger groups").

The paper asks what happens when transition rules involve more than two
agents at a time.  This module generalizes the model: a k-way protocol's
transition function maps ordered k-tuples of states to k-tuples, and the
scheduler draws k distinct agents uniformly at random (ordered, matching
the asymmetric roles of the pairwise model).

Any pairwise protocol embeds as a 2-way protocol, and
:class:`GroupCountToK` shows the flavour of what extra arity buys:
the count-to-k dynamics with g-wise merging, which converges in fewer
interactions (each productive meeting merges g counters instead of 2)
while stably computing the same predicate.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

from repro.core.protocol import PopulationProtocol, State, Symbol
from repro.util.rng import resolve_rng


class MultiwayProtocol(ABC):
    """A population protocol whose interactions involve ``arity`` agents."""

    #: Number of agents per interaction.
    arity: int
    input_alphabet: frozenset
    output_alphabet: frozenset

    @abstractmethod
    def initial_state(self, symbol: Symbol) -> State:
        """Map an input symbol to a state."""

    @abstractmethod
    def output(self, state: State) -> Symbol:
        """Map a state to an output symbol."""

    @abstractmethod
    def delta_group(self, states: tuple[State, ...]) -> tuple[State, ...]:
        """Transition on an ordered tuple of ``arity`` states."""


class PairwiseAsMultiway(MultiwayProtocol):
    """Embed an ordinary pairwise protocol as a 2-way multiway protocol."""

    arity = 2

    def __init__(self, inner: PopulationProtocol):
        self.inner = inner
        self.input_alphabet = frozenset(inner.input_alphabet)
        self.output_alphabet = frozenset(inner.output_alphabet)

    def initial_state(self, symbol: Symbol) -> State:
        return self.inner.initial_state(symbol)

    def output(self, state: State) -> Symbol:
        return self.inner.output(state)

    def delta_group(self, states: tuple[State, ...]) -> tuple[State, ...]:
        if len(states) != 2:
            raise ValueError("pairwise protocols interact two at a time")
        return self.inner.delta(*states)


class GroupCountToK(MultiwayProtocol):
    """Count-to-k with g-wise token merging.

    States ``0..k`` as in :class:`~repro.protocols.counting.CountToK`;
    a g-way meeting sums all g counters: below k the first agent keeps the
    sum and the rest zero out; at or above k, all g agents enter the
    epidemic alert state ``k`` (which also converts any group containing
    an alerted agent).
    """

    def __init__(self, k: int, arity: int = 3):
        if k < 1:
            raise ValueError("k must be at least 1")
        if arity < 2:
            raise ValueError("arity must be at least 2")
        self.k = k
        self.arity = arity
        self.input_alphabet = frozenset({0, 1})
        self.output_alphabet = frozenset({0, 1})

    def initial_state(self, symbol: int) -> int:
        if symbol not in (0, 1):
            raise ValueError(f"input symbol must be 0 or 1, got {symbol!r}")
        return symbol

    def output(self, state: int) -> int:
        return 1 if state == self.k else 0

    def delta_group(self, states: tuple[int, ...]) -> tuple[int, ...]:
        if len(states) != self.arity:
            raise ValueError(f"expected {self.arity} states, got {len(states)}")
        k = self.k
        if any(s == k for s in states) or sum(states) >= k:
            return tuple([k] * self.arity)
        total = sum(states)
        if total == 0 or states[0] == total:
            return states
        return (total,) + tuple([0] * (self.arity - 1))


class MultiwaySimulation:
    """Uniform random sampling of ordered ``arity``-tuples of agents."""

    def __init__(
        self,
        protocol: MultiwayProtocol,
        inputs: Sequence[Symbol],
        *,
        seed: "int | None" = None,
    ):
        self.protocol = protocol
        self.states: list[State] = [
            protocol.initial_state(symbol) for symbol in inputs]
        if len(self.states) < protocol.arity:
            raise ValueError(
                f"need at least {protocol.arity} agents for "
                f"{protocol.arity}-way interactions")
        self.rng = resolve_rng(seed)
        self.interactions = 0

    @property
    def n(self) -> int:
        return len(self.states)

    def _sample_group(self) -> list[int]:
        return self.rng.sample(range(self.n), self.protocol.arity)

    def step(self) -> bool:
        self.interactions += 1
        group = self._sample_group()
        before = tuple(self.states[a] for a in group)
        after = self.protocol.delta_group(before)
        if after == before:
            return False
        for agent, state in zip(group, after):
            self.states[agent] = state
        return True

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.step()

    def run_until(self, condition, max_steps: int, check_every: int = 1) -> bool:
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

    def outputs(self) -> tuple[Symbol, ...]:
        return tuple(self.protocol.output(s) for s in self.states)

    def unanimous_output(self):
        outputs = set(self.outputs())
        if len(outputs) == 1:
            return outputs.pop()
        return None

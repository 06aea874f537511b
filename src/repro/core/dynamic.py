"""Population change (Sect. 8: "allow the interaction to increase or
decrease the population").

The paper asks what happens if interactions may create or destroy agents.
:class:`DynamicProtocol` generalizes the transition function to return
*any* tuple of states — length 2 is an ordinary transition, length 0 or 1
destroys participants, length > 2 spawns new agents —, and
:class:`DynamicSimulation` runs uniform random pairing over the changing
population.

:func:`annihilation_majority` is the canonical payoff: the majority
question becomes a two-rule protocol when opposite tokens may annihilate —
``(x, y) -> ()`` — leaving only the majority colour alive (a construction
that later literature made standard; here it illustrates the Sect. 8
variation).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

from repro.core.protocol import State, Symbol
from repro.util.rng import resolve_rng


class DynamicProtocol(ABC):
    """A pairwise protocol whose interactions may change the population."""

    input_alphabet: frozenset
    output_alphabet: frozenset
    #: Largest tuple ``delta_dynamic`` may return (a sanity bound).
    max_offspring: int = 4

    @abstractmethod
    def initial_state(self, symbol: Symbol) -> State:
        """Map an input symbol to a state."""

    @abstractmethod
    def output(self, state: State) -> Symbol:
        """Map a state to an output symbol."""

    @abstractmethod
    def delta_dynamic(self, initiator: State, responder: State) -> tuple[State, ...]:
        """Transition on an ordered pair; the result replaces both agents.

        Return ``(p', q')`` for an ordinary step, ``()`` to annihilate the
        pair, ``(p',)`` to merge them, or a longer tuple to spawn agents.
        """


class AnnihilationMajority(DynamicProtocol):
    """Strict-majority by annihilation: opposite tokens destroy each other.

    States ``"x"`` and ``"y"``; ``(x, y) -> ()`` and ``(y, x) -> ()``.
    Once one colour is exhausted the survivors are the strict majority
    (an empty population means a tie).  Two rules — versus the Lemma 5
    threshold protocol's bookkeeping — is what population change buys.
    """

    input_alphabet = frozenset({"x", "y"})
    output_alphabet = frozenset({"x", "y"})

    def initial_state(self, symbol: str) -> str:
        if symbol not in self.input_alphabet:
            raise ValueError(f"symbol {symbol!r} not in input alphabet")
        return symbol

    def output(self, state: str) -> str:
        return state

    def delta_dynamic(self, initiator: str, responder: str) -> tuple[str, ...]:
        if initiator != responder:
            return ()
        return (initiator, responder)


def annihilation_majority() -> AnnihilationMajority:
    """The two-rule strict-majority protocol."""
    return AnnihilationMajority()


class DynamicSimulation:
    """Uniform random pairing over a population of changing size.

    The run ends (``exhausted``) when fewer than two agents remain or no
    pair can ever change anything again would require global knowledge —
    callers stop via conditions on the visible state, as with the other
    engines.
    """

    def __init__(
        self,
        protocol: DynamicProtocol,
        inputs: Sequence[Symbol],
        *,
        seed: "int | None" = None,
        max_population: int = 1_000_000,
    ):
        self.protocol = protocol
        self.states: list[State] = [
            protocol.initial_state(symbol) for symbol in inputs]
        if len(self.states) < 2:
            raise ValueError("a population needs at least two agents")
        self.rng = resolve_rng(seed)
        self.interactions = 0
        self.max_population = max_population

    @property
    def n(self) -> int:
        return len(self.states)

    def step(self) -> bool:
        """One interaction; returns True iff the population changed.

        A no-op when fewer than two agents remain.
        """
        if len(self.states) < 2:
            return False
        self.interactions += 1
        i = self.rng.randrange(len(self.states))
        j = self.rng.randrange(len(self.states) - 1)
        if j >= i:
            j += 1
        p, q = self.states[i], self.states[j]
        result = self.protocol.delta_dynamic(p, q)
        if len(result) > self.protocol.max_offspring:
            raise RuntimeError(
                f"transition produced {len(result)} agents "
                f"(max_offspring={self.protocol.max_offspring})")
        if result == (p, q):
            return False
        # Remove the two participants (higher index first), add offspring.
        for index in sorted((i, j), reverse=True):
            self.states.pop(index)
        self.states.extend(result)
        if len(self.states) > self.max_population:
            raise RuntimeError("population exceeded max_population")
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

    def surviving_outputs(self) -> list:
        return [self.protocol.output(s) for s in self.states]

    def unanimous_output(self):
        outputs = set(self.surviving_outputs())
        if len(outputs) == 1:
            return outputs.pop()
        return None


def majority_by_annihilation(
    x_count: int,
    y_count: int,
    *,
    seed: "int | None" = None,
    max_steps: int = 50_000_000,
) -> "str | None":
    """Run the annihilation protocol to completion.

    Returns ``"x"`` or ``"y"`` for a strict majority, or ``None`` for a
    tie (the population annihilates completely).
    """
    if x_count + y_count < 2:
        raise ValueError("need at least two agents")
    sim = DynamicSimulation(annihilation_majority(),
                            ["x"] * x_count + ["y"] * y_count, seed=seed)

    def settled(s: DynamicSimulation) -> bool:
        kinds = set(s.surviving_outputs())
        return len(kinds) <= 1

    done = sim.run_until(settled, max_steps=max_steps,
                         check_every=max(2, sim.n // 2))
    if not done:
        raise RuntimeError("annihilation did not settle within budget")
    outputs = set(sim.surviving_outputs())
    return outputs.pop() if outputs else None

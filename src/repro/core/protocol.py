"""Population protocols (Sect. 3.1 of the paper).

A population protocol ``A`` consists of finite input and output alphabets
``X`` and ``Y``, a finite set of states ``Q``, an input function
``I : X -> Q``, an output function ``O : Q -> Y``, and a transition function
``delta : Q x Q -> Q x Q`` on *ordered* pairs of states (the first component
is the initiator, the second the responder).

:class:`PopulationProtocol` is the abstract interface; concrete protocols
either subclass it (most of :mod:`repro.protocols`) or enumerate an explicit
transition table via :class:`DictProtocol`.  States may be any hashable
Python values.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from collections.abc import Hashable, Iterable, Mapping

State = Hashable
Symbol = Hashable


class ProtocolError(ValueError):
    """Raised when a protocol definition is malformed or misused."""


class PopulationProtocol(ABC):
    """Abstract base class for population protocols.

    Subclasses must provide :attr:`input_alphabet`, :attr:`output_alphabet`,
    :meth:`initial_state`, :meth:`output`, and :meth:`delta`.  The state set
    ``Q`` does not have to be declared up front: :meth:`states` computes the
    set of states reachable by closing the initial states under pairwise
    application of ``delta``, which is the part of ``Q`` that can ever occur
    in any population.
    """

    #: The finite input alphabet ``X``.
    input_alphabet: frozenset
    #: The finite output alphabet ``Y``.
    output_alphabet: frozenset

    @abstractmethod
    def initial_state(self, symbol: Symbol) -> State:
        """The input function ``I``: map an input symbol to a state."""

    @abstractmethod
    def output(self, state: State) -> Symbol:
        """The output function ``O``: map a state to an output symbol."""

    @abstractmethod
    def delta(self, initiator: State, responder: State) -> tuple[State, State]:
        """The transition function on ordered pairs of states.

        Returns the pair ``(initiator', responder')``.  ``delta`` must be
        total; "no interaction" is expressed by returning the arguments
        unchanged.
        """

    # -- Derived functionality ----------------------------------------------

    def initial_states(self) -> set[State]:
        """The image of the input function: ``{I(x) : x in X}``."""
        return {self.initial_state(symbol) for symbol in self.input_alphabet}

    def states(self, max_states: int = 1_000_000) -> frozenset:
        """All states reachable from initial states under pairwise ``delta``.

        This is a superset of the states occurring in any single population's
        reachable configurations and is the state space used by analysis
        tooling.  Raises :class:`ProtocolError` if more than ``max_states``
        states are discovered (a guard against non-finite state spaces,
        which the model forbids).
        """
        discovered: set[State] = set(self.initial_states())
        frontier: deque[State] = deque(discovered)
        while frontier:
            state = frontier.popleft()
            # Interact the new state with everything discovered so far (in
            # both roles, including with itself: two distinct agents may hold
            # the same state).
            for other in list(discovered):
                for pair in ((state, other), (other, state)):
                    for result in self.delta(*pair):
                        if result not in discovered:
                            discovered.add(result)
                            frontier.append(result)
                            if len(discovered) > max_states:
                                raise ProtocolError(
                                    f"state space exceeded {max_states} states; "
                                    "is the protocol finite-state?")
        return frozenset(discovered)

    def is_noop(self, initiator: State, responder: State) -> bool:
        """True if the encounter leaves both agents' states unchanged."""
        return self.delta(initiator, responder) == (initiator, responder)

    def compiled(self, *, key: "Hashable | None" = None,
                 max_states: int = 1_000_000):
        """This protocol lowered to dense integer tables, memoized per
        process.

        Returns a :class:`~repro.sim.compiled.CompiledProtocol` — the
        interned-state/flat-table form the compiled engines (batched,
        ensemble, fluid) consume.  ``key``, when given, is a
        stable cross-instance identity (e.g. a registry name plus
        parameters) letting equal protocols built repeatedly — one per
        experiment trial, say — share a single compilation per process.
        See :func:`repro.sim.compiled.compile_protocol`.
        """
        from repro.sim.compiled import compile_protocol

        return compile_protocol(self, key=key, max_states=max_states)

    def transition_table(self) -> dict[tuple[State, State], tuple[State, State]]:
        """Explicit table of all non-no-op transitions over reachable states."""
        table = {}
        states = self.states()
        for p in states:
            for q in states:
                result = self.delta(p, q)
                if result != (p, q):
                    table[(p, q)] = result
        return table

    def validate(self) -> None:
        """Check basic well-formedness over the reachable state space.

        Verifies that outputs of all reachable states lie in the output
        alphabet and that ``delta`` is closed over the computed state set
        (true by construction, re-checked defensively).
        """
        states = self.states()
        for state in states:
            out = self.output(state)
            if out not in self.output_alphabet:
                raise ProtocolError(
                    f"output {out!r} of state {state!r} not in output alphabet")
        for p in states:
            for q in states:
                p2, q2 = self.delta(p, q)
                if p2 not in states or q2 not in states:
                    raise ProtocolError(
                        f"delta({p!r}, {q!r}) leaves the reachable state set")

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} |X|={len(self.input_alphabet)} "
                f"|Y|={len(self.output_alphabet)}>")


class DictProtocol(PopulationProtocol):
    """A population protocol given by explicit tables.

    ``transitions`` maps ordered state pairs to ordered state pairs; pairs
    absent from the table are no-ops (``delta(p, q) = (p, q)``), matching the
    paper's convention that "all other transitions leave the pair of states
    unchanged".
    """

    def __init__(
        self,
        *,
        input_map: Mapping[Symbol, State],
        output_map: Mapping[State, Symbol],
        transitions: Mapping[tuple[State, State], tuple[State, State]],
        name: str = "DictProtocol",
    ):
        if not input_map:
            raise ProtocolError("input alphabet must be non-empty")
        self.input_alphabet = frozenset(input_map)
        self.output_alphabet = frozenset(output_map.values())
        self._input_map = dict(input_map)
        self._output_map = dict(output_map)
        self._transitions = dict(transitions)
        self.name = name
        self._check_tables()

    def _check_tables(self) -> None:
        for (p, q), (p2, q2) in self._transitions.items():
            for state in (p, q, p2, q2):
                if state not in self._output_map:
                    raise ProtocolError(
                        f"state {state!r} used in transitions but has no output")
        for state in self._input_map.values():
            if state not in self._output_map:
                raise ProtocolError(
                    f"initial state {state!r} has no output mapping")

    def initial_state(self, symbol: Symbol) -> State:
        try:
            return self._input_map[symbol]
        except KeyError:
            raise ProtocolError(f"symbol {symbol!r} not in input alphabet") from None

    def output(self, state: State) -> Symbol:
        try:
            return self._output_map[state]
        except KeyError:
            raise ProtocolError(f"state {state!r} has no output mapping") from None

    def delta(self, initiator: State, responder: State) -> tuple[State, State]:
        return self._transitions.get((initiator, responder), (initiator, responder))

    def declared_states(self) -> frozenset:
        """All states mentioned in the output map (may exceed reachable set)."""
        return frozenset(self._output_map)

    def __repr__(self) -> str:
        return (f"<DictProtocol {self.name!r} |Q|={len(self._output_map)} "
                f"|transitions|={len(self._transitions)}>")


def as_dict_protocol(protocol: PopulationProtocol, name: str | None = None) -> DictProtocol:
    """Materialize any protocol into an explicit :class:`DictProtocol`.

    Enumerates the reachable state space; useful for inspecting compiled
    protocols and for serializing small protocols in tests.
    """
    states = protocol.states()
    input_map = {symbol: protocol.initial_state(symbol)
                 for symbol in protocol.input_alphabet}
    output_map = {state: protocol.output(state) for state in states}
    transitions = protocol.transition_table()
    return DictProtocol(
        input_map=input_map,
        output_map=output_map,
        transitions=transitions,
        name=name or f"materialized-{type(protocol).__name__}",
    )


def iter_symbols(protocol: PopulationProtocol) -> Iterable[Symbol]:
    """The protocol's input alphabet in a deterministic order."""
    return sorted(protocol.input_alphabet, key=repr)

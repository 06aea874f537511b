"""One-step semantics over multiset configurations.

On the complete interaction graph, a configuration is a multiset of states
and a step picks an ordered pair of (distinct) agents and applies ``delta``.
These helpers define the step relation used by both the exact analysis
(reachability, SCCs, Markov chains) and the multiset simulation engine.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from repro.core.protocol import PopulationProtocol, State
from repro.util.multiset import FrozenMultiset

Transition = tuple[tuple[State, State], tuple[State, State]]


def enabled_state_pairs(configuration: FrozenMultiset) -> Iterator[tuple[State, State]]:
    """Ordered state pairs (p, q) realizable by two distinct agents.

    The pair (p, p) is enabled only when at least two agents hold state p.
    """
    states = list(configuration)
    for p in states:
        for q in states:
            if p == q and configuration[p] < 2:
                continue
            yield p, q


def enabled_transitions(
    protocol: PopulationProtocol,
    configuration: FrozenMultiset,
) -> list[Transition]:
    """All non-no-op transitions enabled in ``configuration``."""
    transitions = []
    for p, q in enabled_state_pairs(configuration):
        result = protocol.delta(p, q)
        if result != (p, q):
            transitions.append(((p, q), result))
    return transitions


def apply_transition(
    configuration: FrozenMultiset,
    transition: Transition,
) -> FrozenMultiset:
    """The configuration after one (p, q) -> (p', q') interaction."""
    old, new = transition
    return configuration.replace_pair(old, new)


def successors(
    protocol: PopulationProtocol,
    configuration: FrozenMultiset,
) -> set[FrozenMultiset]:
    """All configurations reachable in exactly one (state-changing) step.

    No-op transitions lead back to the same configuration and are omitted;
    for reachability and stability analysis only state-changing steps
    matter.
    """
    result = set()
    for transition in enabled_transitions(protocol, configuration):
        result.add(apply_transition(configuration, transition))
    return result


def is_silent(protocol: PopulationProtocol,
              configuration: Mapping[State, int]) -> bool:
    """True iff no enabled encounter changes any state.

    ``configuration`` is any mapping from state to agent count: a
    :class:`FrozenMultiset` or an engine's plain ``state_counts()`` dict
    (states with count 0 hold no agent and enable nothing).  Silence is
    a strong, locally-checkable form of stability: a silent
    configuration is trivially output-stable.
    """
    delta = protocol.delta
    items = configuration.items()
    for p, count in items:
        if count < 1:
            continue
        for q, other in items:
            if other < 1 or (p == q and count < 2):
                continue
            if delta(p, q) != (p, q):
                return False
    return True


def pair_count(configuration: FrozenMultiset, p: State, q: State) -> int:
    """Number of ordered agent pairs realizing the state pair (p, q)."""
    if p == q:
        c = configuration[p]
        return c * (c - 1)
    return configuration[p] * configuration[q]

"""Interaction schedulers.

A scheduler chooses which ordered pair of agents interacts next.  The
conjugating-automata model (Sect. 6) is the :class:`UniformPairScheduler` on
the complete graph / :class:`UniformEdgeScheduler` in general: the next pair
is drawn independently and uniformly from the interaction graph's edges.
Random pairing guarantees the paper's fairness condition with probability 1.

Deterministic schedulers are provided for tests: round-robin and shuffled
sweeps over the edge set are fair for the protocols in this library and make
executions reproducible without randomness, and the greedy scheduler
accelerates convergence by preferring state-changing encounters.

The *adversarial* schedulers (:class:`PartitionScheduler`,
:class:`EclipseScheduler`, :class:`AdversarialDelayScheduler`) probe the
edge of the paper's fairness condition: each one withholds encounters as
aggressively as it can while staying fair in the limit, so Theorem 5's
guarantee still formally applies — and a protocol that breaks under them
was relying on more than fairness.  The only scheduler that actually
crosses the line is :class:`StallingScheduler`, kept as the canonical
unfair adversary.  All are deterministic given the engine seed.
"""

from __future__ import annotations

import functools
import random
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence

from repro.core.population import Population
from repro.core.protocol import PopulationProtocol, State


class Scheduler(ABC):
    """Chooses the next encounter given the current agent states."""

    @abstractmethod
    def next_encounter(
        self,
        states: Sequence[State],
        rng: random.Random,
    ) -> tuple[int, int]:
        """Return the (initiator, responder) agent pair to interact next."""


class UniformPairScheduler(Scheduler):
    """Uniform random ordered pair of distinct agents (complete graph).

    This is the conjugating-automata interaction model.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("need at least two agents")
        self.n = n

    def next_encounter(
        self,
        states: Sequence[State],
        rng: random.Random,
    ) -> tuple[int, int]:
        initiator = rng.randrange(self.n)
        responder = rng.randrange(self.n - 1)
        if responder >= initiator:
            responder += 1
        return initiator, responder


class UniformEdgeScheduler(Scheduler):
    """Uniform random edge of an arbitrary interaction graph."""

    def __init__(self, population: Population):
        self.edges = population.edge_list()

    def next_encounter(
        self,
        states: Sequence[State],
        rng: random.Random,
    ) -> tuple[int, int]:
        return self.edges[rng.randrange(len(self.edges))]


class RoundRobinScheduler(Scheduler):
    """Deterministically cycle through all edges in a fixed order."""

    def __init__(self, population: Population):
        self.edges = population.edge_list()
        self._index = 0

    def next_encounter(
        self,
        states: Sequence[State],
        rng: random.Random,
    ) -> tuple[int, int]:
        edge = self.edges[self._index]
        self._index = (self._index + 1) % len(self.edges)
        return edge


class ShuffledSweepScheduler(Scheduler):
    """Sweep all edges in a fresh random order each round.

    Every edge occurs once per round, so every permitted encounter happens
    infinitely often; the shuffle varies the order across rounds.
    """

    def __init__(self, population: Population):
        self.edges = list(population.edge_list())
        self._queue: list[tuple[int, int]] = []

    def next_encounter(
        self,
        states: Sequence[State],
        rng: random.Random,
    ) -> tuple[int, int]:
        if not self._queue:
            self._queue = list(self.edges)
            rng.shuffle(self._queue)
        return self._queue.pop()


class WeightedPairScheduler(Scheduler):
    """State-dependent weighted sampling (Sect. 8, "weighted sampling").

    The paper conjectures that, under reasonable restrictions on the
    weights, sampling population members proportionally to (positive,
    bounded) state-dependent weights yields the same computational power
    as uniform sampling.  This scheduler implements the model so the
    conjecture can be exercised empirically: initiator and responder are
    drawn (without replacement) with probability proportional to
    ``weight(state)``.

    ``weight`` must return a positive finite value for every state; the
    guard is checked on every draw.
    """

    def __init__(self, n: int, weight):
        if n < 2:
            raise ValueError("need at least two agents")
        self.n = n
        self.weight = weight

    def _draw(self, states: Sequence[State], rng: random.Random,
              exclude: int) -> int:
        weights = []
        total = 0.0
        for agent, state in enumerate(states):
            w = 0.0 if agent == exclude else float(self.weight(state))
            if agent != exclude and w <= 0:
                raise ValueError(
                    f"weight of state {state!r} must be positive, got {w}")
            weights.append(w)
            total += w
        target = rng.random() * total
        acc = 0.0
        for agent, w in enumerate(weights):
            acc += w
            if target < acc:
                return agent
        return len(states) - 1 if exclude != len(states) - 1 else len(states) - 2

    def next_encounter(
        self,
        states: Sequence[State],
        rng: random.Random,
    ) -> tuple[int, int]:
        initiator = self._draw(states, rng, exclude=-1)
        responder = self._draw(states, rng, exclude=initiator)
        return initiator, responder


class StallingScheduler(Scheduler):
    """An *unfair* adversary: schedule a no-op encounter whenever one exists.

    The paper's stable-computation guarantees hold only for fair
    executions; this scheduler shows the fairness condition has teeth.
    Once any no-op pair exists it is chosen forever, freezing the
    configuration — e.g. count-to-five with five 1-inputs never alerts,
    because after the first merge a (q0, q0) pair exists and the adversary
    schedules it for eternity.  Used in tests and docs only.

    A found no-op pair is cached together with its endpoint states, so
    the steady state (scheduling the same frozen pair forever) is O(1)
    per encounter instead of an O(edges) rescan; the scan re-runs only
    when either cached endpoint's state changed (e.g. a corruption fault
    rewrote it).  Returning the cached pair over the scan's
    first-in-edge-order pair cannot change the trajectory: any no-op
    encounter leaves the configuration fixed, and the RNG is consumed in
    neither path.
    """

    def __init__(self, population: Population, protocol: PopulationProtocol):
        self.edges = list(population.edge_list())
        self.protocol = protocol
        self._cached: "tuple[int, int, State, State] | None" = None

    def next_encounter(
        self,
        states: Sequence[State],
        rng: random.Random,
    ) -> tuple[int, int]:
        cached = self._cached
        if cached is not None:
            u, v, p, q = cached
            if states[u] == p and states[v] == q:
                return u, v
            self._cached = None
        for (u, v) in self.edges:
            if self.protocol.is_noop(states[u], states[v]):
                self._cached = (u, v, states[u], states[v])
                return u, v
        return self.edges[rng.randrange(len(self.edges))]


class GreedyChangeScheduler(Scheduler):
    """Prefer encounters that change state; fall back to uniform edges.

    Not a model of the paper — a test utility that reaches stable
    configurations in few steps by scanning for a productive encounter.
    """

    def __init__(self, population: Population, protocol: PopulationProtocol):
        self.edges = list(population.edge_list())
        self.protocol = protocol

    def next_encounter(
        self,
        states: Sequence[State],
        rng: random.Random,
    ) -> tuple[int, int]:
        candidates = [
            (u, v) for (u, v) in self.edges
            if not self.protocol.is_noop(states[u], states[v])
        ]
        if candidates:
            return candidates[rng.randrange(len(candidates))]
        return self.edges[rng.randrange(len(self.edges))]


# -- Adversarial (fair-in-the-limit) schedulers -------------------------------------


def _uniform_ordered_pair(lo: int, m: int, rng: random.Random) -> tuple[int, int]:
    """Uniform ordered pair of distinct agents in ``[lo, lo + m)``."""
    i = rng.randrange(m)
    j = rng.randrange(m - 1)
    if j >= i:
        j += 1
    return lo + i, lo + j


class PartitionScheduler(Scheduler):
    """Network partition: the population splits into isolated blocks that
    heal after a budgeted interval.

    Models a transient communication partition (e.g. the flock splitting
    into two groups out of radio range): agents are divided into
    ``blocks`` contiguous, near-equal blocks and only intra-block
    encounters are scheduled — each drawn as a uniform ordered pair
    within a block chosen proportionally to its ordered-pair count, so
    conditioned on the partition the dynamics are still uniform pairing.
    After ``heal_after`` encounters the partition heals and scheduling
    becomes plain uniform pairing over the whole population, which makes
    the execution fair in the limit.

    Protocols whose correctness leans on early global mixing (leader
    election collapsing to one leader, majority gossip) show their
    partition sensitivity here; per Theorem 5 they must still stabilize
    correctly after healing.
    """

    def __init__(self, n: int, blocks: int = 2, heal_after: int = 10_000):
        if n < 2:
            raise ValueError("need at least two agents")
        if blocks < 1:
            raise ValueError("need at least one block")
        if n // blocks < 2:
            raise ValueError(
                f"{blocks} blocks over {n} agents leaves a block with fewer "
                "than two agents (no intra-block encounter possible)")
        if heal_after < 0:
            raise ValueError("heal_after must be non-negative")
        self.n = n
        self.blocks = blocks
        self.heal_after = heal_after
        self._bounds = [
            (i * n // blocks, (i + 1) * n // blocks) for i in range(blocks)]
        self._weights = [(hi - lo) * (hi - lo - 1) for lo, hi in self._bounds]
        self._total = sum(self._weights)
        self._step = 0

    def next_encounter(
        self,
        states: Sequence[State],
        rng: random.Random,
    ) -> tuple[int, int]:
        step = self._step
        self._step = step + 1
        if step >= self.heal_after:
            return _uniform_ordered_pair(0, self.n, rng)
        target = rng.randrange(self._total)
        acc = 0
        for (lo, hi), weight in zip(self._bounds, self._weights):
            acc += weight
            if target < acc:
                return _uniform_ordered_pair(lo, hi - lo, rng)
        raise AssertionError("block weights corrupted")


class EclipseScheduler(Scheduler):
    """Eclipse attack on one agent: starve it of encounters up to a budget.

    The target agent is excluded from scheduling for ``budget``
    consecutive encounters (the rest of the population interacts as
    uniform pairs), then granted exactly one encounter with a uniformly
    chosen partner, and the cycle repeats.  Every pair still occurs
    infinitely often — the execution is fair in the limit — but the
    target's view of the computation lags as far behind as the budget
    allows, the worst case the fairness condition tolerates for e.g. an
    epidemic reaching the last sensor.
    """

    def __init__(self, n: int, target: int = 0, budget: int = 1_000):
        if n < 3:
            raise ValueError(
                "eclipsing needs at least three agents (two must remain)")
        if not 0 <= target < n:
            raise ValueError(f"no such agent: {target}")
        if budget < 1:
            raise ValueError("eclipse budget must be positive")
        self.n = n
        self.target = target
        self.budget = budget
        self._since = 0

    def _skip_target(self, index: int) -> int:
        return index + 1 if index >= self.target else index

    def next_encounter(
        self,
        states: Sequence[State],
        rng: random.Random,
    ) -> tuple[int, int]:
        if self._since >= self.budget:
            self._since = 0
            partner = self._skip_target(rng.randrange(self.n - 1))
            if rng.randrange(2):
                return self.target, partner
            return partner, self.target
        self._since += 1
        i, j = _uniform_ordered_pair(0, self.n - 1, rng)
        return self._skip_target(i), self._skip_target(j)


class AdversarialDelayScheduler(Scheduler):
    """Delay chosen transitions as long as possible while staying fair.

    Encounters whose transition the ``delay`` predicate selects (given
    the ordered state pair; by default every non-no-op transition) are
    withheld: the scheduler keeps drawing uniformly from the remaining
    edges.  Once ``budget`` consecutive encounters have been scheduled
    while a delayable transition was enabled — or no other encounter
    exists — one delayed edge is fired (uniformly chosen) and the
    account resets.  Progress therefore happens at the slowest rate the
    fairness condition permits: the paper's guarantee says stabilization
    survives this; convergence-time assumptions do not.
    """

    def __init__(self, population: Population, protocol: PopulationProtocol,
                 budget: int = 1_000, delay=None):
        if budget < 1:
            raise ValueError("delay budget must be positive")
        self.edges = list(population.edge_list())
        self.protocol = protocol
        self.budget = budget
        self.delay = delay
        self._withheld = 0

    def next_encounter(
        self,
        states: Sequence[State],
        rng: random.Random,
    ) -> tuple[int, int]:
        delay = self.delay
        is_noop = self.protocol.is_noop
        delayed = []
        allowed = []
        for edge in self.edges:
            p, q = states[edge[0]], states[edge[1]]
            if not is_noop(p, q) and (delay is None or delay(p, q)):
                delayed.append(edge)
            else:
                allowed.append(edge)
        if delayed and (not allowed or self._withheld >= self.budget):
            self._withheld = 0
            return delayed[rng.randrange(len(delayed))]
        self._withheld = self._withheld + 1 if delayed else 0
        return allowed[rng.randrange(len(allowed))]


# -- Declarative scheduler specs ----------------------------------------------------

#: Scheduler kinds understood by :func:`scheduler_from_spec` spec strings.
SCHEDULER_KINDS = ("uniform", "partition", "eclipse", "delay", "stalling")

_SCHEDULER_ARGS = {
    "uniform": {},
    "partition": {"blocks": int, "heal": int},
    "eclipse": {"target": int, "budget": int},
    "delay": {"budget": int},
    "stalling": {},
}


def _parse_scheduler_spec(text: str) -> tuple[str, dict]:
    kind, _, tail = text.strip().partition(":")
    if kind not in SCHEDULER_KINDS:
        raise ValueError(
            f"unknown scheduler kind {kind!r}; known: {SCHEDULER_KINDS}")
    known = _SCHEDULER_ARGS[kind]
    args: dict = {}
    for piece in filter(None, (p.strip() for p in tail.split(","))):
        name, sep, value = piece.partition("=")
        if not sep or name.strip() not in known:
            raise ValueError(
                f"scheduler {kind!r} takes {sorted(known)} arguments, "
                f"got {piece!r}")
        try:
            args[name.strip()] = known[name.strip()](value)
        except ValueError:
            raise ValueError(
                f"bad value {value!r} for scheduler argument {name!r}") from None
    return kind, args


def validate_scheduler_spec(text: str) -> None:
    """Raise ``ValueError`` unless ``text`` is a valid scheduler spec string.

    Usable without a population size or protocol in hand (spec
    validation time); actual construction happens per trial via
    :func:`scheduler_from_spec`.
    """
    _parse_scheduler_spec(text)


def scheduler_builder(text: str, *, n: int,
                      protocol: "PopulationProtocol | None" = None,
                      ) -> "Callable[[], Scheduler] | None":
    """Parse a scheduler spec string once into a scheduler factory.

    Returns a zero-argument callable that builds a fresh scheduler per
    call, or None for ``uniform``.  Schedulers carry state across a run
    (a partition's heal clock, an adversary's budget), so a sweep point
    parses its string once and calls the factory once per trial.  See
    :func:`scheduler_from_spec` for the formats.
    """
    from repro.core.population import complete_population

    kind, args = _parse_scheduler_spec(text)
    if kind == "uniform":
        return None
    if kind == "partition":
        return functools.partial(PartitionScheduler, n,
                                 blocks=args.get("blocks", 2),
                                 heal_after=args.get("heal", 10_000))
    if kind == "eclipse":
        return functools.partial(EclipseScheduler, n,
                                 target=args.get("target", 0),
                                 budget=args.get("budget", 1_000))
    if protocol is None:
        raise ValueError(f"scheduler {kind!r} needs a protocol")
    if kind == "delay":
        budget = args.get("budget", 1_000)
        return lambda: AdversarialDelayScheduler(
            complete_population(n), protocol, budget=budget)
    return lambda: StallingScheduler(complete_population(n), protocol)


def scheduler_from_spec(text: str, *, n: int,
                        protocol: "PopulationProtocol | None" = None,
                        ) -> "Scheduler | None":
    """Build a scheduler from a spec string, or None for ``uniform``.

    Formats: ``uniform``, ``partition[:blocks=B,heal=H]``,
    ``eclipse[:target=T,budget=B]``, ``delay[:budget=B]``, and
    ``stalling``.  ``delay`` and ``stalling`` inspect transitions, so
    they need the protocol.  Returning None for ``uniform`` lets callers
    fall through to the engine's default scheduler (preserving
    bit-identical RNG streams for unscheduled runs).
    """
    build = scheduler_builder(text, n=n, protocol=protocol)
    return None if build is None else build()

"""Protocol compilation: dense integer states and flat transition tables.

The simulation engines pay a per-interaction price for the flexibility of
hashable-tuple states: every encounter hashes an ordered state pair into a
per-instance ``_delta_cache`` dict and re-derives outputs through Python
calls.  :class:`CompiledProtocol` pays that price **once**: it interns the
reachable state set (the :meth:`~repro.core.protocol.PopulationProtocol.states`
closure) into dense integer ids ``0..k-1`` and precomputes flat tables

* ``delta_init[p*k + q]`` / ``delta_resp[p*k + q]`` — the transition
  function as two flat integer arrays;
* ``pair_table[p*k + q]`` — ``None`` for no-ops, else the ``(p2, q2)``
  id pair (the batched engine's single-lookup hot path);
* ``reactive_mask`` — a flat numpy boolean mask of state-changing pairs;
* ``output_ids`` / ``output_symbols`` — the output function as an id map.

Compilation is memoized per process via :func:`compile_protocol`:
anonymous protocols cache their compilation on the instance itself (so
the tables die with the protocol), and callers that rebuild equal
protocols repeatedly — e.g. :mod:`repro.exp.runner` workers building one
registry protocol per trial — pass a stable ``key`` so each worker
process compiles once, not once per trial.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable

import numpy as np

from repro.core.protocol import PopulationProtocol, ProtocolError, State, Symbol


class CompiledProtocol:
    """A population protocol lowered to dense integer tables.

    Construct through :func:`compile_protocol` (or the
    :meth:`~repro.core.protocol.PopulationProtocol.compiled` hook) rather
    than directly, so process-level memoization applies.  Ids are assigned
    over the reachable state closure sorted by ``repr``, making the
    numbering deterministic across processes — compiled tables computed in
    different workers agree exactly.
    """

    __slots__ = (
        "protocol", "states", "index", "size",
        "delta_init", "delta_resp", "pair_table", "reactive_mask",
        "output_symbols", "output_ids", "initial_ids", "_typed",
        "__weakref__",
    )

    def __init__(self, protocol: PopulationProtocol,
                 extra_states: Iterable[State] = (),
                 max_states: int = 1_000_000):
        self.protocol = protocol
        closure = _reachable_closure(protocol, extra_states, max_states)
        #: Dense id -> original state, deterministically ordered.
        self.states: tuple = tuple(sorted(closure, key=repr))
        #: Original state -> dense id.
        self.index: dict = {state: i for i, state in enumerate(self.states)}
        k = len(self.states)
        self.size = k

        delta = protocol.delta
        index = self.index
        delta_init = [0] * (k * k)
        delta_resp = [0] * (k * k)
        pair_table: "list[tuple[int, int] | None]" = [None] * (k * k)
        reactive = np.zeros(k * k, dtype=bool)
        for p, state_p in enumerate(self.states):
            base = p * k
            for q, state_q in enumerate(self.states):
                p2_state, q2_state = delta(state_p, state_q)
                try:
                    p2 = index[p2_state]
                    q2 = index[q2_state]
                except KeyError:
                    raise ProtocolError(
                        f"delta({state_p!r}, {state_q!r}) leaves the "
                        "compiled state set") from None
                delta_init[base + q] = p2
                delta_resp[base + q] = q2
                if p2 != p or q2 != q:
                    pair_table[base + q] = (p2, q2)
                    reactive[base + q] = True
        #: Flat initiator / responder result tables (``[p*k + q]``).
        self.delta_init = delta_init
        self.delta_resp = delta_resp
        #: ``None`` for no-op pairs, else the ``(p2, q2)`` id pair.
        self.pair_table = pair_table
        #: Flat boolean mask of state-changing ordered pairs.
        self.reactive_mask = reactive

        #: Distinct output symbols, deterministically ordered.
        out_of = protocol.output
        self.output_symbols: tuple = tuple(
            sorted({out_of(state) for state in self.states}, key=repr))
        out_index = {sym: i for i, sym in enumerate(self.output_symbols)}
        #: State id -> output-symbol id.
        self.output_ids = [out_index[out_of(state)] for state in self.states]
        #: Input symbol -> initial state id.
        self.initial_ids = {
            symbol: index[protocol.initial_state(symbol)]
            for symbol in protocol.input_alphabet}
        #: Lazily built typed-array export (see :meth:`typed_arrays`).
        self._typed: "tuple | None" = None

    # -- Lookups ---------------------------------------------------------------

    def typed_arrays(self) -> tuple:
        """The flat tables as cached contiguous ``int64`` arrays.

        Returns ``(delta_init, delta_resp, output_ids)`` ready for
        dtype-strict consumers — the array-based engines and the
        nopython kernel backends, which cannot walk the Python lists.
        Built once per compilation and shared (callers must not mutate).
        """
        cached = self._typed
        if cached is None:
            cached = (np.ascontiguousarray(self.delta_init, dtype=np.int64),
                      np.ascontiguousarray(self.delta_resp, dtype=np.int64),
                      np.ascontiguousarray(self.output_ids, dtype=np.int64))
            self._typed = cached
        return cached

    def state_id(self, state: State) -> int:
        """Dense id of ``state``; raises ``KeyError`` for unknown states."""
        return self.index[state]

    def state_of(self, state_id: int) -> State:
        """Original state for a dense id."""
        return self.states[state_id]

    def initial_id(self, symbol: Symbol) -> int:
        """Dense id of the initial state for an input symbol."""
        try:
            return self.initial_ids[symbol]
        except KeyError:
            raise ValueError(
                f"input symbol {symbol!r} not in alphabet") from None

    def delta_ids(self, p: int, q: int) -> tuple[int, int]:
        """The transition on dense ids (identity for no-ops)."""
        flat = p * self.size + q
        return self.delta_init[flat], self.delta_resp[flat]

    def output_symbol(self, state_id: int) -> Symbol:
        """Output symbol of a dense state id."""
        return self.output_symbols[self.output_ids[state_id]]

    def is_reactive(self, p: int, q: int) -> bool:
        """True iff the ordered id pair changes some state."""
        return bool(self.reactive_mask[p * self.size + q])

    def reactive_matrix(self) -> np.ndarray:
        """The reactive mask as a ``(k, k)`` matrix (a reshaped view)."""
        return self.reactive_mask.reshape(self.size, self.size)

    def __repr__(self) -> str:
        reactive = int(self.reactive_mask.sum())
        return (f"<CompiledProtocol |Q|={self.size} "
                f"reactive={reactive}/{self.size * self.size} "
                f"of {type(self.protocol).__name__}>")


def _reachable_closure(protocol: PopulationProtocol,
                       extra_states: Iterable[State],
                       max_states: int) -> frozenset:
    """Reachable state closure, optionally seeded with extra states.

    With no extras this is exactly ``protocol.states()``; extras widen the
    seed set so engines started from explicit ``state_counts`` that
    mention states outside the input closure still compile.
    """
    extras = frozenset(extra_states)
    if not extras:
        return protocol.states(max_states=max_states)
    discovered: set = set(protocol.initial_states()) | set(extras)
    frontier: deque = deque(discovered)
    while frontier:
        state = frontier.popleft()
        for other in list(discovered):
            for pair in ((state, other), (other, state)):
                for result in protocol.delta(*pair):
                    if result not in discovered:
                        discovered.add(result)
                        frontier.append(result)
                        if len(discovered) > max_states:
                            raise ProtocolError(
                                f"state space exceeded {max_states} states; "
                                "is the protocol finite-state?")
    return frozenset(discovered)


# -- Process-level memoization -------------------------------------------------

#: Stable-key memo: ``key -> CompiledProtocol``.  Keys name a protocol
#: *identity* (e.g. ``("registry", name, params)``), so equal keys must
#: mean behaviorally identical protocols.
_key_memo: "dict[Hashable, CompiledProtocol]" = {}

#: Keyed-memo traffic counters.  ``hits``/``misses`` count keyed
#: :func:`compile_protocol` lookups; the persistent worker fleet
#: (:mod:`repro.exp.fleet`) reads them through worker stats to prove
#: that consecutive sweeps reuse one compilation per process.
_key_stats = {"hits": 0, "misses": 0}

#: Attribute under which an anonymous protocol caches its own
#: compilation.  Stored on the instance (not in a global table) so the
#: tables live exactly as long as the protocol — a global id-keyed memo
#: would pin every protocol forever, since the compilation holds a
#: strong back-reference.
_INSTANCE_ATTR = "_repro_compiled_cache"


def compile_protocol(protocol: PopulationProtocol, *,
                     key: "Hashable | None" = None,
                     extra_states: Iterable[State] = (),
                     max_states: int = 1_000_000) -> CompiledProtocol:
    """Compile ``protocol`` to dense tables, memoized per process.

    ``key``, when given, is a stable protocol identity (hashable; e.g.
    ``("registry", "majority", ())``): all calls with an equal key share
    one compilation per process, even across distinct protocol instances.
    This is how :mod:`repro.exp.runner` multiprocessing workers — which
    rebuild the protocol for every trial — compile once per worker
    instead of once per trial.  Without a key, the compilation is cached
    on the protocol instance itself (dying with it).  Compilations with
    ``extra_states`` are never memoized: the widened closure is specific
    to one engine's starting configuration.
    """
    extras = tuple(extra_states)
    if extras:
        return CompiledProtocol(protocol, extras, max_states)
    if key is not None:
        compiled = _key_memo.get(key)
        if compiled is None:
            _key_stats["misses"] += 1
            compiled = CompiledProtocol(protocol, (), max_states)
            _key_memo[key] = compiled
        else:
            _key_stats["hits"] += 1
        return compiled
    cached = getattr(protocol, _INSTANCE_ATTR, None)
    if isinstance(cached, CompiledProtocol) and cached.protocol is protocol:
        return cached
    compiled = CompiledProtocol(protocol, (), max_states)
    try:
        setattr(protocol, _INSTANCE_ATTR, compiled)
    except AttributeError:
        pass  # slotted/frozen protocol: compile, don't cache
    return compiled


def clear_compile_cache() -> None:
    """Drop the keyed process-level compilations (tests and memory
    pressure; per-instance caches die with their protocols)."""
    _key_memo.clear()
    _key_stats["hits"] = 0
    _key_stats["misses"] = 0


def compile_cache_stats() -> dict:
    """Size and traffic of the keyed memo layer (observability for
    tests, tools, and fleet worker stats)."""
    return {"keyed": len(_key_memo),
            "hits": _key_stats["hits"],
            "misses": _key_stats["misses"]}

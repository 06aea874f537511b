"""Batched fast-path agent engine: same process law, amortized interpreter cost.

:class:`BatchedSimulation` executes **exactly** the stochastic process of
its reference engine (:class:`~repro.sim.engine.Simulation` under
uniform pairing) — not merely the same law in distribution, but the
*same trajectory for the same seed*.  The fixed-seed fingerprint tests
pin this down.

How bit-identical batching works
--------------------------------

The reference engine consumes its ``random.Random`` in a rigid pattern:
``randrange(n)`` for the initiator draw, then ``randrange(n - 1)`` for the
responder draw, alternating forever.  CPython's ``randrange(m)`` is
rejection sampling over ``getrandbits(m.bit_length())``, and each
``getrandbits(k)`` with ``k <= 32`` consumes exactly one 32-bit Mersenne
Twister word (truncated to its top ``k`` bits).  So when ``n`` and
``n - 1`` have the same bit length, the engine's entire draw stream is a
pure function of the raw word stream: a word ``w`` yields the value
``w >> (32 - k)``, which is *rejected* when ``>= bound`` and *accepted*
otherwise.  CPython's ``random.Random`` and numpy's ``MT19937`` are the
same generator, so :class:`_PairDrawStream` loads the engine's
``random.Random`` state (its 624-word key and position) into an
``MT19937`` once, pulls words from it in blocks with ``random_raw`` —
the words ``getrandbits(32 * B)`` would have produced, in the same order,
without building a ``32 * B``-bit Python integer — and replays the
rejection logic vectorized, producing the identical accepted draw
sequence far faster than ``randrange`` call-by-call.  It hands the
pairs out as agent indices: the reference step shifts each responder
draw past its initiator (``q + (q >= p)``), and the stream does that
once per block, so no stepping path repeats it.  The position is
copied back into the ``random.Random`` only when someone reads the
engine's ``rng`` property, since the copy costs about as much as
decoding a block.  The single subtlety is a word decoding to exactly
``n - 1``: it is accepted for an initiator draw (bound ``n``) but
rejected for a responder draw (bound ``n - 1``).  Since accepted draws
strictly alternate roles, the role at any ambiguous word is determined by
the parity of accepted draws before it, which a short sequential fix-up
over only the ambiguous positions resolves.

State and stepping
------------------

The engine's one per-agent state is ``_sarr``, an ``int64`` array of
compiled state ids; crashed agents hold a dead sentinel id there and
their frozen state in a dict.  An agent's output is never stored: it is
``output_ids[state]``, and a list-based histogram of outputs is kept in
step with every change.  The scalar paths index a Python list several
times faster than an array, so the engine keeps ``_ids``, a list copy of
``_sarr``, as a cache only: the paths that write an agent at a time
write both, a prefix round's scatter or a fused span writes ``_sarr``
alone and drops the copy, and the next scalar path rebuilds it with one
``tolist()``.

On top of the decoded stream the engine drives a swappable step kernel
(see :mod:`repro.sim.backends`; select with ``backend=``).  The default
``numpy`` backend is an adaptive hybrid stepper: while reactive
encounters are frequent it steps scalar over compiled integer tables (no
hashing, no dict lookups); once the mean no-op gap grows it switches to
vectorized windows.

Those windows are mostly *prefix rounds*.  A window of draws is
gathered from the state array at once and masked for reactive pairs.
Let ``j`` be the first position whose initiator or responder a reactive
encounter earlier in the window changed.  Every read before ``j`` sees
exactly the state the sequential engine would see there, by induction:
no earlier reactive encounter touched the agents it reads.  So the
reactive encounters before ``j`` are exactly the ones the sequential
engine applies, they touch pairwise-disjoint agents, and one scatter
applies them all; the round ends at ``j`` and the next starts there.
With ``n`` agents and a mean no-op gap ``g``, a prefix runs about
``sqrt(n * g / 2)`` draws and applies about ``sqrt(n / (2 * g))``
encounters, so large populations apply hundreds per numpy round; where
few are expected the engine keeps scalar stepping or the first-hit
window instead.  A round gathers a window of about ``0.9 * sqrt(n * g)``
draws, a little more than the prefix it expects to use: every draw past
the prefix is gathered and masked for nothing.

The ``numba`` backend JIT-compiles one fused per-interaction loop over
the same tables and stream, bit-identical by construction; requesting it
where it cannot run falls back to ``numpy`` with a one-time warning.
Populations where ``n`` and ``n - 1`` differ in bit length (``n`` or
``n - 1`` a power of two, or ``n == 2``), ``n > 2**31``, or a
non-stdlib RNG fall back to a compiled scalar path that calls
``rng.randrange`` like the reference engine — still bit-identical, still
faster than the reference, just not block-decoded.

A silent configuration — no two agents can react — never changes
again (Sect. 3.2), yet a stopping rule may keep running it, as
correct-stable's settle phase does.  So on the fault-free, unmonitored,
block-decoded path, once no state changed for ``n / 8`` interactions
(and at least ``_QUIET_MIN``), :meth:`BatchedSimulation.run` probes for
silence: one ``np.bincount`` weighed against the reactive mask, cached
per ``last_change``.  A silent configuration takes the rest of the run
in O(1): the interactions are counted in ``interactions`` and
``skipped_interactions``, and their pairs are owed to the stream, which
decodes and discards them when it is next read.  A later step, run or
``rng`` read therefore sees the stream where stepping would have left
it, and a trial that simply ends never decodes them.  Faulted and
monitored runs, and the randrange fallback above, step every
interaction.

Faults and monitors
-------------------

:class:`BatchedSimulation` accepts the same ``faults=`` /``monitors=``
arguments as the reference engine and stays **bit-identical** to it under
any :class:`~repro.sim.faults.FaultPlan`: fault randomness comes from the
plan's own RNG, so the engine's block-decoded pair stream is untouched,
and crashes are represented by retagging the victim to a non-reactive
sentinel state id so the vectorized windows keep working.  The plan's
:meth:`~repro.sim.faults.FaultPlan.next_boundary` schedule tells the
engine where the next fault may fire: deterministic plans (crash-at,
corrupt-at, omit-at) run at full vectorized speed between boundaries and
drop to an exact scalar replica of the reference step only to cross
them; stochastic rate plans consult their RNG at every boundary and
therefore run the scalar replica throughout (still faster than the
reference engine, since the pair stream stays block-decoded).
Conservation, containment, and flicker monitors are checked vectorized
at chunk boundaries (and with exact reference semantics on the per-step
faulted path); fairness and watchdog monitors need per-step ``changed``
bookkeeping and stay reference-engine-only.  Unmonitored, fault-free
simulations run the exact pre-fault-layer hot path.

Restricted interaction graphs and custom schedulers remain
reference-only.  See ``docs/PERFORMANCE.md`` for the selection guide.
"""

from __future__ import annotations

import functools
import random
from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.configuration import AgentConfiguration
from repro.core.protocol import PopulationProtocol, State, Symbol
from repro.sim.backends import select_kernels
from repro.sim.compiled import CompiledProtocol, compile_protocol
from repro.util.multiset import FrozenMultiset
from repro.util.rng import resolve_rng

__all__ = [
    "BatchedSimulation",
    "batched_simulate_counts",
]

#: 32-bit words decoded per block.  The block size fixes where the
#: engine's ``random.Random`` stands after a run, so it is part of the
#: bit-identity contract: changing it moves every later draw.
_BLOCK_WORDS = 1 << 14

#: :meth:`run <BatchedSimulation.run>` probes for silence once no state
#: changed for ``max(n >> _QUIET_SHIFT, _QUIET_MIN)`` interactions.  A
#: probe is one O(n) ``np.bincount``, costing about as much as stepping
#: ``n / 8`` quiet interactions at large n, so waiting that long before
#: probing at most doubles what a quiet stretch costs.  In small
#: populations the probe's fixed cost dominates and quiet stretches are
#: short and many (leader election's tail has one per remaining leader),
#: so the wait never drops below the floor.  Both are measured
#: (docs/PERFORMANCE.md, "Choosing the agent engine's round").
_QUIET_SHIFT = 3
_QUIET_MIN = 1 << 13


class _PairDrawStream:
    """Block-decodes the ``randrange(n), randrange(n - 1), ...`` stream.

    Takes raw Mersenne Twister words from a numpy ``MT19937`` loaded with
    ``rng``'s state, and replays CPython's ``_randbelow`` rejection
    sampling vectorized (see the module docstring for the argument).
    ``pv[i], rv[i]`` with ``i >= ptr`` are the not-yet-consumed pairs
    as agent indices: the initiator, and the responder with the
    reference engine's shift past the initiator already applied, once
    per block.  Callers advance ``ptr`` as they use them, or
    :meth:`skip` them unread.

    The word source runs ahead of the logical stream by whatever is
    buffered, and ``rng`` itself only learns the source's position when
    :meth:`sync` copies it back (the owning engine's ``rng`` property
    does, lazily).  Drawing from ``rng`` mid-run would therefore neither
    advance nor be seen by the stream, which is why the batched engine
    owns its RNG exclusively.
    """

    __slots__ = ("rng", "n", "shift", "block_words", "pv", "rv", "ptr",
                 "_words", "_limit", "_dense", "_dirty", "_pending",
                 "_emitted", "_owed")

    def __init__(self, rng, n: int, block_words: int = _BLOCK_WORDS):
        # numpy.random is imported here, not at module level: sweeps
        # import this module during setup for every workload, and the
        # ~20 ms import belongs to the runs that actually decode.
        from numpy.random import MT19937

        self.rng = rng
        self.n = n
        self.shift = np.uint64(32 - n.bit_length())
        self.block_words = block_words
        # CPython's random.Random and numpy's MT19937 are the same
        # generator: the 624-word key and the position carry over as is.
        # (The setter copies a plain tuple several times faster than an
        # array.)  The generator is seeded from a constant, not from OS
        # entropy, since its state is overwritten at once.
        internal = rng.getstate()[1]
        words = MT19937(_constant_seed())
        words.state = {"bit_generator": "MT19937",
                       "state": {"key": internal[:624],
                                 "pos": internal[624]}}
        self._words = words
        self._limit = np.uint64(n)
        #: At most one word in 16 is rejected, so the mask is mostly
        #: true (see :meth:`_decode_block`).
        self._dense = 16 * n >= 15 << n.bit_length()
        #: Words were drawn since ``rng`` last received the position.
        self._dirty = False
        empty = np.empty(0, dtype=np.int64)
        self.pv = empty
        self.rv = empty
        self.ptr = 0
        #: An accepted initiator draw waiting for its responder mate.
        self._pending: "int | None" = None
        #: Total accepted draws ever decoded (role parity anchor).
        self._emitted = 0
        #: Pairs consumed by :meth:`skip` beyond the buffer, not yet
        #: decoded.
        self._owed = 0

    @staticmethod
    def supported(n: int) -> bool:
        """True iff the draw stream of population size ``n`` is decodable.

        Requires ``randrange(n)`` and ``randrange(n - 1)`` to consume one
        MT word per attempt under the same bit mask: equal bit lengths
        and at most 32 bits.
        """
        return 3 <= n <= (1 << 31) and n.bit_length() == (n - 1).bit_length()

    def sync(self) -> None:
        """Copy the word source's position back into ``rng``.

        Afterwards ``rng`` stands exactly where ``getrandbits`` would
        have left it had it drawn every decoded word itself; its
        ``gauss_next`` is kept.  Owed pairs are decoded first, so the
        position is the one stepping through them would have left.
        """
        if self._owed:
            self._pay()
        if not self._dirty:
            return
        state = self._words.state["state"]
        rng = self.rng
        rng.setstate((rng.VERSION,
                      tuple(state["key"].tolist()) + (state["pos"],),
                      rng.gauss_next))
        self._dirty = False

    def skip(self, pairs: int) -> None:
        """Consume ``pairs`` pairs unread.

        Buffered pairs go first; the rest are owed, and :meth:`ensure`
        or :meth:`sync` decodes and discards them when the stream is
        next read.  A run that is never read again never decodes them.
        """
        buffered = len(self.pv) - self.ptr
        if pairs <= buffered:
            self.ptr += pairs
        else:
            self.ptr = len(self.pv)
            self._owed += pairs - buffered

    def _pay(self) -> None:
        """Decode and discard the owed pairs, buffering the block's rest.

        Stops at the first block that covers them, exactly where
        stepping through them would have stopped decoding.
        """
        owed = self._owed
        self._owed = 0
        while True:
            new_p, new_r = self._decode_block()
            if len(new_p) >= owed:
                self.pv, self.rv, self.ptr = new_p, new_r, owed
                return
            owed -= len(new_p)

    def ensure(self, pairs: int) -> None:
        """Decode blocks until at least ``pairs`` pairs are buffered."""
        if len(self.pv) - self.ptr >= pairs:
            return
        if self._owed:
            self._pay()
            if len(self.pv) - self.ptr >= pairs:
                return
        # Concatenated even when one block would do: the copy leaves the
        # pairs contiguous, and skipping it measured no faster end to end
        # (docs/PERFORMANCE.md, "One state array and the silent tail").
        parts_p = [self.pv[self.ptr:]]
        parts_r = [self.rv[self.ptr:]]
        have = len(parts_p[0])
        while have < pairs:
            new_p, new_r = self._decode_block()
            parts_p.append(new_p)
            parts_r.append(new_r)
            have += len(new_p)
        self.pv = np.concatenate(parts_p)
        self.rv = np.concatenate(parts_r)
        self.ptr = 0

    def _decode_block(self):
        raw = self._words.random_raw(self.block_words)
        self._dirty = True
        raw >>= self.shift
        # Rejected by both bounds.  An index take compacts a random mask
        # about twice as fast as boolean indexing does, but boolean
        # indexing is faster when few words are rejected.
        keep = raw < self._limit
        if self._dense:
            vals = raw[keep].view(np.int64)
        else:
            vals = raw.take(np.flatnonzero(keep)).view(np.int64)
        n = self.n
        base = self._emitted
        ambiguous = np.flatnonzero(vals == n - 1)
        if ambiguous.size:
            # A value of exactly n - 1 is accepted as an initiator draw
            # (bound n) but rejected as a responder draw (bound n - 1).
            # Roles strictly alternate over *accepted* draws, so the role
            # at each ambiguous word follows from the accepted count
            # before it — resolvable left to right over just these spots.
            drop = []
            dropped = 0
            for j in ambiguous.tolist():
                if (base + j - dropped) & 1:  # responder role: rejected
                    drop.append(j)
                    dropped += 1
            if drop:
                vals = np.delete(vals, drop)
        self._emitted = base + len(vals)
        if self._pending is not None:
            vals = np.concatenate(([self._pending], vals))
            self._pending = None
        if len(vals) & 1:
            self._pending = int(vals[-1])
            vals = vals[:-1]
        # The responder draw q names the q-th agent other than the
        # initiator p; shift it to an agent index here, once per block,
        # rather than in every stepping path.
        p = vals[0::2]
        r = vals[1::2]
        return p, r + (r >= p)


@functools.cache
def _constant_seed():
    """A numpy ``ISeedSequence`` whose state words are all zero.

    ``MT19937()`` draws OS entropy through a ``SeedSequence`` to fill a
    state :class:`_PairDrawStream` overwrites at once; seeding it from
    this constant skips that work.  Built on first use, so numpy.random
    is imported only by runs that decode.
    """
    from numpy.random.bit_generator import ISeedSequence

    class _ConstantSeed(ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype=dtype)

    return _ConstantSeed()


def _make_stream(rng, n: int) -> "_PairDrawStream | None":
    """A draw stream when block decoding applies, else None (fallback).

    Only the stock ``random.Random`` type qualifies: subclasses may
    override ``randrange``/``getrandbits``, breaking the word-stream
    correspondence the decoder depends on.
    """
    if type(rng) is random.Random and _PairDrawStream.supported(n):
        return _PairDrawStream(rng, n)
    return None


def _check_alphabet(protocol: PopulationProtocol, symbols) -> None:
    alphabet = protocol.input_alphabet
    if set(symbols).difference(alphabet):
        symbol = next(s for s in symbols if s not in alphabet)
        raise ValueError(f"input symbol {symbol!r} not in alphabet")


class _SymbolRuns(tuple):
    """Inputs as ``(symbol, count)`` runs, laid out in order.

    :func:`batched_simulate_counts` passes these instead of an n-element
    symbol list, so the agent ids come from one ``np.repeat`` over the
    runs' initial state ids rather than one dict lookup per agent.
    """

    def id_array(self, protocol: PopulationProtocol,
                 compiled: CompiledProtocol) -> np.ndarray:
        """The agents' initial state ids, one run after another."""
        runs = [(symbol, count) for symbol, count in self if count]
        symbols = [symbol for symbol, _ in runs]
        _check_alphabet(protocol, symbols)
        return np.repeat(
            np.array([compiled.initial_ids[s] for s in symbols],
                     dtype=np.int64),
            [count for _, count in runs])


class BatchedSimulation:
    """Batched twin of :class:`~repro.sim.engine.Simulation` under uniform
    random pairing on the complete graph.

    Same constructor shape minus ``population``/``scheduler``, the same
    inspection API, and — for the same seed — the same
    ``(states, interactions, last_output_change)`` trajectory as the
    reference engine with its default :class:`UniformPairScheduler`,
    including under any :class:`~repro.sim.faults.FaultPlan` (see the
    module docstring for the fault and monitor contracts).  ``states`` is
    exposed as a property building a fresh list; :meth:`set_state` is
    available for corruption faults and experiment perturbations.

    The engine owns its RNG: nothing else may draw from it mid-run (fault
    plans bring their own).  A ``random.Random`` passed as ``seed=`` shows
    the advanced state once :attr:`rng` is read.

    ``skipped_interactions`` counts the interactions :meth:`run` took in
    O(1) because the configuration was silent (see the module
    docstring); they are included in ``interactions``.
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        inputs: "Sequence[Symbol] | None" = None,
        *,
        states: "Sequence[State] | None" = None,
        seed: "int | None" = None,
        compiled: "CompiledProtocol | None" = None,
        faults=None,
        monitors=(),
        backend: "str | None" = None,
    ):
        self.protocol = protocol
        if (inputs is None) == (states is None):
            raise ValueError("pass exactly one of inputs= or states=")
        if compiled is None:
            compiled = compile_protocol(protocol)
        ids = None
        if isinstance(inputs, _SymbolRuns):
            sarr = inputs.id_array(protocol, compiled)
        elif inputs is not None:
            _check_alphabet(protocol, inputs)
            ids = [compiled.initial_ids[symbol] for symbol in inputs]
            sarr = np.asarray(ids, dtype=np.int64)
        else:
            unknown = [s for s in states if s not in compiled.index]
            if unknown:
                compiled = compile_protocol(protocol, extra_states=unknown)
            ids = [compiled.index[state] for state in states]
            sarr = np.asarray(ids, dtype=np.int64)
        self._compiled = compiled
        #: The scalar paths' list copy of ``_sarr``, or None while stale
        #: (see :meth:`_id_list`).
        self._ids = ids
        n = len(sarr)
        if n < 2:
            raise ValueError("a population needs at least two agents")
        self._rng = resolve_rng(seed)
        self.interactions = 0
        self.last_output_change = 0
        self.last_change = 0
        #: Interactions :meth:`run` skipped as provably silent.
        self.skipped_interactions = 0
        #: The per-agent state ids, the one canonical per-agent state.
        self._sarr = sarr
        self._out_hist = np.bincount(
            np.asarray(compiled.output_ids, dtype=np.int64)[sarr],
            minlength=len(compiled.output_symbols)).tolist()
        # Transition tables used by the stepping paths.  Fault-free these
        # are exactly the compiled tables; with a plan attached they are
        # augmented with one extra non-reactive "dead" state id so that
        # crashed agents stay inert through the vectorized windows.
        k = compiled.size
        self._k = k
        self._pairs = compiled.pair_table
        self._react_flat = compiled.reactive_mask
        #: Per state: does it react with *any* partner as initiator?
        self._row_any = compiled.reactive_mask.reshape(k, k).any(axis=1)
        #: Agents that have crashed (state frozen, encounters inert).
        self.crashed: set[int] = set()
        #: Frozen real state id of each crashed agent.
        self._frozen: dict[int, int] = {}
        self._dead: "int | None" = None
        self._n0 = n
        self._faults = faults
        if faults is not None:
            ka = k + 1
            pairs_aug: list = [None] * (ka * ka)
            for p in range(k):
                pairs_aug[p * ka:p * ka + k] = compiled.pair_table[
                    p * k:(p + 1) * k]
            react_aug = np.zeros(ka * ka, dtype=bool)
            react_aug.reshape(ka, ka)[:k, :k] = \
                compiled.reactive_mask.reshape(k, k)
            row_any_aug = np.zeros(ka, dtype=bool)
            row_any_aug[:k] = self._row_any
            self._k = ka
            self._pairs = pairs_aug
            self._react_flat = react_aug
            self._row_any = row_any_aug
            self._dead = k
            faults.bind(self)
        self._stream = _make_stream(self._rng, n)
        #: Effective kernel backend name (after any fallback) and the
        #: kernel object the run loops drive.
        self.backend, self._kernels = select_kernels(
            backend, decodable=self._stream is not None)
        tinit, tresp, out_arr = compiled.typed_arrays()
        self._kout_ids = out_arr
        if faults is None:
            self._ktinit, self._ktresp = tinit, tresp
        else:
            # Mirror the pair-table augmentation for the typed tables:
            # one extra dead row/column, never read because the
            # augmented reactive mask is False there.
            ka = self._k
            tinit_aug = np.zeros(ka * ka, dtype=np.int64)
            tresp_aug = np.zeros(ka * ka, dtype=np.int64)
            tinit_aug.reshape(ka, ka)[:k, :k] = tinit.reshape(k, k)
            tresp_aug.reshape(ka, ka)[:k, :k] = tresp.reshape(k, k)
            self._ktinit, self._ktresp = tinit_aug, tresp_aug
        self._gap = 2.0
        #: ``(last_change, verdict)`` of the latest silence probe.
        self._silence = (-1, False)
        #: Per-agent stamp array of the numpy prefix rounds (allocated
        #: on first use there).
        self._touch: "np.ndarray | None" = None
        #: Attached runtime monitors (see :meth:`attach_monitor`).
        self.monitors: list = []
        #: Reproduction tuple embedded into MonitorViolations.
        self.monitor_context: "dict | None" = None
        self._containment_masks: dict = {}
        for monitor in monitors:
            self.attach_monitor(monitor)

    def attach_monitor(self, monitor) -> None:
        """Attach a conservation, containment, or flicker monitor.

        These three invariants have vectorized checks on this engine
        (run at chunk boundaries, and with exact reference semantics on
        the per-step faulted path).  Fairness and watchdog monitors need
        per-interaction ``changed`` bookkeeping the vectorized windows do
        not produce; attach those to the reference engine instead.
        """
        from repro.sim.monitors import (
            ConservationMonitor,
            OutputFlickerMonitor,
            StateContainmentMonitor,
        )

        if not isinstance(monitor, (ConservationMonitor,
                                    StateContainmentMonitor,
                                    OutputFlickerMonitor)):
            raise ValueError(
                f"monitor {type(monitor).__name__!r} is not supported on "
                "the batched engine; supported kinds: conservation, "
                "containment, flicker (use the reference engine for "
                "fairness/watchdog)")
        monitor.on_attach(self)
        if isinstance(monitor, StateContainmentMonitor):
            state_of = self._compiled.states
            allowed = monitor.allowed
            mask = np.zeros(self._k, dtype=bool)
            for sid in range(self._compiled.size):
                mask[sid] = state_of[sid] in allowed
            if self._dead is not None:
                mask[self._dead] = True  # frozen states checked separately
            # [mask, last_change at the previous check]: an unchanged
            # configuration cannot have left the allowed set, so silent
            # tails skip the O(n) scan entirely.
            self._containment_masks[monitor] = [mask, -1]
        self.monitors.append(monitor)

    # -- Introspection ---------------------------------------------------------

    @property
    def rng(self) -> random.Random:
        """The engine's ``random.Random``, read-only.

        The same object passed as ``seed=`` (or built from it).  Reading
        it first copies the pair stream's word position back, so it
        stands where the decoded words left it.
        """
        if self._stream is not None:
            self._stream.sync()
        return self._rng

    @property
    def n(self) -> int:
        return len(self._sarr)

    @property
    def n_alive(self) -> int:
        """Number of agents that have not crashed."""
        return len(self._sarr) - len(self.crashed)

    @property
    def faults(self):
        """The attached :class:`~repro.sim.faults.FaultPlan`, or None."""
        return self._faults

    @property
    def states(self) -> list:
        """Current agent states (a fresh list; read-only view).

        Crashed agents report their frozen state, exactly like the
        reference engine.
        """
        state_of = self._compiled.states
        return [state_of[sid] for sid in self._real_ids()]

    @property
    def compiled(self) -> CompiledProtocol:
        """The compiled tables driving this simulation."""
        return self._compiled

    def _id_list(self) -> list:
        """``_sarr`` as a list, rebuilt with one ``tolist()`` when stale.

        The scalar paths index a list several times faster than an
        array; a prefix round's scatter writes ``_sarr`` alone and drops
        the list.
        """
        ids = self._ids
        if ids is None:
            ids = self._ids = self._sarr.tolist()
        return ids

    def _real_ids(self) -> list:
        """Per-agent state ids, crashed agents under their frozen state."""
        ids = self._id_list()
        if not self._frozen:
            return ids
        ids = list(ids)
        for agent, sid in self._frozen.items():
            ids[agent] = sid
        return ids

    def outputs(self) -> tuple:
        symbols = self._compiled.output_symbols
        out_ids = self._compiled.output_ids
        return tuple(symbols[out_ids[sid]] for sid in self._real_ids())

    def configuration(self) -> AgentConfiguration:
        return AgentConfiguration(self.states)

    def multiset(self) -> FrozenMultiset:
        return FrozenMultiset(self.state_counts())

    def state_counts(self) -> dict:
        """A fresh dict of state -> agent count, crashed agents under
        their frozen state, counted with one ``np.bincount`` over the
        state-id array (no n-element state list)."""
        hist = np.bincount(self._sarr, minlength=self._k).tolist()
        for sid in self._frozen.values():
            hist[sid] += 1
        return {state: count
                for state, count in zip(self._compiled.states, hist)
                if count}

    def output_counts(self) -> dict:
        symbols = self._compiled.output_symbols
        return {symbols[oid]: count
                for oid, count in enumerate(self._out_hist) if count}

    def unanimous_output(self) -> "Symbol | None":
        n = len(self._sarr)
        for oid, count in enumerate(self._out_hist):
            if count == n:
                return self._compiled.output_symbols[oid]
        return None

    def surviving_outputs(self) -> list:
        if not self.crashed:
            return list(self.outputs())
        symbols = self._compiled.output_symbols
        out_ids = self._compiled.output_ids
        crashed = self.crashed
        return [symbols[out_ids[sid]] for a, sid in enumerate(self._id_list())
                if a not in crashed]

    def unanimous_surviving_output(self) -> "Symbol | None":
        if not self.crashed:
            return self.unanimous_output()
        outs = self.surviving_outputs()
        first = outs[0]
        if all(out == first for out in outs[1:]):
            return first
        return None

    def alive_agents(self) -> list[int]:
        """Ids of the live agents, in ascending order."""
        if not self.crashed:
            return list(range(len(self._sarr)))
        return [a for a in range(len(self._sarr)) if a not in self.crashed]

    # -- Fault primitives ------------------------------------------------------

    def _fault_rng(self, rng):
        """Resolve the RNG for a fault primitive.

        The engine owns its RNG.  With a pair stream, the words come from
        a numpy copy of the generator that runs ahead of the logical draw
        sequence and is only copied back into ``rng`` lazily, so a draw
        from ``rng`` would neither advance nor be seen by the decoder;
        callers on a stream-backed engine must pass an explicit RNG (a
        fault plan always passes its own).
        """
        if rng is not None:
            return rng
        if self._stream is not None:
            raise RuntimeError(
                "the batched engine's RNG is block-buffered; pass an "
                "explicit rng= to fault primitives (fault plans do)")
        return self._rng

    def crash(self, agent: int) -> None:
        """Silently stop ``agent``; mirrors the reference engine exactly.

        Requires fault support (construct with ``faults=``): the dead
        sentinel state id only exists in the augmented tables.
        """
        if self._dead is None:
            raise RuntimeError(
                "crash support needs the augmented tables; construct the "
                "batched simulation with faults= to enable it")
        if not 0 <= agent < len(self._sarr):
            raise ValueError(f"no such agent: {agent}")
        if agent in self.crashed:
            return
        if self.n_alive <= 2:
            raise RuntimeError(
                "cannot crash: a crash must leave at least two live agents")
        self.crashed.add(agent)
        self._frozen[agent] = int(self._sarr[agent])
        self._sarr[agent] = self._dead
        if self._ids is not None:
            self._ids[agent] = self._dead

    def crash_random(self, count: int = 1, *, rng=None) -> list[int]:
        """Crash ``count`` uniformly chosen live agents; all-or-nothing.

        Identical validation and RNG consumption to
        :meth:`repro.sim.engine.Simulation.crash_random`, so a plan's
        crash draws replay bit-identically across the two engines.
        """
        if count < 0:
            raise ValueError("crash count must be non-negative")
        if count > self.n_alive - 2:
            raise RuntimeError(
                f"cannot crash {count} of {self.n_alive} live agents: "
                "a crash must leave at least two live agents")
        rng = self._fault_rng(rng)
        alive = self.alive_agents()
        victims = []
        for _ in range(count):
            victim = alive.pop(rng.randrange(len(alive)))
            self.crash(victim)
            victims.append(victim)
        return victims

    def crash_matching(self, match, count: int = 1, *, rng=None) -> int:
        """Crash up to ``count`` live agents whose state satisfies
        ``match``; best-effort, reference-identical RNG consumption."""
        rng = self._fault_rng(rng)
        state_of = self._compiled.states
        ids = self._id_list()
        candidates = [a for a in self.alive_agents()
                      if match(state_of[ids[a]])]
        applied = 0
        while candidates and applied < count and self.n_alive > 2:
            victim = candidates.pop(rng.randrange(len(candidates)))
            self.crash(victim)
            applied += 1
        return applied

    def set_state(self, agent: int, state: State) -> bool:
        """Overwrite one agent's state, keeping output bookkeeping intact.

        Returns True iff the state changed.  The state must already be in
        the compiled table (corruptors produce initial states, which
        always are); the batched engine cannot extend its tables mid-run.
        """
        compiled = self._compiled
        sid = compiled.index.get(state)
        if sid is None:
            raise ValueError(
                f"state {state!r} is not in the compiled state table; "
                "the batched engine cannot extend it mid-run (use the "
                "reference engine for out-of-table corruptors)")
        if agent in self.crashed:
            old = self._frozen[agent]
            if old == sid:
                return False
            self._frozen[agent] = sid
        else:
            old = int(self._sarr[agent])
            if old == sid:
                return False
            self._sarr[agent] = sid
            if self._ids is not None:
                self._ids[agent] = sid
        self.last_change = self.interactions
        out_old = compiled.output_ids[old]
        out = compiled.output_ids[sid]
        if out != out_old:
            self._out_hist[out_old] -= 1
            self._out_hist[out] += 1
            self.last_output_change = self.interactions
        return True

    def corrupt_random(self, corruptor, *, rng=None) -> bool:
        """Rewrite a uniformly random live agent's state via
        ``corruptor(state, protocol, rng)``; returns True iff it changed."""
        rng = self._fault_rng(rng)
        alive = self.alive_agents()
        agent = alive[rng.randrange(len(alive))]
        state_of = self._compiled.states
        return self.set_state(
            agent, corruptor(state_of[int(self._sarr[agent])], self.protocol,
                             rng))

    # -- Stepping --------------------------------------------------------------

    def step(self) -> bool:
        """One interaction; True iff any state changed."""
        if self._faults is not None:
            return self._step_faulted()
        changed = self._step_plain()
        if self.monitors:
            for monitor in self.monitors:
                monitor.after_step(self, changed)
        return changed

    def _step_plain(self) -> bool:
        n = len(self._sarr)
        stream = self._stream
        if stream is None:
            initiator = self._rng.randrange(n)
            responder = self._rng.randrange(n - 1)
            if responder >= initiator:
                responder += 1
        else:
            stream.ensure(1)
            i = stream.ptr
            initiator = int(stream.pv[i])
            responder = int(stream.rv[i])
            stream.ptr = i + 1
        self.interactions += 1
        ids = self._ids
        if ids is None:
            ids = self._id_list()
        flat = ids[initiator] * self._k + ids[responder]
        if self._pairs[flat] is None:
            return False
        self._apply_transition(initiator, responder, flat)
        return True

    def _step_faulted(self) -> bool:
        """One interaction through the exact reference fault order:
        boundary faults, pair draw, clock tick, crashed-party inertness,
        omission, transition.  Bit-identical to
        :meth:`repro.sim.engine.Simulation.step` under the same plan."""
        plan = self._faults
        plan.pre_step(self)
        n = len(self._sarr)
        stream = self._stream
        if stream is None:
            initiator = self._rng.randrange(n)
            responder = self._rng.randrange(n - 1)
            if responder >= initiator:
                responder += 1
        else:
            stream.ensure(1)
            i = stream.ptr
            initiator = int(stream.pv[i])
            responder = int(stream.rv[i])
            stream.ptr = i + 1
        self.interactions += 1
        changed = False
        if self.crashed and (initiator in self.crashed
                             or responder in self.crashed):
            pass
        elif plan.drop_encounter(self):
            pass
        else:
            ids = self._id_list()
            flat = ids[initiator] * self._k + ids[responder]
            if self._pairs[flat] is not None:
                self._apply_transition(initiator, responder, flat)
                changed = True
        if self.monitors:
            for monitor in self.monitors:
                monitor.after_step(self, changed)
        return changed

    def _apply_transition(self, initiator: int, responder: int,
                          flat: int) -> None:
        """Apply the reactive pair ``flat`` (``p * k + q`` of the two
        agents' states, as the caller looked it up)."""
        p, q = divmod(flat, self._k)
        p2, q2 = self._pairs[flat]
        # Callers position self.interactions at the transition's moment
        # before applying, exactly like the reference step().
        self.last_change = self.interactions
        sarr = self._sarr
        sarr[initiator] = p2
        sarr[responder] = q2
        ids = self._ids
        if ids is not None:
            ids[initiator] = p2
            ids[responder] = q2
        out_ids = self._compiled.output_ids
        hist = self._out_hist
        changed_output = False
        out_old, out_new = out_ids[p], out_ids[p2]
        if out_new != out_old:
            hist[out_old] -= 1
            hist[out_new] += 1
            changed_output = True
        out_old, out_new = out_ids[q], out_ids[q2]
        if out_new != out_old:
            hist[out_old] -= 1
            hist[out_new] += 1
            changed_output = True
        if changed_output:
            self.last_output_change = self.interactions

    def run(self, steps: int) -> None:
        if steps <= 0:
            return
        if self._faults is not None or self.monitors:
            self._run_chaos(steps)
            return
        if self._stream is None:
            for _ in range(steps):
                self._step_plain()
            return
        target = self.interactions + steps
        kernels = self._kernels
        quiet = max(len(self._sarr) >> _QUIET_SHIFT, _QUIET_MIN)
        while self.interactions < target:
            if (self.interactions - self.last_change >= quiet
                    and self._silent()):
                # No draw can change a silent configuration: account for
                # the rest of the run and owe its pairs to the stream.
                skipped = target - self.interactions
                self._stream.skip(skipped)
                self.skipped_interactions += skipped
                self.interactions = target
                return
            kernels.chunk(self, target - self.interactions)

    def _silent(self) -> bool:
        """Whether no two agents can react, probed once per configuration
        (``last_change`` names it on the fault-free path).

        Counts the ordered pairs of distinct agents whose states react,
        ``c_p * (c_q - [p == q])`` summed over the reactive ``(p, q)``,
        from one ``np.bincount``.  The terms are non-negative, so the
        float sum is zero exactly when every term is.
        """
        last_change, verdict = self._silence
        if last_change != self.last_change:
            k = self._k
            counts = np.bincount(self._sarr, minlength=k).astype(np.float64)
            react = self._react_flat.reshape(k, k)
            verdict = not (counts @ react @ counts
                           - react.diagonal() @ counts)
            self._silence = (self.last_change, verdict)
        return verdict

    def _run_chaos(self, steps: int) -> None:
        """The fault/monitor-aware run loop.

        Fault-free segments between plan boundaries go through the full
        vectorized machinery (with monitor checks at chunk boundaries);
        steps that cross a boundary run the exact scalar replica of the
        reference step.  Stochastic rate plans report a boundary at every
        step, so they run scalar throughout — the price of consulting the
        plan's RNG interaction-by-interaction, exactly like the reference
        engine does.
        """
        plan = self._faults
        target = self.interactions + steps
        while self.interactions < target:
            if plan is not None:
                boundary = plan.next_boundary(self)
                if boundary is not None and boundary <= self.interactions:
                    self._step_faulted()
                    continue
                seg_end = target if boundary is None else min(target, boundary)
            else:
                seg_end = target
            self._run_segment(seg_end - self.interactions)

    def _run_segment(self, steps: int) -> None:
        """A fault-free stretch with monitor checks at chunk boundaries."""
        if steps <= 0:
            return
        target = self.interactions + steps
        if self._stream is None:
            monitors = self.monitors
            while self.interactions < target:
                changed = self._step_plain()
                for monitor in monitors:
                    monitor.after_step(self, changed)
            return
        kernels = self._kernels
        while self.interactions < target:
            kernels.chunk(self, target - self.interactions)
            if self.monitors:
                self._check_invariants()

    def _check_invariants(self) -> None:
        """Vectorized monitor checks at a chunk boundary.

        Bypasses the monitors' ``check_every`` modulo (chunk boundaries
        land on arbitrary interaction counts) and uses numpy formulations
        of the same invariants; a violation raises through the monitor's
        own :meth:`~repro.sim.monitors.Monitor.violate`, so the error
        shape is identical to the reference engine's.
        """
        for monitor in self.monitors:
            name = monitor.name
            if name == "conservation":
                n0 = self._n0
                live = self.n_alive
                if len(self._sarr) != n0 or live + len(self.crashed) != n0:
                    monitor.violate(self, expected=n0,
                                    agents=len(self._sarr), live=live,
                                    crashed=len(self.crashed))
            elif name == "containment":
                cache = self._containment_masks[monitor]
                if cache[1] == self.last_change:
                    continue  # nothing changed: the verdict cannot differ
                mask = cache[0]
                bad = ~mask[self._sarr]
                if bad.any():
                    agent = int(np.flatnonzero(bad)[0])
                    monitor.violate(self, agent=agent,
                                    state=repr(self.states[agent]))
                for agent, sid in self._frozen.items():
                    if not mask[sid]:
                        monitor.violate(
                            self, agent=agent,
                            state=repr(self._compiled.states[sid]))
                cache[1] = self.last_change
            else:  # flicker: armed-threshold check is O(1) already
                monitor.after_step(self, True)

    def run_until(self, condition, max_steps: int, check_every: int = 1) -> bool:
        """Run until ``condition(self)`` holds or ``max_steps`` pass."""
        if check_every < 1:
            raise ValueError("check_every must be positive")
        if condition(self):
            return True
        remaining = max_steps
        while remaining > 0:
            chunk = min(check_every, remaining)
            self.run(chunk)
            remaining -= chunk
            if condition(self):
                return True
        return False


def batched_simulate_counts(
    protocol: PopulationProtocol,
    input_counts: Mapping,
    *,
    seed: "int | None" = None,
    compiled: "CompiledProtocol | None" = None,
    faults=None,
    monitors=(),
    backend: "str | None" = None,
) -> BatchedSimulation:
    """Build a :class:`BatchedSimulation` from symbol counts.

    Agents are laid out symbol-by-symbol in the same order as
    :func:`~repro.sim.engine.simulate_counts`, so fixed-seed runs match
    the reference construction agent-for-agent — including fault plans,
    which consume their own RNG identically on both engines.
    """
    runs = _SymbolRuns(sorted(input_counts.items(),
                              key=lambda kv: repr(kv[0])))
    for _, count in runs:
        if count < 0:
            raise ValueError("counts must be non-negative")
    return BatchedSimulation(protocol, runs, seed=seed, compiled=compiled,
                             faults=faults, monitors=monitors,
                             backend=backend)

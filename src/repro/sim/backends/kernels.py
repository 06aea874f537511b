"""The fused per-interaction span kernel in nopython-compatible Python.

The numpy backend splits the batched agent engine's hot loop into
scalar chunks, first-hit windows and conflict-free prefix rounds, and
lets a gap controller interleave them.
That split exists purely to amortize *interpreter* cost; the trajectory
is the same either way, because every path consumes the decoded draw
stream in order and applies every reactive transition at its exact
interaction index, reading the states the sequential step would read.
A compiled kernel has no interpreter cost to amortize, so the
``numba`` and ``python`` backends use one fused loop instead: process
every buffered draw scalar-style, in stream order.  Bit identity with
the numpy backend (and hence with the reference engine) follows from
the draw stream and the per-draw arithmetic being identical — the
backend-parameterized fingerprint suite pins it down.

:func:`agent_span` is written in the numba ``nopython`` subset (plain
loops over typed arrays, no Python objects), so the same source runs
three ways: interpreted as the ``python`` debugging backend,
``@njit``-compiled by :mod:`repro.sim.backends.numba_backend`, and —
because it is plain Python — under coverage and pdb.

The adapter class fits the span to the engine's state layout: the span
writes the engine's canonical state-id array in place and reads each
agent's old output from it.  Only the output histogram is copied into
a typed array and back, O(k) per span of up to ``_SPAN_CHUNK``
interactions; the engine's list copy of the state ids is dropped, and
its scalar paths rebuild it when they next run.
"""

from __future__ import annotations

import numpy as np

#: Interactions per fused span between engine-loop decisions (stream
#: refills, fault boundaries, monitor sweeps).
_SPAN_CHUNK = 1 << 16


# -- Span kernels (nopython subset) --------------------------------------------


def agent_span(pv, rv, sarr, out_hist, tinit, tresp, reactive, out_ids, k):
    """Apply ``len(pv)`` interactions to the agent-array state in place.

    Mirrors ``BatchedSimulation._step_plain`` draw for draw: ``pv`` and
    ``rv`` are the initiator and responder agent indices as the pair
    stream decoded them (the responder already shifted past the
    initiator), and the transition is looked up in the flat
    ``[p*k + q]`` tables (augmented with the dead sentinel when faults
    are attached — sentinel pairs are non-reactive, so crashed agents
    stay inert).  Returns ``(last_change, last_output_change)`` as
    1-based offsets into the span, or -1 where nothing changed.
    """
    lc = -1
    lo = -1
    for i in range(pv.shape[0]):
        initiator = pv[i]
        responder = rv[i]
        flat = sarr[initiator] * k + sarr[responder]
        if not reactive[flat]:
            continue
        p2 = tinit[flat]
        q2 = tresp[flat]
        lc = i + 1
        op_old = out_ids[sarr[initiator]]
        oq_old = out_ids[sarr[responder]]
        sarr[initiator] = p2
        sarr[responder] = q2
        op = out_ids[p2]
        if op != op_old:
            out_hist[op_old] -= 1
            out_hist[op] += 1
            lo = i + 1
        oq = out_ids[q2]
        if oq != oq_old:
            out_hist[oq_old] -= 1
            out_hist[oq] += 1
            lo = i + 1
    return lc, lo


def exercise(span) -> None:
    """Run the span once on tiny inputs.

    Forces a lazily-compiled implementation (a numba dispatcher) through
    compilation at backend construction, so a JIT failure surfaces as a
    catchable error during engine setup — the graceful-fallback hook —
    instead of mid-run.  The dummy argument types match the real call
    site exactly, so no second compilation happens later.
    """
    z1 = np.zeros(1, dtype=np.int64)
    span(z1, z1, np.zeros(3, dtype=np.int64), np.array([3], dtype=np.int64),
         z1, z1, np.zeros(1, dtype=bool), np.zeros(1, dtype=np.int64), 1)


# -- Engine adapters -----------------------------------------------------------


class AgentSpanKernels:
    """Adapter: fused agent span over the engine's list/array state."""

    def __init__(self, name: str, span):
        self.name = name
        self._span = span

    def chunk(self, sim, remaining: int) -> None:
        count = remaining if remaining < _SPAN_CHUNK else _SPAN_CHUNK
        stream = sim._stream
        stream.ensure(count)
        i0 = stream.ptr
        pv = stream.pv[i0:i0 + count]
        rv = stream.rv[i0:i0 + count]
        stream.ptr = i0 + count
        out_hist = np.asarray(sim._out_hist, dtype=np.int64)
        base = sim.interactions
        lc, lo = self._span(pv, rv, sim._sarr, out_hist,
                            sim._ktinit, sim._ktresp, sim._react_flat,
                            sim._kout_ids, sim._k)
        sim.interactions = base + count
        if lc >= 0:
            sim.last_change = base + lc
            sim._ids = None
            sim._out_hist = out_hist.tolist()
        if lo >= 0:
            sim.last_output_change = base + lo


def make_kernels(span, *, name: str) -> AgentSpanKernels:
    """Adapt a span function to the engine interface."""
    return AgentSpanKernels(name, span)

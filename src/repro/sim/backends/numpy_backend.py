"""The default ``numpy`` step-kernel backend.

This module is the hybrid stepper of
:class:`~repro.sim.batched.BatchedSimulation`, kept behind the backend
seam so alternative kernels — JIT-compiled
(:mod:`repro.sim.backends.numba_backend`) or interpreted (the ``python``
backend) — can slot in behind the same calls.  It is the default
backend and the behavioral reference: every other backend's kernel must
reproduce these trajectories bit for bit (the backend-parameterized
fingerprint suite enforces it).

The vectorized step is a three-way choice made per chunk from the mean
no-op gap ``g`` and the population ``n``: scalar stepping while
reactive encounters are dense and a prefix round would be short; a
first-hit window (apply the window's first reactive encounter,
gathering responders only for draws whose initiator can react) while
they are sparse and few would share a prefix; and otherwise a *prefix
round* (:func:`agent_prefix_round`), which applies every reactive
encounter before the window's first conflicting read in one scatter.
The ``repro.sim.batched`` module docstring gives the argument that a
prefix round is exact.  A prefix round's window is sized to the prefix
it expects (see ``_PREFIX_SPREAD``), since the draws past the first
conflict are gathered and masked for nothing.

Every path reads the pair stream's ``pv`` and ``rv`` as agent indices:
the stream has already shifted each responder draw past its initiator.

The functions take the engine instance and mutate its state exactly as
the sequential step would; the engine owns all bookkeeping that is not
per-interaction (the stream, fault plan and monitors).
"""

from __future__ import annotations

import numpy as np

#: Interactions per scalar burst between controller decisions.
_SCALAR_CHUNK = 1024
#: Mean no-op gap above which vectorized windows beat scalar stepping.
_GAP_VECTOR_THRESHOLD = 24.0
#: Hard cap on one vectorized window.
_WINDOW_MAX = 1 << 16
#: Gap estimates saturate here (treated as "effectively silent").
_GAP_CAP = 1e9
#: A prefix round runs about ``sqrt(n * gap / 2)`` draws and applies
#: about ``sqrt(n / (2 * gap))`` reactive encounters.  Below the vector
#: threshold it replaces scalar stepping once ``n * gap`` reaches the
#: first bound (long enough to repay its fixed numpy cost); above, it
#: replaces first-hit windows once ``n / gap`` reaches the second.  Both bounds are measured, not derived (docs/PERFORMANCE.md,
#: "Choosing the agent engine's round").  A first-hit window gathers
#: responders only for draws whose initiator state can react at all,
#: which keeps it ahead in sparse tails like leader election's.
_PREFIX_SPAN2 = 131072.0
_PREFIX_HITS2 = 16.0
#: A prefix round's window is ``max(_PREFIX_FLOOR_GAPS * gap + 8,
#: _PREFIX_SPREAD * sqrt(n * gap))`` draws, against an expected prefix
#: of about ``0.71 * sqrt(n * gap)``: a window past the prefix gathers
#: draws the round never uses, one short of it ends the round early.
#: Both factors are measured (docs/PERFORMANCE.md, "Choosing the agent
#: engine's round").
_PREFIX_SPREAD = 0.9
_PREFIX_FLOOR_GAPS = 3.0


# -- Step functions ------------------------------------------------------------


def agent_scalar_chunk(sim, count: int) -> None:
    stream = sim._stream
    stream.ensure(count)
    i0 = stream.ptr
    p_vals = stream.pv[i0:i0 + count].tolist()
    r_vals = stream.rv[i0:i0 + count].tolist()
    stream.ptr = i0 + count
    ids = sim._id_list()
    pairs = sim._pairs
    k = sim._k
    base = sim.interactions
    idx = 0
    reactive = 0
    for initiator, responder in zip(p_vals, r_vals):
        idx += 1
        flat = ids[initiator] * k + ids[responder]
        if pairs[flat] is None:
            continue
        reactive += 1
        sim.interactions = base + idx
        sim._apply_transition(initiator, responder, flat)
    sim.interactions = base + idx
    if reactive:
        sim._gap = 0.6 * sim._gap + 0.4 * (idx / reactive)
    else:
        sim._gap = min(sim._gap * 2.0 + 1.0, _GAP_CAP)


def agent_vector_round(sim, remaining: int) -> None:
    """A first-hit window: apply only its first reactive encounter."""
    gap = sim._gap
    window = int(gap * 6.0) + 8
    if window > remaining:
        window = remaining
    if window > _WINDOW_MAX:
        window = _WINDOW_MAX
    stream = sim._stream
    stream.ensure(window)
    i0 = stream.ptr
    pv = stream.pv[i0:i0 + window]
    sarr = sim._sarr
    sp = sarr[pv]
    # Initiator states with no reactive partner at all can never be
    # the reactive event; windows of only those skip the responder
    # side entirely.
    candidates = sim._row_any[sp].nonzero()[0]
    if candidates.size == 0:
        stream.ptr = i0 + window
        sim.interactions += window
        sim._gap = min(gap * 2.0 + 1.0, _GAP_CAP)
        return
    pv_c = pv[candidates]
    resp_c = stream.rv[i0:i0 + window][candidates]
    sp_c = sp[candidates]
    sq_c = sarr[resp_c]
    hit = sim._react_flat[sp_c * sim._k + sq_c]
    m = int(hit.argmax())
    if not hit[m]:
        stream.ptr = i0 + window
        sim.interactions += window
        sim._gap = min(gap * 2.0 + 1.0, _GAP_CAP)
        return
    j0 = int(candidates[m])
    stream.ptr = i0 + j0 + 1
    sim.interactions += j0 + 1
    sim._apply_transition(int(pv_c[m]), int(resp_c[m]),
                          int(sp_c[m]) * sim._k + int(sq_c[m]))
    sim._gap = 0.75 * gap + 0.25 * (j0 + 1)


def agent_prefix_round(sim, remaining: int) -> None:
    """Apply the longest conflict-free prefix of one window at once.

    Up to the first position whose initiator or responder an earlier
    reactive encounter of the window changed, every read sees exactly
    the state the sequential engine would see there.  So the reactive
    encounters before that position touch pairwise-disjoint agents, and
    one scatter applies them all; the next round starts at the
    conflicting position.  A prefix with a single reactive encounter
    takes the scalar apply instead.
    """
    gap = sim._gap
    window = int(gap * _PREFIX_FLOOR_GAPS) + 8
    spread = int(_PREFIX_SPREAD * (len(sim._sarr) * gap) ** 0.5)
    if spread > window:
        window = spread
    if window > remaining:
        window = remaining
    if window > _WINDOW_MAX:
        window = _WINDOW_MAX
    stream = sim._stream
    stream.ensure(window)
    i0 = stream.ptr
    pv = stream.pv[i0:i0 + window]
    resp = stream.rv[i0:i0 + window]
    sarr = sim._sarr
    flat = sarr[pv] * sim._k + sarr[resp]
    # The method, not np.flatnonzero: same indices for a 1-D mask, and
    # about a microsecond less per call, which a round pays several times.
    hits = sim._react_flat[flat].nonzero()[0]
    if hits.size == 0:
        stream.ptr = i0 + window
        sim.interactions += window
        sim._gap = min(gap * 2.0 + 1.0, _GAP_CAP)
        return
    end = _conflict_free_end(sim, pv, resp, hits, window)
    applied = int(hits.searchsorted(end))
    base = sim.interactions
    stream.ptr = i0 + end
    if applied == 1:
        j0 = int(hits[0])
        sim.interactions = base + j0 + 1
        sim._apply_transition(int(pv[j0]), int(resp[j0]), int(flat[j0]))
    else:
        hits = hits[:applied]
        _scatter_hits(sim, base, hits,
                      np.concatenate((pv[hits], resp[hits])), flat[hits])
    sim.interactions = base + end
    sim._gap = 0.75 * gap + 0.25 * (end / applied)


def _conflict_free_end(sim, pv, resp, hits, window: int) -> int:
    """First window position reading an agent an earlier hit changed.

    Returns ``window`` when no position does.  Stamps every touched
    agent with the first hit position touching it in the engine's
    per-agent stamp array, compares, and clears the stamps again.
    """
    touch = sim._touch
    if touch is None:
        touch = sim._touch = np.full(len(sim._sarr), _WINDOW_MAX,
                                     dtype=np.int32)
    hit_p = pv[hits]
    hit_q = resp[hits]
    # One dtype throughout: ufunc.at casting int64 into int32 is slow.
    stamps = hits.astype(np.int32)
    np.minimum.at(touch, hit_p, stamps)
    np.minimum.at(touch, hit_q, stamps)
    # Nothing can conflict before the first hit.
    start = int(hits[0]) + 1
    late = (np.minimum(touch[pv[start:]], touch[resp[start:]])
            < np.arange(start, window, dtype=np.int32))
    touch[hit_p] = _WINDOW_MAX
    touch[hit_q] = _WINDOW_MAX
    conflicts = late.nonzero()[0]
    return start + int(conflicts[0]) if conflicts.size else window


def _scatter_hits(sim, base: int, hits, agents, flat) -> None:
    """Apply reactive encounters on pairwise-disjoint agents at once.

    ``agents`` lists the initiators, then the responders, of the
    encounters at window positions ``hits``.  Writes ``_sarr`` alone
    and drops the engine's list copy of it, which the scalar paths
    rebuild when they next need it.
    """
    new = np.concatenate((sim._ktinit[flat], sim._ktresp[flat]))
    sarr = sim._sarr
    out_ids = sim._kout_ids
    old_out = out_ids[sarr[agents]]
    new_out = out_ids[new]
    sarr[agents] = new
    sim._ids = None
    moved = (old_out != new_out).nonzero()[0]
    if moved.size:
        size = len(sim._out_hist)
        delta = (np.bincount(new_out[moved], minlength=size)
                 - np.bincount(old_out[moved], minlength=size))
        hist = sim._out_hist
        for out, d in enumerate(delta.tolist()):
            if d:
                hist[out] += d
        # Initiators come first, so an agent's encounter is its index
        # modulo the encounter count.
        last = int((moved % hits.size).max())
        sim.last_output_change = base + int(hits[last]) + 1
    sim.last_change = base + int(hits[-1]) + 1


# -- Kernel objects ------------------------------------------------------------


class NumpyAgentKernels:
    """Scalar / first-hit / prefix-round stepper for the batched agent
    engine."""

    name = "numpy"

    @staticmethod
    def chunk(sim, remaining: int) -> None:
        gap = sim._gap
        n = len(sim._sarr)
        if gap < _GAP_VECTOR_THRESHOLD:
            if n * gap < _PREFIX_SPAN2:
                agent_scalar_chunk(sim, remaining if remaining < _SCALAR_CHUNK
                                   else _SCALAR_CHUNK)
                return
        elif n < _PREFIX_HITS2 * gap:
            agent_vector_round(sim, remaining)
            return
        agent_prefix_round(sim, remaining)


_KERNELS = NumpyAgentKernels()


def make_kernels() -> NumpyAgentKernels:
    """The numpy kernels (a stateless singleton)."""
    return _KERNELS

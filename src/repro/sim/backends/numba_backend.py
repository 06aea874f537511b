"""The ``numba`` step-kernel backend: a JIT-compiled fused span.

Wraps the nopython span kernel in :mod:`repro.sim.backends.kernels`
with ``@njit(cache=True)`` — the compiled tables are dense ``int64``
arrays and the span is a pure integer loop, exactly the numba sweet
spot.  The module is only imported once the registry's probe has found
numba importable; the span is jitted once per process (and cached on
disk by numba across processes) and compilation is forced at backend
construction via :func:`repro.sim.backends.kernels.exercise`, so a JIT
failure surfaces during engine setup where the registry can fall back
to numpy with a warning instead of exploding mid-run.

Trajectory contract: identical source to the ``python`` backend, so the
kernel is bit-identical to the numpy backend and the reference engine
(the backend-parameterized fingerprint suite runs on every available
backend).
"""

from __future__ import annotations

from repro.sim.backends import kernels

#: The lazily jitted agent span (one compilation per process).
_jitted = None


def _build():
    global _jitted
    if _jitted is None:
        import numba

        span = numba.njit(cache=True)(kernels.agent_span)
        kernels.exercise(span)  # force compilation; failures raise here
        _jitted = span
    return _jitted


def make_kernels():
    """JIT-compiled kernels for the batched agent engine."""
    return kernels.make_kernels(_build(), name="numba")

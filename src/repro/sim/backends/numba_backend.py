"""The ``numba`` step-kernel backend: JIT-compiled fused spans.

Wraps the nopython span kernels in :mod:`repro.sim.backends.kernels`
with ``@njit(cache=True)`` — the compiled tables are dense ``int64``
arrays and the spans are pure integer loops, exactly the numba sweet
spot.  The module is only imported once the registry's probe has found
numba importable; kernels are jitted once per process (and cached on
disk by numba across processes) and compilation is forced at backend
construction via :func:`repro.sim.backends.kernels.exercise`, so a JIT
failure surfaces during engine setup where the registry can fall back
to numpy with a warning instead of exploding mid-run.

Trajectory contract: identical source to the ``python`` backend, so the
batched kernels are bit-identical to the numpy backend and the
reference engines (the backend-parameterized fingerprint suite runs on
every available backend).
"""

from __future__ import annotations

from repro.sim.backends import kernels

#: Lazily built {family: jitted span} map (one compilation per process).
_jitted: "dict | None" = None


def _build() -> dict:
    global _jitted
    if _jitted is None:
        import numba

        spans = {family: numba.njit(cache=True)(span)
                 for family, span in kernels.SPANS.items()}
        kernels.exercise(spans)  # force compilation; failures raise here
        _jitted = spans
    return _jitted


def make_kernels(family: str):
    """JIT-compiled kernels for one engine family."""
    return kernels.make_kernels(family, _build(), name="numba")

"""Pluggable step-kernel backends for the batched agent engine.

The batched agent engine (:class:`repro.sim.batched.BatchedSimulation`)
drives its inner interaction loop through a small kernel object
selected here.  (No other engine has a kernel seam: the ensemble engine
jumps each trial to its next reactive encounter, see
:mod:`repro.sim.ensemble`.)  Three backends ship:

``numpy`` (default)
    The adaptive scalar-chunk / first-hit-window / conflict-free
    prefix-round stepper (:mod:`repro.sim.backends.numpy_backend`).
    Always available; the behavioral reference.

``numba``
    The same per-interaction law as one fused loop,
    ``@njit(cache=True)``-compiled over the dense compiled tables
    (:mod:`repro.sim.backends.numba_backend`).  Eligible when numba is
    importable (``pip install -e ".[perf]"``); its kernels stay
    bit-identical to numpy.

``python``
    The numba kernels executed un-jitted — slow, but it runs the exact
    fused-loop algorithm anywhere (no numba required), which is how the
    contract suite covers the kernel algorithms on numba-free
    installations, and how the kernels stay debuggable under pdb and
    coverage.

Selection: the batched engine takes ``backend=`` (``None`` means the
default), :class:`repro.exp.spec.ExperimentSpec` has a hash-stable
``backend`` field, and ``exp run`` / ``chaos run`` / ``bench`` take
``--backend``.
When an explicitly requested backend is unavailable — numba missing,
the population shape has no block-decodable draw stream, or JIT
compilation fails — the engine falls back to ``numpy`` and warns once
per (backend, reason) per process; the default never warns.  Future
backends (e.g. CuPy) register through :func:`register_backend` and
inherit the whole contract suite via the backend-parameterized test
fixtures.
"""

from __future__ import annotations

import warnings

__all__ = [
    "DEFAULT_BACKEND",
    "KernelBackend",
    "available_backends",
    "backend_names",
    "backend_report",
    "get_backend",
    "register_backend",
    "reset_backend_warnings",
    "select_kernels",
    "warmed_kernels",
]

#: The always-available fallback backend.
DEFAULT_BACKEND = "numpy"


class KernelBackend:
    """One registered step-kernel implementation.

    ``probe`` returns an ineligibility reason (or None when the backend
    can run here) without importing anything heavy; ``factory()``
    builds the kernel object and may raise — the registry treats a
    raising factory as an eligibility failure and falls back.
    """

    def __init__(self, name: str, factory, *, probe=None):
        self.name = name
        self._factory = factory
        self._probe = probe

    def ineligible_reason(self) -> "str | None":
        """Why this backend cannot run here, or None if it can."""
        return self._probe() if self._probe is not None else None

    @property
    def available(self) -> bool:
        return self.ineligible_reason() is None

    def make_kernels(self):
        """Build the kernel object."""
        return self._factory()

    def __repr__(self) -> str:
        return f"<KernelBackend {self.name!r}>"


#: name -> KernelBackend, in registration order (numpy first).
_REGISTRY: "dict[str, KernelBackend]" = {}


def register_backend(backend: KernelBackend, *, replace: bool = False) -> None:
    """Register a kernel backend (the CuPy-shaped extension point)."""
    if backend.name in _REGISTRY and not replace:
        raise ValueError(f"backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend


def backend_names() -> tuple:
    """All registered backend names, eligible or not."""
    return tuple(_REGISTRY)


def get_backend(name: str) -> KernelBackend:
    """The registered backend, or ``ValueError`` naming the known ones."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; known: "
            f"{backend_names()}") from None


def available_backends() -> tuple:
    """Names of the backends whose probe passes on this installation."""
    return tuple(name for name, backend in _REGISTRY.items()
                 if backend.available)


def backend_report() -> list:
    """Per-backend eligibility rows (the ``repro doctor`` payload)."""
    rows = []
    for name, backend in _REGISTRY.items():
        reason = backend.ineligible_reason()
        rows.append({
            "name": name,
            "available": reason is None,
            "reason": reason,
            "default": name == DEFAULT_BACKEND,
        })
    return rows


# -- Warm-kernel tracking ------------------------------------------------------

#: Names of the backends whose kernels were constructed in this process.
#: For the numba backend, construction *is* JIT compilation (eager
#: ``@njit`` at build), so membership here means the JIT price has been
#: paid; ``repro doctor`` and the fleet worker stats report it.
_warm_kernels: set = set()


def warmed_kernels() -> list:
    """Sorted names of the backends whose kernels were built here."""
    return sorted(_warm_kernels)


# -- Fallback warnings (once per (backend, reason) per process) ----------------

_warned: set = set()


def reset_backend_warnings() -> None:
    """Forget which fallbacks have warned (test hook)."""
    _warned.clear()


def _warn_fallback(requested: str, reason: str) -> None:
    key = (requested, reason)
    if key in _warned:
        return
    _warned.add(key)
    warnings.warn(
        f"kernel backend {requested!r} is unavailable here ({reason}); "
        f"falling back to {DEFAULT_BACKEND!r}",
        RuntimeWarning, stacklevel=4)


def select_kernels(requested: "str | None", *, decodable: bool = True):
    """Resolve a backend request to ``(effective_name, kernel_object)``.

    ``requested=None`` (or the default name) selects numpy directly —
    no probing, no warnings, byte-for-byte the pre-backend behavior.
    An explicit non-default request is checked for eligibility: the
    backend's own probe, then the engine shape (the non-default
    backends consume the block-decoded draw stream, so populations
    without one — ``decodable=False`` — cannot use them), then kernel
    construction itself.  Any failure warns once and falls back to
    numpy; an unknown name raises ``ValueError``.
    """
    name = requested or DEFAULT_BACKEND
    backend = get_backend(name)
    if name == DEFAULT_BACKEND:
        kernels = backend.make_kernels()
        _warm_kernels.add(name)
        return name, kernels
    reason = backend.ineligible_reason()
    if reason is None and not decodable:
        reason = ("the population shape or RNG has no block-decodable "
                  "draw stream (needs 3 <= n <= 2**31 with n and n - 1 "
                  "of equal bit length, and a stock random.Random)")
    if reason is None:
        try:
            kernels = backend.make_kernels()
        except Exception as exc:
            reason = f"kernel construction failed: {exc}"
        else:
            _warm_kernels.add(name)
            return name, kernels
    _warn_fallback(name, reason)
    kernels = get_backend(DEFAULT_BACKEND).make_kernels()
    _warm_kernels.add(DEFAULT_BACKEND)
    return DEFAULT_BACKEND, kernels


# -- Shipped backends ----------------------------------------------------------


def _numpy_factory():
    from repro.sim.backends import numpy_backend

    return numpy_backend.make_kernels()


def _numba_probe() -> "str | None":
    try:
        import numba  # noqa: F401
    except Exception as exc:  # pragma: no cover - import-hook dependent
        return f"numba is not importable ({type(exc).__name__}: {exc})"
    return None


def _numba_factory():
    from repro.sim.backends import numba_backend

    return numba_backend.make_kernels()


def _python_factory():
    from repro.sim.backends import kernels

    return kernels.make_kernels(kernels.agent_span, name="python")


register_backend(KernelBackend("numpy", _numpy_factory))
register_backend(KernelBackend("numba", _numba_factory, probe=_numba_probe))
register_backend(KernelBackend("python", _python_factory))

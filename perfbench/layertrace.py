"""Layer spans recorded from outside the program.

:meth:`Tracer.install` wraps the public functions at each layer boundary
of ``repro`` (see :data:`TARGETS`) in timing wrappers.  Nothing under
``src/`` changes: the runner imports its collaborators inside its
functions, so a patched module attribute is what it calls.

Every call becomes a span ``[name, start, end, parent, tag, phase]``.
Spans stay in memory until the run ends.  A span's *self* time is its
duration minus its children's, so self times over all spans add up to
the wall time of the outermost span.  ``tag`` is True on spans under a
faulted sweep point, False under a fault-free one and None outside any
point.  ``phase`` is the benchmark phase (setup, run, resume) that was
current when the span opened.

Only the process that installed the tracer records spans.  Worker
processes cannot be traced from outside, so worker-side layers come from
an in-process run of the same spec.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

#: ``(module, class or None, attribute, span name)`` of every wrapped
#: function.  Span names are ``<layer>.<what>``; the layer is the part
#: before the first dot.
TARGETS = (
    ("repro.exp.spec", "ExperimentSpec", "from_dict", "spec.from_dict"),
    ("repro.exp.spec", "ExperimentSpec", "validate", "spec.validate"),
    ("repro.exp.spec", "ExperimentSpec", "content_hash", "spec.content_hash"),
    ("repro.protocols.registry", "ProtocolEntry", "build", "protocols.build"),
    ("repro.protocols.registry", "ProtocolEntry", "evaluate_truth",
     "protocols.truth"),
    ("repro.sim.compiled", None, "compile_protocol", "compiled.compile"),
    ("repro.sim.engine", None, "simulate_counts", "sim.construct"),
    ("repro.sim.batched", None, "batched_simulate_counts", "sim.construct"),
    ("repro.sim.ensemble", "EnsembleMultisetSimulation", "__init__",
     "sim.construct"),
    ("repro.sim.convergence", None, "run_until_silent", "sim.step"),
    ("repro.sim.convergence", None, "run_until_quiescent", "sim.step"),
    ("repro.sim.convergence", None, "run_until_correct_stable", "sim.step"),
    ("repro.sim.ensemble", None, "run_ensemble_until_silent", "sim.step"),
    ("repro.sim.ensemble", None, "run_ensemble_until_quiescent", "sim.step"),
    ("repro.sim.ensemble", None, "run_ensemble_until_correct_stable",
     "sim.step"),
    # convergence imports is_silent by name, so it is patched there.
    ("repro.sim.convergence", None, "is_silent", "convergence.scan"),
    ("repro.sim.ensemble", "EnsembleMultisetSimulation", "silent_mask",
     "convergence.scan"),
    ("repro.sim.batched", "BatchedSimulation", "outputs", "convergence.scan"),
    ("repro.exp.store", "ResultStore", "__init__", "store.open"),
    ("repro.exp.store", "ResultStore", "bind_spec", "store.bind"),
    ("repro.exp.store", "ResultStore", "append", "store.append"),
    ("repro.exp.runner", None, "run_trial", "runner.trial"),
    ("repro.exp.runner", None, "run_ensemble_point", "runner.trial"),
)


def _point_is_faulted(args, kwargs) -> bool:
    """Tag of a run_trial / run_ensemble_point call: is its point faulted."""
    point = args[1] if len(args) > 1 else kwargs["point"]
    return bool(point.intensity)


#: Span names whose calls start a new tag instead of inheriting one.
_TAGGERS = {"runner.trial": _point_is_faulted}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list = []
        self.phase = "setup"
        #: Tasks handed to a ``multiprocessing.Pool`` (parent side).
        self.pool_tasks = 0
        self._stack: list = []

    def _open(self, name: str, tag) -> list:
        parent = self._stack[-1] if self._stack else -1
        if tag is None and parent >= 0:
            tag = self.spans[parent][4]
        record = [name, 0.0, 0.0, parent, tag, self.phase]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, tag=None):
        """Record one span around the ``with`` body."""
        record = self._open(name, tag)
        try:
            yield
        finally:
            self._close(record)

    def _wrap(self, name: str, func):
        tagger = _TAGGERS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            record = self._open(
                name, tagger(args, kwargs) if tagger is not None else None)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(record)

        return traced

    def install(self) -> None:
        """Wrap every target for the rest of the process's life."""
        for module_name, class_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            if class_name is None:
                original = getattr(module, attr)
                traced = self._wrap(name, original)
                setattr(module, attr, traced)
                # Dispatch tables hold functions by reference (the
                # runner's engine -> point-function map); retarget them.
                for table in list(vars(module).values()):
                    if isinstance(table, dict):
                        for key, value in list(table.items()):
                            if value is original:
                                table[key] = traced
                continue
            owner = getattr(module, class_name)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            setattr(owner, attr, new)
        self._count_pool_tasks()

    def _count_pool_tasks(self) -> None:
        from multiprocessing.pool import Pool

        original = Pool.imap_unordered

        @functools.wraps(original)
        def counted(pool, func, iterable, *args, **kwargs):
            iterable = list(iterable)
            self.pool_tasks += len(iterable)
            return original(pool, func, iterable, *args, **kwargs)

        Pool.imap_unordered = counted

    def totals(self, phase: str) -> dict:
        """Per span name in ``phase``: calls and summed self time.

        ``sim.step`` is also split by tag into ``sim.step.faulted`` and
        ``sim.step.fault_free``.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, tag, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for i, (name, start, end, _, tag, span_phase) in enumerate(self.spans):
            if span_phase != phase:
                continue
            keys = [name]
            if name == "sim.step":
                keys.append("sim.step.faulted" if tag
                            else "sim.step.fault_free")
            for key in keys:
                row = out[key]
                row["calls"] += 1
                row["self_s"] += end - start - child[i]
        return dict(out)

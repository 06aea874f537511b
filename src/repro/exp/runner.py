"""Experiment execution: spec -> trial records, optionally in parallel.

The runner turns an :class:`~repro.exp.spec.ExperimentSpec` into its
point grid (``ns`` x fault intensities), derives every trial's seeds
purely from ``(spec content hash, point, trial index)`` via
:func:`repro.util.rng.derive_seed`, and executes the trials either
in-process or on a :class:`~repro.exp.fleet.WorkerFleet`.  Because no
seed depends on execution order, the set of records produced is
bit-identical whether the sweep ran on one worker or sixteen, forwards
or backwards — the determinism invariant the test suite pins down.

With a :class:`~repro.exp.store.ResultStore` attached, each record is
appended as it completes and already-stored trials are skipped up front,
making interrupted sweeps resumable at trial granularity.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from dataclasses import field as dataclass_field

from repro.exp.spec import ExperimentSpec
from repro.exp.store import ResultStore
from repro.util.rng import derive_seed

#: Upper bound on the fleet's trial chunk size (default policy).  The
#: load-balancing formula (tasks / workers / 4) makes very large chunks
#: on huge sweeps, and one slow trial then head-of-line-blocks its whole
#: chunk; the cap keeps the longest possible stall bounded regardless of
#: sweep size.
_CHUNK_CAP = 64


def _chunk_size(n_tasks: int, workers: int) -> int:
    """Trials per fleet task under the default policy: load-balanced,
    capped at ``_CHUNK_CAP``."""
    return max(1, min(_CHUNK_CAP, n_tasks // (workers * 4)))


@dataclass(frozen=True)
class SweepPoint:
    """One cell of the sweep grid."""

    n: int
    #: Fault intensity, or None when the spec has no fault axis.
    intensity: "float | None" = None
    #: Scheduler spec string, or None when the spec has no scheduler axis.
    scheduler: "str | None" = None

    @property
    def key(self) -> str:
        """Canonical label; part of every trial's identity.

        Axes contribute a segment only when swept, so every trial id
        minted before an axis existed is unchanged — stores written by
        older specs resume cleanly.
        """
        key = f"n={self.n}"
        if self.intensity is not None:
            key += f";intensity={self.intensity!r}"
        if self.scheduler is not None:
            key += f";scheduler={self.scheduler}"
        return key


def sweep_points(spec: ExperimentSpec) -> list[SweepPoint]:
    """The spec's full point grid, in canonical order."""
    intensities: "list[float | None]" = [None]
    if spec.faults is not None:
        intensities = [float(x) for x in spec.faults.intensities]
    schedulers: "list[str | None]" = [None]
    if spec.schedulers:
        schedulers = list(spec.schedulers)
    return [SweepPoint(n, intensity, scheduler)
            for n in spec.ns for intensity in intensities
            for scheduler in schedulers]


def trial_id(spec_hash: str, point: SweepPoint, trial: int) -> str:
    """Stable 16-hex identity of one trial (the store's resume key)."""
    text = f"{spec_hash}|{point.key}|trial={trial}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def trial_seeds(spec_hash: str, point: SweepPoint, trial: int) -> tuple[int, int]:
    """The ``(engine_seed, fault_seed)`` pair of one trial.

    This is the seed-derivation contract: both streams are pure functions
    of the spec hash, the point label, and the trial index — never of
    worker count, scheduling order, or how many trials ran before.
    """
    engine = derive_seed(spec_hash, point.key, trial, "engine")
    fault = derive_seed(spec_hash, point.key, trial, "fault")
    return engine, fault


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _fault_descriptor(spec: ExperimentSpec, point: SweepPoint) -> "dict | None":
    """JSON description of the point's fault plan (chaos-case format)."""
    if spec.faults is None or not point.intensity:
        return None
    desc = {"kind": spec.faults.kind, "intensity": point.intensity}
    if spec.faults.kind == "crash-at":
        desc["at_step"] = spec.faults.at_step
    return desc


def run_trial(spec: ExperimentSpec, point: SweepPoint, trial: int,
              *, spec_hash: "str | None" = None) -> dict:
    """Execute one trial and return its JSON-ready record.

    With ``spec.monitors`` set the simulation is monitor-instrumented and
    carries a reproduction context (the chaos-case dict consumed by
    :mod:`repro.analysis.shrink`); a tripped monitor ends the trial and
    lands in the record's ``violation`` field instead of propagating.
    """
    from repro.exp.spec import _counts_to_dict
    from repro.protocols import registry
    from repro.sim.convergence import (
        run_until_correct_stable,
        run_until_quiescent,
        run_until_silent,
    )
    from repro.sim.engine import simulate_counts
    from repro.sim.monitors import (
        MonitorViolation,
        OutputFlickerMonitor,
        build_monitors,
    )
    from repro.sim.schedulers import scheduler_from_spec

    spec_hash = spec_hash or spec.content_hash()
    engine_seed, fault_seed = trial_seeds(spec_hash, point, trial)

    entry = registry.get(spec.protocol)
    params = dict(spec.params)
    protocol = entry.build(**params)
    counts = spec.inputs.counts_for(point.n)
    plan = None
    if spec.faults is not None:
        plan = spec.faults.build_plan(point.intensity, fault_seed)
    sched_text = point.scheduler or spec.scheduler
    monitors = build_monitors(spec.monitors)
    if spec.engine == "batched":
        # Spec validation guarantees the batched engine only ever sees
        # the uniform scheduler and monitor kinds it vectorizes; fault
        # plans run through its bit-identical per-step path, so the
        # fingerprint contract with the reference engine holds faulted
        # and fault-free alike.
        from repro.sim.batched import batched_simulate_counts
        from repro.sim.compiled import compile_protocol

        # One compilation per worker process, not one per trial: the key
        # names the protocol identity, so every trial of the sweep (and
        # of any sweep over the same protocol) shares the tables.
        try:
            key = ("registry", spec.protocol,
                   tuple(sorted(params.items())))
            hash(key)
        except TypeError:
            key = None
        compiled = compile_protocol(protocol, key=key)
        sim = batched_simulate_counts(protocol, counts, seed=engine_seed,
                                      compiled=compiled, faults=plan,
                                      monitors=monitors,
                                      backend=spec.backend)
    else:
        scheduler = scheduler_from_spec(sched_text, n=point.n,
                                        protocol=protocol)
        sim = simulate_counts(protocol, counts, seed=engine_seed,
                              faults=plan, scheduler=scheduler,
                              monitors=monitors)
    if monitors:
        sim.monitor_context = {
            "protocol": spec.protocol,
            "params": {str(k): params[k] for k in sorted(params)},
            "counts": _counts_to_dict(counts),
            "scheduler": sched_text,
            "fault": _fault_descriptor(spec, point),
            "engine_seed": engine_seed,
            "fault_seed": fault_seed,
            "monitors": list(spec.monitors),
            "stop": spec.stop.to_dict(),
            "confirm": spec.confirm,
        }

    expected = None
    if entry.truth is not None:
        expected = int(entry.evaluate_truth(counts, **params))

    stop = spec.stop
    violation = None
    result = None
    try:
        if stop.rule == "quiescent":
            result = run_until_quiescent(sim, patience=stop.patience,
                                         max_steps=stop.max_steps)
        elif stop.rule == "silent":
            result = run_until_silent(sim, max_steps=stop.max_steps,
                                      check_every=stop.check_every)
        elif stop.rule == "correct-stable":
            if expected is None:
                raise ValueError(
                    f"stopping rule 'correct-stable' needs a predicate "
                    f"protocol; {spec.protocol!r} has no ground truth")
            result = run_until_correct_stable(sim, expected,
                                              max_steps=stop.max_steps)
        else:
            raise ValueError(f"unknown stopping rule {stop.rule!r}")
    except MonitorViolation as tripped:
        violation = tripped
    if violation is None and result.stopped and spec.confirm:
        for monitor in monitors:
            if isinstance(monitor, OutputFlickerMonitor):
                monitor.arm(sim)
        try:
            sim.run(spec.confirm)
        except MonitorViolation as tripped:
            violation = tripped

    record = {
        "kind": "trial",
        "id": trial_id(spec_hash, point, trial),
        "n": point.n,
        "intensity": point.intensity,
        "trial": trial,
        "engine_seed": engine_seed,
        "fault_seed": fault_seed,
        "interactions": sim.interactions,
        "converged_at": result.converged_at if result else None,
        "output": _jsonable(result.output) if result else None,
        "correct": (None if expected is None or result is None
                    else result.output == expected),
        "stopped": result.stopped if result else False,
        "crashes": plan.crashes if plan else 0,
        "corruptions": plan.corruptions if plan else 0,
        "omissions": plan.omissions if plan else 0,
    }
    # Chaos-only keys stay out of plain-sweep records so pre-existing
    # stores and their fixtures keep their exact shape.
    if point.scheduler is not None or spec.scheduler != "uniform":
        record["scheduler"] = sched_text
    if spec.engine != "agent":
        record["engine"] = spec.engine
    # Backend provenance: the *effective* backend after any fallback,
    # recorded only when non-default so pre-backend records keep their
    # exact shape.
    effective_backend = getattr(sim, "backend", "numpy")
    if effective_backend != "numpy":
        record["backend"] = effective_backend
    if monitors:
        record["violation"] = (None if violation is None
                               else violation.to_dict())
    return record


def run_ensemble_point(spec: ExperimentSpec, point: SweepPoint,
                       trials: Sequence[int], *,
                       spec_hash: "str | None" = None) -> list[dict]:
    """Execute one sweep point's trials in numpy lockstep.

    All of the point's pending trials advance together through one
    :class:`~repro.sim.ensemble.EnsembleMultisetSimulation`; each trial
    keeps its :func:`trial_seeds`-derived engine seed as its scalar
    identity (``scalar_twin`` replays it through ``MultisetSimulation``),
    and the records match :func:`run_trial`'s shape field for field.
    Trajectories are statistically — not bit — equivalent to the scalar
    engines', so records carry ``engine: "ensemble"``.

    A fault axis becomes a per-trial :class:`~repro.sim.ensemble.
    EnsembleFaults` descriptor sampled from each trial's derived fault
    seed, so the scalar-twin replay contract extends to faulted trials;
    monitor specs attach as vectorized fleet checks and a tripped trial
    records its violation exactly like :func:`run_trial`.
    """
    from repro.exp.spec import _counts_to_dict
    from repro.protocols import registry
    from repro.sim.compiled import compile_protocol
    from repro.sim.ensemble import (
        EnsembleFaults,
        EnsembleMultisetSimulation,
        run_ensemble_until_correct_stable,
        run_ensemble_until_quiescent,
        run_ensemble_until_silent,
    )
    from repro.sim.monitors import build_monitors

    spec_hash = spec_hash or spec.content_hash()
    entry = registry.get(spec.protocol)
    params = dict(spec.params)
    protocol = entry.build(**params)
    counts = spec.inputs.counts_for(point.n)
    try:
        key = ("registry", spec.protocol, tuple(sorted(params.items())))
        hash(key)
    except TypeError:
        key = None
    compiled = compile_protocol(protocol, key=key)
    seed_pairs = [trial_seeds(spec_hash, point, t) for t in trials]

    expected = None
    if entry.truth is not None:
        expected = int(entry.evaluate_truth(counts, **params))

    faults = None
    if spec.faults is not None:
        faults = EnsembleFaults.from_axis(spec.faults, point.intensity)
    monitors = build_monitors(spec.monitors)
    stop = spec.stop
    ens = EnsembleMultisetSimulation(
        protocol, counts, trials=len(trials),
        seeds=[engine_seed for engine_seed, _ in seed_pairs],
        compiled=compiled,
        faults=faults,
        fault_seeds=([fault_seed for _, fault_seed in seed_pairs]
                     if faults is not None else None),
        monitors=monitors,
        track_outputs=stop.rule != "silent",
        backend=spec.backend)
    if monitors:
        ens.monitor_context = {
            "protocol": spec.protocol,
            "params": {str(k): params[k] for k in sorted(params)},
            "counts": _counts_to_dict(counts),
            "scheduler": "uniform",
            "fault": _fault_descriptor(spec, point),
            "monitors": list(spec.monitors),
            "stop": spec.stop.to_dict(),
            "engine": "ensemble",
        }
    if stop.rule == "quiescent":
        results = run_ensemble_until_quiescent(
            ens, patience=stop.patience, max_steps=stop.max_steps)
    elif stop.rule == "silent":
        results = run_ensemble_until_silent(
            ens, max_steps=stop.max_steps, check_every=stop.check_every)
    elif stop.rule == "correct-stable":
        if expected is None:
            raise ValueError(
                f"stopping rule 'correct-stable' needs a predicate "
                f"protocol; {spec.protocol!r} has no ground truth")
        results = run_ensemble_until_correct_stable(
            ens, expected, max_steps=stop.max_steps)
    else:
        raise ValueError(f"unknown stopping rule {stop.rule!r}")

    records = []
    for slot, ((engine_seed, fault_seed), trial, result) in enumerate(
            zip(seed_pairs, trials, results)):
        record = {
            "kind": "trial",
            "id": trial_id(spec_hash, point, trial),
            "n": point.n,
            "intensity": point.intensity,
            "trial": trial,
            "engine_seed": engine_seed,
            "fault_seed": fault_seed,
            "interactions": result.interactions,
            "converged_at": result.converged_at,
            "output": _jsonable(result.output),
            "correct": (None if expected is None
                        else result.output == expected),
            "stopped": result.stopped,
            "crashes": int(ens.crashes[slot]),
            "corruptions": int(ens.corruptions[slot]),
            "omissions": int(ens.omissions[slot]),
            "engine": "ensemble",
        }
        if ens.backend != "numpy":
            record["backend"] = ens.backend
        if monitors:
            violation = ens.violations.get(slot)
            record["violation"] = (None if violation is None
                                   else violation.to_dict())
        records.append(record)
    return records


def run_fluid_point(spec: ExperimentSpec, point: SweepPoint,
                    trials: Sequence[int], *,
                    spec_hash: "str | None" = None) -> list[dict]:
    """Execute one sweep point as a mean-field fluid integration.

    The fluid limit is deterministic: one
    :class:`~repro.sim.fluid.FluidSimulation` integration covers every
    trial of the point, and each trial record carries the identical
    measurements under its own id.  The :func:`trial_seeds`-derived
    seeds are still recorded — they keep the record shape and resume
    identity uniform across engines — but no randomness consumes them
    (see docs/PERFORMANCE.md: the fluid contract is *deterministic given
    the spec*, the n -> infinity limit of the ensemble distribution).
    A fault axis enters as the perturbed drift terms of
    :class:`~repro.sim.fluid.MeanFieldODE` — rate kinds only, which spec
    validation already guarantees for the fluid engine — so the fault
    counters stay zero (the fluid limit has flows, not events).
    """
    from repro.protocols import registry
    from repro.sim.compiled import compile_protocol
    from repro.sim.ensemble import EnsembleFaults
    from repro.sim.fluid import (
        FluidSimulation,
        run_fluid_until_correct_stable,
        run_fluid_until_quiescent,
        run_fluid_until_silent,
    )

    spec_hash = spec_hash or spec.content_hash()
    entry = registry.get(spec.protocol)
    params = dict(spec.params)
    protocol = entry.build(**params)
    counts = spec.inputs.counts_for(point.n)
    try:
        key = ("registry", spec.protocol, tuple(sorted(params.items())))
        hash(key)
    except TypeError:
        key = None
    compiled = compile_protocol(protocol, key=key)
    seed_pairs = [trial_seeds(spec_hash, point, t) for t in trials]

    expected = None
    if entry.truth is not None:
        expected = int(entry.evaluate_truth(counts, **params))

    faults = None
    if spec.faults is not None:
        faults = EnsembleFaults.from_axis(spec.faults, point.intensity)
    stop = spec.stop
    fl = FluidSimulation(protocol, counts, compiled=compiled, record=False,
                         faults=faults)
    if stop.rule == "quiescent":
        result = run_fluid_until_quiescent(
            fl, patience=stop.patience, max_steps=stop.max_steps)
    elif stop.rule == "silent":
        result = run_fluid_until_silent(
            fl, max_steps=stop.max_steps, check_every=stop.check_every)
    elif stop.rule == "correct-stable":
        if expected is None:
            raise ValueError(
                f"stopping rule 'correct-stable' needs a predicate "
                f"protocol; {spec.protocol!r} has no ground truth")
        result = run_fluid_until_correct_stable(
            fl, expected, max_steps=stop.max_steps)
    else:
        raise ValueError(f"unknown stopping rule {stop.rule!r}")

    records = []
    for (engine_seed, fault_seed), trial in zip(seed_pairs, trials):
        records.append({
            "kind": "trial",
            "id": trial_id(spec_hash, point, trial),
            "n": point.n,
            "intensity": point.intensity,
            "trial": trial,
            "engine_seed": engine_seed,
            "fault_seed": fault_seed,
            "interactions": result.interactions,
            "converged_at": result.converged_at,
            "output": _jsonable(result.output),
            "correct": (None if expected is None
                        else result.output == expected),
            "stopped": result.stopped,
            "crashes": 0,
            "corruptions": 0,
            "omissions": 0,
            "engine": "fluid",
        })
    return records


#: Engines that execute a whole sweep point per task (one batch covers
#: all of the point's trials) rather than one trial per task.
POINT_ENGINES = ("ensemble", "fluid")


def group_pending_by_point(pending) -> list:
    """Pending ``(point, trial)`` pairs grouped into point batches.

    Canonical order (by ``n`` then intensity) shared by in-process and
    fleet dispatch, so point-batch construction is identical regardless
    of how the sweep executes.
    """
    by_point: dict = {}
    for point, trial in pending:
        by_point.setdefault(point, []).append(trial)
    return sorted(by_point.items(),
                  key=lambda kv: (kv[0].n, kv[0].intensity or 0.0))


_POINT_FUNCS = {"ensemble": run_ensemble_point, "fluid": run_fluid_point}


def record_sort_key(record: dict):
    """Canonical record order: by point, then trial index."""
    intensity = record.get("intensity")
    return (record["n"],
            -1.0 if intensity is None else float(intensity),
            record.get("scheduler") or "",
            record["trial"])


@dataclass
class ExperimentResult:
    """Outcome of :func:`run_experiment`: all records, canonically sorted."""

    spec: ExperimentSpec
    spec_hash: str
    records: list[dict]
    #: Trials executed by this call (the rest came from the store).
    executed: int
    #: Trials skipped because the store already held them.
    skipped: int
    #: Structured ``trial-failure`` records: quarantined trials from the
    #: store plus any quarantined by this call, canonically sorted.
    failures: list = dataclass_field(default_factory=list)
    #: Supervision counters (:meth:`SupervisionStats.to_dict`), or None
    #: for a default-policy sweep on no caller-supplied fleet.
    supervision: "dict | None" = None
    #: Per-run fleet info (workers, respawns), or None unless the sweep
    #: ran on a caller-supplied :class:`repro.exp.fleet.WorkerFleet`.
    fleet: "dict | None" = None

    @property
    def total(self) -> int:
        return len(self.records)


def run_experiment(
    spec: ExperimentSpec,
    *,
    store: "ResultStore | None" = None,
    workers: int = 1,
    progress: "Callable[[dict], None] | None" = None,
    retry_quarantined: bool = False,
    fleet=None,
) -> ExperimentResult:
    """Execute every trial of ``spec`` that the store does not already hold.

    The sweep runs in-process when the policy is default and either
    ``workers == 1`` or there is at most one task (a trial, or a point
    batch for the point engines) — so a resume with nothing pending
    spawns no process.  Every other sweep runs on ``fleet`` — a
    :class:`repro.exp.fleet.WorkerFleet`, whose size then replaces
    ``workers`` — or on a temporary ``WorkerFleet(workers)`` closed on
    return.  Records are appended to the store as they complete (in
    completion order — the store is an unordered set keyed by trial id)
    and the returned :class:`ExperimentResult` is canonically sorted, so
    aggregated output is identical for any worker count.  ``progress``
    is called with each freshly executed record.  Under the default
    policy a raising trial re-raises its original exception.

    With a non-default ``spec.execution`` policy the fleet supervises
    every trial (:mod:`repro.exp.supervise`): per-trial timeouts, retry
    with backoff, crashed-worker recovery, and failure quarantine.
    Quarantined trials resume as *failures* — they are not re-executed
    unless ``retry_quarantined`` is set (a later success then supersedes
    the stored failure record).

    Pass ``fleet`` to reuse warm workers across sweeps: the spec is
    installed once per sweep, and compiled tables and kernels persist
    in the workers between sweeps.
    """
    spec.validate()
    if workers < 1:
        raise ValueError("workers must be at least 1")
    spec_hash = spec.content_hash()

    done_records: list[dict] = []
    done_ids: set = set()
    done_failures: list[dict] = []
    quarantined_ids: set = set()
    if store is not None:
        store.bind_spec(spec)
        done_records = store.records()
        done_ids = store.completed_ids()
        if not retry_quarantined:
            done_failures = store.failures()
            quarantined_ids = store.quarantined_ids()

    pending: list[tuple] = []
    for point in sweep_points(spec):
        for trial in range(spec.trials):
            tid = trial_id(spec_hash, point, trial)
            if tid not in done_ids and tid not in quarantined_ids:
                pending.append((point, trial))

    fresh: list[dict] = []
    fresh_failures: list[dict] = []

    def collect(record: dict) -> None:
        if store is not None:
            store.append(record)
        fresh.append(record)
        if progress is not None:
            progress(record)

    def collect_failure(record: dict) -> None:
        if store is not None:
            store.append_failure(record)
        fresh_failures.append(record)

    groups = None
    n_tasks = len(pending)
    if spec.engine in POINT_ENGINES:
        groups = group_pending_by_point(pending)
        n_tasks = len(groups)
    supervision = info = None
    if fleet is not None:
        stats, info = fleet.run_pending(spec, pending, spec_hash,
                                        on_record=collect,
                                        on_failure=collect_failure)
        supervision = stats.to_dict()
    elif spec.execution.is_default() and (workers == 1 or n_tasks <= 1):
        if groups is not None:
            # Point batches: one ensemble (or fluid integration) per
            # sweep point covers all of the point's pending trials.
            point_func = _POINT_FUNCS[spec.engine]
            for point, trial_list in groups:
                for record in point_func(spec, point, trial_list,
                                         spec_hash=spec_hash):
                    collect(record)
        else:
            for point, trial in pending:
                collect(run_trial(spec, point, trial, spec_hash=spec_hash))
    else:
        from repro.exp.fleet import WorkerFleet
        from repro.exp.supervise import SupervisionStats

        stats = SupervisionStats()
        if pending:
            with WorkerFleet(min(workers, n_tasks)) as temporary:
                stats, _ = temporary.run_pending(
                    spec, pending, spec_hash, on_record=collect,
                    on_failure=collect_failure)
        if not spec.execution.is_default():
            supervision = stats.to_dict()

    records = sorted(done_records + fresh, key=record_sort_key)
    failures = sorted(done_failures + fresh_failures, key=record_sort_key)
    return ExperimentResult(spec=spec, spec_hash=spec_hash, records=records,
                            executed=len(fresh), skipped=len(done_records),
                            failures=failures, supervision=supervision,
                            fleet=info)


def plan_size(spec: ExperimentSpec) -> int:
    """Total number of trials the spec describes."""
    return len(sweep_points(spec)) * spec.trials

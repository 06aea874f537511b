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
stored as it completes (a fleet task's records together, in one write)
and already-stored trials are skipped up front, making interrupted
sweeps resumable at trial granularity.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from dataclasses import field as dataclass_field

# Every module a trial's path needs is imported here, once, so a fleet
# forked after this import inherits it instead of importing it on its
# first task; the engine modules that load numpy are imported by
# ExperimentSpec.validate() for the specs that name them.  Collaborators
# that can be wrapped (layer timing, test doubles) are called through
# their module attribute, read at point setup or later, so a wrapper
# installed after this import is what runs.
from repro.exp import fleet as exp_fleet
from repro.exp import supervise
from repro.exp.spec import ExperimentSpec
from repro.exp.store import ResultStore
from repro.protocols import registry
from repro.sim import convergence, engine, schedulers
from repro.sim import monitors as sim_monitors

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


def trial_ids(spec_hash: str, point: SweepPoint,
              trials: Iterable[int]) -> list[str]:
    """The store ids of ``point``'s ``trials``, from one prefix hash.

    Each id is the first 16 hex digits of ``sha256("<spec_hash>|<point
    key>|trial=<trial>")``, the store's resume key; the constant prefix
    is hashed once and its digest copied per trial.
    """
    prefix = hashlib.sha256(f"{spec_hash}|{point.key}|trial=".encode())
    ids = []
    for trial in trials:
        digest = prefix.copy()
        digest.update(str(trial).encode())
        ids.append(digest.hexdigest()[:16])
    return ids


def trial_keys(spec_hash: str, point: SweepPoint,
               trials: Sequence[int]) -> tuple[list, list[str]]:
    """Seeds and ids of ``point``'s ``trials``, from one prefix hash.

    Returns ``(seeds, ids)``: each trial's ``(engine_seed, fault_seed)``
    pair and its :func:`trial_ids` identity.  This is the
    seed-derivation contract: both streams are pure functions of the
    spec hash, the point label, and the trial index — never of worker
    count, scheduling order, or how many trials ran before.  The seeds
    are :func:`repro.util.rng.derive_seed` of ``(spec_hash, point key,
    trial, "engine" | "fault")``, hashed from a prefix digest taken once
    per point.
    """
    prefix = hashlib.sha256(f"{spec_hash}\x1f{point.key}\x1f".encode())
    seed_of = int.from_bytes
    seeds = []
    for trial in trials:
        engine = prefix.copy()
        engine.update(f"{trial}\x1fengine".encode())
        fault = prefix.copy()
        fault.update(f"{trial}\x1ffault".encode())
        seeds.append((seed_of(engine.digest()[:8], "big") >> 1,
                      seed_of(fault.digest()[:8], "big") >> 1))
    return seeds, trial_ids(spec_hash, point, trials)


def trial_id(spec_hash: str, point: SweepPoint, trial: int) -> str:
    """Stable 16-hex identity of one trial (the store's resume key)."""
    return trial_ids(spec_hash, point, (trial,))[0]


def trial_seeds(spec_hash: str, point: SweepPoint, trial: int) -> tuple[int, int]:
    """The ``(engine_seed, fault_seed)`` pair of one trial.

    A one-trial call of :func:`trial_keys`.
    """
    return trial_keys(spec_hash, point, (trial,))[0][0]


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def compile_for(spec: ExperimentSpec, protocol):
    """``spec``'s protocol compiled under its registry memo key.

    The key names the protocol identity, so every trial of a sweep (and
    of any sweep over the same protocol) shares one table set per
    process; unhashable params compile unmemoized.
    """
    from repro.sim.compiled import compile_protocol

    try:
        key = ("registry", spec.protocol, tuple(sorted(spec.params.items())))
        hash(key)
    except TypeError:
        key = None
    return compile_protocol(protocol, key=key)


def run_to_stop(sim, stop, expected, runners, protocol: str,
                confirm: int = 0, monitors=()) -> tuple:
    """Run ``sim`` until ``stop`` holds, then ``confirm`` more
    interactions with any flicker monitors armed.

    ``runners`` is the engine family's ``(until_quiescent, until_silent,
    until_correct_stable)`` drivers; ``expected`` is the ground truth
    (None for a protocol without one).  Returns ``(result, violation)``:
    a tripped :class:`~repro.sim.monitors.MonitorViolation` ends the run
    and is returned, with ``result`` None when it tripped before the
    stopping rule fired.
    """
    until_quiescent, until_silent, until_correct_stable = runners
    result = None
    try:
        if stop.rule == "quiescent":
            result = until_quiescent(sim, patience=stop.patience,
                                     max_steps=stop.max_steps)
        elif stop.rule == "silent":
            result = until_silent(sim, max_steps=stop.max_steps,
                                  check_every=stop.check_every)
        elif stop.rule == "correct-stable":
            if expected is None:
                raise ValueError(
                    f"stopping rule 'correct-stable' needs a predicate "
                    f"protocol; {protocol!r} has no ground truth")
            result = until_correct_stable(sim, expected,
                                          max_steps=stop.max_steps)
        else:
            raise ValueError(f"unknown stopping rule {stop.rule!r}")
        if confirm and result.stopped:
            for monitor in monitors:
                if isinstance(monitor, sim_monitors.OutputFlickerMonitor):
                    monitor.arm(sim)
            sim.run(confirm)
    except sim_monitors.MonitorViolation as tripped:
        return result, tripped
    return result, None


@dataclass
class _PointSetup:
    """What every engine needs to run some trials of one sweep point."""

    spec: ExperimentSpec
    spec_hash: str
    point: SweepPoint
    trials: Sequence[int]
    #: ``(engine_seed, fault_seed)`` per trial.
    seeds: list
    #: Trial id per trial.
    ids: list
    protocol: object
    counts: dict
    #: Ground-truth output, or None for a protocol without a predicate.
    expected: "int | None"
    #: Agent and batched engines only: ``construct(engine_seed, plan,
    #: monitors)`` builds one trial's simulation, and ``runners`` are the
    #: engine's stop-rule drivers (see :func:`run_to_stop`).
    construct: "Callable | None" = None
    runners: tuple = ()

    def context(self, engine_seed: int = 0, fault_seed: int = 0) -> dict:
        """The reproduction context of one trial (a chaos-case dict)."""
        from repro.analysis.shrink import ChaosCase

        case = ChaosCase.for_point(self.spec, self.point, self.counts,
                                   engine_seed, fault_seed)
        return case.to_dict()

    def record(self, slot: int, result, interactions: int,
               faults: tuple = (0, 0, 0), backend: str = "numpy",
               violation=None) -> dict:
        """The JSON-ready record of trial ``self.trials[slot]``.

        ``result`` is None when a monitor tripped before the stopping
        rule fired; ``faults`` counts ``(crashes, corruptions,
        omissions)``; ``backend`` is the effective kernel backend.
        """
        spec, point, trial = self.spec, self.point, self.trials[slot]
        engine_seed, fault_seed = self.seeds[slot]
        crashes, corruptions, omissions = faults
        record = {
            "kind": "trial",
            "id": self.ids[slot],
            "n": point.n,
            "intensity": point.intensity,
            "trial": trial,
            "engine_seed": engine_seed,
            "fault_seed": fault_seed,
            "interactions": interactions,
            "converged_at": result.converged_at if result else None,
            "output": _jsonable(result.output) if result else None,
            "correct": (None if self.expected is None or result is None
                        else result.output == self.expected),
            "stopped": result.stopped if result else False,
            "crashes": crashes,
            "corruptions": corruptions,
            "omissions": omissions,
        }
        # Optional keys appear only when non-default, so records written
        # before each one existed keep their exact shape.
        if point.scheduler is not None or spec.scheduler != "uniform":
            record["scheduler"] = point.scheduler or spec.scheduler
        if spec.engine != "agent":
            record["engine"] = spec.engine
        if backend != "numpy":
            record["backend"] = backend
        if spec.monitors:
            record["violation"] = (None if violation is None
                                   else violation.to_dict())
        return record


def _setup(spec: ExperimentSpec, point: SweepPoint, trials: Sequence[int],
           spec_hash: "str | None") -> _PointSetup:
    """Build the protocol, input counts, ground truth and trial keys, and
    for the per-trial engines the point's constructor and stop drivers."""
    spec_hash = spec_hash or spec.content_hash()
    entry = registry.get(spec.protocol)
    params = dict(spec.params)
    protocol = entry.build(**params)
    counts = spec.inputs.counts_for(point.n)
    expected = None
    if entry.truth is not None:
        expected = int(entry.evaluate_truth(counts, **params))
    seeds, ids = trial_keys(spec_hash, point, trials)
    setup = _PointSetup(
        spec=spec, spec_hash=spec_hash, point=point, trials=trials,
        seeds=seeds, ids=ids, protocol=protocol, counts=counts,
        expected=expected)
    if spec.engine not in POINT_ENGINES:
        # Resolved once per point, here rather than at import, so a
        # wrapper installed on a module attribute sees every trial.
        setup.construct = _trial_constructor(spec, point, protocol, counts)
        setup.runners = (convergence.run_until_quiescent,
                         convergence.run_until_silent,
                         convergence.run_until_correct_stable)
    return setup


def _trial_constructor(spec: ExperimentSpec, point: SweepPoint, protocol,
                       counts: dict) -> Callable:
    """``construct(engine_seed, plan, monitors)`` for one point's trials
    on the agent or batched engine.

    The point's scheduler string is parsed here, once; ``uniform`` gives
    the engine's default scheduler, and any other kind is built fresh
    for every trial, since schedulers carry state across a run.
    """
    if spec.engine == "batched":
        from repro.sim.batched import batched_simulate_counts

        def construct(engine_seed, plan, monitors):
            return batched_simulate_counts(
                protocol, counts, seed=engine_seed,
                compiled=compile_for(spec, protocol), faults=plan,
                monitors=monitors, backend=spec.backend)
        return construct

    simulate_counts = engine.simulate_counts
    make_scheduler = schedulers.scheduler_builder(
        point.scheduler or spec.scheduler, n=point.n, protocol=protocol)

    def construct(engine_seed, plan, monitors):
        return simulate_counts(
            protocol, counts, seed=engine_seed, faults=plan,
            scheduler=make_scheduler() if make_scheduler else None,
            monitors=monitors)
    return construct


def run_trial(spec: ExperimentSpec, point: SweepPoint, trial: int,
              *, spec_hash: "str | None" = None) -> dict:
    """Execute one agent- or batched-engine trial and return its record.

    With ``spec.monitors`` set the simulation is monitor-instrumented and
    carries a reproduction context (the chaos-case dict consumed by
    :mod:`repro.analysis.shrink`); a tripped monitor ends the trial and
    lands in the record's ``violation`` field instead of propagating.
    Fault plans run through the batched engine's bit-identical per-step
    path, so the fingerprint contract with the agent engine holds
    faulted and fault-free alike.  Sweeps reach the same code through
    :func:`run_task`, which builds the point's setup once per task.
    """
    return _run_slot(_setup(spec, point, [trial], spec_hash), 0)


def _run_slot(setup: _PointSetup, slot: int) -> dict:
    """Execute trial ``setup.trials[slot]`` on the agent or batched
    engine (see :func:`run_trial`) and return its record."""
    spec, point = setup.spec, setup.point
    engine_seed, fault_seed = setup.seeds[slot]
    plan = None
    if spec.faults is not None:
        plan = spec.faults.build_plan(point.intensity, fault_seed)
    monitors = sim_monitors.build_monitors(spec.monitors)
    sim = setup.construct(engine_seed, plan, monitors)
    if monitors:
        sim.monitor_context = setup.context(engine_seed, fault_seed)
    result, violation = run_to_stop(
        sim, spec.stop, setup.expected, setup.runners, spec.protocol,
        spec.confirm, monitors)
    faults = (0, 0, 0)
    if plan is not None:
        faults = (plan.crashes, plan.corruptions, plan.omissions)
    return setup.record(slot, result, sim.interactions, faults,
                        getattr(sim, "backend", "numpy"), violation)


def run_ensemble_point(spec: ExperimentSpec, point: SweepPoint,
                       trials: Sequence[int], *,
                       spec_hash: "str | None" = None) -> list[dict]:
    """Execute one sweep point's trials on the ensemble engine.

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
    from repro.sim import ensemble

    setup = _setup(spec, point, trials, spec_hash)
    faults = None
    if spec.faults is not None:
        faults = ensemble.EnsembleFaults.from_axis(spec.faults,
                                                   point.intensity)
    monitors = sim_monitors.build_monitors(spec.monitors)
    ens = ensemble.EnsembleMultisetSimulation(
        setup.protocol, setup.counts, trials=len(trials),
        seeds=[engine_seed for engine_seed, _ in setup.seeds],
        compiled=compile_for(spec, setup.protocol),
        faults=faults,
        fault_seeds=([fault_seed for _, fault_seed in setup.seeds]
                     if faults is not None else None),
        monitors=monitors,
        track_outputs=spec.stop.rule != "silent")
    if monitors:
        # One context serves every trial of the ensemble, so it carries
        # no per-trial seeds (and the ensemble runs no confirm phase).
        context = setup.context()
        for key in ("engine_seed", "fault_seed", "confirm"):
            del context[key]
        ens.monitor_context = {**context, "engine": "ensemble"}
    results, _ = run_to_stop(
        ens, spec.stop, setup.expected,
        (ensemble.run_ensemble_until_quiescent,
         ensemble.run_ensemble_until_silent,
         ensemble.run_ensemble_until_correct_stable),
        spec.protocol)
    return [setup.record(slot, result, result.interactions,
                         (int(ens.crashes[slot]), int(ens.corruptions[slot]),
                          int(ens.omissions[slot])),
                         violation=ens.violations.get(slot))
            for slot, result in enumerate(results)]


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
    from repro.sim import fluid

    setup = _setup(spec, point, trials, spec_hash)
    faults = None
    if spec.faults is not None:
        from repro.sim.faults import EnsembleFaults

        faults = EnsembleFaults.from_axis(spec.faults, point.intensity)
    fl = fluid.FluidSimulation(setup.protocol, setup.counts,
                               compiled=compile_for(spec, setup.protocol),
                               record=False, faults=faults)
    result, _ = run_to_stop(
        fl, spec.stop, setup.expected,
        (fluid.run_fluid_until_quiescent, fluid.run_fluid_until_silent,
         fluid.run_fluid_until_correct_stable),
        spec.protocol)
    return [setup.record(slot, result, result.interactions)
            for slot in range(len(trials))]


#: Engines that execute a whole sweep point per task (one batch covers
#: all of the point's trials) rather than one trial per task.
POINT_ENGINES = ("ensemble", "fluid")


def build_tasks(spec: ExperimentSpec, pending, chunk: int) -> list:
    """The pending ``(point, trial)`` pairs as ``(point, trials)`` tasks.

    A point engine gets one task per sweep point, in canonical order (by
    ``n`` then intensity); otherwise consecutive trials of one point
    share a task, up to ``chunk`` of them.  In-process and fleet
    execution both run these tasks through :func:`run_task`.
    """
    if spec.engine in POINT_ENGINES:
        by_point: dict = {}
        for point, trial in pending:
            by_point.setdefault(point, []).append(trial)
        return sorted(by_point.items(),
                      key=lambda kv: (kv[0].n, kv[0].intensity or 0.0))
    tasks: list = []
    for point, trial in pending:
        if tasks and tasks[-1][0] is point and len(tasks[-1][1]) < chunk:
            tasks[-1][1].append(trial)
        else:
            tasks.append((point, [trial]))
    return tasks


def run_task(spec: ExperimentSpec, point: SweepPoint, trials: Sequence[int],
             spec_hash: str):
    """Yield the records of one task: the point's ensemble or fluid
    batch, or each trial as it completes.

    A task's trials share one point setup (protocol, input counts, ground
    truth and seeds), built once here instead of once per trial; each
    trial then runs exactly as :func:`run_trial` would run it."""
    if spec.engine == "ensemble":
        yield from run_ensemble_point(spec, point, trials,
                                      spec_hash=spec_hash)
    elif spec.engine == "fluid":
        yield from run_fluid_point(spec, point, trials, spec_hash=spec_hash)
    else:
        setup = _setup(spec, point, trials, spec_hash)
        for slot in range(len(trials)):
            yield _run_slot(setup, slot)


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

    # Trial ids are hashed only when the store holds some to skip.
    pending: list[tuple] = []
    for point in sweep_points(spec):
        trials = range(spec.trials)
        if done_ids or quarantined_ids:
            trials = [trial for trial, tid in zip(
                trials, trial_ids(spec_hash, point, trials))
                if tid not in done_ids and tid not in quarantined_ids]
        pending.extend((point, trial) for trial in trials)

    fresh: list[dict] = []
    fresh_failures: list[dict] = []

    def collect(record: dict) -> None:
        if store is not None:
            store.append(record)
        fresh.append(record)
        if progress is not None:
            progress(record)

    def collect_task(records: list, lines: list) -> None:
        # A fleet task's records reach the store in one write, before
        # any of them is reported as progress.
        if store is not None:
            store.extend(records, lines)
        fresh.extend(records)
        if progress is not None:
            for record in records:
                progress(record)

    def collect_failure(record: dict) -> None:
        if store is not None:
            store.append_failure(record)
        fresh_failures.append(record)

    # Default-policy tasks carry a chunk of one point's trials; a
    # supervised task is one trial, so timeouts and retries stay per trial.
    chunk = 1
    if spec.execution.is_default():
        size = workers if fleet is None else fleet.size
        chunk = _chunk_size(len(pending), size)
    tasks = build_tasks(spec, pending, chunk)
    supervision = info = None
    if fleet is not None:
        stats, info = fleet.run_tasks(spec, tasks, spec_hash,
                                      on_records=collect_task,
                                      on_failure=collect_failure)
        supervision = stats.to_dict()
    elif spec.execution.is_default() and (workers == 1 or len(tasks) <= 1):
        for point, trials in tasks:
            for record in run_task(spec, point, trials, spec_hash):
                collect(record)
    else:
        stats = supervise.SupervisionStats()
        if pending:
            size = min(workers, len(tasks))
            with exp_fleet.WorkerFleet(size) as temporary:
                stats, _ = temporary.run_tasks(
                    spec, tasks, spec_hash, on_records=collect_task,
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

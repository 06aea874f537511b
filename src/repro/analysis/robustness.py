"""Protocol resilience measurement under injected faults.

Sect. 8 of the paper observes that the population-protocol *model*
tolerates crashes naturally while many of its *algorithms* do not.  This
harness turns that remark into measurable science: it sweeps fault
intensity over protocols from the registry and reports
correctness-probability-vs-fault curves — the epidemic/OR protocol
shrugs off crashes of uninfected agents, :class:`~repro.protocols.counting.CountToK`
has the single-point-of-failure the paper warns about, and
:class:`~repro.protocols.counting.RedundantCountToK` demonstrates how
token replication (capped piles) buys crash tolerance.

Faults are injected through :mod:`repro.sim.faults`; correctness of a
trial is the unanimous output of the *surviving* agents matching the
ground truth of the original input.  Exposed on the command line as
``python -m repro robustness``.

Intensity sweeps (:func:`resilience_curve`) run on the experiment
orchestration subsystem (:mod:`repro.exp`): the sweep is a declarative
spec, trials parallelize over workers, and results can persist to a
resumable store.  The curated scenario suites (:func:`run_robustness`)
remain callable-based — adversarial faults like "crash the token holder"
are predicates over protocol states, not data.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.protocols import registry
from repro.sim.convergence import run_until_quiescent
from repro.sim.engine import simulate_counts
from repro.sim.faults import (
    CrashAt,
    FaultPlan,
    OmissionRate,
    TargetedCrash,
)
from repro.util.rng import spawn_seeds

#: Maps a fault seed to the plan for one trial (None = fault-free trial).
PlanFactory = Callable[[int], "FaultPlan | None"]

#: Engines ``repro robustness --engine`` accepts.  ``reference`` is the
#: agent-array engine (default, exact semantics for every scenario),
#: ``multiset`` the count-based scalar engine, ``batched`` the
#: bit-identical vectorized fast path, and ``ensemble`` the many-trial
#: fleet engine (statistical contract; scenarios that need a *targeted*
#: fault predicate fall back to per-trial multiset runs, the ensemble's
#: scalar-twin engine, because predicates over states are not
#: declarative data).
ROBUSTNESS_ENGINES = ("reference", "multiset", "batched", "ensemble")


@dataclass(frozen=True)
class ResiliencePoint:
    """Measured correctness at one fault intensity."""

    intensity: float
    trials: int
    correct: int

    @property
    def rate(self) -> float:
        return self.correct / self.trials if self.trials else 0.0


@dataclass
class ResilienceCurve:
    """Correctness-vs-fault-intensity curve for one protocol."""

    protocol: str
    fault: str
    points: list[ResiliencePoint] = field(default_factory=list)

    def table(self) -> str:
        lines = [f"{'intensity':>10}  {'trials':>6}  {'correct':>7}  {'rate':>5}"]
        for p in self.points:
            lines.append(f"{p.intensity:>10.3g}  {p.trials:>6}  "
                         f"{p.correct:>7}  {p.rate:>5.2f}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ResilienceRow:
    """One protocol/scenario cell of the resilience report."""

    protocol: str
    scenario: str
    trials: int
    correct: int
    #: Engine the scenario's trials actually ran on (a targeted scenario
    #: under ``--engine ensemble`` reports ``multiset``, the fallback).
    engine: str = "reference"
    #: Total interactions across the scenario's trials.
    interactions: int = 0
    #: Wall-clock seconds spent simulating the scenario's trials.
    seconds: float = 0.0

    @property
    def rate(self) -> float:
        return self.correct / self.trials if self.trials else 0.0

    @property
    def throughput(self) -> float:
        """Interactions per second this scenario's engine sustained."""
        return self.interactions / self.seconds if self.seconds else 0.0


@dataclass(frozen=True)
class FaultScenario:
    """One named fault configuration for a protocol."""

    label: str
    counts: Mapping
    #: Fault-seed -> plan; None runs the scenario fault-free.
    plan_factory: "PlanFactory | None" = None
    #: Declarative ``(kind, intensity)`` or ``(kind, intensity, at_step)``
    #: twin of ``plan_factory``, where one exists — the ensemble engine
    #: can only sample declarative fault kinds (targeted predicates are
    #: code, not data, so they carry no descriptor).
    descriptor: "tuple | None" = None


@dataclass(frozen=True)
class ScenarioMeasurement:
    """Outcome of :func:`measure_scenario`: correctness plus throughput."""

    correct: int
    trials: int
    #: Engine that actually ran (see :data:`ROBUSTNESS_ENGINES`).
    engine: str
    interactions: int
    seconds: float


def _scalar_sim(engine: str, protocol, counts, *, seed, plan):
    """One scalar-engine simulation, fault plan attached."""
    if engine == "reference":
        return simulate_counts(protocol, counts, seed=seed, faults=plan)
    if engine == "multiset":
        from repro.sim.multiset_engine import MultisetSimulation

        return MultisetSimulation(protocol, counts, seed=seed, faults=plan)
    if engine == "batched":
        from repro.sim.batched import batched_simulate_counts

        return batched_simulate_counts(protocol, counts, seed=seed,
                                       faults=plan)
    raise ValueError(
        f"unknown robustness engine {engine!r}; known: {ROBUSTNESS_ENGINES}")


def measure_scenario(
    protocol_factory: Callable[[], object],
    counts: Mapping,
    expected,
    plan_factory: "PlanFactory | None",
    *,
    trials: int,
    seed: "int | None" = None,
    patience: int = 10_000,
    max_steps: int = 300_000,
    engine: str = "reference",
    descriptor: "tuple | None" = None,
) -> ScenarioMeasurement:
    """Run one scenario's trials on ``engine``; correctness + throughput.

    Each trial gets an independent engine seed and fault seed; a fresh
    protocol and fault plan are built per trial (plans are single-use).
    On the ensemble engine all trials advance together and the
    scenario's faults are sampled per trial from ``descriptor``; a
    scenario with a plan factory but no declarative descriptor (targeted
    predicates) falls back to per-trial multiset runs — the ensemble's
    scalar-twin engine — and reports that engine in the measurement.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if engine not in ROBUSTNESS_ENGINES:
        raise ValueError(
            f"unknown robustness engine {engine!r}; "
            f"known: {ROBUSTNESS_ENGINES}")
    streams = spawn_seeds(seed, 2 * trials)
    engine_seeds, fault_seeds = streams[:trials], streams[trials:]

    if engine == "ensemble" and (plan_factory is None
                                 or descriptor is not None):
        from repro.sim.ensemble import (
            EnsembleFaults,
            EnsembleMultisetSimulation,
            run_ensemble_until_quiescent,
        )

        faults = None
        if plan_factory is not None:
            kind, intensity, *rest = descriptor
            faults = EnsembleFaults(kind, intensity,
                                    at_step=rest[0] if rest else None)
        started = time.perf_counter()
        ens = EnsembleMultisetSimulation(
            protocol_factory(), counts, trials=trials, seeds=engine_seeds,
            faults=faults,
            fault_seeds=fault_seeds if faults is not None else None)
        results = run_ensemble_until_quiescent(
            ens, patience=patience, max_steps=max_steps)
        seconds = time.perf_counter() - started
        correct = sum(1 for r in results if r.output == expected)
        return ScenarioMeasurement(
            correct=correct, trials=trials, engine="ensemble",
            interactions=int(ens.interactions.sum()), seconds=seconds)

    ran_on = "multiset" if engine == "ensemble" else engine
    correct = 0
    interactions = 0
    started = time.perf_counter()
    for engine_seed, fault_seed in zip(engine_seeds, fault_seeds):
        plan = plan_factory(fault_seed) if plan_factory is not None else None
        sim = _scalar_sim(ran_on, protocol_factory(), counts,
                          seed=engine_seed, plan=plan)
        result = run_until_quiescent(sim, patience=patience,
                                     max_steps=max_steps)
        interactions += sim.interactions
        if result.output == expected:
            correct += 1
    seconds = time.perf_counter() - started
    return ScenarioMeasurement(
        correct=correct, trials=trials, engine=ran_on,
        interactions=interactions, seconds=seconds)


def measure_correctness(
    protocol_factory: Callable[[], object],
    counts: Mapping,
    expected,
    plan_factory: "PlanFactory | None",
    *,
    trials: int,
    seed: "int | None" = None,
    patience: int = 10_000,
    max_steps: int = 300_000,
    engine: str = "reference",
) -> int:
    """Number of trials whose surviving agents stabilize to ``expected``
    (:func:`measure_scenario` without the throughput bookkeeping)."""
    return measure_scenario(
        protocol_factory, counts, expected, plan_factory, trials=trials,
        seed=seed, patience=patience, max_steps=max_steps,
        engine=engine).correct


def resilience_curve(
    protocol: str,
    counts: Mapping,
    fault: str,
    intensities: Sequence[float],
    *,
    params: "Mapping | None" = None,
    at_step: int = 0,
    trials: int = 30,
    seed: int = 0,
    patience: int = 10_000,
    max_steps: int = 300_000,
    workers: int = 1,
    store=None,
    engine: str = "agent",
) -> ResilienceCurve:
    """Sweep a declarative fault kind over intensities for one protocol.

    Returns the correctness-probability-vs-fault curve; the canonical way
    to measure how fast a protocol degrades (cf. the convergence-in-
    probability viewpoint of Bournez et al.).  ``protocol`` is a registry
    name and ``fault`` a :data:`repro.exp.spec.FAULT_KINDS` kind, so the
    whole sweep is one declarative :class:`~repro.exp.spec.ExperimentSpec`
    executed by :func:`repro.exp.runner.run_experiment` — it parallelizes
    over ``workers`` and resumes from ``store`` like any experiment.
    ``engine`` is the spec's engine field (``"agent"``, ``"batched"``,
    ``"ensemble"``, or ``"fluid"`` where the fault kind allows; spec
    validation enforces the per-engine capability table) — at
    n >= 10^5 pass ``"batched"`` for the same curve bit-identically at
    a fraction of the wall-clock (the EXPERIMENTS.md E21 workload).
    """
    from repro.exp.report import aggregate
    from repro.exp.runner import run_experiment
    from repro.exp.spec import ExperimentSpec, FaultAxis, InputGrid, StopRule

    entry = registry.get(protocol)
    if entry.truth is None:
        raise ValueError(
            f"protocol {entry.name!r} does not compute a predicate; "
            "a resilience curve needs a ground truth")
    n = sum(counts.values())
    spec = ExperimentSpec(
        protocol=entry.name,
        ns=(n,),
        trials=trials,
        params=dict(params or {}),
        inputs=InputGrid.explicit({n: counts}),
        faults=FaultAxis(fault, tuple(float(x) for x in intensities),
                         at_step=at_step),
        stop=StopRule(rule="quiescent", patience=patience,
                      max_steps=max_steps),
        seed=seed,
        engine=engine,
    )
    result = run_experiment(spec, store=store, workers=workers)
    curve = ResilienceCurve(protocol=entry.name, fault=fault)
    by_intensity = {a.intensity: a for a in aggregate(result.records)}
    for intensity in intensities:
        agg = by_intensity[float(intensity)]
        curve.points.append(ResiliencePoint(
            intensity=float(intensity), trials=agg.trials,
            correct=agg.correct))
    return curve


# -- Canonical scenarios -----------------------------------------------------------


def _curated_scenarios(name: str) -> "list[FaultScenario] | None":
    """Hand-built scenario suites for the paper's headline protocols."""
    if name == "epidemic":
        return [
            FaultScenario("no faults", {1: 1, 0: 19}),
            FaultScenario(
                "crash 5 uninfected @ step 10", {1: 1, 0: 19},
                lambda s: FaultPlan(
                    TargetedCrash(lambda st: st == 0, 5, after_step=10),
                    seed=s)),
            FaultScenario(
                "crash 8 random @ step 10", {1: 1, 0: 19},
                lambda s: FaultPlan(CrashAt(10, 8), seed=s),
                descriptor=("crash-at", 8, 10)),
            FaultScenario(
                "drop 50% of encounters", {1: 1, 0: 19},
                lambda s: FaultPlan(OmissionRate(0.5), seed=s),
                descriptor=("omission-rate", 0.5)),
        ]
    if name == "count-to-k":
        return [
            FaultScenario("no faults", {1: 5, 0: 11}),
            FaultScenario(
                "crash token holder (pile >= 3)", {1: 5, 0: 11},
                lambda s: FaultPlan(
                    TargetedCrash(lambda st: 3 <= st < 5, 1), seed=s)),
            FaultScenario(
                "crash 1 random @ step 50", {1: 5, 0: 11},
                lambda s: FaultPlan(CrashAt(50, 1), seed=s),
                descriptor=("crash-at", 1, 50)),
        ]
    if name == "redundant-count-to-k":
        # Slack 3 = cap: a single crash costs at most the cap, so the
        # predicate [#1 >= 5] survives any one crash by construction.
        return [
            FaultScenario("no faults", {1: 8, 0: 8}),
            FaultScenario(
                "crash largest pile (= cap)", {1: 8, 0: 8},
                lambda s: FaultPlan(
                    TargetedCrash(lambda st: st == 3, 1), seed=s)),
            FaultScenario(
                "crash 1 random @ step 50", {1: 8, 0: 8},
                lambda s: FaultPlan(CrashAt(50, 1), seed=s),
                descriptor=("crash-at", 1, 50)),
        ]
    return None


def _generic_scenarios(entry) -> list[FaultScenario]:
    """Fallback suite for any registered binary predicate protocol."""
    counts = {1: 9, 0: 6}
    return [
        FaultScenario("no faults", counts),
        FaultScenario(
            "crash 2 random @ step 25", counts,
            lambda s: FaultPlan(CrashAt(25, 2), seed=s),
            descriptor=("crash-at", 2, 25)),
        FaultScenario(
            "drop 30% of encounters", counts,
            lambda s: FaultPlan(OmissionRate(0.3), seed=s),
            descriptor=("omission-rate", 0.3)),
    ]


def scenarios_for(name: str) -> list[FaultScenario]:
    """The scenario suite used by ``repro robustness`` for ``name``."""
    entry = registry.get(name)
    curated = _curated_scenarios(entry.name)
    if curated is not None:
        return curated
    if entry.truth is None:
        raise ValueError(
            f"protocol {entry.name!r} does not compute a predicate; "
            "no generic resilience scenario applies")
    protocol = entry.build()
    if not set(protocol.input_alphabet) <= {0, 1}:
        raise ValueError(
            f"protocol {entry.name!r} has a non-binary input alphabet; "
            "add a curated scenario to measure it")
    return _generic_scenarios(entry)


def run_robustness(
    names: Sequence[str],
    *,
    trials: int = 40,
    seed: "int | None" = 0,
    patience: int = 10_000,
    max_steps: int = 300_000,
    engine: str = "reference",
) -> list[ResilienceRow]:
    """Run the scenario suite for each named protocol; one row per scenario.

    ``engine`` selects the trial engine (:data:`ROBUSTNESS_ENGINES`);
    each row records the engine its trials actually ran on and the
    throughput it sustained, so ``repro robustness --json`` doubles as a
    per-engine faulted-throughput probe.
    """
    rows: list[ResilienceRow] = []
    suite_seeds = spawn_seeds(seed, len(names))
    for name, suite_seed in zip(names, suite_seeds):
        entry = registry.get(name)
        scenarios = scenarios_for(name)
        scenario_seeds = spawn_seeds(suite_seed, len(scenarios))
        for scenario, scenario_seed in zip(scenarios, scenario_seeds):
            expected = int(entry.evaluate_truth(scenario.counts))
            measured = measure_scenario(
                entry.build, scenario.counts, expected,
                scenario.plan_factory,
                trials=trials, seed=scenario_seed,
                patience=patience, max_steps=max_steps,
                engine=engine, descriptor=scenario.descriptor)
            rows.append(ResilienceRow(
                protocol=entry.name, scenario=scenario.label,
                trials=trials, correct=measured.correct,
                engine=measured.engine,
                interactions=measured.interactions,
                seconds=measured.seconds))
    return rows


def format_rows(rows: Sequence[ResilienceRow]) -> str:
    """The ``repro robustness`` resilience table."""
    width = max([len(r.scenario) for r in rows] + [8])
    pwidth = max([len(r.protocol) for r in rows] + [8])
    lines = [f"{'protocol':<{pwidth}}  {'scenario':<{width}}  "
             f"{'trials':>6}  {'correct':>7}  {'rate':>5}"]
    for r in rows:
        lines.append(f"{r.protocol:<{pwidth}}  {r.scenario:<{width}}  "
                     f"{r.trials:>6}  {r.correct:>7}  {r.rate:>5.2f}")
    return "\n".join(lines)

"""Counterexample shrinking for monitor violations (delta debugging).

A chaos campaign that trips a :class:`~repro.sim.monitors.MonitorViolation`
hands back a reproduction tuple — protocol, input counts, scheduler spec,
fault description, seeds — as the violation's ``context``.  This module
turns that tuple into a first-class :class:`ChaosCase`, replays it
deterministically (:func:`run_case`), and minimizes it
(:func:`shrink_case`) in the delta-debugging style: greedily remove as
much as possible while a candidate still fails with the same monitor,
halving the removal size on every miss.

Three things shrink, to a local minimum:

* **population** — per-symbol input counts, in descending chunks;
* **fault events** — a stochastic fault rate is first *eventized*: the
  failing run is traced and its actually-delivered faults become an
  explicit event schedule (``CrashAt``/``CorruptAt``/``OmitAt``), which
  then shrinks by chunked event removal and per-event count reduction
  (the eventized candidate is validated like any other — if rewriting
  the fault's RNG consumption makes the failure vanish, it is discarded);
* **scheduler budgets** — integer arguments of the scheduler spec
  (partition heal time, eclipse/delay budgets), halved toward 1.

The shrunk case serializes to a JSON artifact that ``repro chaos replay``
re-executes bit-identically: same case dict, same seeds, same violation
monitor at the same interaction step.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace

from repro.exp.spec import StopRule, _coerce_symbol, _counts_to_dict
from repro.sim.engine import SimulationHalted
from repro.sim.faults import CorruptAt, CrashAt, FaultPlan, OmitAt, fault_model
from repro.sim.monitors import MonitorViolation, build_monitors
from repro.sim.schedulers import _parse_scheduler_spec, scheduler_from_spec

__all__ = [
    "ChaosCase",
    "CaseOutcome",
    "ShrinkResult",
    "ReplayResult",
    "run_case",
    "shrink_case",
    "shrink_violation",
    "case_from_record",
    "artifact_dict",
    "replay_artifact",
]

#: Fault kinds that admit rate->event rewriting.
_RATE_KINDS = ("crash-rate", "corruption-rate", "omission-rate", "crash-at")


@dataclass(frozen=True)
class ChaosCase:
    """One fully pinned-down trial: the unit of reproduction.

    Unlike an :class:`~repro.exp.spec.ExperimentSpec` (a grid), a case is
    a single point with *explicit* seeds — nothing is derived, so a case
    replays identically no matter where it came from.  The dict form is
    exactly what the runner stores on ``sim.monitor_context`` (and thus
    inside every violation).
    """

    protocol: str
    params: Mapping = field(default_factory=dict)
    counts: Mapping = field(default_factory=dict)
    scheduler: str = "uniform"
    #: None, a rate descriptor ``{"kind": ..., "intensity": ...[, "at_step"]}``,
    #: or an event schedule ``{"kind": "events", "events": [...]}`` whose
    #: entries are ``{"kind": "crash"|"corrupt", "step", "count"}`` or
    #: ``{"kind": "omit", "step"}``.
    fault: "Mapping | None" = None
    engine_seed: int = 0
    fault_seed: int = 0
    monitors: tuple = ()
    stop: StopRule = field(default_factory=StopRule)
    confirm: int = 0

    @property
    def n(self) -> int:
        return sum(self.counts.values())

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "params": {str(k): self.params[k] for k in sorted(self.params)},
            "counts": _counts_to_dict(self.counts),
            "scheduler": self.scheduler,
            "fault": None if self.fault is None else dict(self.fault),
            "engine_seed": self.engine_seed,
            "fault_seed": self.fault_seed,
            "monitors": list(self.monitors),
            "stop": self.stop.to_dict(),
            "confirm": self.confirm,
        }

    @classmethod
    def for_point(cls, spec, point, counts: Mapping, engine_seed: int,
                  fault_seed: int) -> "ChaosCase":
        """The case of one trial of an experiment spec at one sweep
        point (a :class:`repro.exp.runner.SweepPoint`)."""
        fault = None
        if spec.faults is not None and point.intensity:
            fault = {"kind": spec.faults.kind, "intensity": point.intensity}
            if spec.faults.kind == "crash-at":
                fault["at_step"] = spec.faults.at_step
        return cls(protocol=spec.protocol, params=spec.params, counts=counts,
                   scheduler=point.scheduler or spec.scheduler, fault=fault,
                   engine_seed=engine_seed, fault_seed=fault_seed,
                   monitors=tuple(spec.monitors), stop=spec.stop,
                   confirm=spec.confirm)

    @classmethod
    def from_dict(cls, data: Mapping) -> "ChaosCase":
        fault = data.get("fault")
        return cls(
            protocol=data["protocol"],
            params=dict(data.get("params", {})),
            counts={_coerce_symbol(s): int(c)
                    for s, c in data.get("counts", {}).items()},
            scheduler=data.get("scheduler", "uniform"),
            fault=None if fault is None else dict(fault),
            engine_seed=int(data.get("engine_seed", 0)),
            fault_seed=int(data.get("fault_seed", 0)),
            monitors=tuple(data.get("monitors", ())),
            stop=StopRule.from_dict(data.get("stop", {})),
            confirm=int(data.get("confirm", 0)),
        )

    def build_plan(self, *, tracing: bool = False) -> "FaultPlan | None":
        """A fresh fault plan for one replay of this case."""
        fault = self.fault
        if fault is None:
            return None
        plan_cls = _TracingPlan if tracing else FaultPlan
        if fault["kind"] == "events":
            models = []
            omit_steps = []
            for event in fault["events"]:
                if event["kind"] == "crash":
                    models.append(CrashAt(event["step"],
                                          int(event.get("count", 1))))
                elif event["kind"] == "corrupt":
                    models.append(CorruptAt(event["step"],
                                            int(event.get("count", 1))))
                elif event["kind"] == "omit":
                    omit_steps.append(event["step"])
                else:
                    raise ValueError(f"unknown event kind {event['kind']!r}")
            if omit_steps:
                models.append(OmitAt(omit_steps))
            return plan_cls(models, seed=self.fault_seed)
        model = fault_model(fault["kind"], fault["intensity"],
                            fault.get("at_step", 0))
        return plan_cls(model, seed=self.fault_seed)


class _TracingPlan(FaultPlan):
    """A fault plan that records every fault it delivers as an event.

    Events use the same step convention as the deterministic models:
    crash/corrupt events carry the completed-interaction count at the
    step boundary where they fired (``CrashAt``/``CorruptAt`` replay them
    at exactly that boundary), omit events the 1-based index of the
    dropped encounter (``OmitAt``'s convention).
    """

    def __init__(self, models=(), *, seed=None):
        super().__init__(models, seed=seed)
        self.events: list[dict] = []

    def pre_step(self, sim) -> None:
        crashes, corruptions = self.crashes, self.corruptions
        super().pre_step(sim)
        if self.crashes > crashes:
            self.events.append({"kind": "crash", "step": sim.interactions,
                                "count": self.crashes - crashes})
        if self.corruptions > corruptions:
            self.events.append({"kind": "corrupt", "step": sim.interactions,
                                "count": self.corruptions - corruptions})

    def drop_encounter(self, sim) -> bool:
        dropped = super().drop_encounter(sim)
        if dropped:
            self.events.append({"kind": "omit", "step": sim.interactions})
        return dropped


@dataclass
class CaseOutcome:
    """What one :func:`run_case` execution produced."""

    #: The tripped monitor violation, or None.
    violation: "MonitorViolation | None"
    #: Convergence result of the stopping rule (None if a violation or
    #: error cut the run short).
    result: "object | None"
    #: Interactions executed.
    interactions: int
    #: Fault events delivered (only when ``trace=True``).
    events: "list[dict] | None" = None
    #: Why the case could not run at all (impossible fault schedule,
    #: halted engine, invalid scheduler for the population size, ...).
    error: "str | None" = None

    @property
    def failed(self) -> bool:
        return self.violation is not None


def run_case(case: ChaosCase, *, trace: bool = False) -> CaseOutcome:
    """Execute a case deterministically and report what happened.

    Construction or execution errors (e.g. a shrunk population too small
    for its crash schedule) are captured in ``error`` rather than raised:
    the shrinker treats them as "candidate does not fail" and moves on.
    """
    from repro.exp.runner import run_to_stop
    from repro.protocols import registry
    from repro.sim import convergence
    from repro.sim.engine import simulate_counts

    plan = None
    try:
        entry = registry.get(case.protocol)
        params = dict(case.params)
        protocol = entry.build(**params)
        plan = case.build_plan(tracing=trace)
        scheduler = scheduler_from_spec(case.scheduler, n=case.n,
                                        protocol=protocol)
        monitors = build_monitors(case.monitors)
        sim = simulate_counts(protocol, case.counts, seed=case.engine_seed,
                              faults=plan, scheduler=scheduler,
                              monitors=monitors)
    except MonitorViolation as tripped:  # a monitor with a broken arm
        raise tripped
    except (SimulationHalted, RuntimeError, ValueError, KeyError) as exc:
        return CaseOutcome(violation=None, result=None, interactions=0,
                           events=_plan_events(plan), error=str(exc))
    sim.monitor_context = case.to_dict()

    violation = None
    result = None
    error = None
    try:
        expected = None
        if case.stop.rule == "correct-stable" and entry.truth is not None:
            expected = int(entry.evaluate_truth(case.counts, **params))
        result, violation = run_to_stop(
            sim, case.stop, expected,
            (convergence.run_until_quiescent, convergence.run_until_silent,
             convergence.run_until_correct_stable),
            case.protocol, case.confirm, monitors)
    except (SimulationHalted, RuntimeError, ValueError) as exc:
        error = str(exc)
    return CaseOutcome(violation=violation, result=result,
                       interactions=sim.interactions,
                       events=_plan_events(plan), error=error)


def _plan_events(plan) -> "list[dict] | None":
    return list(plan.events) if isinstance(plan, _TracingPlan) else None


def case_from_record(record: Mapping) -> ChaosCase:
    """Rebuild the chaos case of a stored violation record."""
    violation = record.get("violation")
    if not violation or "context" not in violation:
        raise ValueError(
            "record carries no violation context; was the sweep monitored?")
    return ChaosCase.from_dict(violation["context"])


# -- Delta-debugging minimization ----------------------------------------------------


@dataclass
class ShrinkResult:
    """A locally-minimal failing reproduction."""

    original: ChaosCase
    original_violation: dict
    case: ChaosCase
    violation: dict
    #: run_case evaluations spent.
    evals: int
    #: Whether the fault was rewritten from a rate into explicit events.
    eventized: bool


def _scheduler_spec_string(kind: str, args: Mapping) -> str:
    if not args:
        return kind
    body = ",".join(f"{k}={args[k]}" for k in sorted(args))
    return f"{kind}:{body}"


def shrink_case(case: ChaosCase, *, monitor: "str | None" = None,
                max_evals: int = 400) -> ShrinkResult:
    """Minimize a failing case while it keeps failing the same monitor.

    Raises ``ValueError`` when the case does not fail to begin with.
    The result is locally minimal with respect to the shrinking moves
    (not globally smallest), reached within ``max_evals`` replays.
    """
    baseline = run_case(case)
    if baseline.violation is None:
        raise ValueError(
            "case does not fail"
            + (f" (run error: {baseline.error})" if baseline.error else ""))
    if monitor is None:
        monitor = baseline.violation.monitor

    evals = 0
    best = case
    best_violation = baseline.violation

    def attempt(candidate: ChaosCase) -> bool:
        """Accept the candidate iff it still fails the target monitor."""
        nonlocal evals, best, best_violation
        if evals >= max_evals:
            return False
        evals += 1
        outcome = run_case(candidate)
        if (outcome.violation is not None
                and outcome.violation.monitor == monitor):
            best = candidate
            best_violation = outcome.violation
            return True
        return False

    # Eventize a stochastic fault: trace the failing run, replay the
    # delivered faults as a deterministic schedule.  Validated like any
    # shrink move — the rewritten plan consumes its RNG differently, so
    # the failure might not survive; then the rate fault stays.
    eventized = False
    if case.fault is not None and case.fault["kind"] in _RATE_KINDS:
        traced = run_case(case, trace=True)
        if traced.violation is not None and traced.events is not None:
            candidate = replace(case, fault={"kind": "events",
                                             "events": traced.events})
            eventized = attempt(candidate)

    improved = True
    while improved and evals < max_evals:
        improved = False

        # Population: per-symbol descending chunk removal.
        for symbol in sorted(best.counts, key=repr):
            delta = best.counts.get(symbol, 0)
            while delta >= 1 and evals < max_evals:
                current = best.counts.get(symbol, 0)
                if delta > current or best.n - delta < 2:
                    delta //= 2
                    continue
                counts = dict(best.counts)
                if current == delta:
                    del counts[symbol]
                else:
                    counts[symbol] = current - delta
                if attempt(replace(best, counts=counts)):
                    improved = True
                else:
                    delta //= 2

        # Fault events: ddmin chunk removal, then per-event count shrink.
        if best.fault is not None and best.fault["kind"] == "events":
            events = list(best.fault["events"])
            chunk = max(1, len(events) // 2)
            while chunk >= 1 and evals < max_evals:
                index = 0
                while index < len(events) and evals < max_evals:
                    trimmed = events[:index] + events[index + chunk:]
                    if attempt(replace(best, fault={"kind": "events",
                                                    "events": trimmed})):
                        events = trimmed
                        improved = True
                    else:
                        index += chunk
                chunk //= 2
            for index, event in enumerate(events):
                count = int(event.get("count", 1))
                while count > 1 and evals < max_evals:
                    smaller = dict(event, count=count // 2)
                    trimmed = list(events)
                    trimmed[index] = smaller
                    if attempt(replace(best, fault={"kind": "events",
                                                    "events": trimmed})):
                        events = trimmed
                        event = smaller
                        count //= 2
                        improved = True
                    else:
                        break

        # Scheduler budgets: halve every integer argument toward 1.
        kind, args = _parse_scheduler_spec(best.scheduler)
        for name in ("heal", "budget"):
            value = args.get(name)
            while value is not None and value > 1 and evals < max_evals:
                smaller = dict(args, **{name: value // 2})
                candidate = replace(
                    best, scheduler=_scheduler_spec_string(kind, smaller))
                if attempt(candidate):
                    args = smaller
                    value //= 2
                    improved = True
                else:
                    break

    return ShrinkResult(
        original=case,
        original_violation=baseline.violation.to_dict(include_context=False),
        case=best,
        violation=best_violation.to_dict(include_context=False),
        evals=evals,
        eventized=eventized and best.fault is not None
        and best.fault["kind"] == "events",
    )


def shrink_violation(violation: MonitorViolation, *,
                     max_evals: int = 400) -> ShrinkResult:
    """Shrink straight from a caught violation's reproduction context."""
    if violation.context is None:
        raise ValueError(
            "violation carries no reproduction context; run it through a "
            "monitored harness (repro chaos run) to get a shrinkable one")
    case = ChaosCase.from_dict(violation.context)
    return shrink_case(case, monitor=violation.monitor, max_evals=max_evals)


# -- Artifacts and replay -----------------------------------------------------------


def artifact_dict(result: ShrinkResult) -> dict:
    """The JSON artifact ``repro chaos run --shrink`` writes."""
    return {
        "kind": "chaos-repro",
        "case": result.case.to_dict(),
        "violation": result.violation,
        "original": {
            "case": result.original.to_dict(),
            "violation": result.original_violation,
        },
        "evals": result.evals,
        "eventized": result.eventized,
    }


@dataclass
class ReplayResult:
    """Outcome of replaying a chaos-repro artifact."""

    #: True iff the replay tripped the same monitor at the same step.
    reproduced: bool
    expected: dict
    actual: "dict | None"
    error: "str | None" = None


def replay_artifact(artifact: Mapping) -> ReplayResult:
    """Re-execute an artifact's case and check the violation matches.

    The contract is bit-identical replay: the same case dict must trip
    the same monitor at the same interaction step.
    """
    if artifact.get("kind") != "chaos-repro":
        raise ValueError(
            f"not a chaos-repro artifact (kind={artifact.get('kind')!r})")
    case = ChaosCase.from_dict(artifact["case"])
    expected = dict(artifact["violation"])
    outcome = run_case(case)
    actual = (None if outcome.violation is None
              else outcome.violation.to_dict(include_context=False))
    reproduced = (actual is not None
                  and actual["monitor"] == expected["monitor"]
                  and actual["step"] == expected["step"])
    return ReplayResult(reproduced=reproduced, expected=expected,
                        actual=actual, error=outcome.error)


def load_artifact(path) -> dict:
    """Read a chaos-repro artifact from a JSON file."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def dump_artifact(path, result: ShrinkResult) -> None:
    """Write a shrink result to a JSON artifact file (atomically: a
    crash mid-dump never clobbers an existing reproduction)."""
    from repro.util.fileio import atomic_write_text

    atomic_write_text(path, json.dumps(artifact_dict(result), indent=2,
                                       sort_keys=True) + "\n")

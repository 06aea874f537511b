"""Declarative experiment specifications.

An :class:`ExperimentSpec` describes a whole sweep — protocol, input
generator, population sizes, optional fault-intensity axis, trials per
point, stopping rule, base seed — as plain data.  Everything the runner
does is a pure function of the spec, so a spec serializes to/from a dict
(JSON-friendly) and has a stable content hash that keys the result store
and the per-trial seed derivation.

The hash contract: two specs with equal :meth:`ExperimentSpec.to_dict`
output have equal :meth:`ExperimentSpec.content_hash`, across processes
and Python versions (the hash is SHA-256 over canonical JSON, never
``hash()``).  Any field change — even the base seed — changes the hash,
so stores never silently mix results from different experiments.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

#: Input-generator kinds understood by :class:`InputGrid`.
INPUT_KINDS = ("all-ones", "ones", "fraction", "explicit")
#: Fault kinds understood by :class:`FaultAxis` (see repro.sim.faults).
FAULT_KINDS = ("crash-rate", "corruption-rate", "omission-rate", "crash-at")
#: Stopping rules understood by :class:`StopRule` (see repro.sim.convergence).
STOP_RULES = ("quiescent", "silent", "correct-stable")
#: Feature set each trial engine supports (see repro.exp.runner).  The
#: single source of truth for engine capabilities: spec validation and
#: the CLI's ``--engine`` choices both derive from it, so a new engine
#: registered here shows up everywhere at once instead of drifting out
#: of hand-maintained lists.  A bare flag (``"faults"``) grants every
#: kind of that feature; a colon-qualified flag
#: (``"monitors:conservation"``) grants one kind — spec validation
#: matches the offending field's kind against both forms, so per-engine
#: capabilities stay exactly as granular as the engines' contracts:
#: batched runs any FaultPlan bit-identically but only the vectorizable
#: monitors, ensemble samples the declarative fault kinds per trial, and
#: fluid admits only the rate faults (the kinds with a mean-field limit).
ENGINE_FEATURES = {
    "agent": frozenset({"faults", "monitors", "schedulers", "confirm"}),
    "batched": frozenset({"faults", "monitors:conservation",
                          "monitors:containment", "monitors:flicker",
                          "confirm"}),
    "ensemble": frozenset({"faults:crash-rate", "faults:corruption-rate",
                           "faults:omission-rate", "faults:crash-at",
                           "monitors:conservation", "monitors:containment"}),
    "fluid": frozenset({"faults:crash-rate", "faults:corruption-rate",
                        "faults:omission-rate"}),
}
#: Trial engines understood by the runner (see repro.exp.runner.run_trial).
ENGINES = tuple(ENGINE_FEATURES)
#: Modules a trial of each engine imports beyond those
#: :mod:`repro.exp.runner` imports itself (which load no numpy).
#: :meth:`ExperimentSpec.validate` imports them, so a sweep loads them
#: during set-up, before it forks any worker, and an agent sweep never
#: loads numpy.  A faulted spec also loads :mod:`repro.sim.faults`.
ENGINE_MODULES = {
    "agent": (),
    "batched": ("repro.sim.batched", "repro.sim.backends.numpy_backend",
                "numpy.random"),
    "ensemble": ("repro.sim.ensemble", "numpy.random"),
    "fluid": ("repro.sim.fluid",),
}
#: Engines that drive a swappable step-kernel backend
#: (see repro.sim.backends); only these accept a non-default
#: ``ExperimentSpec.backend``.
BACKEND_ENGINES = ("batched",)


def engine_supports(engine: str, feature: str,
                    kind: "str | None" = None) -> bool:
    """True when ``engine`` implements ``feature`` — either the blanket
    flag or, when ``kind`` is given, the colon-qualified
    ``feature:kind`` flag."""
    flags = ENGINE_FEATURES[engine]
    if feature in flags:
        return True
    return kind is not None and f"{feature}:{kind}" in flags


def engines_supporting(feature: str, kind: "str | None" = None) -> tuple:
    """Every engine implementing ``feature`` (optionally one kind), in
    registry order — the enumeration spec-validation errors cite."""
    return tuple(e for e in ENGINES if engine_supports(e, feature, kind))
#: Failure dispositions understood by :class:`ExecutionPolicy`.
ON_ERROR = ("raise", "skip", "quarantine")


def _coerce_symbol(symbol):
    """Registry protocols use 0/1 integer symbols; JSON keys are strings."""
    if isinstance(symbol, str) and symbol.lstrip("-").isdigit():
        return int(symbol)
    return symbol


def _counts_to_dict(counts: Mapping) -> dict:
    return {str(symbol): int(count)
            for symbol, count in sorted(counts.items(), key=lambda kv: repr(kv[0]))}


def _counts_from_dict(data: Mapping) -> dict:
    return {_coerce_symbol(symbol): int(count) for symbol, count in data.items()}


@dataclass(frozen=True)
class InputGrid:
    """Maps each population size ``n`` on the sweep axis to input counts.

    Kinds:

    * ``all-ones`` — every agent gets input 1 (``{1: n}``); the natural
      input for leader election, where symbols are ignored anyway;
    * ``ones`` — a fixed number of 1-inputs, rest 0 (``{1: ones, 0: n-ones}``);
    * ``fraction`` — ``floor(fraction * n)`` 1-inputs, rest 0 — e.g. the
      flock-of-birds sweep holds the feverish fraction at exactly 5%;
    * ``explicit`` — a literal table from ``n`` to a counts mapping, for
      sweeps whose inputs don't follow a formula.
    """

    kind: str = "all-ones"
    ones: "int | None" = None
    fraction: "float | None" = None
    #: For kind="explicit": {n: {symbol: count}}.
    table: "Mapping | None" = None

    def validate(self, ns: Sequence[int]) -> None:
        if self.kind not in INPUT_KINDS:
            raise ValueError(
                f"unknown input kind {self.kind!r}; known: {INPUT_KINDS}")
        if self.kind == "ones":
            if self.ones is None or self.ones < 0:
                raise ValueError("input kind 'ones' needs ones >= 0")
            if any(self.ones > n for n in ns):
                raise ValueError("ones exceeds a swept population size")
        if self.kind == "fraction":
            if self.fraction is None or not 0.0 <= self.fraction <= 1.0:
                raise ValueError("input kind 'fraction' needs fraction in [0, 1]")
        if self.kind == "explicit":
            if not self.table:
                raise ValueError("input kind 'explicit' needs a table")
            missing = [n for n in ns if n not in self.table]
            if missing:
                raise ValueError(f"explicit input table lacks entries for n={missing}")

    def counts_for(self, n: int) -> dict:
        """The input counts for one swept population size."""
        if self.kind == "all-ones":
            return {1: n}
        if self.kind == "ones":
            return {1: self.ones, 0: n - self.ones}
        if self.kind == "fraction":
            ones = int(self.fraction * n + 1e-9)
            return {1: ones, 0: n - ones}
        if self.kind == "explicit":
            return dict(self.table[n])
        raise ValueError(f"unknown input kind {self.kind!r}")

    def to_dict(self) -> dict:
        data: dict = {"kind": self.kind}
        if self.ones is not None:
            data["ones"] = self.ones
        if self.fraction is not None:
            data["fraction"] = self.fraction
        if self.table is not None:
            data["table"] = {str(n): _counts_to_dict(counts)
                             for n, counts in sorted(self.table.items())}
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "InputGrid":
        table = data.get("table")
        if table is not None:
            table = {int(n): _counts_from_dict(counts)
                     for n, counts in table.items()}
        return cls(kind=data.get("kind", "all-ones"),
                   ones=data.get("ones"),
                   fraction=data.get("fraction"),
                   table=table)

    @classmethod
    def explicit(cls, table: Mapping) -> "InputGrid":
        """Shorthand for an explicit ``{n: counts}`` table."""
        return cls(kind="explicit", table={int(n): dict(c)
                                           for n, c in table.items()})


@dataclass(frozen=True)
class FaultAxis:
    """A declarative fault-intensity sweep axis.

    Each intensity value becomes one point of the sweep (crossed with
    every ``n``); intensity ``0.0`` means fault-free.  The kinds map onto
    :mod:`repro.sim.faults` models:

    * ``crash-rate`` — per-step crash probability (:class:`CrashRate`);
    * ``corruption-rate`` — per-step sensor-glitch probability
      (:class:`CorruptionRate`);
    * ``omission-rate`` — per-encounter drop probability
      (:class:`OmissionRate`);
    * ``crash-at`` — intensity is the *number of agents* crashed once
      ``at_step`` interactions have completed (:class:`CrashAt`).
    """

    kind: str
    intensities: tuple = ()
    at_step: int = 0

    def validate(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")
        if not self.intensities:
            raise ValueError("fault axis needs at least one intensity")
        if self.kind.endswith("-rate"):
            if any(not 0.0 <= x <= 1.0 for x in self.intensities):
                raise ValueError(f"{self.kind} intensities must lie in [0, 1]")
        if self.kind == "crash-at":
            if self.at_step < 0:
                raise ValueError("crash-at needs at_step >= 0")
            if any(x < 0 or x != int(x) for x in self.intensities):
                raise ValueError("crash-at intensities are agent counts >= 0")

    def build_plan(self, intensity: float, seed: int):
        """A fresh single-use :class:`FaultPlan` for one trial (None = no-op)."""
        from repro.sim.faults import FaultPlan, fault_model

        if not intensity:
            return None
        return FaultPlan(fault_model(self.kind, intensity, self.at_step),
                         seed=seed)

    def to_dict(self) -> dict:
        data: dict = {"kind": self.kind,
                      "intensities": [float(x) for x in self.intensities]}
        if self.kind == "crash-at":
            data["at_step"] = self.at_step
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultAxis":
        return cls(kind=data["kind"],
                   intensities=tuple(float(x) for x in data["intensities"]),
                   at_step=int(data.get("at_step", 0)))


@dataclass(frozen=True)
class StopRule:
    """When a trial stops (see :mod:`repro.sim.convergence`).

    * ``quiescent`` — outputs unchanged for ``patience`` interactions;
    * ``silent`` — no enabled encounter changes any state;
    * ``correct-stable`` — all agents output the ground truth, held long
      enough to be stable (needs a predicate protocol).
    """

    rule: str = "quiescent"
    patience: int = 10_000
    max_steps: int = 300_000
    #: Check period for the silent rule (0 = the engine default, n).
    check_every: int = 0

    def validate(self) -> None:
        if self.rule not in STOP_RULES:
            raise ValueError(
                f"unknown stopping rule {self.rule!r}; known: {STOP_RULES}")
        if self.patience < 1:
            raise ValueError("patience must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")
        if self.check_every < 0:
            raise ValueError("check_every must be non-negative")

    def to_dict(self) -> dict:
        return {"rule": self.rule, "patience": self.patience,
                "max_steps": self.max_steps, "check_every": self.check_every}

    @classmethod
    def from_dict(cls, data: Mapping) -> "StopRule":
        return cls(rule=data.get("rule", "quiescent"),
                   patience=int(data.get("patience", 10_000)),
                   max_steps=int(data.get("max_steps", 300_000)),
                   check_every=int(data.get("check_every", 0)))


@dataclass(frozen=True)
class ExecutionPolicy:
    """How trials execute: wall-clock budgets, retries, failure handling.

    The default policy — no timeout, one attempt, failures raise — is the
    pre-supervision behavior and serializes to *nothing* (the spec's
    ``execution`` block is omitted when the policy is default), so every
    spec hash and trial id minted before this block existed is unchanged.
    A non-default policy does feed the content hash: stores record how
    their trials were allowed to run.  Successful trial records are
    byte-identical either way — the policy governs execution, never
    results.

    * ``timeout_s`` — per-trial wall-clock budget.  Enforced twice: a
      worker-side ``SIGALRM`` interrupts pure-Python hangs at the budget,
      and the parent kills workers wedged in C/numpy code shortly after
      the deadline (see :mod:`repro.exp.supervise`).
    * ``max_attempts`` — total tries per trial (1 = no retry).
    * ``backoff`` — base delay in seconds before a retry; attempt ``k``
      waits ``backoff * 2**(k-1)`` scaled by deterministic jitter.
    * ``on_error`` — what happens once the attempt budget is exhausted:
      ``raise`` aborts the sweep (the legacy behavior), ``skip`` drops
      the trial silently, ``quarantine`` appends a structured
      ``trial-failure`` record to the store and carries on.
    """

    timeout_s: "float | None" = None
    max_attempts: int = 1
    backoff: float = 0.5
    on_error: str = "raise"

    def is_default(self) -> bool:
        """True when this policy is the implicit pre-supervision default."""
        return self == ExecutionPolicy()

    def validate(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff < 0:
            raise ValueError("backoff must be non-negative")
        if self.on_error not in ON_ERROR:
            raise ValueError(
                f"unknown on_error {self.on_error!r}; known: {ON_ERROR}")

    def to_dict(self) -> dict:
        data: dict = {"max_attempts": self.max_attempts,
                      "backoff": self.backoff, "on_error": self.on_error}
        if self.timeout_s is not None:
            data["timeout_s"] = float(self.timeout_s)
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExecutionPolicy":
        timeout_s = data.get("timeout_s")
        return cls(timeout_s=None if timeout_s is None else float(timeout_s),
                   max_attempts=int(data.get("max_attempts", 1)),
                   backoff=float(data.get("backoff", 0.5)),
                   on_error=data.get("on_error", "raise"))


@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative sweep: protocol x inputs x sizes x faults x trials.

    The full point grid is ``ns`` crossed with the fault axis's
    intensities (or just ``ns`` when ``faults`` is None), with ``trials``
    independent trials per point.  ``seed`` is the experiment's base
    entropy label: it enters the content hash, and every trial's engine
    and fault seeds are derived from ``(content_hash, point, trial)`` —
    see :func:`repro.exp.runner.trial_seeds`.
    """

    protocol: str
    ns: tuple = ()
    trials: int = 1
    params: Mapping = field(default_factory=dict)
    inputs: InputGrid = field(default_factory=InputGrid)
    faults: "FaultAxis | None" = None
    #: Scheduler spec string for every trial (see
    #: :func:`repro.sim.schedulers.scheduler_from_spec`); ``uniform`` is
    #: the engine default.  For a scheduler *axis* use ``schedulers``.
    scheduler: str = "uniform"
    #: Optional scheduler sweep axis (crossed with ns x intensities);
    #: overrides ``scheduler`` point-wise.  Chaos campaigns use this.
    schedulers: tuple = ()
    #: Monitor spec strings attached to every trial (see
    #: :func:`repro.sim.monitors.build_monitors`); a tripped monitor
    #: turns the trial record into a violation record.
    monitors: tuple = ()
    #: Extra interactions run after the stopping rule fires, with any
    #: flicker monitors armed — catches "claimed stable, then changed".
    confirm: int = 0
    #: Simulation engine: ``agent`` (the reference agent-array engine),
    #: ``batched`` (:class:`~repro.sim.batched.BatchedSimulation` — the
    #: bit-identical compiled fast path), ``ensemble``
    #: (:class:`~repro.sim.ensemble.EnsembleMultisetSimulation` — all of
    #: a point's trials advanced together; statistically, not bit,
    #: equivalent), or ``fluid``
    #: (:class:`~repro.sim.fluid.FluidSimulation` — the deterministic
    #: mean-field ODE limit; O(|states|) per step regardless of ``n``).
    #: Per-engine fault/monitor support is declared in ENGINE_FEATURES:
    #: batched runs any fault plan bit-identically with the vectorizable
    #: monitors, ensemble samples declarative fault kinds per trial
    #: (statistical contract), and fluid admits rate faults as perturbed
    #: drift; non-uniform schedulers stay reference-only.
    engine: str = "agent"
    #: Step-kernel backend for the ``batched`` engine (see
    #: :mod:`repro.sim.backends`): ``numpy`` (the
    #: default hybrid stepper), ``numba`` (JIT-compiled fused loops,
    #: bit-identical, needs the ``[perf]`` extra), or ``python`` (the
    #: fused loops interpreted — the debugging/contract-coverage
    #: backend).  An unavailable request falls back to numpy at engine
    #: construction with a one-time warning; the *requested* backend is
    #: what hashes, the *effective* one is recorded per trial.
    backend: str = "numpy"
    stop: StopRule = field(default_factory=StopRule)
    #: Supervision policy: timeouts, retries, and failure disposition
    #: (see :class:`ExecutionPolicy` and :mod:`repro.exp.supervise`).
    #: The default policy serializes to nothing, so it never perturbs
    #: pre-existing spec hashes.
    execution: ExecutionPolicy = field(default_factory=ExecutionPolicy)
    seed: int = 0

    def validate(self) -> None:
        """Check internal consistency; raises ``ValueError`` on bad specs."""
        from repro.sim.monitors import validate_monitor_spec
        from repro.sim.schedulers import validate_scheduler_spec

        if not self.protocol:
            raise ValueError("spec needs a protocol name")
        if not self.ns:
            raise ValueError("spec needs at least one population size")
        if any(n < 2 for n in self.ns):
            raise ValueError("population sizes must be at least 2")
        if len(set(self.ns)) != len(self.ns):
            raise ValueError("population sizes must be distinct")
        if self.trials < 1:
            raise ValueError("spec needs at least one trial per point")
        validate_scheduler_spec(self.scheduler)
        for text in self.schedulers:
            validate_scheduler_spec(text)
        if len(set(self.schedulers)) != len(self.schedulers):
            raise ValueError("scheduler axis entries must be distinct")
        for text in self.monitors:
            validate_monitor_spec(text)
        if self.confirm < 0:
            raise ValueError("confirm must be non-negative")
        if self.engine not in ENGINE_FEATURES:
            raise ValueError(
                f"unknown engine {self.engine!r}; known: {ENGINES}")
        from repro.sim.backends import backend_names

        if self.backend not in backend_names():
            raise ValueError(
                f"unknown kernel backend {self.backend!r}; known: "
                f"{backend_names()}")
        if self.backend != "numpy" and self.engine not in BACKEND_ENGINES:
            raise ValueError(
                f"engine {self.engine!r} has no step-kernel backends; "
                f"backend={self.backend!r} applies only to "
                + " and ".join(repr(e) for e in BACKEND_ENGINES))
        # Each check: (offending field, description, feature flag and
        # kind the engine would need).  The error must name the field
        # and point at every engine that DOES support it (enumerated
        # from ENGINE_FEATURES, so the list can never drift as engines
        # land), making a rejected spec a one-edit fix.
        checks = []
        if self.faults is not None:
            checks.append(("faults", f"fault kind {self.faults.kind!r}",
                           "faults", self.faults.kind))
        for text in self.monitors:
            kind = text.split(":", 1)[0].strip()
            checks.append(("monitors", f"monitor {kind!r}",
                           "monitors", kind))
        if self.schedulers:
            checks.append(("schedulers", "a scheduler axis",
                           "schedulers", None))
        elif self.scheduler != "uniform":
            checks.append(("scheduler", f"scheduler {self.scheduler!r}",
                           "schedulers", None))
        if self.confirm:
            checks.append(("confirm", "post-stop confirmation interactions",
                           "confirm", None))
        problems = {
            (name, what): engines_supporting(feature, kind)
            for name, what, feature, kind in checks
            if not engine_supports(self.engine, feature, kind)}
        if problems:
            details = "; ".join(
                f"field {name!r} ({what}) is supported by "
                + " and ".join(f"engine {e!r}" for e in engines)
                for (name, what), engines in problems.items())
            raise ValueError(
                f"engine {self.engine!r} does not implement this spec: "
                f"{details}. Drop the field or switch engine ('agent' "
                f"is the reference engine and supports everything; see "
                f"ENGINE_FEATURES for the per-engine capability table)")
        self.execution.validate()
        self.inputs.validate(self.ns)
        if self.faults is not None:
            self.faults.validate()
        self.stop.validate()
        modules = ENGINE_MODULES[self.engine]
        if self.faults is not None:
            modules += ("repro.sim.faults",)
        for module in modules:
            importlib.import_module(module)

    def to_dict(self) -> dict:
        data = {
            "protocol": self.protocol,
            "ns": [int(n) for n in self.ns],
            "trials": self.trials,
            "params": {str(k): self.params[k] for k in sorted(self.params)},
            "inputs": self.inputs.to_dict(),
            "faults": self.faults.to_dict() if self.faults else None,
            "scheduler": self.scheduler,
            "stop": self.stop.to_dict(),
            "seed": self.seed,
        }
        # Chaos-only fields serialize only when used, so every spec
        # writable before they existed keeps its exact content hash.
        if self.schedulers:
            data["schedulers"] = list(self.schedulers)
        if self.monitors:
            data["monitors"] = list(self.monitors)
        if self.confirm:
            data["confirm"] = self.confirm
        if self.engine != "agent":
            data["engine"] = self.engine
        # Same hash-stability rule: the backend serializes only when
        # non-default, so every spec written before backends existed
        # (and every numpy-backend spec) keeps its exact content hash.
        if self.backend != "numpy":
            data["backend"] = self.backend
        # Like the chaos fields: the execution block serializes only when
        # non-default, keeping every pre-supervision spec hash intact.
        if not self.execution.is_default():
            data["execution"] = self.execution.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExperimentSpec":
        faults = data.get("faults")
        return cls(
            protocol=data["protocol"],
            ns=tuple(int(n) for n in data["ns"]),
            trials=int(data.get("trials", 1)),
            params=dict(data.get("params", {})),
            inputs=InputGrid.from_dict(data.get("inputs", {})),
            faults=FaultAxis.from_dict(faults) if faults else None,
            scheduler=data.get("scheduler", "uniform"),
            schedulers=tuple(data.get("schedulers", ())),
            monitors=tuple(data.get("monitors", ())),
            confirm=int(data.get("confirm", 0)),
            engine=data.get("engine", "agent"),
            backend=data.get("backend", "numpy"),
            stop=StopRule.from_dict(data.get("stop", {})),
            execution=ExecutionPolicy.from_dict(data.get("execution", {})),
            seed=int(data.get("seed", 0)),
        )

    def canonical_json(self) -> str:
        """The canonical serialization the content hash is computed over."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def content_hash(self) -> str:
        """Stable SHA-256 hex digest of the canonical serialization."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    @property
    def short_hash(self) -> str:
        """First 12 hex chars of the content hash (display / file names)."""
        return self.content_hash()[:12]

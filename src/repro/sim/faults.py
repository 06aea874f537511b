"""Fault injection (Sect. 8, "Fault tolerance").

The paper observes that the model is naturally robust to crash faults at
the *interaction* level — "if an agent dies, say from an exhausted
battery, the interactions between the remaining agents are unaffected" —
but that many of its algorithms (especially ones that consolidate the
computation onto few agents) are not.  This module makes that observation
a first-class, composable layer of the simulators rather than a forked
engine: a :class:`FaultPlan` bundles :class:`FaultModel` instances and
plugs into both :class:`~repro.sim.engine.Simulation` and
:class:`~repro.sim.multiset_engine.MultisetSimulation` via their
``faults=`` parameter, so faults compose with any scheduler, interaction
graph, and the convergence/stats machinery.

Three fault kinds are supported, each with deterministic and stochastic
schedules:

* **crashes** — an agent silently stops interacting (dead battery); its
  state is frozen and encounters involving it are inert
  (:class:`CrashAt`, :class:`CrashRate`, :class:`TargetedCrash`);
* **transient state corruption** — an agent's state is rewritten,
  modeling a sensor glitch (:class:`CorruptAt`, :class:`CorruptionRate`);
  the default :func:`reset_corruptor` re-initializes the agent from a
  random input symbol;
* **interaction omission** — a scheduled encounter is dropped, modeling
  failed radio contact (:class:`OmitAt`, :class:`OmissionRate`).

Fault randomness is drawn from the plan's *own* RNG, never the engine's:
with no plan attached the engines consume their RNG bit-identically to a
fault-free build, and on the agent-array engine even an attached plan
leaves the scheduler's pair sequence unchanged (faults only veto or
overwrite), so fault and no-fault runs of the same seed are directly
comparable.

:class:`CrashySimulation` survives as a thin backward-compatible wrapper
over :class:`~repro.sim.engine.Simulation`'s crash primitives.
"""

from __future__ import annotations

import warnings
from abc import ABC
from collections.abc import Callable, Iterable, Sequence

from repro.core.protocol import PopulationProtocol, State, Symbol
from repro.sim.engine import Simulation, SimulationHalted
from repro.sim.schedulers import Scheduler
from repro.util.rng import resolve_rng

#: A corruptor maps ``(state, protocol, rng)`` to the replacement state.
Corruptor = Callable[..., State]


def reset_corruptor(state: State, protocol: PopulationProtocol, rng) -> State:
    """The default sensor glitch: re-initialize from a random input symbol.

    Models a sensor whose memory is wiped and which re-reads (possibly
    garbage from) its environment — the transient-fault flavour studied by
    the self-stabilization line of work.
    """
    symbols = sorted(protocol.input_alphabet, key=repr)
    return protocol.initial_state(symbols[rng.randrange(len(symbols))])


class FaultModel(ABC):
    """One source of faults; override the hooks you need.

    ``before_interaction`` runs at every step boundary (``sim.interactions``
    interactions have completed; the next one has not been scheduled yet)
    and may apply crashes or corruptions through the engine's fault
    primitives.  ``omits_encounter`` is consulted after the scheduler has
    chosen an encounter; returning True drops it (the interaction counter
    still advances — radio time passed, no state changed).

    Models may keep per-run state (e.g. "already fired"); a model instance
    therefore drives a single simulation.  Build a fresh plan per trial.
    """

    def on_attach(self, sim, plan: "FaultPlan") -> None:
        """Called once when the owning plan is bound to a simulation."""

    def before_interaction(self, sim, plan: "FaultPlan") -> None:
        """Apply step-boundary faults (crashes, corruptions)."""

    def omits_encounter(self, sim, plan: "FaultPlan") -> bool:
        """Return True to drop the encounter scheduled at this step."""
        return False

    def next_boundary(self, sim) -> "int | None":
        """Earliest interaction count at which this model may need a hook.

        Returns the smallest count ``b >= sim.interactions`` such that the
        model must be consulted at the step boundary where the engine's
        interaction counter equals ``b`` (its ``before_interaction`` runs
        there, or the encounter ``b + 1`` may be omitted), or ``None`` if
        the model will never act again.  Fast engines use this schedule to
        run fault-free vectorized segments between boundaries; the default
        (``sim.interactions``, i.e. "maybe right now") is always safe and
        is what stochastic models keep, since they consult their RNG at
        every boundary.
        """
        return sim.interactions


class FaultPlan:
    """A composable bundle of fault models attached to one simulation.

    Parameters
    ----------
    models:
        The :class:`FaultModel` instances to apply, in order.
    seed:
        Seed or ``random.Random`` for fault randomness.  Kept separate
        from the engine's RNG so attaching a plan never perturbs the
        fault-free trajectory of the same engine seed.

    The plan counts what it applied (``crashes``, ``corruptions``,
    ``omissions``) so harnesses can report fault intensity actually
    delivered.  A plan binds to exactly one simulation; build a fresh
    plan (e.g. via a factory) for every trial.
    """

    def __init__(self, models: "Iterable[FaultModel] | FaultModel" = (),
                 *, seed=None):
        if isinstance(models, FaultModel):
            models = [models]
        self.models: list[FaultModel] = list(models)
        for model in self.models:
            if not isinstance(model, FaultModel):
                raise TypeError(f"not a FaultModel: {model!r}")
        self.rng = resolve_rng(seed)
        self.crashes = 0
        self.corruptions = 0
        self.omissions = 0
        self._sim = None
        # Hot-path caches: only models that actually override a hook are
        # consulted there.
        self._step_models = [
            m for m in self.models
            if type(m).before_interaction is not FaultModel.before_interaction]
        self._omit_models = [
            m for m in self.models
            if type(m).omits_encounter is not FaultModel.omits_encounter]

    def bind(self, sim) -> None:
        """Attach to ``sim`` (done by the engine constructors)."""
        if self._sim is not None and self._sim is not sim:
            raise ValueError(
                "FaultPlan is already attached to another simulation; "
                "build a fresh plan per run")
        self._sim = sim
        for model in self.models:
            model.on_attach(sim, self)

    # -- Engine hooks ----------------------------------------------------------

    def pre_step(self, sim) -> None:
        """Step-boundary faults; called by the engines before scheduling."""
        for model in self._step_models:
            model.before_interaction(sim, self)

    def drop_encounter(self, sim) -> bool:
        """Omission decision for the encounter scheduled at this step."""
        for model in self._omit_models:
            if model.omits_encounter(sim, self):
                self.omissions += 1
                return True
        return False

    def next_boundary(self, sim) -> "int | None":
        """Earliest boundary at which any model may act (None = never).

        The minimum of the models' :meth:`FaultModel.next_boundary`
        schedules.  Engines that batch interactions may advance fault-free
        up to (and including) interaction count ``b`` and must execute the
        step crossing boundary ``b`` through the full fault-aware path.
        """
        boundary = None
        for model in self.models:
            b = model.next_boundary(sim)
            if b is None:
                continue
            if boundary is None or b < boundary:
                boundary = b
        return boundary

    def __repr__(self) -> str:
        names = ", ".join(type(m).__name__ for m in self.models)
        return (f"FaultPlan([{names}], crashes={self.crashes}, "
                f"corruptions={self.corruptions}, omissions={self.omissions})")


# -- Crash faults -----------------------------------------------------------------


class CrashAt(FaultModel):
    """Deterministic crash schedule: kill ``count`` uniformly random live
    agents once ``step`` interactions have completed.

    The count is validated against the >= 2-survivors invariant when the
    fault fires (all-or-nothing: an impossible schedule raises before any
    agent is crashed).
    """

    def __init__(self, step: int, count: int = 1):
        if step < 0:
            raise ValueError("crash step must be non-negative")
        if count < 1:
            raise ValueError("crash count must be positive")
        self.step = step
        self.count = count
        self._fired = False

    def before_interaction(self, sim, plan: FaultPlan) -> None:
        if not self._fired and sim.interactions >= self.step:
            self._fired = True
            sim.crash_random(self.count, rng=plan.rng)
            plan.crashes += self.count

    def next_boundary(self, sim) -> "int | None":
        if self._fired:
            return None
        return max(self.step, sim.interactions)


class CrashRate(FaultModel):
    """Stochastic crashes: before each interaction, with probability ``p``
    one uniformly random live agent dies.

    Crashes that would leave fewer than two live agents are skipped (the
    model never empties the population).
    """

    def __init__(self, p: float):
        if not 0.0 <= p <= 1.0:
            raise ValueError("crash probability must lie in [0, 1]")
        self.p = p

    def before_interaction(self, sim, plan: FaultPlan) -> None:
        if plan.rng.random() < self.p and sim.n_alive > 2:
            sim.crash_random(1, rng=plan.rng)
            plan.crashes += 1


class TargetedCrash(FaultModel):
    """Adversarial crash: kill up to ``count`` live agents whose state
    satisfies ``match``, at the first step boundaries (at or after
    ``after_step``) where such agents exist.

    This is the paper's worst case made executable — e.g. killing the
    agent that has consolidated the count-to-k tokens the moment it
    appears.  Best-effort: victims are taken as they become available and
    never below two survivors.
    """

    def __init__(self, match: Callable[[State], bool], count: int = 1,
                 *, after_step: int = 0):
        if count < 1:
            raise ValueError("crash count must be positive")
        self.match = match
        self.after_step = after_step
        self._remaining = count

    def before_interaction(self, sim, plan: FaultPlan) -> None:
        if self._remaining and sim.interactions >= self.after_step:
            applied = sim.crash_matching(self.match, self._remaining,
                                         rng=plan.rng)
            self._remaining -= applied
            plan.crashes += applied

    def next_boundary(self, sim) -> "int | None":
        if not self._remaining:
            return None
        return max(self.after_step, sim.interactions)


# -- Transient state corruption ----------------------------------------------------


class CorruptAt(FaultModel):
    """Deterministic corruption: once ``step`` interactions have completed,
    rewrite the states of ``count`` uniformly random live agents via
    ``corruptor`` (default: :func:`reset_corruptor`)."""

    def __init__(self, step: int, count: int = 1,
                 corruptor: "Corruptor | None" = None):
        if step < 0:
            raise ValueError("corruption step must be non-negative")
        if count < 1:
            raise ValueError("corruption count must be positive")
        self.step = step
        self.count = count
        self.corruptor = corruptor or reset_corruptor
        self._fired = False

    def before_interaction(self, sim, plan: FaultPlan) -> None:
        if not self._fired and sim.interactions >= self.step:
            self._fired = True
            for _ in range(self.count):
                sim.corrupt_random(self.corruptor, rng=plan.rng)
            plan.corruptions += self.count

    def next_boundary(self, sim) -> "int | None":
        if self._fired:
            return None
        return max(self.step, sim.interactions)


class CorruptionRate(FaultModel):
    """Stochastic sensor glitches: before each interaction, with
    probability ``p`` one uniformly random live agent's state is rewritten
    via ``corruptor`` (default: :func:`reset_corruptor`)."""

    def __init__(self, p: float, corruptor: "Corruptor | None" = None):
        if not 0.0 <= p <= 1.0:
            raise ValueError("corruption probability must lie in [0, 1]")
        self.p = p
        self.corruptor = corruptor or reset_corruptor

    def before_interaction(self, sim, plan: FaultPlan) -> None:
        if plan.rng.random() < self.p:
            sim.corrupt_random(self.corruptor, rng=plan.rng)
            plan.corruptions += 1


# -- Interaction omission ----------------------------------------------------------


class OmitAt(FaultModel):
    """Deterministic omission: drop the interactions whose 1-based index
    is in ``steps`` (the first scheduled encounter has index 1)."""

    def __init__(self, steps: Iterable[int]):
        self.steps = frozenset(steps)
        if any(s < 1 for s in self.steps):
            raise ValueError("interaction indices are 1-based")

    def omits_encounter(self, sim, plan: FaultPlan) -> bool:
        return sim.interactions in self.steps

    def next_boundary(self, sim) -> "int | None":
        # The encounter with 1-based index i crosses the boundary i - 1,
        # and omits_encounter sees sim.interactions == i there.
        future = [s - 1 for s in self.steps if s - 1 >= sim.interactions]
        return min(future) if future else None


class OmissionRate(FaultModel):
    """Stochastic omission: each scheduled encounter independently fails
    with probability ``p`` (failed radio contact).  Omissions only dilate
    time — the conditional law of the surviving encounters is unchanged —
    so stably correct protocols stay correct, just slower by ``1/(1-p)``."""

    def __init__(self, p: float):
        if not 0.0 <= p <= 1.0:
            raise ValueError("omission probability must lie in [0, 1]")
        self.p = p

    def omits_encounter(self, sim, plan: FaultPlan) -> bool:
        return plan.rng.random() < self.p


# -- Declarative fault kinds -------------------------------------------------------


def fault_model(kind: str, intensity: float, at_step: int = 0) -> FaultModel:
    """The single fault model of one declarative fault kind.

    The kinds are the experiment layer's fault-axis kinds: ``crash-rate``
    (:class:`CrashRate`), ``corruption-rate`` (:class:`CorruptionRate`
    with the default corruptor), ``omission-rate``
    (:class:`OmissionRate`) — each with probability ``intensity`` — and
    ``crash-at`` (:class:`CrashAt`: ``int(intensity)`` agents crashed
    once ``at_step`` interactions have completed).  Raises
    ``ValueError`` for any other kind.
    """
    if kind == "crash-rate":
        return CrashRate(intensity)
    if kind == "corruption-rate":
        return CorruptionRate(intensity)
    if kind == "omission-rate":
        return OmissionRate(intensity)
    if kind == "crash-at":
        return CrashAt(int(at_step), int(intensity))
    raise ValueError(f"unknown fault kind {kind!r}")


# -- Declarative descriptor (ensemble and fluid engines) ---------------------------


#: Fault kinds an :class:`EnsembleFaults` descriptor takes (the FaultAxis
#: kinds).
ENSEMBLE_FAULT_KINDS = ("crash-rate", "corruption-rate", "omission-rate",
                        "crash-at")


class EnsembleFaults:
    """Declarative per-trial stochastic fault descriptor for the ensemble
    (:mod:`repro.sim.ensemble`) and, for the rate kinds, the fluid limit
    (:mod:`repro.sim.fluid`).

    It lives here, not with either engine, so the fluid engine can take
    one without importing the ensemble.

    The scalar engines take an imperative :class:`FaultPlan` whose
    models invoke fault primitives through per-step Python hooks; the
    ensemble cannot replay arbitrary hook code across a ``(T, k)``
    count matrix, so it accepts this declarative descriptor instead —
    one fault kind plus an intensity, covering exactly the kinds the
    experiment layer's :class:`repro.exp.spec.FaultAxis` can express:

    * ``"crash-rate"`` — per-step-boundary crash probability
      (:class:`CrashRate`);
    * ``"corruption-rate"`` — per-step-boundary reset-corruption
      probability (:class:`CorruptionRate` with the default
      :func:`reset_corruptor`);
    * ``"omission-rate"`` — per-live-encounter drop probability
      (:class:`OmissionRate`);
    * ``"crash-at"`` — ``int(intensity)`` uniformly random live agents
      crashed once ``at_step`` interactions have completed
      (:class:`CrashAt`).

    :meth:`build_plan` rebuilds the equivalent scalar ``FaultPlan`` for
    one trial, which is how
    :meth:`~repro.sim.ensemble.EnsembleMultisetSimulation.scalar_twin`
    honours the replay contract: a faulted ensemble trial's twin is a
    deterministic function of ``(seeds[t], fault_seeds[t])``.
    """

    def __init__(self, kind: str, intensity: float, *,
                 at_step: "int | None" = None):
        if kind not in ENSEMBLE_FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; known: {ENSEMBLE_FAULT_KINDS}")
        if kind == "crash-at":
            if at_step is None or at_step < 0:
                raise ValueError("crash-at needs at_step >= 0")
            if intensity < 0 or intensity != int(intensity):
                raise ValueError("crash-at intensity is an agent count >= 0")
        else:
            if at_step is not None:
                raise ValueError(
                    f"at_step only applies to crash-at, not {kind!r}")
            if not 0.0 <= intensity <= 1.0:
                raise ValueError(f"{kind} intensity must lie in [0, 1]")
        self.kind = kind
        self.intensity = float(intensity)
        self.at_step = None if at_step is None else int(at_step)

    @classmethod
    def from_axis(cls, axis, intensity) -> "EnsembleFaults | None":
        """Descriptor for one :class:`repro.exp.spec.FaultAxis` sweep
        intensity (None = fault-free, mirroring ``FaultAxis.build_plan``)."""
        if not intensity:
            return None
        at = axis.at_step if axis.kind == "crash-at" else None
        return cls(axis.kind, intensity, at_step=at)

    @property
    def count(self) -> int:
        """crash-at's victim count (``int(intensity)``)."""
        return int(self.intensity)

    @property
    def active(self) -> bool:
        """False iff the descriptor is a no-op (zero intensity)."""
        return self.intensity > 0.0

    def build_plan(self, seed):
        """The equivalent single-model scalar :class:`FaultPlan` for one
        trial (None when the descriptor is a no-op)."""
        if not self.active:
            return None
        return FaultPlan(fault_model(self.kind, self.intensity, self.at_step),
                         seed=seed)

    def __repr__(self) -> str:
        extra = f", at_step={self.at_step}" if self.at_step is not None else ""
        return f"EnsembleFaults({self.kind!r}, {self.intensity}{extra})"


# -- Legacy crash-only wrapper -----------------------------------------------------


class _AliveUniformPairScheduler(Scheduler):
    """Uniform random ordered pair among the *live* agents.

    Legacy :class:`CrashySimulation` sampling: dead agents are excluded
    from the draw, so the interaction counter counts only live-live
    meetings (under a :class:`CrashAt` plan the plain engines instead let
    dead encounters burn a tick, matching the paper's global clock)."""

    def __init__(self, alive: "Sequence[int]"):
        self.alive = alive

    def next_encounter(self, states, rng) -> tuple[int, int]:
        alive = self.alive
        if len(alive) < 2:
            raise SimulationHalted(
                f"only {len(alive)} live agent(s) remain: no encounter "
                "is possible")
        i = rng.randrange(len(alive))
        j = rng.randrange(len(alive) - 1)
        if j >= i:
            j += 1
        return alive[i], alive[j]


class CrashySimulation(Simulation):
    """Uniform-random-pairing simulation with crash faults (legacy API).

    Crashed agents keep their last state (their battery died; the sensor
    is inert) but never take part in another interaction.  Outputs are
    read from the *surviving* agents, matching the paper's reading that
    the remaining population carries the computation.

    This class predates :class:`FaultPlan` and survives as a thin wrapper
    over :class:`~repro.sim.engine.Simulation`'s crash primitives
    (:meth:`~repro.sim.engine.Simulation.crash`,
    :meth:`~repro.sim.engine.Simulation.crash_random`); new code should
    attach a :class:`FaultPlan` to a plain engine instead.  At least two
    agents must survive every crash (the ≥ 2-survivors invariant: a
    population protocol needs a pair to interact).
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        inputs: Sequence[Symbol],
        *,
        seed: "int | None" = None,
    ):
        warnings.warn(
            "CrashySimulation is deprecated; attach a FaultPlan (e.g. "
            "FaultPlan([CrashAt(step, count)], seed=...)) to a plain "
            "Simulation or use its crash()/crash_random() primitives",
            DeprecationWarning, stacklevel=2)
        alive: list[int] = []
        super().__init__(protocol, inputs, seed=seed,
                         scheduler=_AliveUniformPairScheduler(alive))
        alive.extend(range(len(self.states)))
        #: Live agent ids in ascending order (read-only; use crash()).
        self.alive = alive

    def crash(self, agent: int) -> None:
        """Silently stop ``agent``; at least two agents must survive."""
        if agent in self.crashed:
            return
        super().crash(agent)
        self.alive.remove(agent)

    def restore(self, snap: dict) -> None:
        super().restore(snap)
        # Rebuild the live list and re-link the restored scheduler to it.
        self.alive = [a for a in range(len(self.states))
                      if a not in self.crashed]
        self.scheduler.alive = self.alive

    def run_with_crashes(
        self,
        crash_times: Iterable[int],
        total_steps: int,
    ) -> None:
        """Run ``total_steps`` interactions, crashing one random agent at
        each interaction index in ``crash_times``.

        Duplicate times collapse to a single crash; an entry equal to the
        current interaction index fires before the next step; an entry in
        the past raises ``ValueError`` (before anything is simulated).
        """
        schedule = sorted(set(crash_times))
        for when in schedule:
            if when < self.interactions:
                raise ValueError("crash schedule must be in the future")
        position = 0
        while self.interactions < total_steps:
            if position < len(schedule) and self.interactions >= schedule[position]:
                self.crash_random()
                position += 1
            self.step()

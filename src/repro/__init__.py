"""repro — population protocols.

A from-scratch reproduction of Angluin, Aspnes, Diamadi, Fischer, Peralta,
"Computation in networks of passively mobile finite-state sensors"
(PODC 2004 / Distributed Computing 2006).

Subpackages
-----------
``repro.core``
    The formal model: protocols, populations, configurations, executions,
    encoding conventions, one-step semantics.
``repro.protocols``
    Concrete protocols: counting, threshold, remainder, majority,
    composition, leader election, Theorem 7 graph simulation, one-way.
``repro.presburger``
    Presburger arithmetic: formulas, Cooper quantifier elimination,
    semilinear sets, and the Theorem 5 formula-to-protocol compiler.
``repro.sim``
    Simulation engines (conjugating automata), schedulers, stopping rules,
    and trial harnesses.
``repro.analysis``
    Exact analysis: reachability, SCCs, stable-computation verification,
    Markov chains (Theorem 11).
``repro.exp``
    Experiment orchestration: declarative sweep specs, parallel workers
    with execution-independent seeding, resumable JSONL result stores,
    and scaling reports.
``repro.machines``
    Counter machines, Turing machines, Minsky's reduction, the Lemma 11 urn
    process, and the Theorem 9/10 population simulation of counter machines.
"""

from repro.util.lazy import lazy_exports

__version__ = "1.0.0"

#: Public name -> defining module, imported on first access.
_EXPORTS = {
    "DictProtocol": "repro.core",
    "PopulationProtocol": "repro.core",
    "Population": "repro.core",
    "complete_population": "repro.core",
    "MultisetSimulation": "repro.sim.multiset_engine",
    "Simulation": "repro.sim.engine",
    "simulate_counts": "repro.sim.engine",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__.append("__version__")

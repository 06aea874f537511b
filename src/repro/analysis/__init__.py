"""Exact analysis: reachability, SCCs, stable-computation verification,
Markov chains over configurations (Theorems 6 and 11), empirical
resilience measurement under injected faults (Sect. 8), and counterexample
shrinking for chaos-harness monitor violations."""

from repro.util.lazy import lazy_exports

#: Public name -> defining module, imported on first access, so importing
#: one analysis module does not load numpy through the Markov chains.
_EXPORTS = {
    "ConfigurationGraph": "repro.analysis.reachability",
    "is_reachable": "repro.analysis.reachability",
    "reachable_configurations": "repro.analysis.reachability",
    "witness_path": "repro.analysis.reachability",
    "condensation": "repro.analysis.scc",
    "final_components": "repro.analysis.scc",
    "final_nodes": "repro.analysis.scc",
    "tarjan_scc": "repro.analysis.scc",
    "VerificationResult": "repro.analysis.stability",
    "all_inputs_of_size": "repro.analysis.stability",
    "is_output_stable": "repro.analysis.stability",
    "verify_function_on_input": "repro.analysis.stability",
    "verify_predicate_on_input": "repro.analysis.stability",
    "verify_stable_computation": "repro.analysis.stability",
    "GraphConfigurationGraph": "repro.analysis.graph_reachability",
    "verify_on_all_inputs": "repro.analysis.graph_reachability",
    "verify_predicate_on_population": "repro.analysis.graph_reachability",
    "equivalence_classes": "repro.analysis.minimize",
    "minimization_report": "repro.analysis.minimize",
    "minimize_protocol": "repro.analysis.minimize",
    "ConvergenceDistribution": "repro.analysis.markov",
    "MarkovAnalysis": "repro.analysis.markov",
    "exact_output_distribution": "repro.analysis.markov",
    "FaultScenario": "repro.analysis.robustness",
    "ResilienceCurve": "repro.analysis.robustness",
    "ResiliencePoint": "repro.analysis.robustness",
    "ResilienceRow": "repro.analysis.robustness",
    "format_rows": "repro.analysis.robustness",
    "measure_correctness": "repro.analysis.robustness",
    "resilience_curve": "repro.analysis.robustness",
    "run_robustness": "repro.analysis.robustness",
    "scenarios_for": "repro.analysis.robustness",
    "CaseOutcome": "repro.analysis.shrink",
    "ChaosCase": "repro.analysis.shrink",
    "ReplayResult": "repro.analysis.shrink",
    "ShrinkResult": "repro.analysis.shrink",
    "artifact_dict": "repro.analysis.shrink",
    "case_from_record": "repro.analysis.shrink",
    "replay_artifact": "repro.analysis.shrink",
    "run_case": "repro.analysis.shrink",
    "shrink_case": "repro.analysis.shrink",
    "shrink_violation": "repro.analysis.shrink",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

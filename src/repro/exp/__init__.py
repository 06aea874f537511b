"""Experiment orchestration: declarative sweeps, parallel workers,
resumable result stores, and aggregation/reporting.

The paper's quantitative claims (Sect. 6) are statements about sweeps —
many seeds x many population sizes x many protocols.  This package runs
them as data instead of bespoke loops:

* :mod:`repro.exp.spec` — :class:`ExperimentSpec`, the declarative sweep
  description with a stable content hash;
* :mod:`repro.exp.runner` — order-independent seeded execution,
  in-process or on a worker fleet;
* :mod:`repro.exp.store` — append-only JSONL store making sweeps
  resumable at trial granularity;
* :mod:`repro.exp.supervise` — the supervision policy helpers: per-trial
  timeouts, retry with backoff, crashed-worker respawn, and poison-trial
  quarantine (enabled by a non-default :class:`ExecutionPolicy`);
* :mod:`repro.exp.fleet` — the worker fleet, the one multi-process
  executor: chunked trial dispatch, install-once spec broadcast, the
  supervision loop, and warm workers reusable across sweeps
  (``fleet=``);
* :mod:`repro.exp.report` — per-point aggregates, scaling tables with
  log-log exponent fits, CSV export, failure summaries;
* :mod:`repro.exp.bench` — engine kernel benchmarks and the
  perf-regression gate behind ``python -m repro bench``.

Exposed on the command line as ``python -m repro exp run`` /
``python -m repro exp report``.
"""

from repro.util.lazy import lazy_exports

#: Public name -> defining module, imported on first access, so importing
#: this package loads neither the benchmarks nor the fleet.
_EXPORTS = {
    "ExperimentSpec": "repro.exp.spec",
    "InputGrid": "repro.exp.spec",
    "FaultAxis": "repro.exp.spec",
    "StopRule": "repro.exp.spec",
    "ExecutionPolicy": "repro.exp.spec",
    "SweepPoint": "repro.exp.runner",
    "sweep_points": "repro.exp.runner",
    "trial_id": "repro.exp.runner",
    "trial_ids": "repro.exp.runner",
    "trial_keys": "repro.exp.runner",
    "trial_seeds": "repro.exp.runner",
    "run_trial": "repro.exp.runner",
    "run_experiment": "repro.exp.runner",
    "ExperimentResult": "repro.exp.runner",
    "plan_size": "repro.exp.runner",
    "ResultStore": "repro.exp.store",
    "StoreMismatch": "repro.exp.store",
    "encode_record": "repro.exp.store",
    "SupervisionStats": "repro.exp.supervise",
    "TrialExecutionError": "repro.exp.supervise",
    "TrialTimeout": "repro.exp.supervise",
    "PointAggregate": "repro.exp.report",
    "aggregate": "repro.exp.report",
    "scaling": "repro.exp.report",
    "format_report": "repro.exp.report",
    "report_dict": "repro.exp.report",
    "failure_summary": "repro.exp.report",
    "trials_csv": "repro.exp.report",
    "summary_csv": "repro.exp.report",
    "WorkerFleet": "repro.exp.fleet",
    "fleet_report": "repro.exp.fleet",
    "run_kernel_benchmarks": "repro.exp.bench",
    "run_supervision_benchmark": "repro.exp.bench",
    "run_fleet_benchmarks": "repro.exp.bench",
    "speedup_summary": "repro.exp.bench",
    "write_bench_file": "repro.exp.bench",
    "load_bench_file": "repro.exp.bench",
    "compare_to_baseline": "repro.exp.bench",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

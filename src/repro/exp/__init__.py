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

from repro.exp.bench import (
    compare_to_baseline,
    load_bench_file,
    run_fleet_benchmarks,
    run_kernel_benchmarks,
    run_supervision_benchmark,
    speedup_summary,
    write_bench_file,
)
from repro.exp.fleet import WorkerFleet, fleet_report
from repro.exp.report import (
    PointAggregate,
    aggregate,
    failure_summary,
    format_report,
    report_dict,
    scaling,
    summary_csv,
    trials_csv,
)
from repro.exp.runner import (
    ExperimentResult,
    SweepPoint,
    plan_size,
    run_experiment,
    run_trial,
    sweep_points,
    trial_id,
    trial_ids,
    trial_keys,
    trial_seeds,
)
from repro.exp.spec import (
    ExecutionPolicy,
    ExperimentSpec,
    FaultAxis,
    InputGrid,
    StopRule,
)
from repro.exp.store import ResultStore, StoreMismatch, encode_record
from repro.exp.supervise import (
    SupervisionStats,
    TrialExecutionError,
    TrialTimeout,
)

__all__ = [
    "ExperimentSpec",
    "InputGrid",
    "FaultAxis",
    "StopRule",
    "ExecutionPolicy",
    "SweepPoint",
    "sweep_points",
    "trial_id",
    "trial_ids",
    "trial_keys",
    "trial_seeds",
    "run_trial",
    "run_experiment",
    "ExperimentResult",
    "plan_size",
    "ResultStore",
    "StoreMismatch",
    "encode_record",
    "SupervisionStats",
    "TrialExecutionError",
    "TrialTimeout",
    "PointAggregate",
    "aggregate",
    "scaling",
    "format_report",
    "report_dict",
    "failure_summary",
    "trials_csv",
    "summary_csv",
    "WorkerFleet",
    "fleet_report",
    "run_kernel_benchmarks",
    "run_supervision_benchmark",
    "run_fleet_benchmarks",
    "speedup_summary",
    "write_bench_file",
    "load_bench_file",
    "compare_to_baseline",
]

"""One ``exp run`` sweep in a fresh interpreter, measured end to end.

``run.py`` starts this script once per measured run, so imports, the
``compile_protocol`` memo and worker start-up are as cold as in a user's
``exp run``.  It loads the spec from a JSON file, opens a fresh result
store, calls ``run_experiment`` once, then reopens the finished store and
resumes it (which must execute nothing).  Next to each of these it times
the reference computation of ``hostspeed.py``.  The last line of its
standard output is one JSON object with the raw measurements, those
calibrations and a summary of the stored records; ``run.py`` turns those
into metrics and checks them.

With ``--trace`` the layer wrappers of ``layertrace.py`` are installed
before the spec is loaded, and the per-layer totals join the output.

    python3 perfbench/sweep.py --spec SPEC.json --store STORE.jsonl \\
        --workers 2 --launched MONOTONIC_SECONDS [--trace] \\
        [--first-record-only]

``--first-record-only`` stops at the first record: a cheap extra sample
of the two short, noisy intervals, set-up and time to first record.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import pickle
import resource
import sys
import time
from pathlib import Path

from hostspeed import calibrate

ROOT = Path(__file__).resolve().parent.parent

#: Untraced resumes repeat at least RESUME_MIN_REPS times and until
#: RESUME_MIN_S have passed (at most RESUME_MAX_REPS times): a store of a
#: handful of records resumes in under a millisecond, so one repetition
#: is too noisy.
RESUME_MIN_REPS = 3
RESUME_MIN_S = 0.1
RESUME_MAX_REPS = 50


class _FirstRecord(Exception):
    """Raised from the progress callback to stop at the first record."""


def _record_summary(result, expected_trials: int) -> dict:
    """Digest and per-n statistics of the sorted records."""
    digest = hashlib.sha256()
    per_n: dict = {}
    for record in result.records:
        digest.update(json.dumps(record, sort_keys=True,
                                 separators=(",", ":")).encode("utf-8"))
        digest.update(b"\n")
        row = per_n.setdefault(str(record["n"]), {
            "trials": 0, "not_stopped": 0, "not_correct": 0,
            "converged": []})
        row["trials"] += 1
        row["not_stopped"] += not record["stopped"]
        row["not_correct"] += record["correct"] is not True
        row["converged"].append(record["converged_at"] or 0)
    for row in per_n.values():
        values = row.pop("converged")
        mean = sum(values) / len(values)
        row["mean_converged_at"] = mean
        row["var_converged_at"] = (
            sum((v - mean) ** 2 for v in values) / (len(values) - 1)
            if len(values) > 1 else 0.0)
    return {"digest": digest.hexdigest(), "trials": len(result.records),
            "expected_trials": expected_trials,
            "quarantined": len(result.failures), "per_n": per_n,
            "interactions": sum(r["interactions"] for r in result.records)}


def _layers(tracer, result, wall_s: float, resume_records: int) -> dict:
    """Per-layer totals of one traced sweep (see run.py for the metrics)."""
    from repro.sim.compiled import compile_cache_stats

    setup = tracer.totals("setup")
    run = tracer.totals("run")
    resume = tracer.totals("resume")

    def self_s(table, name):
        return table.get(name, {}).get("self_s", 0.0)

    def calls(table, name):
        return table.get(name, {}).get("calls", 0)

    memo = compile_cache_stats()
    lookups = memo["hits"] + memo["misses"]
    # Self time per layer inside run_experiment; sums to the sweep's wall.
    by_layer: dict = {}
    for name, row in run.items():
        if name.startswith("sim.step."):
            continue  # the faulted / fault-free split of sim.step
        layer = name if name.startswith("sim.") else name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + row["self_s"]
    return {
        "spec_s": sum(self_s(t, name) for t in (setup, run)
                      for name in ("spec.from_dict", "spec.validate",
                                   "spec.content_hash")),
        "build_s": self_s(run, "protocols.build"),
        "builds": calls(run, "protocols.build"),
        "truth_s": self_s(run, "protocols.truth"),
        "compile_s": self_s(run, "compiled.compile"),
        "memo_hit_ratio": memo["hits"] / lookups if lookups else 0.0,
        "construct_s": self_s(run, "sim.construct"),
        "step_s": self_s(run, "sim.step"),
        "step_faulted_s": self_s(run, "sim.step.faulted"),
        "step_fault_free_s": self_s(run, "sim.step.fault_free"),
        "scan_s": self_s(run, "convergence.scan"),
        "scans": calls(run, "convergence.scan"),
        "runner_self_s": self_s(run, "runner.trial"),
        "append_s": self_s(run, "store.append"),
        "appends": calls(run, "store.append"),
        "open_s": self_s(resume, "store.open"),
        "records_loaded": resume_records,
        "sweep_wall_s": wall_s,
        # run_experiment's own self time is what no layer span covers.
        "unattributed_s": by_layer.pop("run_experiment", 0.0),
        "self_by_layer": by_layer,
        "pool_tasks": tracer.pool_tasks,
        "supervision_tasks": (result.supervision or {}).get("tasks", 0),
        "retries": (result.supervision or {}).get("retries", 0),
        "memo_hits": (result.fleet or {}).get("memo_hits", 0),
        "shm_results": (result.fleet or {}).get("shm_results", 0),
        "pipe_results": (result.fleet or {}).get("pipe_results", 0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() just before this process "
                             "was started")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--first-record-only", action="store_true",
                        help="stop at the first record and report only "
                             "setup_s and first_record_s")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from repro.exp.runner import plan_size, run_experiment
    from repro.exp.spec import ExperimentSpec
    from repro.exp.store import ResultStore

    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()

    with open(args.spec, encoding="utf-8") as handle:
        spec = ExperimentSpec.from_dict(json.load(handle))
    spec.validate()
    spec.content_hash()
    store = ResultStore(args.store)

    first: list = []

    def progress(record: dict) -> None:
        if not first:
            first.append(time.monotonic())
            if args.first_record_only:
                raise _FirstRecord

    setup_s = time.monotonic() - args.launched
    # The host's speed is sampled on as many CPUs as the sweep runs
    # workers on, between set-up and the sweep and after what is timed.
    calibration = {"pre": calibrate(args.workers)}
    if tracer is not None:
        tracer.phase = "run"
    cpu0 = time.process_time()
    entered = time.monotonic()
    try:
        with (tracer.span("run_experiment") if tracer is not None
              else contextlib.nullcontext()):
            result = run_experiment(spec, store=store, workers=args.workers,
                                    progress=progress)
    except _FirstRecord:
        # Unwinding run_experiment terminates its pool, if it made one.
        calibration["post"] = calibrate(args.workers)
        print(json.dumps({"setup_s": setup_s,
                          "first_record_s": first[0] - entered,
                          "calibration_s": calibration}))
        return 0
    finished = time.monotonic()
    cpu_s = time.process_time() - cpu0
    wall_s = finished - entered
    store_bytes = os.path.getsize(args.store)

    if tracer is not None:
        tracer.phase = "resume"
    resumes: list = []
    resumed_executed = 0
    resume_records = 0
    # Resumes run in this process alone; the host's speed is sampled on
    # its CPU right before them and (below) right after them.
    calibration["resume"] = calibrate()
    started = time.monotonic()
    # A traced run resumes once: its spans would otherwise add up.
    while (len(resumes) < (1 if tracer is not None else RESUME_MIN_REPS)
           or (tracer is None and len(resumes) < RESUME_MAX_REPS
               and time.monotonic() - started < RESUME_MIN_S)):
        # Start each resume from a collected heap, as in the fresh process
        # of a user's resumed exp run, not from the collector's state left
        # by the sweep or the previous repetition.
        gc.collect()
        r0 = time.monotonic()
        reopened = ResultStore(args.store)
        again = run_experiment(spec, store=reopened, workers=args.workers)
        resumes.append(time.monotonic() - r0)
        resumed_executed += again.executed
        resume_records = len(reopened)

    # ru_maxrss of the reaped children is that of the largest worker, so
    # this is the peak of the largest process, not of their sum.
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    calibration["post"] = calibrate(args.workers)
    out = {
        "setup_s": setup_s,
        "first_record_s": (first[0] - entered) if first else None,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "resume_s": resumes,
        "resumed_executed": resumed_executed,
        "peak_rss_mb": max(self_kb, child_kb) / 1024.0,
        "calibration_s": calibration,
        "executed": result.executed,
        "store_bytes": store_bytes,
        "summary": _record_summary(result, plan_size(spec)),
    }
    if args.workers > 1:
        # Computed, not observed: the pickled size of every fresh record,
        # i.e. what had to cross the process boundary as results.
        out["result_bytes"] = sum(
            len(pickle.dumps(r, pickle.HIGHEST_PROTOCOL))
            for r in result.records)
    if tracer is not None:
        out["layers"] = _layers(tracer, result, wall_s, resume_records)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

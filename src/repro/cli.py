"""Command-line interface: ``python -m repro <command> ...``.

Four commands expose the main pipeline:

* ``qe FORMULA`` — print the quantifier-free (Theorem 4) normal form;
* ``simulate FORMULA --counts x=3,y=4`` — compile (Theorem 5) and run the
  protocol under uniform random pairing until the output stabilizes;
* ``verify FORMULA --size N`` — model-check the compiled protocol
  exhaustively on every input of total size N (Theorem 6 style);
* ``exact FORMULA --counts x=3,y=4`` — exact Markov-chain analysis
  (Theorem 11): output probabilities and expected convergence time;
* ``robustness --protocol NAME ...`` — fault-injection resilience table
  for built-in protocols (Sect. 8): correctness rates under crash,
  omission, and corruption scenarios;
* ``exp run`` / ``exp report`` — the experiment orchestration subsystem:
  declarative sweeps (many sizes x intensities x trials) executed
  in-process or on worker processes (:mod:`repro.exp.fleet`) into a
  resumable JSONL store, then aggregated into scaling tables with
  log-log exponent fits;
* ``chaos run`` / ``chaos replay`` — monitor-instrumented campaigns over
  scheduler x fault-intensity grids; violations are shrunk to minimal
  JSON reproductions (``--shrink``) that replay bit-identically;
* ``bench`` — engine kernel benchmarks (reference vs. compiled fast
  paths) with a JSON baseline and a throughput-regression gate; CI runs
  ``bench --smoke --baseline BENCH_engines.json``;
* ``doctor`` — environment report: step-kernel backend availability
  (numpy / numba / python), relevant package versions, why an
  unavailable backend cannot run here, and worker-fleet eligibility
  (start method, numba warm status).

``exp run``, ``chaos run``, and ``bench`` accept ``--backend`` to
select the step-kernel backend for ``--engine batched``, the one
engine with a kernel seam; an unavailable request falls back to numpy
with a one-time warning.

``repro run`` and ``repro robustness`` accept ``--json`` for
machine-readable output.

Examples::

    python -m repro qe "E k. x = 2*k & k >= 0"
    python -m repro simulate "20*e >= e + h" --counts e=2,h=38
    python -m repro verify "x < y" --size 5
    python -m repro exact "x = 1 mod 2" --counts x=3,pad=2
    python -m repro robustness --protocol epidemic --protocol count_to_k
    python -m repro exp run --protocol leader-election --ns 8,16,32 \\
        --trials 20 --stop silent --store election.jsonl --workers 4
    python -m repro exp report --store election.jsonl
    python -m repro chaos run --protocol majority --ns 10 --input ones:6 \\
        --fault corruption-rate --intensities 0.005 --trials 4 \\
        --shrink repro.json --fail-on-violation
    python -m repro chaos replay repro.json
    python -m repro bench --smoke --baseline BENCH_engines.json
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence


def _parse_counts(text: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, _, value = piece.partition("=")
        if not value:
            raise argparse.ArgumentTypeError(
                f"counts must look like 'x=3,y=4'; got {piece!r}")
        try:
            counts[name.strip()] = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"count for {name!r} must be an integer") from None
    if not counts:
        raise argparse.ArgumentTypeError("no counts given")
    return counts


def _compile(formula: str, counts: "dict[str, int] | None"):
    from repro.presburger.compiler import compile_predicate
    from repro.presburger.parser import parse

    free = sorted(parse(formula).free_variables())
    extra = []
    if counts:
        extra = [symbol for symbol in counts if symbol not in free]
    return compile_predicate(formula, extra_symbols=extra)


def cmd_qe(args: argparse.Namespace) -> int:
    from repro.presburger.parser import parse
    from repro.presburger.qe import eliminate_quantifiers

    formula = parse(args.formula)
    print(eliminate_quantifiers(formula))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.sim.convergence import run_until_quiescent
    from repro.sim.engine import simulate_counts

    protocol = _compile(args.formula, args.counts)
    missing = set(protocol.input_alphabet) - set(args.counts)
    for symbol in missing:
        args.counts[symbol] = 0
    truth = protocol.ground_truth(args.counts)
    sim = simulate_counts(protocol, args.counts, seed=args.seed)
    result = run_until_quiescent(sim, patience=args.patience,
                                 max_steps=args.max_steps)
    print(f"formula : {args.formula}")
    print(f"input   : {dict(sorted(args.counts.items()))}  (n = {sim.n})")
    print(f"verdict : {result.output}  (ground truth: {int(truth)})")
    print(f"converged after ~{result.converged_at} interactions "
          f"({result.interactions} simulated)")
    if result.output is None or result.output != int(truth):
        print("WARNING: simulation had not stabilized to the correct "
              "verdict; increase --patience/--max-steps", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.analysis.stability import (
        all_inputs_of_size,
        verify_stable_computation,
    )

    protocol = _compile(args.formula, None)
    alphabet = sorted(protocol.input_alphabet)
    results = verify_stable_computation(
        protocol, lambda c: protocol.ground_truth(c),
        all_inputs_of_size(alphabet, args.size))
    explored = sum(r.configurations for r in results)
    holds = all(results)
    print(f"formula   : {args.formula}")
    print(f"alphabet  : {alphabet}")
    print(f"inputs    : all {len(results)} multisets of size {args.size}")
    print(f"explored  : {explored} reachable configurations")
    print(f"verdict   : {'stable computation HOLDS' if holds else 'FAILS'}")
    if not holds:
        for r in results:
            if not r:
                print(f"  counterexample input {r.input_counts}: {r.reason}")
        return 1
    return 0


def cmd_exact(args: argparse.Namespace) -> int:
    from repro.analysis.markov import exact_output_distribution

    protocol = _compile(args.formula, args.counts)
    missing = set(protocol.input_alphabet) - set(args.counts)
    for symbol in missing:
        args.counts[symbol] = 0
    dist = exact_output_distribution(protocol, args.counts)
    print(f"formula : {args.formula}")
    print(f"input   : {dict(sorted(args.counts.items()))}")
    print(f"chain   : {dist.configurations} configurations")
    for output, probability in sorted(dist.output_probability.items(),
                                      key=lambda kv: repr(kv[0])):
        print(f"P[output {output!r}] = {probability:.9f}")
    print(f"P[diverge] = {dist.divergence_probability:.3e}")
    print(f"E[interactions to convergence] = {dist.expected_interactions:.3f}")
    return 0


def cmd_protocols(args: argparse.Namespace) -> int:
    from repro.protocols import registry

    print(f"{'name':<22} {'paper':<14} summary")
    for entry in registry.entries():
        print(f"{entry.name:<22} {entry.paper_section:<14} {entry.summary}")
    return 0


def _json_symbol(symbol):
    """JSON object keys must be strings; keep ints readable."""
    return str(symbol)


def cmd_run(args: argparse.Namespace) -> int:
    import json

    from repro.protocols import registry
    from repro.sim.convergence import run_until_quiescent
    from repro.sim.engine import simulate_counts

    entry = registry.get(args.name)
    params = dict(args.params or {})
    protocol = entry.build(**params)
    counts = {}
    for symbol, count in args.counts.items():
        # Built-in protocols use 0/1 integer symbols; coerce digit names.
        key: object = int(symbol) if symbol.lstrip("-").isdigit() else symbol
        counts[key] = count
    sim = simulate_counts(protocol, counts, seed=args.seed)
    result = run_until_quiescent(sim, patience=args.patience,
                                 max_steps=args.max_steps)
    truth = None
    if entry.truth is not None:
        truth = int(entry.evaluate_truth(counts, **params))
    wrong = truth is not None and result.output != truth
    if args.json:
        payload = {
            "protocol": entry.name,
            "params": params,
            "input": {_json_symbol(s): c for s, c in
                      sorted(counts.items(), key=lambda kv: repr(kv[0]))},
            "n": sim.n,
            "output": result.output,
            "output_counts": {_json_symbol(s): c
                              for s, c in sorted(sim.output_counts().items(),
                                                 key=lambda kv: repr(kv[0]))},
            "converged_at": result.converged_at,
            "interactions": result.interactions,
            "stopped": result.stopped,
            "truth": truth,
            "correct": None if truth is None else not wrong,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if wrong else 0
    print(f"protocol : {entry.name}  ({entry.paper_section})")
    print(f"input    : {dict(sorted(counts.items(), key=repr))}  (n = {sim.n})")
    if result.output is not None:
        print(f"verdict  : {result.output}")
    else:
        print(f"outputs  : {sim.output_counts()}  (no unanimity)")
    print(f"converged after ~{result.converged_at} interactions "
          f"({result.interactions} simulated)")
    if truth is not None:
        print(f"truth    : {truth}")
        if wrong:
            print("WARNING: not yet stabilized to the correct verdict; "
                  "increase --patience/--max-steps", file=sys.stderr)
            return 1
    return 0


def cmd_robustness(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.robustness import format_rows, run_robustness

    try:
        rows = run_robustness(
            args.protocol, trials=args.trials, seed=args.seed,
            patience=args.patience, max_steps=args.max_steps,
            engine=getattr(args, "engine", None) or "reference")
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 1
    if args.json:
        payload = [{"protocol": r.protocol, "scenario": r.scenario,
                    "trials": r.trials, "correct": r.correct,
                    "rate": r.rate, "engine": r.engine,
                    "interactions": r.interactions,
                    "seconds": round(r.seconds, 6),
                    "throughput": round(r.throughput, 1)} for r in rows]
        print(json.dumps(payload, indent=2))
        return 0
    print(format_rows(rows))
    return 0


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}") from None


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated float list, got {text!r}") from None


def _spec_from_args(args: argparse.Namespace):
    """Build an ExperimentSpec from ``exp run`` flags or a --spec file."""
    import json

    from repro.exp.spec import (
        ExecutionPolicy,
        ExperimentSpec,
        FaultAxis,
        InputGrid,
        StopRule,
    )

    if args.spec:
        with open(args.spec, encoding="utf-8") as handle:
            return ExperimentSpec.from_dict(json.load(handle))
    if not args.protocol or not args.ns:
        raise ValueError("pass --spec FILE, or both --protocol and --ns")
    kind, _, value = (args.input or "all-ones").partition(":")
    if kind == "ones":
        inputs = InputGrid(kind="ones", ones=int(value or 1))
    elif kind == "fraction":
        inputs = InputGrid(kind="fraction", fraction=float(value or 0.5))
    elif kind == "all-ones" and not value:
        inputs = InputGrid(kind="all-ones")
    else:
        raise ValueError(
            f"unknown --input {args.input!r}; use all-ones, ones:K, "
            "or fraction:F (explicit tables need a --spec file)")
    faults = None
    if args.fault:
        if not args.intensities:
            raise ValueError("--fault needs --intensities")
        faults = FaultAxis(args.fault, tuple(args.intensities),
                           at_step=args.at_step)
    return ExperimentSpec(
        protocol=args.protocol,
        ns=tuple(args.ns),
        trials=args.trials,
        params=dict(args.params or {}),
        inputs=inputs,
        faults=faults,
        schedulers=tuple(getattr(args, "schedulers", None) or ()),
        monitors=tuple(getattr(args, "monitors", None) or ()),
        confirm=getattr(args, "confirm", 0),
        engine=getattr(args, "engine", None) or "agent",
        backend=getattr(args, "backend", None) or "numpy",
        stop=StopRule(rule=args.stop, patience=args.patience,
                      max_steps=args.max_steps,
                      check_every=args.check_every),
        execution=ExecutionPolicy(
            timeout_s=getattr(args, "timeout_s", None),
            max_attempts=getattr(args, "max_attempts", None) or 1,
            backoff=(0.5 if getattr(args, "backoff", None) is None
                     else args.backoff),
            on_error=getattr(args, "on_error", None) or "raise"),
        seed=args.seed,
    )


def cmd_exp_run(args: argparse.Namespace) -> int:
    import json

    from repro.exp.report import (
        aggregate,
        failure_summary,
        format_report,
        report_dict,
    )
    from repro.exp.runner import plan_size, run_experiment
    from repro.exp.store import ResultStore
    from repro.exp.supervise import TrialExecutionError

    store = None
    try:
        spec = _spec_from_args(args)
        spec.validate()
        store = ResultStore(args.store) if args.store else None
        result = run_experiment(
            spec, store=store, workers=args.workers,
            retry_quarantined=getattr(args, "retry_quarantined", False))
    except TrialExecutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.store:
            print(f"(partial results kept in {args.store}; rerun with "
                  "--on-error quarantine to record failures and continue)",
                  file=sys.stderr)
        return 1
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 1
    finally:
        if store is not None:
            store.close()
    aggregates = aggregate(result.records, metric=args.metric)
    if args.json:
        payload = report_dict(aggregates, spec=spec, metric=args.metric,
                              failures=result.failures)
        payload["executed"] = result.executed
        payload["skipped"] = result.skipped
        if result.supervision is not None:
            payload["supervision"] = result.supervision
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"plan     : {plan_size(spec)} trials "
          f"({result.executed} executed, {result.skipped} resumed)")
    if args.store:
        print(f"store    : {args.store}")
    print(format_report(aggregates, spec=spec, metric=args.metric))
    if result.failures or result.supervision:
        print(failure_summary(result.failures,
                              supervision=result.supervision))
    return 0


def cmd_exp_report(args: argparse.Namespace) -> int:
    import json

    from repro.exp.report import (
        aggregate,
        failure_summary,
        format_report,
        report_dict,
        summary_csv,
        trials_csv,
    )
    from repro.exp.store import ResultStore
    from repro.util.fileio import atomic_write_text

    try:
        store = ResultStore(args.store)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    spec = store.spec()
    if spec is None:
        print(f"error: {args.store!r} has no experiment header",
              file=sys.stderr)
        return 1
    records = store.records()
    failures = store.failures()
    if args.csv:
        atomic_write_text(args.csv, trials_csv(records))
        print(f"wrote {len(records)} trial rows to {args.csv}")
    aggregates = aggregate(records, metric=args.metric)
    if args.summary_csv:
        atomic_write_text(args.summary_csv,
                          summary_csv(aggregates, metric=args.metric))
        print(f"wrote {len(aggregates)} summary rows to {args.summary_csv}")
    if args.json:
        print(json.dumps(report_dict(aggregates, spec=spec,
                                     metric=args.metric, failures=failures),
                         indent=2, sort_keys=True))
        return 0
    print(format_report(aggregates, spec=spec, metric=args.metric))
    if failures:
        print(failure_summary(failures))
    return 0


def _parse_params(text: str) -> dict[str, int]:
    return _parse_counts(text)


def _parse_str_list(text: str) -> list[str]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise argparse.ArgumentTypeError("expected a comma-separated list")
    return items


def cmd_chaos_run(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.shrink import (
        case_from_record,
        dump_artifact,
        shrink_case,
    )
    from repro.exp.report import (
        aggregate,
        failure_summary,
        format_report,
        report_dict,
    )
    from repro.exp.runner import plan_size, run_experiment
    from repro.exp.store import ResultStore
    from repro.exp.supervise import TrialExecutionError

    store = None
    try:
        spec = _spec_from_args(args)
        spec.validate()
        if not spec.monitors:
            raise ValueError("chaos run needs at least one --monitors entry")
        store = ResultStore(args.store) if args.store else None
        result = run_experiment(
            spec, store=store, workers=args.workers,
            retry_quarantined=getattr(args, "retry_quarantined", False))
    except TrialExecutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 1
    finally:
        if store is not None:
            store.close()
    violated = [r for r in result.records
                if r.get("violation") is not None]
    shrink_payload = None
    if args.shrink and violated:
        # Shrink the canonically-first violation (records are sorted, so
        # the pick is deterministic for a given spec).
        record = violated[0]
        try:
            shrunk = shrink_case(case_from_record(record),
                                 monitor=record["violation"]["monitor"],
                                 max_evals=args.max_shrink_evals)
        except ValueError as exc:
            print(f"error: shrink failed: {exc}", file=sys.stderr)
            return 1
        dump_artifact(args.shrink, shrunk)
        shrink_payload = {
            "artifact": args.shrink,
            "original_n": shrunk.original.n,
            "shrunk_n": shrunk.case.n,
            "violation": shrunk.violation,
            "evals": shrunk.evals,
        }
    aggregates = aggregate(result.records, metric=args.metric)
    exit_code = 1 if (violated and args.fail_on_violation) else 0
    if args.json:
        payload = report_dict(aggregates, spec=spec, metric=args.metric,
                              failures=result.failures)
        payload["executed"] = result.executed
        payload["skipped"] = result.skipped
        if result.supervision is not None:
            payload["supervision"] = result.supervision
        payload["violations"] = [
            {"id": r["id"], "n": r["n"], "intensity": r["intensity"],
             "scheduler": r.get("scheduler"), "trial": r["trial"],
             "monitor": r["violation"]["monitor"],
             "step": r["violation"]["step"]} for r in violated]
        if shrink_payload is not None:
            payload["shrink"] = shrink_payload
        print(json.dumps(payload, indent=2, sort_keys=True))
        return exit_code
    print(f"plan     : {plan_size(spec)} trials "
          f"({result.executed} executed, {result.skipped} resumed)")
    if args.store:
        print(f"store    : {args.store}")
    print(f"violations: {len(violated)} / {len(result.records)} trials")
    for record in violated[:10]:
        violation = record["violation"]
        label = f"n={record['n']}"
        if record.get("intensity") is not None:
            label += f" intensity={record['intensity']:g}"
        if record.get("scheduler"):
            label += f" scheduler={record['scheduler']}"
        print(f"  [{violation['monitor']}] at step {violation['step']}  "
              f"({label}, trial {record['trial']})")
    if len(violated) > 10:
        print(f"  ... and {len(violated) - 10} more")
    if shrink_payload is not None:
        print(f"shrunk   : n {shrink_payload['original_n']} -> "
              f"{shrink_payload['shrunk_n']}, violation "
              f"[{shrink_payload['violation']['monitor']}] at step "
              f"{shrink_payload['violation']['step']} "
              f"({shrink_payload['evals']} replays) -> {args.shrink}")
    print(format_report(aggregates, spec=spec, metric=args.metric))
    if result.failures or result.supervision:
        print(failure_summary(result.failures,
                              supervision=result.supervision))
    return exit_code


def cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.exp.bench import (
        compare_to_baseline,
        faulted_overhead_check,
        format_rows,
        load_bench_file,
        run_fleet_benchmarks,
        run_kernel_benchmarks,
        run_supervision_benchmark,
        speedup_summary,
        write_bench_file,
    )

    if args.update_baseline:
        # Regenerate the committed baseline in place: the full grid (a
        # smoke-only baseline would leave the full rows stale) written
        # to the file the CI gate reads.
        if args.smoke:
            print("error: --update-baseline regenerates the full grid; "
                  "drop --smoke", file=sys.stderr)
            return 1
        if not args.out:
            args.out = args.baseline or "BENCH_engines.json"

    progress = None
    if not args.json:
        def progress(row):
            print(f"  {row['engine']:<22} {row['protocol']} n={row['n']}: "
                  f"{row['ips']:,.0f} {row['unit']}/s", file=sys.stderr)

    rows = run_kernel_benchmarks(smoke=args.smoke, seed=args.seed,
                                 repeats=args.repeats,
                                 backend=args.backend, progress=progress)
    if not args.skip_fleet:
        rows.extend(run_fleet_benchmarks(smoke=args.smoke, seed=args.seed,
                                         repeats=args.repeats,
                                         backend=args.backend,
                                         progress=progress))
    speedups = speedup_summary(rows)
    fault_overheads = faulted_overhead_check(
        rows, max_overhead=args.max_fault_overhead)
    supervision = None
    if not args.skip_supervision:
        supervision = run_supervision_benchmark(smoke=args.smoke,
                                                seed=args.seed)
    supervision_failed = (supervision is not None and supervision["overhead"]
                         > args.max_supervision_overhead)
    regressions = []
    if args.baseline:
        try:
            baseline = load_bench_file(args.baseline)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: {exc.args[0] if exc.args else exc}",
                  file=sys.stderr)
            return 1
        regressions = compare_to_baseline(rows, baseline,
                                          max_regression=args.max_regression)
    if args.out:
        write_bench_file(args.out, rows)
    failed = (bool(regressions) or supervision_failed
              or bool(fault_overheads))
    if args.json:
        payload = {"rows": rows, "speedups": speedups,
                   "regressions": regressions,
                   "fault_overheads": fault_overheads,
                   "max_fault_overhead": args.max_fault_overhead}
        if supervision is not None:
            payload["supervision"] = dict(
                supervision, max_overhead=args.max_supervision_overhead,
                passed=not supervision_failed)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if failed else 0
    print(format_rows(rows))
    for pair in speedups:
        print(f"speedup  : {pair['fast']} vs {pair['reference']} "
              f"({pair['protocol']}, n={pair['n']}): {pair['speedup']}x")
    if supervision is not None:
        print(f"supervise: {supervision['overhead']}x overhead on healthy "
              f"trials ({supervision['per_task_s'] * 1000:.2f}ms supervision "
              f"per task vs {supervision['trial_s'] * 1000:.0f}ms per trial "
              f"at n={supervision['n']})")
    if args.out:
        print(f"wrote    : {args.out}")
    for reg in regressions:
        print(f"REGRESSION: {reg['engine']} ({reg['protocol']}, "
              f"n={reg['n']}) {reg['baseline_ips']:,.0f} -> "
              f"{reg['ips']:,.0f} {reg['unit']}/s "
              f"({reg['ratio']}x slower than baseline)", file=sys.stderr)
    if supervision_failed:
        print(f"REGRESSION: supervision overhead {supervision['overhead']}x "
              f"exceeds the {args.max_supervision_overhead}x gate",
              file=sys.stderr)
    for fo in fault_overheads:
        print(f"REGRESSION: {fo['engine']} ({fo['protocol']}, "
              f"n={fo['n']}) runs {fo['overhead']}x slower than "
              f"{fo['plain_engine']}, exceeding the "
              f"{args.max_fault_overhead}x faulted-overhead gate",
              file=sys.stderr)
    return 1 if failed else 0


def cmd_doctor(args: argparse.Namespace) -> int:
    import json

    from repro.exp.fleet import fleet_report
    from repro.sim.backends import DEFAULT_BACKEND, backend_report
    from repro.util.environment import package_versions

    versions = package_versions(("numpy", "numba", "scipy", "hypothesis"))
    report = backend_report()
    fleet = fleet_report()
    if args.json:
        print(json.dumps({"versions": versions, "backends": report,
                          "default_backend": DEFAULT_BACKEND,
                          "fleet": fleet},
                         indent=2, sort_keys=True))
        return 0
    print("versions:")
    for package, version in versions.items():
        print(f"  {package:<12} {version if version else 'not installed'}")
    print("kernel backends (engine: batched; select with --backend):")
    for row in report:
        status = "available" if row["available"] else "unavailable"
        suffix = "  [default]" if row["default"] else ""
        print(f"  {row['name']:<8} {status}{suffix}")
        if row["reason"]:
            print(f"           {row['reason']}")
    if not any(r["name"] == "numba" and r["available"] for r in report):
        print("hint: pip install -e '.[perf]' enables the JIT-compiled "
              "numba backend")
    print("worker fleet (exp run --workers N):")
    print(f"  start method   {fleet['start_method']}")
    numba = fleet["numba"]
    if numba["available"]:
        warm = (", ".join(numba["warm_kernels"])
                or "none yet (JIT paid on first kernel use, once per "
                   "fleet lifetime)")
        print(f"  numba warm     {warm}")
    return 0


def cmd_chaos_replay(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.shrink import load_artifact, replay_artifact

    try:
        artifact = load_artifact(args.artifact)
        outcome = replay_artifact(artifact)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({
            "reproduced": outcome.reproduced,
            "expected": outcome.expected,
            "actual": outcome.actual,
            "error": outcome.error,
        }, indent=2, sort_keys=True))
        return 0 if outcome.reproduced else 1
    expected = outcome.expected
    print(f"artifact : {args.artifact}")
    print(f"expected : [{expected['monitor']}] at step {expected['step']}")
    if outcome.actual is None:
        detail = outcome.error or "no violation tripped"
        print(f"actual   : {detail}")
    else:
        print(f"actual   : [{outcome.actual['monitor']}] at step "
              f"{outcome.actual['step']}")
    print(f"verdict  : {'REPRODUCED' if outcome.reproduced else 'DIVERGED'}")
    return 0 if outcome.reproduced else 1


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    """Supervision flags shared by ``exp run`` and ``chaos run``.

    Any non-default value routes the sweep through the supervised worker
    pool (:mod:`repro.exp.supervise`); all-default flags keep the legacy
    in-process path and leave the spec's content hash unchanged.
    """
    parser.add_argument("--timeout-s", type=float, default=None,
                        dest="timeout_s", metavar="SECONDS",
                        help="wall-clock budget per trial attempt; a "
                             "hung trial is killed and retried "
                             "(default: no timeout)")
    parser.add_argument("--max-attempts", type=int, default=1,
                        help="attempts per trial before it is given up "
                             "(default 1 = no retries)")
    parser.add_argument("--backoff", type=float, default=0.5,
                        help="base retry delay in seconds, doubled per "
                             "attempt with deterministic jitter "
                             "(default 0.5)")
    parser.add_argument("--on-error", default="raise",
                        choices=("raise", "skip", "quarantine"),
                        help="after the attempt budget: abort the sweep, "
                             "drop the trial silently, or record a "
                             "trial-failure and continue (default raise)")
    parser.add_argument("--retry-quarantined", action="store_true",
                        help="re-execute trials an earlier run "
                             "quarantined in the store instead of "
                             "skipping them")


def _add_backend_flag(parser: argparse.ArgumentParser) -> None:
    """The step-kernel backend flag shared by exp run / chaos run / bench."""
    from repro.sim.backends import backend_names

    parser.add_argument("--backend", default=None,
                        choices=backend_names(),
                        help="step-kernel backend for the batched "
                             "engine (default numpy). numba "
                             "JIT-compiles the inner loops bit-identically "
                             "(needs the [perf] extra; see 'repro "
                             "doctor'); python runs the same fused loops "
                             "interpreted. An unavailable backend falls "
                             "back to numpy with a one-time warning")


#: ``repro.analysis.robustness.ROBUSTNESS_ENGINES``, spelled out so that
#: building the parser does not import the harness (tests keep the two
#: equal).
_ROBUSTNESS_ENGINES = ("reference", "multiset", "batched", "ensemble")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Population protocols (Angluin et al., PODC 2004): "
                    "compile, simulate, and verify Presburger predicates.")
    sub = parser.add_subparsers(dest="command", required=True)

    qe = sub.add_parser("qe", help="print the quantifier-free normal form")
    qe.add_argument("formula")
    qe.set_defaults(func=cmd_qe)

    simulate = sub.add_parser("simulate",
                              help="compile and simulate on given counts")
    simulate.add_argument("formula")
    simulate.add_argument("--counts", type=_parse_counts, required=True,
                          help="symbol counts, e.g. 'e=2,h=38'")
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--patience", type=int, default=20_000)
    simulate.add_argument("--max-steps", type=int, default=10_000_000)
    simulate.set_defaults(func=cmd_simulate)

    verify = sub.add_parser("verify",
                            help="model-check all inputs of a given size")
    verify.add_argument("formula")
    verify.add_argument("--size", type=int, default=4)
    verify.set_defaults(func=cmd_verify)

    exact = sub.add_parser("exact",
                           help="exact Markov-chain analysis of one input")
    exact.add_argument("formula")
    exact.add_argument("--counts", type=_parse_counts, required=True)
    exact.set_defaults(func=cmd_exact)

    protocols = sub.add_parser("protocols",
                               help="list the built-in protocol catalogue")
    protocols.set_defaults(func=cmd_protocols)

    run = sub.add_parser("run", help="run a built-in protocol by name")
    run.add_argument("name")
    run.add_argument("--counts", type=_parse_counts, required=True,
                     help="symbol counts, e.g. '1=6,0=14'")
    run.add_argument("--params", type=_parse_params, default=None,
                     help="protocol parameters, e.g. 'k=4'")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--patience", type=int, default=20_000)
    run.add_argument("--max-steps", type=int, default=10_000_000)
    run.add_argument("--json", action="store_true",
                     help="emit a machine-readable JSON result")
    run.set_defaults(func=cmd_run)

    robustness = sub.add_parser(
        "robustness",
        help="measure protocol correctness under injected faults")
    robustness.add_argument("--protocol", action="append", required=True,
                            help="registry protocol name (repeatable)")
    robustness.add_argument("--trials", type=int, default=40,
                            help="trials per scenario (default 40)")
    robustness.add_argument("--seed", type=int, default=0)
    robustness.add_argument("--patience", type=int, default=10_000)
    robustness.add_argument("--max-steps", type=int, default=300_000)
    robustness.add_argument("--engine", default="reference",
                            choices=_ROBUSTNESS_ENGINES,
                            help="trial engine (default reference). "
                                 "batched is bit-exact per trial; ensemble "
                                 "advances all trials together "
                                 "(targeted-fault scenarios fall back to "
                                 "the multiset scalar twin). --json rows "
                                 "report the engine used and its faulted "
                                 "throughput")
    robustness.add_argument("--json", action="store_true",
                            help="emit the resilience rows as JSON")
    robustness.set_defaults(func=cmd_robustness)

    exp = sub.add_parser(
        "exp",
        help="experiment orchestration: declarative sweeps with "
             "parallel workers and a resumable result store")
    exp_sub = exp.add_subparsers(dest="exp_command", required=True)

    exp_run = exp_sub.add_parser(
        "run", help="execute a sweep spec (resuming from the store)")
    exp_run.add_argument("--spec", default=None,
                         help="JSON spec file (overrides the inline flags)")
    exp_run.add_argument("--protocol", default=None,
                         help="registry protocol name (inline spec)")
    exp_run.add_argument("--ns", type=_parse_int_list, default=None,
                         help="population sizes, e.g. '8,16,32'")
    exp_run.add_argument("--trials", type=int, default=10,
                         help="trials per sweep point (default 10)")
    exp_run.add_argument("--params", type=_parse_params, default=None,
                         help="protocol parameters, e.g. 'k=4'")
    exp_run.add_argument("--input", default=None,
                         help="input generator: all-ones, ones:K, or "
                              "fraction:F (default all-ones)")
    exp_run.add_argument("--fault", default=None,
                         help="fault axis kind: crash-rate, "
                              "corruption-rate, omission-rate, crash-at")
    exp_run.add_argument("--intensities", type=_parse_float_list,
                         default=None,
                         help="fault intensities, e.g. '0,0.1,0.3'")
    exp_run.add_argument("--at-step", type=int, default=0,
                         help="step for the crash-at fault kind")
    exp_run.add_argument("--stop", default="quiescent",
                         choices=("quiescent", "silent", "correct-stable"))
    exp_run.add_argument("--patience", type=int, default=10_000)
    exp_run.add_argument("--max-steps", type=int, default=300_000)
    exp_run.add_argument("--check-every", type=int, default=0,
                         help="silence-check period (0 = engine default)")
    from repro.exp.spec import ENGINES as _ENGINES

    exp_run.add_argument("--engine", default="agent",
                         choices=_ENGINES,
                         help="trial engine: the reference agent-array "
                              "engine, the bit-identical batched fast "
                              "path (faults and vectorized monitors "
                              "included), the many-trial ensemble engine "
                              "(statistically equivalent, fastest "
                              "discrete; per-trial fault sampling), or "
                              "the deterministic mean-field fluid engine "
                              "(O(|states|) per step at any n; rate "
                              "faults as perturbed drift). Per-engine "
                              "feature support is ENGINE_FEATURES in "
                              "repro.exp.spec")
    _add_backend_flag(exp_run)
    exp_run.add_argument("--seed", type=int, default=0)
    exp_run.add_argument("--store", default=None,
                         help="JSONL result store (enables resume)")
    exp_run.add_argument("--workers", type=int, default=1,
                         help="worker processes (default 1 = in-process)")
    exp_run.add_argument("--metric", default="converged_at",
                         choices=("converged_at", "interactions"))
    _add_execution_flags(exp_run)
    exp_run.add_argument("--json", action="store_true",
                         help="emit the aggregated report as JSON")
    exp_run.set_defaults(func=cmd_exp_run)

    exp_report = exp_sub.add_parser(
        "report", help="aggregate a result store into tables/CSV")
    exp_report.add_argument("--store", required=True,
                            help="JSONL result store written by 'exp run'")
    exp_report.add_argument("--metric", default="converged_at",
                            choices=("converged_at", "interactions"))
    exp_report.add_argument("--csv", default=None,
                            help="write the trial-level CSV here")
    exp_report.add_argument("--summary-csv", default=None,
                            help="write the per-point summary CSV here")
    exp_report.add_argument("--json", action="store_true",
                            help="emit the aggregated report as JSON")
    exp_report.set_defaults(func=cmd_exp_report)

    chaos = sub.add_parser(
        "chaos",
        help="monitor-instrumented campaigns with adversarial schedulers, "
             "violation shrinking, and bit-identical replay")
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)

    chaos_run = chaos_sub.add_parser(
        "run", help="execute a monitored campaign (scheduler x fault grid)")
    chaos_run.add_argument("--spec", default=None,
                           help="JSON spec file (overrides the inline flags)")
    chaos_run.add_argument("--protocol", default=None,
                           help="registry protocol name (inline spec)")
    chaos_run.add_argument("--ns", type=_parse_int_list, default=None,
                           help="population sizes, e.g. '8,16,32'")
    chaos_run.add_argument("--trials", type=int, default=10,
                           help="trials per sweep point (default 10)")
    chaos_run.add_argument("--params", type=_parse_params, default=None,
                           help="protocol parameters, e.g. 'k=4'")
    chaos_run.add_argument("--input", default=None,
                           help="input generator: all-ones, ones:K, or "
                                "fraction:F (default all-ones)")
    chaos_run.add_argument("--fault", default=None,
                           help="fault axis kind: crash-rate, "
                                "corruption-rate, omission-rate, crash-at")
    chaos_run.add_argument("--intensities", type=_parse_float_list,
                           default=None,
                           help="fault intensities, e.g. '0,0.005,0.02'")
    chaos_run.add_argument("--at-step", type=int, default=0,
                           help="step for the crash-at fault kind")
    chaos_run.add_argument("--schedulers", type=_parse_str_list,
                           default=None,
                           help="scheduler axis, e.g. 'uniform,"
                                "partition:heal=5000,eclipse:budget=500'")
    chaos_run.add_argument("--monitors", type=_parse_str_list,
                           default=["conservation", "containment",
                                    "flicker"],
                           help="monitor suite (default "
                                "conservation,containment,flicker); also: "
                                "fairness:budget=B, watchdog:steps=S")
    chaos_run.add_argument("--confirm", type=int, default=2_000,
                           help="extra interactions after the stop rule "
                                "with flicker monitors armed (default 2000)")
    chaos_run.add_argument("--stop", default="quiescent",
                           choices=("quiescent", "silent", "correct-stable"))
    chaos_run.add_argument("--patience", type=int, default=10_000)
    chaos_run.add_argument("--max-steps", type=int, default=300_000)
    chaos_run.add_argument("--check-every", type=int, default=0,
                           help="silence-check period (0 = engine default)")
    chaos_run.add_argument("--engine", default="agent",
                           choices=_ENGINES,
                           help="campaign engine (default agent). The "
                                "batched engine runs faulted campaigns "
                                "bit-identically to the reference with the "
                                "vectorized monitor suite; the ensemble "
                                "engine samples faults per trial under the "
                                "scalar-twin contract (pair with "
                                "--monitors conservation,containment "
                                "--confirm 0). ENGINE_FEATURES in "
                                "repro.exp.spec is the support table")
    _add_backend_flag(chaos_run)
    chaos_run.add_argument("--seed", type=int, default=0)
    chaos_run.add_argument("--store", default=None,
                           help="JSONL result store (enables resume)")
    chaos_run.add_argument("--workers", type=int, default=1,
                           help="worker processes (default 1 = in-process)")
    chaos_run.add_argument("--metric", default="converged_at",
                           choices=("converged_at", "interactions"))
    _add_execution_flags(chaos_run)
    chaos_run.add_argument("--shrink", default=None, metavar="OUT.json",
                           help="shrink the first violation to a minimal "
                                "reproduction artifact at this path")
    chaos_run.add_argument("--max-shrink-evals", type=int, default=400,
                           help="replay budget for the shrinker (default 400)")
    chaos_run.add_argument("--fail-on-violation", action="store_true",
                           help="exit non-zero when any trial violated")
    chaos_run.add_argument("--json", action="store_true",
                           help="emit the campaign report as JSON")
    chaos_run.set_defaults(func=cmd_chaos_run)

    chaos_replay = chaos_sub.add_parser(
        "replay", help="re-execute a shrunk reproduction artifact")
    chaos_replay.add_argument("artifact",
                              help="chaos-repro JSON written by "
                                   "'chaos run --shrink'")
    chaos_replay.add_argument("--json", action="store_true",
                              help="emit the replay outcome as JSON")
    chaos_replay.set_defaults(func=cmd_chaos_replay)

    bench = sub.add_parser(
        "bench",
        help="engine kernel benchmarks with a throughput-regression gate")
    bench.add_argument("--smoke", action="store_true",
                       help="run the small CI grid instead of the full one")
    bench.add_argument("--out", default=None, metavar="FILE.json",
                       help="write the rows as a JSON baseline file")
    bench.add_argument("--update-baseline", action="store_true",
                       help="regenerate the committed baseline in place "
                            "(implies the full grid; equivalent to "
                            "--out BENCH_engines.json at the repo root)")
    bench.add_argument("--baseline", default=None, metavar="FILE.json",
                       help="compare against this baseline; exit non-zero "
                            "on regression")
    bench.add_argument("--max-regression", type=float, default=3.0,
                       help="throughput-drop factor that fails the gate "
                            "(default 3.0)")
    bench.add_argument("--seed", type=int, default=20040725)
    bench.add_argument("--repeats", type=int, default=2,
                       help="timed runs per row after one discarded "
                            "warm-up repeat; best-of is kept (default 2)")
    _add_backend_flag(bench)
    bench.add_argument("--skip-supervision", action="store_true",
                       help="skip the supervised-vs-plain sweep row")
    bench.add_argument("--skip-fleet", action="store_true",
                       help="skip the cold-pool-vs-warm-fleet sweep rows")
    bench.add_argument("--max-supervision-overhead", type=float,
                       default=1.02, metavar="RATIO",
                       help="supervised/plain wall-clock ratio that fails "
                            "the gate (default 1.02 = 2%% overhead on "
                            "healthy trials)")
    bench.add_argument("--max-fault-overhead", type=float,
                       default=1.10, metavar="RATIO",
                       help="faulted/fault-free throughput ratio that "
                            "fails the gate for the batched faulted twin "
                            "(default 1.10 = 10%% overhead; same-run "
                            "rows, so machine speed cancels)")
    bench.add_argument("--json", action="store_true",
                       help="emit rows, speedups, and regressions as JSON")
    bench.set_defaults(func=cmd_bench)

    doctor = sub.add_parser(
        "doctor",
        help="report step-kernel backend availability and versions")
    doctor.add_argument("--json", action="store_true",
                        help="emit the environment report as JSON")
    doctor.set_defaults(func=cmd_doctor)

    return parser


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

"""End-to-end ``exp run`` benchmark: one workload, measured from outside.

    python3 perfbench/run.py --workload oracle-small-n --seed 1 \\
        --seconds 32 --trace 0

Each measured run is a fresh interpreter (``sweep.py``) executing one
spec end to end: imports, spec parse, store open, ``run_experiment``, and
a resume of the finished store.  Runs repeat, each on its own spec seed
(see ``workloads.py``), until ``--seconds`` have passed and at least
``MIN_RUNS`` were made; between them, first-record probes take the
workload's ``probe_share`` of the time.  Every end-to-end metric is the
median over its samples, each timing first taken to the reference host
speed by the calibrations its run made next to it (``hostspeed.py``):
the shared host's speed drifts by more than the bounds from one minute
to the next.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` also makes
two traced runs with the layer wrappers of ``layertrace.py``: one
in-process (``workers=1``), which sees every layer, and one at the
workload's own worker count, which sees the parent side of the executor.
It prints the per-layer metrics instead.

Every run's records are checked (see ``workloads.check``) and digested;
all runs of one spec must produce the same digest, whatever their worker
count.  The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
are a human-readable report, including the environment the numbers were
measured in.  ``--smoke`` runs the workload at its smoke size.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import REFERENCE_S, cpu_jiffies, steal_share  # noqa: E402
from workloads import WORKLOADS, check  # noqa: E402

#: Fewest measured runs per invocation, however short ``--seconds`` is.
MIN_RUNS = 3

#: Wall-clock budget of one invocation; a run still going then is killed.
BUDGET_S = 170.0

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "first_record_s": "s",
    "trials_per_s": "1/s",
    "interactions_per_s": "1/s",
    "resume_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: name -> unit.
PER_LAYER = {
    "spec.load_s": "s",
    "protocols.build_s": "s",
    "protocols.builds_per_trial": "ratio",
    "protocols.truth_s": "s",
    "compiled.compile_s": "s",
    "compiled.memo_hit_ratio": "ratio",
    "sim.construct_s": "s",
    "sim.step_s": "s",
    "sim.step_s.faulted": "s",
    "sim.step_s.fault_free": "s",
    "sim.step_ips": "1/s",
    "convergence.scan_s": "s",
    "convergence.scans": "count",
    "convergence.scan_share": "ratio",
    "runner.self_s": "s",
    "store.append_s": "s",
    "store.appends": "count",
    "store.bytes_written": "B",
    "store.open_s": "s",
    "store.records_loaded": "count",
    "exec.parent_busy_s": "s",
    "exec.parent_wait_s": "s",
    "exec.parallel_efficiency": "ratio",
    "exec.tasks": "count",
    "exec.result_bytes": "B-computed",
    "exec.retries": "count",
    "exec.memo_hits": "count",
    "exec.shm_results": "count",
    "exec.pipe_results": "count",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "ratio",
}


class RunFailed(RuntimeError):
    """A measured run crashed, timed out or printed no result."""


def environment(jiffies_at_start) -> dict:
    """What the numbers were measured on."""

    def version(module):
        try:
            return __import__(module).__version__
        except ImportError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_context().get_start_method(),
        "git": _git_commit(),
        "host_steal_share": steal_share(jiffies_at_start),
    }


def _git_commit() -> str:
    """``<commit>`` or ``<commit>-dirty``; ``unknown`` outside a checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                              capture_output=True, text=True, timeout=30,
                              check=True).stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            return "unknown"
        commit = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return commit + ("-dirty" if dirty else "")


class Runner:
    """Starts ``sweep.py`` runs of one spec inside a work directory."""

    def __init__(self, spec: dict, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        work.mkdir(parents=True, exist_ok=True)
        self.spec_path = work / "spec.json"
        self.spec_path.write_text(json.dumps(spec), encoding="utf-8")

    def sweep(self, workers: int, *, traced: bool = False,
              first_record_only: bool = False) -> dict:
        store = self.work / "store.jsonl"
        store.unlink(missing_ok=True)
        command = [sys.executable, str(HERE / "sweep.py"),
                   "--spec", str(self.spec_path), "--store", str(store),
                   "--workers", str(workers)]
        if traced:
            command.append("--trace")
        if first_record_only:
            command.append("--first-record-only")
        env = dict(os.environ, TMPDIR=str(self.work))
        launched = time.monotonic()
        proc = subprocess.Popen(command + ["--launched", repr(launched)],
                                cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            stdout, _ = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RunFailed("a measured run exceeded the time budget")
        finally:
            # Reap anything the run left behind (its pool workers).
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RunFailed(f"sweep.py exited with {proc.returncode}")
        return json.loads(lines[-1])


def end_to_end(runs: list, probes: list, rescaled: bool = True) -> dict:
    """Per-run values of every end-to-end metric.

    Set-up and first-record time also take the first-record probes.  With
    ``rescaled`` each run's timings are taken to the reference host speed
    by the calibrations that run made next to them (see ``hostspeed.py``);
    without it they are as the clock read them.
    """

    def scale(run: dict, *when: str, own: bool = False) -> float:
        """REFERENCE_S over the mean calibration taken at ``when``.

        ``own`` keeps only the sweep process's own CPU, for timings of
        that process alone; otherwise every CPU its workers ran on counts.
        """
        if not rescaled:
            return 1.0
        cal = run["calibration_s"]
        times = [t for key in when
                 for t in (cal[key][:1] if own else cal[key])]
        return REFERENCE_S / statistics.mean(times)

    return {
        "setup_s": [r["setup_s"] * scale(r, "pre", own=True)
                    for r in runs + probes],
        "first_record_s": [r["first_record_s"] * scale(r, "pre")
                           for r in runs + probes],
        "trials_per_s": [r["executed"] / (r["wall_s"]
                                          * scale(r, "pre", "post"))
                         for r in runs],
        "interactions_per_s": [r["summary"]["interactions"]
                               / (r["wall_s"] * scale(r, "pre", "post"))
                               for r in runs],
        "resume_s": [statistics.median(r["resume_s"])
                     * scale(r, "resume", "post", own=True) for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }


def per_layer(inproc: dict, parent: dict, workers: int,
              timed_wall: float) -> dict:
    """Per-layer metrics from the traced in-process and parent-side runs."""
    lay = inproc["layers"]
    par = parent["layers"]
    wall = lay["sweep_wall_s"]
    trials = inproc["executed"]
    interactions = inproc["summary"]["interactions"]
    return {
        "spec.load_s": lay["spec_s"],
        "protocols.build_s": lay["build_s"],
        "protocols.builds_per_trial": lay["builds"] / trials,
        "protocols.truth_s": lay["truth_s"],
        "compiled.compile_s": lay["compile_s"],
        "compiled.memo_hit_ratio": lay["memo_hit_ratio"],
        "sim.construct_s": lay["construct_s"],
        "sim.step_s": lay["step_s"],
        "sim.step_s.faulted": lay["step_faulted_s"],
        "sim.step_s.fault_free": lay["step_fault_free_s"],
        "sim.step_ips": interactions / lay["step_s"] if lay["step_s"] else 0.0,
        "convergence.scan_s": lay["scan_s"],
        "convergence.scans": lay["scans"],
        "convergence.scan_share": lay["scan_s"] / wall,
        "runner.self_s": lay["runner_self_s"],
        "store.append_s": lay["append_s"],
        "store.appends": lay["appends"],
        "store.bytes_written": inproc["store_bytes"],
        "store.open_s": lay["open_s"],
        "store.records_loaded": lay["records_loaded"],
        "exec.parent_busy_s": parent["cpu_s"],
        "exec.parent_wait_s": max(0.0, parent["wall_s"] - parent["cpu_s"]),
        "exec.parallel_efficiency": wall / (workers * timed_wall),
        "exec.tasks": par["pool_tasks"] + par["supervision_tasks"],
        "exec.result_bytes": parent.get("result_bytes", 0),
        "exec.retries": par["retries"],
        "exec.memo_hits": par["memo_hits"],
        "exec.shm_results": par["shm_results"],
        "exec.pipe_results": par["pipe_results"],
        "trace.overhead_ratio": parent["wall_s"] / timed_wall,
        "trace.unattributed_share": lay["unattributed_s"] / wall,
    }


def _layer_table(inproc: dict) -> list:
    """Report lines: each layer's self time as a share of the wall."""
    lay = inproc["layers"]
    wall = lay["sweep_wall_s"]
    rows = sorted(lay["self_by_layer"].items()) + [
        ("unattributed", lay["unattributed_s"])]
    lines = [f"in-process traced wall {wall:.4f} s; self time by layer:"]
    lines += [f"  {name:<14} {value:10.4f} s  {value / wall:7.2%}"
              for name, value in rows]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end exp run benchmark (see module docstring).")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the workload at its smoke size")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    jiffies_at_start = cpu_jiffies()
    workload = WORKLOADS[args.workload]
    workers = min(workload.workers, len(os.sched_getaffinity(0)))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        deadline = started + BUDGET_S
        # Untimed warm-up on a smoke spec: byte-compiles the modules and
        # fills the OS file cache, costs a user pays once, not per sweep.
        Runner(workload.spec(args.seed, 0, smoke=True), work / "warm",
               deadline).sweep(workers)

        def measured(index: int) -> Runner:
            return Runner(workload.spec(args.seed, index, args.smoke),
                          work / f"run-{index}", deadline)

        runs: list = []
        probes: list = []
        probe_s = 0.0
        measuring = time.monotonic()
        while (len(runs) < MIN_RUNS
               or time.monotonic() - measuring < args.seconds):
            runs.append(measured(len(runs) + len(probes)).sweep(workers))
            while probe_s < (workload.probe_share
                             * (time.monotonic() - measuring)):
                probe_started = time.monotonic()
                probes.append(measured(len(runs) + len(probes)).sweep(
                    workers, first_record_only=True))
                probe_s += time.monotonic() - probe_started
        traced: list = []
        if args.trace:
            traced.append(measured(0).sweep(1, traced=True))
            if workers > 1:
                traced.append(measured(0).sweep(workers, traced=True))
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another invocation's work directory is still there

    attempted = failed = 0
    problems: list = []
    digest = runs[0]["summary"]["digest"]
    traced_match = all(r["summary"]["digest"] == digest for r in traced)
    for index, run in enumerate(runs + traced):
        summary = run["summary"]
        attempted += summary["expected_trials"]
        found = check(workload, summary)
        if run["resumed_executed"]:
            found.append((f"resume executed {run['resumed_executed']} "
                          "trials instead of 0", run["resumed_executed"]))
        if summary["digest"] != digest and index >= len(runs):
            found.append(("traced run's record digest differs from the "
                          "timed run of the same spec",
                          summary["expected_trials"]))
        failed += min(summary["expected_trials"],
                      sum(count for _, count in found))
        problems += [f"run {index}: {text}" for text, _ in found]

    values = end_to_end(runs, probes)
    raw = end_to_end(runs, probes, rescaled=False)
    calibrations = [t for r in runs + probes
                    for times in r["calibration_s"].values() for t in times]
    print(f"workload {workload.name} (seed {args.seed}"
          f"{', smoke' if args.smoke else ''}, workers={workers}): "
          f"{workload.why}")
    print("env " + json.dumps(environment(jiffies_at_start), sort_keys=True))
    print(f"records digest {digest} (run 0"
          + (f"; traced runs {'match' if traced_match else 'DIFFER'})"
             if traced else ")"))
    print(f"host calibration median {statistics.median(calibrations):.6g} s "
          f"[{min(calibrations):.6g}, {max(calibrations):.6g}] against "
          f"the reference {REFERENCE_S:g} s")
    print(f"{len(runs)} measured runs and {len(probes)} first-record "
          "probes; median [q1, q3] per metric at reference host speed, "
          "then the median as measured:")
    for name, unit in END_TO_END.items():
        q1, q2, q3 = statistics.quantiles(values[name], n=4,
                                          method="inclusive")
        print(f"  {name:<20} {statistics.median(values[name]):14.6g} "
              f"{unit:<4} [{q1:.6g}, {q3:.6g}]  "
              f"raw {statistics.median(raw[name]):.6g}")
    print(f"  {'failed_ratio':<20} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} trials)")
    for line in problems:
        print(f"CHECK FAILED {line}")

    if args.trace:
        inproc = traced[0]
        parent = traced[-1]
        # Untraced wall of run 0's spec, from the median throughput of all
        # runs as measured: steadier than run 0's own single wall time.
        timed_wall = (runs[0]["summary"]["interactions"]
                      / statistics.median(raw["interactions_per_s"]))
        metrics = per_layer(inproc, parent, workers, timed_wall)
        for line in _layer_table(inproc):
            print(line)
        units = PER_LAYER
    else:
        metrics = {name: statistics.median(v) for name, v in values.items()}
        units = END_TO_END
    for name, unit in units.items():
        print(f"  {name:<28} {metrics[name]:14.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

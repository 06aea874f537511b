"""The benchmark's workloads: ``exp run`` sweeps built from a seed.

Every workload is a function of the benchmark seed only.  Measured run
``i`` of a benchmark invocation sweeps the spec whose base ``seed`` field
is :func:`spec_seed` of the benchmark seed and ``i``, so the same
benchmark seed gives the same sequence of specs, trial seeds and
byte-identical records.  The program under test sees nothing but the
generated spec dicts.

Each run gets a spec seed of its own because a sweep's cost depends on
its trial seeds: a lockstep ensemble runs until its slowest trial is
silent, so one spec's wall time moves by about 10% from seed to seed
(see ``_ensemble_faulted``).  The median over runs then averages seeds
as well as machine noise.

Each workload also has a smoke size (``smoke=True``) that keeps its
engine, stopping rule and checks but runs in well under a second, so the
harness itself stays runnable in a quick test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Standard errors the measured mean ``converged_at`` may sit from the
#: exact leader-election expectation (n-1)^2 before the point fails.
ORACLE_SIGMAS = 4.0
#: Spec seeds of one benchmark seed are ``seed * SEED_STRIDE + run``.
SEED_STRIDE = 1000


def spec_seed(seed: int, run: int) -> int:
    """The spec ``seed`` of measured run ``run`` of benchmark seed ``seed``."""
    return seed * SEED_STRIDE + run


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line: why this workload is in the benchmark.
    why: str
    #: Worker processes requested (capped at the machine's CPU count).
    workers: int
    #: True: mean converged_at per n must match (n-1)^2 (leader election).
    leader_oracle: bool = False
    #: True: every record must have ``correct`` set (known ground truth).
    require_correct: bool = False
    #: Share of the measuring time spent on first-record probes: runs cut
    #: short at the first record, which add samples of set-up and time to
    #: first record where a full run yields only one of each.
    probe_share: float = 1 / 3

    def spec(self, seed: int, run: int, smoke: bool = False) -> dict:
        """The ``ExperimentSpec.to_dict()``-shaped spec of one run."""
        return _SPECS[self.name](spec_seed(seed, run), smoke)


def _oracle_small_n(seed: int, smoke: bool) -> dict:
    return {
        "protocol": "leader-election",
        "ns": [4, 5, 6] if smoke else list(range(4, 13)),
        "trials": 40 if smoke else 1000,
        "inputs": {"kind": "all-ones"},
        "stop": {"rule": "silent", "max_steps": 100_000},
        "seed": seed,
    }


def _epidemic_large_n(seed: int, smoke: bool) -> dict:
    return {
        "protocol": "epidemic",
        "engine": "batched",
        "ns": [2_000] if smoke else [100_000],
        "trials": 2,
        "inputs": {"kind": "ones", "ones": 1},
        "stop": {"rule": "correct-stable", "max_steps": 100_000_000},
        "seed": seed,
    }


def _ensemble_faulted(seed: int, smoke: bool) -> dict:
    # A point batch runs until its slowest trial is silent, and leader
    # election's last step has an exponential tail, so one point's time
    # moves by about a quarter from seed to seed.  Ten faulted points of
    # similar cost (five omission rates at each n) average that out of
    # the wall time, where a single heavy point would set it alone, and
    # small n makes each point cheap, so a run measures many of them.
    return {
        "protocol": "leader-election",
        "engine": "ensemble",
        "ns": [8] if smoke else [16, 32],
        "trials": 16 if smoke else 128,
        "inputs": {"kind": "all-ones"},
        "faults": {"kind": "omission-rate",
                   "intensities": [0.0, 0.01, 0.02, 0.03, 0.04, 0.05]},
        "stop": {"rule": "silent", "max_steps": 10_000_000},
        "seed": seed,
    }


_SPECS = {
    "oracle-small-n": _oracle_small_n,
    "epidemic-large-n": _epidemic_large_n,
    "ensemble-faulted": _ensemble_faulted,
}

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "oracle-small-n",
            "leader election, agent engine, n=4..12, many ~60-interaction "
            "trials over 2 workers: per-trial fixed costs, dispatch and "
            "store appends dominate; exact (n-1)^2 oracle",
            workers=2, leader_oracle=True),
        Workload(
            "epidemic-large-n",
            "epidemic at n=1e5 on the batched engine, in-process: batched "
            "stepping and correct-stable output scans dominate; bypasses "
            "the executor; every record must be correct",
            # Its first record arrives halfway through a run, so a probe
            # would cost half a run for one sample.
            workers=1, require_correct=True, probe_share=0.0),
        Workload(
            "ensemble-faulted",
            "leader election on the ensemble engine, n=16 and 32, six "
            "omission rates, over 2 workers: 12 lockstep point batches of "
            "128 trials; faulted points set the wall time",
            # A run is short, so its own first record is sample enough.
            workers=2, probe_share=0.0),
    )
}


def check(workload: Workload, summary: dict) -> "list[tuple[str, int]]":
    """Correctness failures of one run's record summary.

    Returns ``(description, failed trials)`` pairs; an empty list means
    every check passed.  ``summary`` is what ``sweep.py`` reports: the
    expected and stored trial counts, quarantined failures, and per-``n``
    statistics of the stored records.
    """
    problems = []
    missing = summary["expected_trials"] - summary["trials"]
    if missing:
        problems.append((f"{missing} trials missing from the result", missing))
    if summary["quarantined"]:
        problems.append((f"{summary['quarantined']} trials quarantined",
                         summary["quarantined"]))
    for n, row in sorted(summary["per_n"].items(), key=lambda kv: int(kv[0])):
        if row["not_stopped"]:
            problems.append((f"n={n}: {row['not_stopped']} trials hit the "
                             "step budget", row["not_stopped"]))
        if workload.require_correct and row["not_correct"]:
            problems.append((f"n={n}: {row['not_correct']} trials not "
                             "correct", row["not_correct"]))
        if workload.leader_oracle:
            expected = (int(n) - 1) ** 2
            mean = row["mean_converged_at"]
            stderr = math.sqrt(row["var_converged_at"] / row["trials"])
            if abs(mean - expected) > ORACLE_SIGMAS * stderr:
                problems.append(
                    (f"n={n}: mean converged_at {mean:.2f} "
                     f"is more than {ORACLE_SIGMAS:g} standard errors "
                     f"({stderr:.2f}) from (n-1)^2 = {expected}",
                     row["trials"]))
    return problems

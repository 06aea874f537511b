"""Supervision policy for sweep execution: timeouts, retries, quarantine.

Every multi-process sweep runs on a :class:`repro.exp.fleet.WorkerFleet`,
whose dispatch loop is the one supervision loop in the package.  This
module holds what that loop is parameterized by and reports through;
it spawns no processes itself.

Mechanisms, in the order they engage under a non-default
:class:`~repro.exp.spec.ExecutionPolicy`:

1. **Per-trial wall-clock timeout** (``ExecutionPolicy.timeout_s``),
   enforced twice.  A worker-side ``SIGALRM`` interrupts pure-Python
   hangs exactly at the budget; because a signal cannot interrupt a
   long-running C/numpy call, the parent additionally tracks a deadline
   (budget plus :func:`_grace_s`) and SIGKILLs + respawns any worker
   that blows through it.
2. **Retry with exponential backoff + jitter** — attempt ``k`` of a
   failed trial waits ``backoff * 2**(k-1)`` seconds scaled by a jitter
   factor in ``[0.5, 1.5)`` derived deterministically from the trial id
   (:func:`backoff_delay`; no wall-clock entropy enters any record).
   Retried trials reuse their identity-derived seeds, so a success
   after a crash is byte-identical to a first-try success.
3. **Crashed-worker recovery** — each worker has its own pipe, so a
   dying worker is detected by EOF (or a liveness poll), its single
   in-flight task is resubmitted under the retry policy, and a fresh
   worker takes its slot.  The sweep never hangs on a dead worker.
4. **Poison-trial quarantine** — a trial that exhausts
   ``max_attempts`` is disposed of per ``on_error``: ``raise`` aborts
   the sweep with a :class:`TrialExecutionError` carrying the remote
   traceback, ``skip`` drops it, ``quarantine`` emits a structured
   ``trial-failure`` record (:func:`failure_records`: exception type,
   message, traceback, full attempt history, seeds, spec hash) that the
   runner fsyncs into the ResultStore — failures are resumable data,
   not lost output.

Determinism: supervision never touches seed derivation — every trial's
seeds remain a pure function of ``(spec hash, point, trial)`` — so the
set of *successful* records is byte-identical to an unfailed,
unsupervised run, whatever crashed, hung, or retried along the way.
"""

from __future__ import annotations

import multiprocessing
import random
from dataclasses import dataclass, field

from repro.util.rng import derive_seed

#: Hard ceiling on a single backoff delay, in seconds.
MAX_BACKOFF_S = 30.0

#: Extra wall-clock the parent grants past ``timeout_s`` before killing
#: a worker: the worker-side alarm should fire first; the parent-side
#: deadline only catches workers wedged in uninterruptible C code.
def _grace_s(timeout_s: float) -> float:
    return max(0.25, 0.5 * timeout_s)


class TrialTimeout(Exception):
    """Raised inside a worker when a trial exceeds its wall-clock budget."""


class TrialExecutionError(RuntimeError):
    """A trial exhausted its attempt budget under ``on_error: "raise"``.

    Carries the structured failure record (the same shape ``quarantine``
    would have stored) as :attr:`failure`.
    """

    def __init__(self, failure: dict):
        self.failure = failure
        attempts = failure.get("attempts", [])
        super().__init__(
            f"trial {failure.get('id')} (n={failure.get('n')}, "
            f"trial {failure.get('trial')}) failed after "
            f"{len(attempts)} attempt(s): [{failure.get('error_type')}] "
            f"{failure.get('message')}")


@dataclass
class SupervisionStats:
    """Counters describing what supervision had to do during a sweep."""

    tasks: int = 0
    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    errors: int = 0
    quarantined: int = 0
    skipped: int = 0

    def to_dict(self) -> dict:
        return {"tasks": self.tasks, "attempts": self.attempts,
                "retries": self.retries, "timeouts": self.timeouts,
                "crashes": self.crashes, "errors": self.errors,
                "quarantined": self.quarantined, "skipped": self.skipped}

    @property
    def clean(self) -> bool:
        """True when no retry, failure, or kill happened at all."""
        return self.attempts == self.tasks and not self.quarantined \
            and not self.skipped


@dataclass
class SupervisedTask:
    """One unit of fleet work: a chunk of trials at one sweep point, or a
    point batch (one ensemble advancing all of them / one fluid
    integration covering all of ``trials``).

    Only coordinates travel; trial ids and seeds are derived from them
    when a record (or a failure record) is built.
    """

    point: object  # repro.exp.runner.SweepPoint
    trials: list
    attempts: list = field(default_factory=list)
    #: Monotonic time before which the task may not be (re)dispatched.
    not_before: float = 0.0

    def key(self, spec_hash: str) -> str:
        """Retry-jitter identity: the trial id of a one-trial task,
        otherwise the point label."""
        from repro.exp.runner import trial_id

        if len(self.trials) == 1:
            return trial_id(spec_hash, self.point, self.trials[0])
        return self.point.key


def _mp_context():
    """Fork where available: workers inherit in-process registrations
    (e.g. test-only protocols) and start an order of magnitude faster."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _jitter(task_key: str, attempt: int) -> float:
    """Deterministic retry jitter in [0.5, 1.5) keyed by task identity."""
    rng = random.Random(derive_seed(task_key, "backoff", attempt))
    return 0.5 + rng.random()


def backoff_delay(policy, task_key: str, attempt: int) -> float:
    """Seconds to wait before attempt ``attempt + 1`` of ``task_key``."""
    if policy.backoff <= 0:
        return 0.0
    delay = policy.backoff * (2.0 ** (attempt - 1)) * _jitter(task_key,
                                                              attempt)
    return min(delay, MAX_BACKOFF_S)


def failure_records(task: SupervisedTask, spec_hash: str) -> list[dict]:
    """Structured ``trial-failure`` records for a quarantined task.

    One record per covered trial (an ensemble batch quarantines every
    trial of its point), each carrying the shared attempt history.
    """
    from repro.exp.runner import trial_id, trial_seeds

    point = task.point
    last = task.attempts[-1] if task.attempts else {}
    records = []
    for trial in task.trials:
        engine_seed, fault_seed = trial_seeds(spec_hash, point, trial)
        record = {
            "kind": "trial-failure",
            "id": trial_id(spec_hash, point, trial),
            "n": point.n,
            "intensity": point.intensity,
            "trial": trial,
            "engine_seed": engine_seed,
            "fault_seed": fault_seed,
            "spec_hash": spec_hash,
            "error_type": last.get("error_type"),
            "message": last.get("message"),
            "traceback": last.get("traceback"),
            "attempts": [
                {k: v for k, v in attempt.items() if k != "traceback"}
                for attempt in task.attempts],
        }
        if point.scheduler is not None:
            record["scheduler"] = point.scheduler
        records.append(record)
    return records

"""Worker fleet: the one multi-process sweep executor.

:func:`~repro.exp.runner.run_experiment` runs a sweep in-process when
its execution policy is the default and either ``workers == 1`` or there
is at most one task.  Every other sweep runs on a :class:`WorkerFleet`:
the caller's ``fleet=`` — reused across sweeps so its workers stay warm
— or a temporary ``WorkerFleet(workers)`` closed when the sweep returns.

* **Warm workers.**  Fleet workers are long-lived processes.  The keyed
  :func:`~repro.sim.compiled.compile_protocol` memo, the constructed
  step kernels (numba JIT paid once per fleet lifetime, not once per
  sweep), and the protocol registry all persist across the sweeps of
  one fleet.
* **Install broadcast.**  The spec is shipped to every worker once per
  sweep via an ``install`` message (sent to all workers before any
  acknowledgement is awaited); task messages then carry only the spec
  *hash* plus a sweep point and its trial indices.
* **Dispatch.**  Tasks come from :func:`repro.exp.runner.build_tasks`.
  Under the default policy a task carries a chunk of up to
  :func:`repro.exp.runner._chunk_size` trials of one point, and a
  raising trial re-raises its original exception in the parent
  (:class:`~repro.exp.supervise.TrialExecutionError` when the exception
  does not pickle).  Under a non-default policy every task is one
  trial, so timeouts, retries and quarantine stay per trial.  The point
  engines (ensemble, fluid) dispatch one task per sweep point.
* **Supervision.**  :meth:`WorkerFleet.execute` is the supervision loop
  (see :mod:`repro.exp.supervise` for the policy semantics): per-trial
  timeouts (worker alarm + parent deadline kill), deterministic-jitter
  retry, quarantine, and crashed-worker replacement, where the
  replacement gets the sweep's spec installed before it rejoins.  Under
  the default policy a crashed worker aborts the sweep with a
  ``WorkerCrashed`` :class:`~repro.exp.supervise.TrialExecutionError`.

Records are **byte-identical** to in-process (``workers=1``) execution:
a worker runs each task through :func:`~repro.exp.runner.run_task`, the
one entry in-process execution uses too, on the same identity-derived
seeds, and the fleet never touches seed derivation.  Every engine's
trials then share one pipeline in :mod:`repro.exp.runner`: one point
setup, one stop-rule dispatch (:func:`~repro.exp.runner.run_to_stop`)
and one record builder.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
import traceback
import multiprocessing.connection
from collections import OrderedDict, deque
from dataclasses import dataclass

from repro.exp.supervise import (
    SupervisedTask,
    SupervisionStats,
    TrialExecutionError,
    TrialTimeout,
    _grace_s,
    _mp_context,
    backoff_delay,
    failure_records,
)

#: Installed specs kept per worker: one sweep needs one, interleaved
#: campaigns a few; the cap only bounds memory.  Parent and worker evict
#: the oldest install first, so their views of a worker stay in step.
MAX_INSTALLED_SPECS = 8

#: Wall-clock budget for the best-effort cache warming (compile +
#: kernel construction) inside an ``install`` message.  A protocol that
#: hangs at compile time is cut here and surfaces per-trial under the
#: normal supervision rules instead of wedging the install handshake.
_INSTALL_WARM_BUDGET_S = 60.0

#: How long the parent waits for an install acknowledgement before
#: declaring the worker dead.
_INSTALL_ACK_TIMEOUT_S = 300.0


def fleet_report() -> dict:
    """Fleet eligibility (the ``repro doctor`` payload).

    Reports the process start method the fleet uses and the warm-kernel
    status (for the numba backend, a warmed kernel means JIT has been
    paid in this process; fleet workers pay it once per fleet lifetime).
    """
    from repro.sim.backends import backend_report, warmed_kernels

    methods = multiprocessing.get_all_start_methods()
    numba_row = next((row for row in backend_report()
                      if row["name"] == "numba"), None)
    return {
        "start_method": "fork" if "fork" in methods else methods[0],
        "numba": {
            "available": bool(numba_row and numba_row["available"]),
            "warm_kernels": warmed_kernels(),
        },
    }


# -- Worker side ---------------------------------------------------------------


def _warm_spec(spec) -> None:
    """Best-effort cache warming for one installed spec.

    Mirrors exactly what the trial functions will do: the compiled
    engines (batched / ensemble / fluid) compile the protocol through
    :func:`repro.exp.runner.compile_for`, and the batched engine
    constructs its step kernels (which *is* the JIT compile on the
    numba backend).  The agent engine compiles nothing, so nothing is
    warmed for it — that keeps protocols whose compilation itself
    misbehaves (the supervision test protocols) failing per trial, where
    supervision can see them.
    """
    if spec.engine == "agent":
        return
    from repro.exp.runner import compile_for
    from repro.protocols import registry
    from repro.sim.backends import select_kernels

    compile_for(spec, registry.get(spec.protocol).build(**spec.params))
    if spec.engine != "batched":
        return
    select_kernels(None if spec.backend == "numpy" else spec.backend)


def _error_detail(exc: BaseException) -> tuple:
    """``(type name, message, traceback, pickled exception or None)``;
    call from inside the ``except`` block."""
    try:
        blob = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        blob = None
    return type(exc).__name__, str(exc), traceback.format_exc(), blob


def _worker_stats_payload(installed: "OrderedDict") -> dict:
    from repro.sim.backends import warmed_kernels
    from repro.sim.compiled import compile_cache_stats

    return {
        "pid": os.getpid(),
        "installed": list(installed),
        "compile_cache": compile_cache_stats(),
        "warm_kernels": warmed_kernels(),
    }


def _fleet_worker_main(conn) -> None:
    """Long-lived worker loop.

    Messages (parent -> worker), all tagged tuples:

    * ``("install", seq, spec_dict, spec_hash)`` — parse + validate the
      spec once, warm the compile/kernel caches (bounded by the install
      alarm), remember it by hash; ack ``(seq, "installed", hash, s)``.
    * ``("task", seq, spec_hash, point, trials, timeout_s)`` — run one
      task through :func:`repro.exp.runner.run_task` against the
      installed spec; reply ``(seq, "ok", (records, lines), s)`` with
      each record's store line from
      :func:`repro.exp.store.encode_record`, ``(seq, "timeout", message,
      s)`` or ``(seq, "error", detail, s)`` with ``detail`` from
      :func:`_error_detail`.
    * ``("stats", seq)`` — cache observability for tests and doctor.
    * ``None`` — exit.

    The alarm is armed per task and always disarmed before replying, so
    a late signal can never leak into the next task.
    """
    from repro.exp import runner
    from repro.exp.spec import ExperimentSpec
    from repro.exp.store import encode_record

    if hasattr(signal, "SIGALRM"):
        def _on_alarm(signum, frame):
            raise TrialTimeout("wall-clock budget exceeded "
                               "(worker-side alarm)")
        signal.signal(signal.SIGALRM, _on_alarm)
    installed: "OrderedDict[str, ExperimentSpec]" = OrderedDict()

    def arm(seconds: "float | None") -> None:
        if seconds and hasattr(signal, "setitimer"):
            signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm() -> None:
        if hasattr(signal, "setitimer"):
            signal.setitimer(signal.ITIMER_REAL, 0.0)

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        tag, seq = message[0], message[1]
        start = time.perf_counter()
        if tag == "install":
            _, _, spec_dict, spec_hash = message
            try:
                if spec_hash not in installed:
                    spec = ExperimentSpec.from_dict(spec_dict)
                    spec.validate()
                    try:
                        arm(_INSTALL_WARM_BUDGET_S)
                        try:
                            _warm_spec(spec)
                        finally:
                            disarm()
                    except TrialTimeout:
                        pass  # warming is best-effort; trials re-pay it
                    installed[spec_hash] = spec
                    while len(installed) > MAX_INSTALLED_SPECS:
                        installed.popitem(last=False)
                reply = (seq, "installed", spec_hash,
                         time.perf_counter() - start)
            except BaseException as exc:
                reply = (seq, "error", _error_detail(exc),
                         time.perf_counter() - start)
        elif tag == "stats":
            reply = (seq, "stats", _worker_stats_payload(installed), 0.0)
        elif tag == "task":
            _, _, spec_hash, point, trials, timeout_s = message
            try:
                spec = installed.get(spec_hash)
                if spec is None:
                    raise RuntimeError(
                        f"spec {spec_hash[:12]} is not installed on this "
                        "fleet worker (install broadcast missed?)")
                arm(timeout_s)
                try:
                    records = list(runner.run_task(spec, point, trials,
                                                   spec_hash))
                finally:
                    disarm()
                lines = [encode_record(record) for record in records]
                reply = (seq, "ok", (records, lines),
                         time.perf_counter() - start)
            except TrialTimeout as exc:
                reply = (seq, "timeout", str(exc),
                         time.perf_counter() - start)
            except BaseException as exc:
                reply = (seq, "error", _error_detail(exc),
                         time.perf_counter() - start)
        else:
            reply = (seq, "error",
                     ("ProtocolError", f"unknown fleet message {tag!r}", "",
                      None),
                     0.0)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


# -- Parent side ---------------------------------------------------------------


class _FleetWorker:
    """One persistent fleet worker with a private duplex pipe."""

    def __init__(self, ctx):
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(target=_fleet_worker_main,
                                   args=(child_conn,), daemon=True)
        self.process.start()
        child_conn.close()
        self.seq = 0
        #: Spec hashes installed on this worker, oldest first.
        self.installed: "OrderedDict[str, None]" = OrderedDict()

    def send(self, tag: str, *body) -> int:
        """Send one tagged message; returns its sequence number."""
        self.seq += 1
        self.conn.send((tag, self.seq) + body)
        return self.seq

    def alive(self) -> bool:
        return self.process.is_alive()

    def destroy(self) -> None:
        """Hard-stop: SIGKILL (when available), reap, close the pipe."""
        try:
            if self.process.is_alive():
                if hasattr(self.process, "kill"):
                    self.process.kill()
                else:
                    self.process.terminate()
        except (OSError, ValueError):
            pass
        self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass

    def shutdown(self) -> None:
        """Soft-stop: sentinel, short join, then escalate."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=1.0)
        if self.process.is_alive():
            self.destroy()
        else:
            try:
                self.conn.close()
            except OSError:
                pass


@dataclass
class FleetStats:
    """Lifetime counters for one fleet (see also per-run info dicts)."""

    installs: int = 0
    respawns: int = 0


class WorkerFleet:
    """A pool of warm worker processes (see module docstring).

    Spawn once, run many sweeps::

        with WorkerFleet(workers=4) as fleet:
            run_experiment(spec_a, fleet=fleet)
            run_experiment(spec_b, fleet=fleet)   # warm: no respawn,
                                                  # no recompiles

    Workers are forked at construction time (where fork is available),
    so they inherit in-process protocol registrations.  The fleet is not
    thread-safe: one sweep runs at a time.
    """

    def __init__(self, workers: "int | None" = None):
        self.size = max(1, workers or os.cpu_count() or 1)
        self._ctx = _mp_context()
        self._workers = [_FleetWorker(self._ctx) for _ in range(self.size)]
        #: spec_hash -> spec_dict of recent installs, so a replacement
        #: worker can be given the running sweep's spec.
        self._specs: "OrderedDict[str, dict]" = OrderedDict()
        self.stats = FleetStats()
        self.closed = False

    # -- Lifecycle -------------------------------------------------------------

    def __enter__(self) -> "WorkerFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut every worker down."""
        if self.closed:
            return
        self.closed = True
        for worker in self._workers:
            worker.shutdown()
        self._workers = []

    def _check_open(self) -> None:
        if self.closed:
            raise RuntimeError("this WorkerFleet has been closed")

    def _replace(self, worker: _FleetWorker,
                 spec_hash: "str | None" = None) -> _FleetWorker:
        """Replace a dead, wedged or abandoned worker with a fresh one.

        With ``spec_hash`` the running sweep's spec is installed on the
        replacement before it rejoins, so a respawn mid-sweep pays the
        cold start once.  Other specs are installed again on demand by
        :meth:`install`.
        """
        index = self._workers.index(worker)
        worker.destroy()
        fresh = _FleetWorker(self._ctx)
        self._workers[index] = fresh
        self.stats.respawns += 1
        if spec_hash is not None:
            self._install_on([fresh], spec_hash)
        return fresh

    # -- Install broadcast -----------------------------------------------------

    def _ack(self, worker: _FleetWorker, seq: int,
             timeout_s: float = _INSTALL_ACK_TIMEOUT_S):
        """Wait for the reply with ``seq`` on a synchronous exchange."""
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("fleet worker did not acknowledge in "
                                   f"{timeout_s:.0f}s")
            if not worker.conn.poll(min(remaining, 0.2)):
                if not worker.alive():
                    raise RuntimeError(
                        f"fleet worker died (exitcode "
                        f"{worker.process.exitcode})")
                continue
            reply = worker.conn.recv()
            if reply[0] != seq:
                continue  # stale reply from an abandoned dispatch
            return reply

    def _install_on(self, workers: list, spec_hash: str) -> None:
        """Install one spec on ``workers``: send to all, then await each.

        A worker that dies during the handshake is replaced once (the
        replacement is installed synchronously); any other failure
        raises.
        """
        spec_dict = self._specs[spec_hash]
        sent = [(worker, worker.send("install", spec_dict, spec_hash))
                for worker in workers]
        for worker, seq in sent:
            try:
                _, status, detail, _ = self._ack(worker, seq)
            except RuntimeError:
                if worker.alive():
                    raise
                self._replace(worker, spec_hash)
                continue
            if status != "installed":
                raise RuntimeError(f"fleet install failed in worker: "
                                   f"[{detail[0]}] {detail[1]}")
            worker.installed[spec_hash] = None
            while len(worker.installed) > MAX_INSTALLED_SPECS:
                worker.installed.popitem(last=False)
            self.stats.installs += 1

    def install(self, spec, spec_hash: "str | None" = None) -> str:
        """Broadcast ``spec`` to every worker that lacks it (idempotent).

        Returns the spec's content hash.  After this, task messages for
        the sweep carry only the hash.
        """
        self._check_open()
        spec_hash = spec_hash or spec.content_hash()
        if spec_hash not in self._specs:
            self._specs[spec_hash] = spec.to_dict()
        self._specs.move_to_end(spec_hash)
        while len(self._specs) > MAX_INSTALLED_SPECS:
            self._specs.popitem(last=False)
        self._install_on([worker for worker in self._workers
                          if spec_hash not in worker.installed], spec_hash)
        return spec_hash

    # -- Execution -------------------------------------------------------------

    def run_tasks(self, spec, tasks, spec_hash: str, *,
                  on_records, on_failure) -> tuple:
        """Execute a sweep's ``(point, trials)`` tasks (from
        :func:`repro.exp.runner.build_tasks`); the runner's entry point.

        Installs the spec and runs the tasks under ``spec.execution``;
        each finished task is handed over in one ``on_records(records,
        lines)`` call, ``lines`` being the records' encoded store lines.
        Returns ``(SupervisionStats, per-run info dict)``.
        """
        self._check_open()
        tasks = [SupervisedTask(point, trials) for point, trials in tasks]
        respawns = self.stats.respawns
        if tasks:
            self.install(spec, spec_hash)

        stats = self.execute(tasks, policy=spec.execution,
                             spec_hash=spec_hash, on_records=on_records,
                             on_failure=on_failure)
        return stats, {"workers": self.size,
                       "respawns": self.stats.respawns - respawns}

    def execute(self, tasks, *, policy, spec_hash: str, on_records=None,
                on_failure=None, poll_s: float = 0.05) -> SupervisionStats:
        """The supervision loop: run ``tasks`` across the workers.

        The spec ``spec_hash`` must already be installed (as
        :meth:`run_tasks` does).  Worker-side alarm timeouts,
        parent-side deadline kills, deterministic-jitter retry and the
        raise/skip/quarantine disposition follow ``policy`` (see
        :mod:`repro.exp.supervise`).  Freed workers are re-dispatched
        before ``on_records`` runs, so they never idle while the caller
        stores results.  Under the default policy a raising trial
        re-raises its original exception; otherwise an exhausted task
        under ``on_error="raise"`` raises :class:`TrialExecutionError`
        naming the task's first trial.
        """
        self._check_open()
        stats = SupervisionStats(tasks=len(tasks))
        if not tasks:
            return stats
        ready: deque = deque(tasks)
        waiting: list = []  # backoff-delayed tasks, any order
        busy: dict = {}  # worker -> (task, seq, started, deadline | None)
        original_errors = policy.is_default()

        def finalize_failure(task: SupervisedTask, blob) -> None:
            if policy.on_error == "raise":
                original = None
                if original_errors and blob is not None:
                    try:
                        original = pickle.loads(blob)
                    except Exception:
                        pass  # not rebuildable here: report the record
                if isinstance(original, BaseException):
                    from multiprocessing.pool import RemoteTraceback

                    trace = task.attempts[-1]["traceback"]
                    raise original from RemoteTraceback(
                        f'\n"""\n{trace}"""')
                raise TrialExecutionError(
                    failure_records(task, spec_hash)[0])
            if policy.on_error == "skip":
                stats.skipped += len(task.trials)
                return
            stats.quarantined += len(task.trials)
            if on_failure is not None:
                for record in failure_records(task, spec_hash):
                    on_failure(record)

        def note_failed_attempt(task: SupervisedTask, outcome: dict,
                                blob=None) -> None:
            task.attempts.append(outcome)
            stats.attempts += 1
            if len(task.attempts) >= policy.max_attempts:
                finalize_failure(task, blob)
                return
            stats.retries += 1
            task.not_before = (time.monotonic()
                               + backoff_delay(policy, task.key(spec_hash),
                                               len(task.attempts)))
            waiting.append(task)

        def crashed(worker: _FleetWorker, started: float, now: float):
            exitcode = worker.process.exitcode
            self._replace(worker, spec_hash)
            stats.crashes += 1
            return {"outcome": "crashed",
                    "error_type": "WorkerCrashed",
                    "message": f"fleet worker died (exitcode {exitcode})",
                    "elapsed_s": round(now - started, 3)}

        def dispatch_idle() -> None:
            now = time.monotonic()
            still_waiting = [t for t in waiting if t.not_before > now]
            for task in waiting:
                if task.not_before <= now:
                    ready.append(task)
            waiting[:] = still_waiting
            for worker in self._workers:
                if not ready:
                    break
                if worker in busy:
                    continue
                task = ready.popleft()
                deadline = None
                if policy.timeout_s:
                    deadline = now + policy.timeout_s + _grace_s(
                        policy.timeout_s)
                seq = worker.send("task", spec_hash, task.point, task.trials,
                                  policy.timeout_s)
                busy[worker] = (task, seq, now, deadline)

        try:
            while ready or waiting or busy:
                dispatch_idle()
                if not busy:
                    if waiting:
                        pause = (min(t.not_before for t in waiting)
                                 - time.monotonic())
                        if pause > 0:
                            time.sleep(min(pause, poll_s * 4))
                    continue

                conns = {worker.conn: worker for worker in busy}
                readable = multiprocessing.connection.wait(
                    list(conns), timeout=poll_s)

                finished: list = []
                failed: list = []  # (task, outcome, pickled exception)
                for conn in readable:
                    worker = conns[conn]
                    task, seq, started, _ = busy[worker]
                    try:
                        reply = conn.recv()
                    except (EOFError, OSError):
                        del busy[worker]
                        failed.append((task, crashed(
                            worker, started, time.monotonic()), None))
                        continue
                    reply_seq, status, detail, elapsed = reply
                    if reply_seq != seq:
                        # Stale reply from an abandoned dispatch; the
                        # current task is still in flight — keep waiting.
                        continue
                    del busy[worker]
                    if status == "ok":
                        stats.attempts += 1
                        finished.append(detail)
                    elif status == "timeout":
                        stats.timeouts += 1
                        failed.append((task, {
                            "outcome": "timeout",
                            "error_type": "TrialTimeout",
                            "message": detail,
                            "elapsed_s": round(elapsed, 3),
                        }, None))
                    else:
                        error_type, message, trace, blob = detail
                        stats.errors += 1
                        failed.append((task, {
                            "outcome": "error",
                            "error_type": error_type,
                            "message": message,
                            "traceback": trace,
                            "elapsed_s": round(elapsed, 3),
                        }, blob))

                now = time.monotonic()
                for worker in list(busy):
                    task, seq, started, deadline = busy[worker]
                    if deadline is not None and now > deadline:
                        del busy[worker]
                        self._replace(worker, spec_hash)
                        stats.timeouts += 1
                        failed.append((task, {
                            "outcome": "timeout",
                            "error_type": "TrialTimeout",
                            "message": ("wall-clock budget exceeded; fleet "
                                        "worker killed by supervisor "
                                        "deadline and respawned warm"),
                            "elapsed_s": round(now - started, 3),
                        }, None))
                    elif not worker.alive():
                        del busy[worker]
                        failed.append((task, crashed(worker, started, now),
                                       None))

                if finished:
                    dispatch_idle()
                    if on_records is not None:
                        for records, lines in finished:
                            on_records(records, lines)
                for task, outcome, blob in failed:
                    outcome = {"attempt": len(task.attempts) + 1, **outcome}
                    note_failed_attempt(task, outcome, blob)
        except BaseException:
            # Abandon in-flight work cleanly: a worker with an
            # unconsumed reply must never rejoin the pool, or a later
            # sweep would read a stale result.  Its replacement gets
            # specs installed on demand by the next install().
            for worker in list(busy):
                self._replace(worker)
            raise
        return stats

    # -- Observability ---------------------------------------------------------

    def worker_stats(self) -> list:
        """Cache/warmth stats from every (idle) worker.

        Call between sweeps only — the exchange shares the task pipes.
        """
        self._check_open()
        payloads = []
        for worker in self._workers:
            try:
                seq = worker.send("stats")
                _, status, payload, _ = self._ack(worker, seq,
                                                  timeout_s=30.0)
            except (RuntimeError, OSError, EOFError):
                payloads.append(None)
                continue
            payloads.append(payload if status == "stats" else None)
        return payloads

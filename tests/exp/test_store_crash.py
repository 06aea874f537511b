"""A store survives ``kill -9`` of the sweep writing it.

An ``exp run`` over two workers is SIGKILLed, with its workers, as soon
as its first records are on disk.  Reopening the store keeps every
complete line and cuts only a torn tail, and re-running the same command
completes the sweep with the records of an uninterrupted run.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.exp.store import ResultStore, encode_record

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: About a second of leader election over two workers, in 8 tasks.
TRIALS = 200
SWEEP = ["exp", "run", "--protocol", "leader-election", "--ns", "60,80",
         "--trials", str(TRIALS), "--stop", "silent", "--seed", "3",
         "--workers", "2"]


def _command(store: Path) -> list:
    return [sys.executable, "-m", "repro", *SWEEP, "--store", str(store)]


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def _records_digest(store: Path) -> str:
    lines = sorted(encode_record(record)
                   for record in ResultStore(store).records())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _kill_after_first_records(store: Path) -> None:
    """Start the sweep; SIGKILL it and its workers once records land."""
    sweep = subprocess.Popen(_command(store), env=_env(),
                             stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL,
                             start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        # The header is line 1; a second newline means a record landed.
        while not (store.exists() and store.read_bytes().count(b"\n") >= 2):
            assert sweep.poll() is None, "the sweep ended before any record"
            assert time.monotonic() < deadline, "no record within 60 s"
            time.sleep(0.002)
        assert sweep.poll() is None, "the sweep ended before the kill"
    finally:
        os.killpg(sweep.pid, signal.SIGKILL)
        sweep.wait(timeout=30)


def test_killed_sweep_resumes_to_the_uninterrupted_records(tmp_path):
    store = tmp_path / "killed.jsonl"
    _kill_after_first_records(store)

    on_disk = store.read_bytes()
    complete = on_disk[:on_disk.rfind(b"\n") + 1]
    trial_ids = [json.loads(line)["id"] for line in complete.splitlines()
                 if json.loads(line)["kind"] == "trial"]
    reopened = ResultStore(store)
    assert store.read_bytes() == complete
    assert [record["id"] for record in reopened.records()] == trial_ids
    assert 0 < len(reopened) < 2 * TRIALS

    resumed = subprocess.run(_command(store) + ["--json"], env=_env(),
                             capture_output=True, text=True, timeout=120)
    assert resumed.returncode == 0, resumed.stderr
    summary = json.loads(resumed.stdout)
    assert summary["skipped"] == len(trial_ids)
    assert summary["executed"] == 2 * TRIALS - len(trial_ids)

    uninterrupted = tmp_path / "uninterrupted.jsonl"
    subprocess.run(_command(uninterrupted), env=_env(), check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    assert len(ResultStore(store)) == 2 * TRIALS
    assert _records_digest(store) == _records_digest(uninterrupted)

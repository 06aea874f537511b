"""Tests for the append-only JSONL result store."""

import json

import pytest

from repro.exp.spec import ExperimentSpec, InputGrid, StopRule
from repro.exp.store import ResultStore, StoreMismatch


def make_spec(seed=7) -> ExperimentSpec:
    return ExperimentSpec(protocol="epidemic", ns=(6,), trials=2,
                          inputs=InputGrid(kind="ones", ones=1),
                          stop=StopRule(patience=500, max_steps=20_000),
                          seed=seed)


def trial(i: int) -> dict:
    return {"kind": "trial", "id": f"{i:016x}", "n": 6, "intensity": None,
            "trial": i, "interactions": 100 + i, "converged_at": 10 + i}


def failure(i: int) -> dict:
    return {"kind": "trial-failure", "id": f"{i:016x}", "n": 6,
            "intensity": None, "trial": i, "error_type": "RuntimeError",
            "message": "boom"}


class TestBasics:
    def test_fresh_store_is_empty(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        assert len(store) == 0
        assert store.spec() is None
        assert store.completed_ids() == set()

    def test_append_and_reload(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        store.bind_spec(make_spec())
        store.append(trial(0))
        store.append(trial(1))

        reloaded = ResultStore(path)
        assert len(reloaded) == 2
        assert reloaded.completed_ids() == {trial(0)["id"], trial(1)["id"]}
        assert reloaded.records()[0]["interactions"] == 100
        assert reloaded.spec() == make_spec()
        assert reloaded.spec_hash() == make_spec().content_hash()

    def test_append_is_idempotent_by_id(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.bind_spec(make_spec())
        store.append(trial(0))
        store.append(trial(0))
        assert len(store) == 1
        assert len(ResultStore(store.path)) == 1

    def test_malformed_records_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        with pytest.raises(ValueError):
            store.append({"kind": "trial"})  # no id
        with pytest.raises(ValueError):
            store.append({"id": "x"})  # no kind


class TestFailureRecords:
    """Quarantine records: durable, idempotent, superseded by success."""

    def test_append_failure_and_reload(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        store.bind_spec(make_spec())
        store.append(trial(0))
        store.append_failure(failure(1))

        reloaded = ResultStore(path)
        assert len(reloaded) == 1  # only the trial counts as a record
        assert reloaded.failures() == [failure(1)]
        assert reloaded.quarantined_ids() == {failure(1)["id"]}
        assert reloaded.completed_ids() == {trial(0)["id"]}

    def test_append_failure_is_idempotent_by_id(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append_failure(failure(0))
        store.append_failure(failure(0))
        assert len(store.failures()) == 1
        assert len(ResultStore(store.path).failures()) == 1

    def test_trial_record_supersedes_failure(self, tmp_path):
        # A retried quarantined trial that later succeeds: the failure
        # line stays in the file, but the effective view reports only
        # the success — exactly-once per trial id.
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        store.append_failure(failure(0))
        assert store.quarantined_ids() == {failure(0)["id"]}
        store.append(trial(0))
        assert store.failures() == []
        assert store.quarantined_ids() == set()

        reloaded = ResultStore(path)
        assert reloaded.failures() == []
        assert reloaded.quarantined_ids() == set()
        assert reloaded.completed_ids() == {trial(0)["id"]}

    def test_malformed_failure_records_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        with pytest.raises(ValueError):
            store.append_failure(trial(0))  # wrong kind
        with pytest.raises(ValueError):
            store.append_failure({"kind": "trial-failure"})  # no id

    def test_torn_failure_tail_is_dropped(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        store.append_failure(failure(0))
        store.append_failure(failure(1))
        size = path.stat().st_size
        with open(path, "r+b") as handle:
            handle.truncate(size - 10)

        repaired = ResultStore(path)
        assert repaired.quarantined_ids() == {failure(0)["id"]}


class TestSpecBinding:
    def test_rebinding_same_spec_is_noop(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.bind_spec(make_spec())
        store.bind_spec(make_spec())
        assert ResultStore(store.path).spec() == make_spec()

    def test_mismatched_spec_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.bind_spec(make_spec(seed=7))
        with pytest.raises(StoreMismatch):
            store.bind_spec(make_spec(seed=8))
        with pytest.raises(StoreMismatch):
            ResultStore(store.path).bind_spec(make_spec(seed=8))


class TestTornTailRepair:
    def test_partial_last_line_is_dropped(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        store.bind_spec(make_spec())
        store.append(trial(0))
        store.append(trial(1))
        size = path.stat().st_size
        with open(path, "r+b") as handle:
            handle.truncate(size - 10)  # cut into the final record

        repaired = ResultStore(path)
        assert len(repaired) == 1
        assert trial(0)["id"] in repaired
        assert trial(1)["id"] not in repaired
        # The torn bytes are gone; appending produces a clean file again.
        repaired.append(trial(1))
        lines = path.read_text().splitlines()
        assert all(json.loads(line) for line in lines)
        assert len(lines) == 3  # header + two trials

    def test_missing_trailing_newline_is_dropped(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        store.bind_spec(make_spec())
        store.append(trial(0))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(trial(1)))  # no newline: torn write

        repaired = ResultStore(path)
        assert len(repaired) == 1
        repaired.append(trial(1))
        assert len(ResultStore(path)) == 2

    def test_bad_mid_file_line_is_skipped_not_truncated(self, tmp_path):
        # A newline-terminated line that does not parse is not a torn
        # tail: the records after it must survive, and so must the line.
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        for i in range(5):
            store.append(trial(i))
        lines = path.read_bytes().splitlines(keepends=True)
        bad = b'{"kind": "tri\n'
        path.write_bytes(b"".join(lines[:2] + [bad] + lines[2:]))
        size = path.stat().st_size

        reopened = ResultStore(path)
        assert len(reopened) == 5
        assert reopened.completed_ids() == {trial(i)["id"] for i in range(5)}
        assert path.stat().st_size == size
        assert bad in path.read_bytes()


class TestAppendHandle:
    """The store opens its file once, on the first write, and keeps the
    handle; every line is flushed before ``append`` returns."""

    def test_fresh_store_sees_record_without_close(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        store.bind_spec(make_spec())
        store.append(trial(0))
        assert trial(0)["id"] in ResultStore(path)
        handle = store._handle
        store.append(trial(1))
        assert store._handle is handle  # held, not reopened
        assert ResultStore(path).completed_ids() == {trial(0)["id"],
                                                    trial(1)["id"]}

    def test_close_then_append_reopens(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        store.append(trial(0))
        store.close()
        store.close()  # idempotent
        store.append(trial(1))
        assert len(ResultStore(path)) == 2

    def test_failure_appends_still_fsync(self, tmp_path, monkeypatch):
        import repro.exp.store as store_mod

        synced = []
        real_fsync = store_mod.os.fsync
        monkeypatch.setattr(store_mod.os, "fsync",
                            lambda fd: (synced.append(fd), real_fsync(fd)))
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(trial(0))
        assert synced == []
        store.append_failure(failure(1))
        assert synced == [store._handle.fileno()]
        assert ResultStore(store.path).quarantined_ids() == {failure(1)["id"]}

    def test_append_after_torn_tail_repair_lands_on_own_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        writer = ResultStore(path)
        writer.bind_spec(make_spec())
        writer.append(trial(0))
        writer.append(trial(1))
        with open(path, "r+b") as handle:
            handle.truncate(path.stat().st_size - 10)

        repaired = ResultStore(path)
        repaired.append(trial(2))
        # The first writer's held handle appends at the end, too.
        writer.append(trial(3))
        lines = path.read_text().splitlines()
        assert [json.loads(line)["kind"] for line in lines] == [
            "spec", "trial", "trial", "trial"]
        assert ResultStore(path).completed_ids() == {
            trial(i)["id"] for i in (0, 2, 3)}

    def test_two_stores_on_one_path_keep_both_records(self, tmp_path):
        path = tmp_path / "r.jsonl"
        first = ResultStore(path)
        first.bind_spec(make_spec())
        first.append(trial(0))
        second = ResultStore(path)
        second.append(trial(1))
        first.append(trial(2))
        second.append(trial(3))
        assert ResultStore(path).completed_ids() == {
            trial(i)["id"] for i in range(4)}
        assert all(json.loads(line) for line in path.read_text().splitlines())

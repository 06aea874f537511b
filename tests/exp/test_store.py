"""Tests for the append-only JSONL result store."""

import json

import pytest

from repro.exp.spec import ExperimentSpec, InputGrid, StopRule
from repro.exp.store import ResultStore, StoreMismatch, encode_record


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


class _CountingHandle:
    """Wraps a store's held handle and counts its writes and flushes."""

    def __init__(self, handle):
        self.handle = handle
        self.writes = 0
        self.flushes = 0

    def write(self, text):
        self.writes += 1
        return self.handle.write(text)

    def flush(self):
        self.flushes += 1
        self.handle.flush()

    def fileno(self):
        return self.handle.fileno()

    def close(self):
        self.handle.close()


class TestBatchedExtend:
    """``extend(records, lines)``: a fleet task's records in one write."""

    def _store(self, path):
        store = ResultStore(path)
        store.bind_spec(make_spec())
        counting = store._handle = _CountingHandle(store._handle)
        return store, counting

    def test_encode_record_is_the_canonical_dump(self):
        record = {"b": [1, 2.5, None], "a": {"z": True, "y": "é"}}
        assert encode_record(record) == json.dumps(
            record, sort_keys=True, separators=(",", ":"))

    def test_writes_exactly_the_encoded_lines(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store, _ = self._store(path)
        batch = [trial(i) for i in range(4)]
        store.extend(batch, [encode_record(r) for r in batch])
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[1:] == [encode_record(r) for r in batch]
        assert ResultStore(path).records() == batch
        assert store.records() == batch

    def test_skips_duplicates_within_and_across_batches(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store, counting = self._store(path)
        first = [trial(0), trial(1), trial(0)]
        store.extend(first, [encode_record(r) for r in first])
        second = [trial(1), trial(2), trial(2)]
        store.extend(second, [encode_record(r) for r in second])
        store.extend([trial(2)], [encode_record(trial(2))])
        assert counting.writes == 2  # the all-duplicate batch writes nothing
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[1:] == [encode_record(trial(i)) for i in range(3)]
        assert len(store) == 3
        assert ResultStore(path).completed_ids() == {
            trial(i)["id"] for i in range(3)}

    def test_one_write_and_one_flush_per_call(self, tmp_path):
        store, counting = self._store(tmp_path / "r.jsonl")
        for start in (0, 10):
            batch = [trial(start + i) for i in range(10)]
            store.extend(batch, [encode_record(r) for r in batch])
        assert (counting.writes, counting.flushes) == (2, 2)
        store.append(trial(99))
        assert (counting.writes, counting.flushes) == (3, 3)

    def test_malformed_batch_writes_nothing(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store, counting = self._store(path)
        bad = [trial(0), {"kind": "trial"}]
        with pytest.raises(ValueError):
            store.extend(bad, [encode_record(r) for r in bad])
        with pytest.raises(ValueError):
            store.extend([trial(0), trial(1)], [encode_record(trial(0))])
        assert counting.writes == 0 and len(store) == 0

    def test_batch_cut_mid_line_is_repaired_at_open(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store, _ = self._store(path)
        batch = [trial(i) for i in range(5)]
        store.extend(batch, [encode_record(r) for r in batch])
        lines = path.read_bytes().splitlines(keepends=True)
        # Cut inside record 3's line, as a crash mid-write would.
        cut = sum(len(line) for line in lines[:4]) + len(lines[4]) // 2
        with open(path, "r+b") as handle:
            handle.truncate(cut)

        repaired = ResultStore(path)
        assert repaired.records() == batch[:3]
        assert path.read_bytes() == b"".join(lines[:4])
        rest = batch[3:]
        repaired.extend(rest, [encode_record(r) for r in rest])
        assert ResultStore(path).records() == batch

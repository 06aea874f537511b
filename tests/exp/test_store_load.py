"""The store's block-wise loader against the line-by-line loader it replaced.

``_LineByLineStore._load`` is a verbatim copy of the loader
:class:`~repro.exp.store.ResultStore` had before block-wise loading: one
``json.loads`` per line.  It is the oracle.  Generated stores mix every
kind of line a store can hold, or that a crash, a second writer or a
hand edit can leave in one, and the block size is patched down so that
runs of lines cross block boundaries.  The store skips complete lines
that the oracle raised on or misread (JSON that is not an object, and
``trial`` or ``trial-failure`` records without a string id), so the
oracle reads the same file with those lines dropped.  Both loaders must
agree on the records, the header, the failures and the quarantined ids;
the store must never raise, and must leave the file's complete lines on
disk and cut only the torn tail.
"""

import gc
import json
import os
import random
import tempfile
import tracemalloc
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.exp.store as store_module
from repro.exp.spec import ExperimentSpec, InputGrid, StopRule
from repro.exp.store import ResultStore, encode_record


class _LineByLineStore:
    """The loader ``ResultStore`` used before block-wise loading."""

    def __init__(self, path):
        self.path = os.fspath(path)
        self._spec_header = None
        self._records = []
        self._ids = set()
        self._by_id = {}
        self._failures = []
        self._failure_ids = set()
        self._load()

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        good_bytes = 0
        with open(self.path, "rb") as handle:
            for line in handle:
                if not line.endswith(b"\n"):
                    break  # torn tail: drop the partial record
                good_bytes += len(line)
                try:
                    record = json.loads(line.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    continue  # complete but unreadable: skip, keep on disk
                if record.get("kind") == "spec":
                    self._spec_header = record
                elif record.get("kind") == "trial":
                    self._records.append(record)
                    self._ids.add(record["id"])
                    self._by_id[record["id"]] = record
                elif record.get("kind") == "trial-failure":
                    self._failures.append(record)
                    self._failure_ids.add(record["id"])
        if good_bytes < os.path.getsize(self.path):
            with open(self.path, "r+b") as handle:
                handle.truncate(good_bytes)

    def records(self):
        return list(self._records)

    def record(self, trial_id):
        record = self._by_id.get(trial_id)
        return dict(record) if record is not None else None

    def failures(self):
        return [record for record in self._failures
                if record["id"] not in self._ids]

    def quarantined_ids(self):
        return self._failure_ids - self._ids

    def completed_ids(self):
        return set(self._ids)


# -- Generated stores ------------------------------------------------------

#: A few trial ids, so that lines repeat ids (two writers, retries).
IDS = [f"{i:016x}" for i in range(5)]

_ids = st.sampled_from(IDS)
_ints = st.integers(0, 2**63 - 1)
#: String values: escapes, non-ASCII, JSON whitespace and Unicode line
#: separators, but no braces or brackets (lines stay flat).
_flat_text = st.text(alphabet='ab"\\ ,:\t\r\x0b é', max_size=8)
#: String values holding braces and brackets.
_bracey_text = st.text(alphabet='{}[]"\\ ab,:', min_size=1, max_size=8)


def _trial(tid, trial, seed, **extra) -> dict:
    return {"kind": "trial", "id": tid, "n": 4 + trial % 9,
            "trial": trial, "intensity": None, "engine_seed": seed,
            "fault_seed": seed // 3, "interactions": trial * 7,
            "converged_at": trial * 5, "stopped": True, "correct": None,
            "output": None, "omissions": 0, "crashes": 0,
            "corruptions": 0, **extra}


_canonical = st.builds(_trial, _ids, st.integers(0, 999), _ints)
_with_note = st.builds(lambda record, note: {**record, "note": note},
                       _canonical, _flat_text)
_with_bracey_note = st.builds(lambda record, note: {**record, "note": note},
                              _canonical, _bracey_text)
_violation = st.builds(
    lambda record, step: {**record, "violation": {
        "monitor": "conservation", "step": step,
        "detail": {"counts": [step, 1]}}},
    _canonical, st.integers(0, 99))
_header = st.builds(
    lambda digit, seed: {"kind": "spec", "hash": digit * 64,
                         "spec": {"ns": [6, 8], "seed": seed}},
    st.sampled_from("ab"), st.integers(0, 9))
_failure = st.builds(
    lambda tid, trial: {"kind": "trial-failure", "id": tid, "n": 6,
                        "trial": trial, "error_type": "RuntimeError",
                        "message": "boom {x} [y]",
                        "attempts": [{"attempt": 1, "error_type":
                                      "RuntimeError"}]},
    _ids, st.integers(0, 9))
_other_kind = st.builds(lambda x: {"kind": "note", "x": x}, _ints)
_dicts = st.one_of(_canonical, _canonical, _with_note, _with_bracey_note,
                   _violation, _header, _failure, _other_kind)

#: Flat-looking lines (one brace at each end, nothing else): most do
#: not parse, and a run of them must fall back to one parse per line.
_flat_junk = st.builds(
    lambda pieces: "{" + "".join(pieces) + "}",
    st.lists(st.sampled_from(['"a"', ":", "1", ",", " ", '"', "\\",
                              '"b":"x', '\\"', "\t", "\r", "null"]),
             max_size=6))
#: Lines that parse only when joined with their neighbours, or never.
_fragments = st.sampled_from([
    '{"a":[{"x":1}', '{"y":2}]}', '{"b":1},{"c":2}', '{"a":"x}',
    '{"kind":"trial",', '"id":"' + IDS[0] + '"}', '{"a":1}{"b":2}',
    "{", "}", "[", "]", ",", "{}", '{"a":1,}', "{}}", "{{}",
])
_blank = st.sampled_from(["", " ", "\t", "  \t "])


_line = st.one_of(
    _dicts.map(lambda record: encode_record(record).encode()),
    _dicts.map(lambda record: json.dumps(record).encode()),
    _dicts.map(lambda record: b"  " + encode_record(record).encode()),
    _flat_junk.map(str.encode),
    _fragments.map(str.encode),
    _blank.map(str.encode),
    st.sampled_from([b'{"kind":"trial","id":"\xff\xfe"}', b"\xc3",
                     b"\xef\xbb\xbf{}", b'{"a":"\xed\xa0\x80"}']),
    st.text(max_size=12).map(lambda text: text.encode("utf-8", "replace")),
    st.binary(max_size=12),
)
#: Lines the store skips: JSON that is not an object, and trial or
#: failure records without a string id.  The line-by-line loader raises
#: on most of them and indexes the others under a non-string id.
_skipped = st.sampled_from([b"[1, 2]", b"5", b'"s"', b"null", b"true",
                            b'{"kind":"trial"}',
                            b'{"kind":"trial-failure","n":1}',
                            b'{"kind":"trial","id":7}',
                            b'{"kind":"trial","id":["x"]}',
                            b'{"kind":"trial-failure","id":null}'])


def _is_skipped(line: bytes) -> bool:
    """Whether the store skips this complete line although it parses."""
    try:
        value = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return False
    if not isinstance(value, dict):
        return True
    return (value.get("kind") in ("trial", "trial-failure")
            and not isinstance(value.get("id"), str))


def _without_skipped(data: bytes) -> bytes:
    """``data`` with the complete lines the store skips dropped."""
    *lines, tail = data.split(b"\n")
    return b"".join(line + b"\n" for line in lines
                    if not _is_skipped(line)) + tail


@st.composite
def stores(draw) -> bytes:
    """The bytes of one store file."""
    lines = draw(st.lists(_line, max_size=30))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_skipped))
    ends = draw(st.lists(st.sampled_from([b"\n", b"\n", b"\n", b"\r\n"]),
                         min_size=len(lines), max_size=len(lines)))
    body = b"".join(line.replace(b"\n", b"") + end
                    for line, end in zip(lines, ends))
    tail = draw(st.one_of(st.just(b""), _line.map(
        lambda line: line.replace(b"\n", b"")[:7])))
    return body + tail


def _outcome(load, path):
    try:
        store = load(path)
    except Exception as exc:  # noqa: BLE001 — the type is the outcome
        return type(exc).__name__
    return {
        "header": store._spec_header,
        "records": store.records(),
        "by_id": {tid: store.record(tid) for tid in store.completed_ids()},
        "failures": store.failures(),
        "quarantined": store.quarantined_ids(),
    }


class TestMatchesLineByLineLoader:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=stores(), block=st.integers(1, 96))
    def test_same_records_and_bytes(self, data, block):
        with tempfile.TemporaryDirectory() as tmp:
            new_path = os.path.join(tmp, "new.jsonl")
            old_path = os.path.join(tmp, "old.jsonl")
            with open(new_path, "wb") as handle:
                handle.write(data)
            with open(old_path, "wb") as handle:
                handle.write(_without_skipped(data))
            with mock.patch.object(store_module, "_BLOCK_BYTES", block):
                new = _outcome(ResultStore, new_path)
            old = _outcome(_LineByLineStore, old_path)
            assert isinstance(new, dict), new
            assert new == old
            with open(new_path, "rb") as a, open(old_path, "rb") as b:
                kept = a.read()
                assert kept == data[:data.rfind(b"\n") + 1]
                assert _without_skipped(kept) == b.read()

    def test_default_block_size_on_a_large_store(self, tmp_path):
        """Many full blocks, a run broken mid-block, and a torn tail."""
        rng = random.Random(5)
        lines = [encode_record(_trial(f"{i:016x}", i % 1000,
                                      rng.getrandbits(63)))
                 for i in range(12_000)]
        lines[7_000] = '{"a":"x}'
        lines[7_001] = encode_record({"kind": "spec", "hash": "c" * 64,
                                      "spec": {"ns": [4]}})
        data = ("\n".join(lines) + "\n" + lines[0][:9]).encode()
        assert len(data) > 3 * store_module._BLOCK_BYTES
        (tmp_path / "new.jsonl").write_bytes(data)
        (tmp_path / "old.jsonl").write_bytes(data)
        new = _outcome(ResultStore, tmp_path / "new.jsonl")
        assert new == _outcome(_LineByLineStore, tmp_path / "old.jsonl")
        assert len(new["records"]) == 11_998
        assert ((tmp_path / "new.jsonl").read_bytes()
                == (tmp_path / "old.jsonl").read_bytes())


# -- One copy per record ---------------------------------------------------

def _oracle_small_n_store(path, count=9_000) -> None:
    """A store shaped like the ``oracle-small-n`` benchmark sweep's.

    Leader election at n = 4..12, 1 000 trials per n: each record has the
    agent engine's 15 keys, 63-bit seeds and about (n-1)^2 interactions.
    """
    rng = random.Random(11)
    lines = [encode_record({"kind": "spec", "hash": "d" * 64,
                            "spec": {"protocol": "leader-election"}})]
    for i in range(count):
        n = 4 + i // 1_000
        steps = max(1, round(rng.expovariate(1 / (n - 1) ** 2)))
        lines.append(encode_record({
            "kind": "trial", "id": f"{rng.getrandbits(64):016x}", "n": n,
            "trial": i % 1_000, "intensity": None,
            "engine_seed": rng.getrandbits(63),
            "fault_seed": rng.getrandbits(63), "interactions": steps,
            "converged_at": steps, "stopped": True, "correct": None,
            "output": None, "omissions": 0, "crashes": 0,
            "corruptions": 0}))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _load_peak(load, path) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        store = load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(store.records()) == 9_000
    return peak


def _make_spec() -> ExperimentSpec:
    return ExperimentSpec(protocol="epidemic", ns=(6,), trials=2,
                          inputs=InputGrid(kind="ones", ones=1),
                          stop=StopRule(patience=500, max_steps=20_000),
                          seed=7)


class TestOneCopyPerRecord:
    def test_loading_peak_is_at_most_six_tenths_of_line_by_line(
            self, tmp_path):
        path = tmp_path / "r.jsonl"
        _oracle_small_n_store(path)
        old = _load_peak(_LineByLineStore, path)
        new = _load_peak(ResultStore, path)
        assert new <= 0.6 * old, (new, old)

    def test_loaded_records_share_their_key_strings(self, tmp_path):
        path = tmp_path / "r.jsonl"
        _oracle_small_n_store(path, count=50)
        first, second = ResultStore(path).records()[:2]
        for a, b in zip(first, second):
            assert a is b

    def test_records_are_the_appended_dicts(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.bind_spec(_make_spec())
        one = _trial(IDS[0], 0, 1)
        two, three = _trial(IDS[1], 1, 2), _trial(IDS[2], 2, 3)
        store.append(one)
        store.extend([two, three], [encode_record(two), encode_record(three)])
        records = store.records()
        assert len(records) == 3
        assert all(got is sent
                   for got, sent in zip(records, (one, two, three)))

    def test_record_returns_an_equal_copy(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.bind_spec(_make_spec())
        one = _trial(IDS[0], 0, 1)
        store.append(one)
        copy = store.record(IDS[0])
        assert copy == one and copy is not one
        reloaded = ResultStore(tmp_path / "r.jsonl")
        copy = reloaded.record(IDS[0])
        assert copy == one and copy is not reloaded.records()[0]

    def test_failures_are_the_appended_dicts(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        failure = {"kind": "trial-failure", "id": IDS[3], "n": 6}
        store.append_failure(failure)
        assert store.failures()[0] is failure

"""Append-only JSONL result store.

Layout: line 1 is a spec header ``{"kind": "spec", "hash": ..., "spec":
{...}}``; every further line is one completed trial ``{"kind": "trial",
"id": ..., ...}`` or one quarantined failure ``{"kind":
"trial-failure", "id": ..., ...}`` (see :mod:`repro.exp.supervise`).
Appending is the only write operation, so a store is exactly as durable
as its filesystem: killing a sweep mid-run loses at most the record
being written, and re-running the same spec against the store skips
every trial whose id is already present (resume).  The file is opened in
append mode on the first write and the handle is held until
:meth:`ResultStore.close`; every write is flushed before it returns, so
a record is in the OS (and visible to any other reader) as soon as the
caller moves on.  An in-process sweep writes one record per
:meth:`ResultStore.append`; a fleet task's records arrive together,
already encoded by the worker (:func:`encode_record`), and
:meth:`ResultStore.extend` hands all of their lines to the OS in one
write, before the sweep reports any of them as progress.

A truncated final line (the usual crash artifact) is detected at open
and cut back to the last complete record, so resume works even when the
interrupt landed mid-write.  A complete (newline-terminated) line that
does not parse, parses to something other than an object, or is a
``trial`` or ``trial-failure`` record without a string id is skipped
and left on disk; it never costs the records after it.  Failure
records are additionally fsynced on append — a quarantine verdict
survives a machine crash, not just a process crash.  A header whose
hash differs from the spec being run is an error — stores never mix
experiments.

Exactly-once semantics: at most one *effective* record exists per trial
id.  A ``trial`` record always supersedes a ``trial-failure`` for the
same id (a retried quarantined trial that later succeeds), so
:meth:`ResultStore.failures` only reports ids with no successful
record.

Loading.  Opening reads the file in blocks of about a MiB
(``_BLOCK_BYTES``).  A block's complete lines are parsed and its
partial last line is read again with the next block; a partial line
left at the end of the file is the torn tail.  A line is *flat* when it
starts with ``{``, ends with ``}``, and holds no other ``{`` or ``}``
and no ``[`` or ``]`` (raw character counts, strings included).
Canonical trial lines are flat; the spec header, failure records and
records with a ``violation`` are not.  A maximal run of flat lines is
parsed with one :func:`json.loads` of ``"[" + "\n,".join(run) +
"\n]"``, and the result is accepted only if it holds one value per
line; otherwise the run is parsed line by line.  Every other line is
parsed alone and skipped if it does not parse.  The one-call parse is
exact:

* the newlines stay in the joined text, and strict JSON rejects a raw
  newline inside a string, so no string spans two lines;
* a flat line's only ``}`` is its last character, so it cannot lie
  inside a string (the string's closing quote would have to follow it
  on the same line), and it closes the object the line's ``{`` opened;
* so each array element is exactly one line, and equal to
  ``json.loads(line)``.  A line the array parse cannot take fails the
  whole parse, and the run falls back to one parse per line.

One :func:`json.loads` call shares its key strings among all the
objects it returns, so the records of a loaded store share theirs.

Which dicts are shared: the store keeps the very dicts it loads and the
very dicts passed to :meth:`ResultStore.append`,
:meth:`ResultStore.extend` and :meth:`ResultStore.append_failure`, once
each.  :meth:`ResultStore.records` and :meth:`ResultStore.failures`
return new lists of those dicts, which callers must not mutate;
:meth:`ResultStore.record` returns a copy.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping, Sequence

from repro.exp.spec import ExperimentSpec

#: The one line encoding of every store record: sorted keys, no spaces.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: Bytes read per block when a store is loaded.
_BLOCK_BYTES = 1 << 20


def encode_record(record: Mapping) -> str:
    """One store line for ``record``, without its newline.

    Equal to ``json.dumps(record, sort_keys=True, separators=(",",
    ":"))``, on one encoder reused across calls.
    """
    return _ENCODER.encode(record)


class StoreMismatch(ValueError):
    """The store on disk belongs to a different experiment spec."""


class ResultStore:
    """One experiment's trial records, persisted as JSONL.

    Opening parses the whole file (specs are sweeps, not databases;
    record counts are thousands, not billions), skips complete lines it
    cannot use, repairs a torn tail, and indexes completed trial ids for
    O(1) resume checks.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        self._spec_header: "dict | None" = None
        self._records: list[dict] = []
        #: Trial id -> its record (the last one, if a line repeats an id).
        self._by_id: dict[str, dict] = {}
        self._failures: list[dict] = []
        self._failure_ids: set[str] = set()
        #: Append-mode handle, opened by the first write and then held.
        self._handle = None
        self._load()

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        good_bytes = 0
        size = _BLOCK_BYTES
        with open(self.path, "rb") as handle:
            while block := handle.read(size):
                cut = block.rfind(b"\n") + 1
                if cut < len(block) == size:
                    # The block ends inside a line: the next block
                    # starts with that line, and is larger if the line
                    # is longer than a block.
                    handle.seek(cut - len(block), os.SEEK_CUR)
                    if not cut:
                        size *= 2
                        continue
                # A partial line at the end of the file is the torn
                # tail: it is not parsed, and cut below.
                good_bytes += cut
                text = _decode_lines(memoryview(block)[:cut])
                del block  # freed before the parse, not after it
                for record in _parse_lines(text):
                    try:
                        kind = record.get("kind")
                    except AttributeError:
                        continue  # JSON but not an object: skip it
                    if kind == "spec":
                        self._spec_header = record
                    elif kind == "trial":
                        if type(record.get("id")) is str:
                            self._index(record)
                    elif kind == "trial-failure":
                        trial_id = record.get("id")
                        if type(trial_id) is str:
                            self._failures.append(record)
                            self._failure_ids.add(trial_id)
        if good_bytes < os.path.getsize(self.path):
            with open(self.path, "r+b") as handle:
                handle.truncate(good_bytes)

    # -- Introspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, trial_id: str) -> bool:
        return trial_id in self._by_id

    def completed_ids(self) -> set:
        """Ids of every trial already recorded."""
        return set(self._by_id)

    def records(self) -> list[dict]:
        """All trial records, in append order.

        The list is new, but its dicts are the store's own: the ones it
        loaded, or the ones passed to :meth:`append` and :meth:`extend`.
        Do not mutate them; :meth:`record` returns a copy.
        """
        return list(self._records)

    def record(self, trial_id: str) -> "dict | None":
        """The stored record for one trial id, or None.

        Trial ids are content-addressed — SHA-256 over ``(spec hash,
        point, trial)`` — the key :func:`~repro.exp.runner.run_experiment`
        resumes by: any record found here is byte-identical to what
        re-executing the trial would produce.
        """
        record = self._by_id.get(trial_id)
        return dict(record) if record is not None else None

    def failures(self) -> list[dict]:
        """Quarantined ``trial-failure`` records, in append order.

        A failure whose trial id later gained a successful record (a
        retried quarantine) is superseded and not reported.
        """
        return [record for record in self._failures
                if record["id"] not in self._by_id]

    def quarantined_ids(self) -> set:
        """Ids quarantined with no successful record to supersede them."""
        return self._failure_ids.difference(self._by_id)

    def spec_hash(self) -> "str | None":
        """Content hash of the spec this store belongs to, if any."""
        return self._spec_header["hash"] if self._spec_header else None

    def spec(self) -> "ExperimentSpec | None":
        """The spec recorded in the header, if any."""
        if self._spec_header is None:
            return None
        return ExperimentSpec.from_dict(self._spec_header["spec"])

    # -- Writing ---------------------------------------------------------------

    def _write(self, text: str, *, fsync: bool = False) -> None:
        """Write ``text`` (whole lines) with one write and one flush."""
        handle = self._handle
        if handle is None:
            handle = self._handle = open(self.path, "a", encoding="utf-8")
        handle.write(text)
        # Flushed per write: the lines are in the OS before the caller
        # moves on, and a forked worker inherits no buffered bytes.
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())

    def _index(self, record: dict) -> None:
        self._records.append(record)
        self._by_id[record["id"]] = record

    def close(self) -> None:
        """Close the append handle (reopened by the next append)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def bind_spec(self, spec: ExperimentSpec) -> None:
        """Attach the store to ``spec``: write the header, or verify it.

        Raises :class:`StoreMismatch` when the store already holds results
        for a different spec.
        """
        spec_hash = spec.content_hash()
        if self._spec_header is not None:
            if self._spec_header["hash"] != spec_hash:
                raise StoreMismatch(
                    f"store {self.path!r} holds experiment "
                    f"{self._spec_header['hash'][:12]}, not {spec_hash[:12]}; "
                    "use a fresh store per spec")
            return
        header = {"kind": "spec", "hash": spec_hash, "spec": spec.to_dict()}
        self._write(encode_record(header) + "\n")
        self._spec_header = header

    def append(self, record: dict) -> None:
        """Persist one completed trial record (idempotent by id).

        The store keeps ``record`` itself, not a copy.
        """
        _check_trial(record)
        if record["id"] in self._by_id:
            return
        self._write(encode_record(record) + "\n")
        self._index(record)

    def append_failure(self, record: dict) -> None:
        """Persist one quarantine record (idempotent by id, fsynced).

        Failure records are the sweep's forensic trail: they are flushed
        through the OS cache so a host crash right after quarantine
        cannot silently lose the verdict.
        """
        if record.get("kind") != "trial-failure" or "id" not in record:
            raise ValueError(
                "failure records must have kind='trial-failure' and an id")
        if record["id"] in self._failure_ids:
            return
        self._write(encode_record(record) + "\n", fsync=True)
        self._failures.append(record)
        self._failure_ids.add(record["id"])

    def extend(self, records: Sequence[dict],
               lines: Sequence[str]) -> None:
        """Persist a batch of completed trial records with one write.

        ``lines`` are the records' :func:`encode_record` lines (a fleet
        worker encodes its task's records).  Records whose id the store,
        or an earlier record of the batch, already holds are skipped.
        All new lines reach the OS in one write and one flush, then the
        batch's records themselves are indexed.
        """
        batch: dict = {}
        for record, line in zip(records, lines, strict=True):
            _check_trial(record)
            if record["id"] not in self._by_id and record["id"] not in batch:
                batch[record["id"]] = (record, line)
        if not batch:
            return
        self._write("".join(line + "\n" for _, line in batch.values()))
        for record, _ in batch.values():
            self._index(record)


def _check_trial(record: Mapping) -> None:
    if record.get("kind") != "trial" or "id" not in record:
        raise ValueError("records must have kind='trial' and an id")


def _decode_lines(data) -> str:
    """The whole lines ``data`` holds, as text.

    A line that is not UTF-8 cannot be read and is left out; the others
    keep their order and their newlines.
    """
    try:
        return str(data, "utf-8")
    except UnicodeDecodeError:
        readable = []
        for line in bytes(data).split(b"\n")[:-1]:
            try:
                readable.append(line.decode("utf-8") + "\n")
            except UnicodeDecodeError:
                pass
        return "".join(readable)


def _parse_lines(text: str) -> list:
    """The JSON values of the lines of ``text``, in order.

    ``text`` is whole lines, each ending in a newline.  A line that does
    not parse is left out.  Runs of flat lines are parsed with one call
    (see the module docstring); a text that is one such run is
    recognised by a few counts over the whole of it.
    """
    count = text.count("\n")
    if (text.startswith("{") and text.endswith("}\n")
            and text.count("}\n{") == count - 1
            and text.count("{") == count == text.count("}")
            and "[" not in text and "]" not in text):
        # Every inner newline sits between a line's "}" and the next
        # line's "{", and those are the only braces: all lines are flat.
        values = _parse_array("[" + text.replace("}\n{", "}\n,{") + "]",
                              count)
        if values is not None:
            return values
        return _parse_each(text.split("\n")[:-1])
    values: list = []
    run: list[str] = []
    for line in text.split("\n")[:-1]:
        if (line.startswith("{") and line.endswith("}")
                and line.count("{") == 1 and line.count("}") == 1
                and "[" not in line and "]" not in line):
            run.append(line)
            continue
        if run:
            values += _parse_run(run)
            run = []
        values += _parse_each((line,))
    if run:
        values += _parse_run(run)
    return values


def _parse_run(run: list) -> list:
    """The values of a run of flat lines: one parse, else one per line."""
    values = _parse_array("[" + "\n,".join(run) + "\n]", len(run))
    return _parse_each(run) if values is None else values


def _parse_array(text: str, count: int) -> "list | None":
    """The elements of the JSON array ``text`` if there are ``count``."""
    try:
        values = json.loads(text)
    except json.JSONDecodeError:
        return None
    return values if len(values) == count else None


def _parse_each(lines) -> list:
    """The values of ``lines`` parsed one by one, skipping failures."""
    values = []
    for line in lines:
        try:
            values.append(json.loads(line))
        except json.JSONDecodeError:
            pass  # complete but unreadable: skip, keep on disk
    return values

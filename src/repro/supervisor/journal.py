"""Append-only journal: the fleet's crash-safe source of truth.

Every job transition is one JSON line appended to ``journal.jsonl`` and
fsync'd before the supervisor acts on it, so a SIGKILL at any instant
loses at most a torn final line.  Replaying the journal reconstructs
the exact pending/in-flight/done sets; nothing else records run state.

Two extensions serve the long-running measurement service:

* **batched appends** — :meth:`Journal.append_many` writes a whole
  admission batch with a *single* flush+fsync, which is what lets the
  service admit 10^4 queued specs without 10^4 fsyncs.  The durability
  contract is batch-granular: the service replies to a submit only
  after the batch fsync, so an acknowledged job is always replayable
  (an unacknowledged one may be lost — the client resubmits, and
  admission is idempotent).
* **compaction** — :meth:`Journal.compact` atomically rewrites the file
  from the materialized per-run state (full-fidelity ``add`` events)
  through :func:`repro.checkpoint.durable.atomic_replace`, keeping the
  old journal as ``.bak``; a daemon that has processed
  millions of transitions boots from a journal proportional to the
  number of *runs*, not the number of *events*.

Recovery rules (exercised by ``tests/test_supervisor_journal.py``):

* a torn (half-written) **last** line is expected crash debris and is
  dropped with a note;
* a torn line **followed by more events** means real corruption →
  :class:`JournalError`;
* a header version this code does not speak → :class:`JournalError`;
* an event naming a run that was never added → :class:`JournalError`
  (never a silent skip).

A failed append (ENOSPC, EIO) raises :class:`StorageError` and leaves
the journal *failed*: what reached the disk is unknown, and a later
fsync may report success for pages the failed one lost (PostgreSQL
"fsyncgate"), so every later append raises without touching the file.
The next boot replays what is durable.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import IO, Callable, Iterable, Optional

from repro.checkpoint.durable import atomic_replace
from repro.supervisor.records import (
    CANCELLED,
    DONE,
    FAILED,
    PENDING,
    RUNNING,
    RunRecord,
)

JOURNAL_VERSION = 1

#: Event types the replay understands.  Anything else is corruption.
EVENT_TYPES = (
    "header",
    "add",
    "requeue",
    "launch",
    "exit",
    "retry",
    "done",
    "failed",
    "cancel",
    "preempted",
    "drain",
    "complete",
    "metrics",
)


class JournalError(RuntimeError):
    """The journal cannot be trusted: wrong version, corruption mid-file,
    or events referencing runs that were never added."""


class StorageError(JournalError):
    """A journal append failed on the host (ENOSPC, EIO, ...); the
    journal refuses every later append."""


def add_event(record: RunRecord, full: bool = False) -> dict:
    """The ``add`` event (re)introducing ``record`` into a journal.

    With ``full=False`` only the spec is embedded (the shape the live
    supervisor writes for fresh submissions).  ``full=True`` embeds the
    whole :meth:`RunRecord.to_json` — what compaction writes, so a
    replay of the compacted journal reconstructs attempts, errors,
    migrations and pids, not just statuses.
    """
    event = {
        "type": "add",
        "run_id": record.run_id,
        "kind": record.kind,
        "params": record.params,
    }
    if full:
        event.update(record.to_json())
    return event


def _line(event: dict) -> str:
    return json.dumps(event, sort_keys=True) + "\n"


@dataclass
class JournalState:
    """What a replay reconstructs."""

    meta: dict = field(default_factory=dict)
    records: dict[str, RunRecord] = field(default_factory=dict)
    #: True when the final line was torn (dropped as crash debris).
    torn_tail: bool = False
    #: Number of events applied (excluding the header).
    events: int = 0
    #: Byte length of the intact prefix; pass to
    #: :meth:`Journal.open_append` so new events are written after the
    #: last good line, never after crash debris.
    valid_bytes: int = 0


class Journal:
    """Writer half: append events durably, one fsync per transition
    (or per *batch* via :meth:`append_many`)."""

    def __init__(self, path: str):
        self.path = path
        self._fh: Optional[IO[str]] = None
        #: Called with each event *after* it is durably on disk — the
        #: service's live-stream tee.  Observers must not raise.
        self.observers: list[Callable[[dict], None]] = []
        #: The append failure that poisoned this journal, if any.
        self.failure: Optional[StorageError] = None

    # -- lifecycle -----------------------------------------------------------

    def open_fresh(self, meta: Optional[dict] = None) -> None:
        """Truncate and write the version header."""
        os.makedirs(os.path.dirname(os.path.abspath(self.path)) or ".", exist_ok=True)
        self._fh = open(self.path, "w")
        self.append({"type": "header", "version": JOURNAL_VERSION, "meta": meta or {}})

    def open_append(self, truncate_to: Optional[int] = None) -> None:
        """Continue an existing journal (validate it via :func:`replay`
        first; the writer itself does not re-read).  ``truncate_to``
        (from :attr:`JournalState.valid_bytes`) chops a torn final line
        so the next append lands after the last *good* event."""
        if truncate_to is not None:
            with open(self.path, "rb+") as fh:
                fh.truncate(truncate_to)
        self._fh = open(self.path, "a")

    def close(self) -> None:
        if self._fh is not None:
            fh, self._fh = self._fh, None
            try:
                fh.close()
            except OSError:
                if self.failure is None:
                    raise

    @property
    def size_bytes(self) -> int:
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    # -- writing -------------------------------------------------------------

    def append(self, event: dict) -> None:
        """Durably append one event: write, flush, fsync.

        The fsync *before returning* is the crash-safety contract: once
        the supervisor acts on a transition, the journal already holds
        it, so replay can never see less than the supervisor did.
        """
        self.append_many((event,))

    def append_many(self, events: Iterable[dict]) -> int:
        """Durably append a batch of events with ONE flush+fsync.

        This is the amortized-admission path: the per-event cost is a
        buffered ``write``; the fsync happens once for the whole batch.
        Returns the number of events written.
        """
        if self.failure is not None:
            raise self.failure
        if self._fh is None:
            raise JournalError(f"journal {self.path} is not open")
        written = []
        try:
            for event in events:
                self._fh.write(_line(event))
                written.append(event)
            if not written:
                return 0
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except OSError as exc:
            self.failure = StorageError(f"storage: journal {self.path}: {exc}")
            raise self.failure from exc
        for observer in self.observers:
            for event in written:
                observer(event)
        return len(written)

    # -- compaction ----------------------------------------------------------

    @staticmethod
    def compact(path: str, meta: Optional[dict] = None) -> JournalState:
        """Atomically rewrite the journal from its materialized state.

        The event history is folded into one full-fidelity ``add`` per
        run (deterministic order: sorted run id).  Crash-safe sequence:

        1. replay the current journal (refuses corrupt input);
        2. hardlink it to ``<path>.bak`` (the old file stays reachable
           at *both* names);
        3. :func:`~repro.checkpoint.durable.atomic_replace` the journal
           with header + adds, at which point the ``.bak`` is the only
           copy of the old history.

        A SIGKILL anywhere leaves either the old journal at ``path``
        (steps 1–2, or 3 before its rename) or the compacted one —
        never neither, never a mix.  The ``.bak`` from the most recent
        compaction is kept for forensics.  Returns the replayed state
        the compacted journal encodes.
        """
        state = Journal.replay(path)
        header = {
            "type": "header",
            "version": JOURNAL_VERSION,
            "meta": meta if meta is not None else state.meta,
        }
        lines = [_line(header)]
        lines.extend(
            _line(add_event(state.records[rid], full=True))
            for rid in sorted(state.records)
        )
        bak = path + ".bak"
        try:
            os.unlink(bak)
        except OSError:
            pass
        os.link(path, bak)
        atomic_replace(path, "".join(lines).encode())

        compacted = JournalState(meta=state.meta, records=state.records)
        compacted.events = len(state.records)
        compacted.valid_bytes = os.path.getsize(path)
        return compacted

    # -- replay --------------------------------------------------------------

    @staticmethod
    def replay(path: str) -> JournalState:
        """Fold the journal back into per-run state.  See the module
        docstring for the torn-line/corruption rules."""
        with open(path, "rb") as fh:
            raw = fh.read()
        raw_lines = raw.split(b"\n")
        if raw_lines and raw_lines[-1] == b"":
            raw_lines.pop()  # trailing newline, not a line
        if not raw_lines:
            raise JournalError(f"journal {path} is empty (no header)")

        events: list[dict] = []
        torn_tail = False
        valid_bytes = 0
        for i, line in enumerate(raw_lines):
            if not line.strip():
                valid_bytes += len(line) + 1
                continue
            try:
                events.append(json.loads(line))
            except (json.JSONDecodeError, UnicodeDecodeError):
                if i == len(raw_lines) - 1:
                    # Crash debris: the writer died mid-append.  The
                    # fsync contract means nothing after it was acted
                    # on, so dropping it is a clean resume.
                    torn_tail = True
                    break
                raise JournalError(
                    f"journal {path} is corrupt: undecodable line {i + 1} "
                    "is not the last line"
                ) from None
            valid_bytes += len(line) + 1
        valid_bytes = min(valid_bytes, len(raw))

        if not events:
            raise JournalError(f"journal {path} has no intact header line")
        header = events[0]
        if header.get("type") != "header":
            raise JournalError(f"journal {path} does not start with a header")
        version = header.get("version")
        if version != JOURNAL_VERSION:
            raise JournalError(
                f"journal {path} has version {version}, "
                f"this supervisor speaks version {JOURNAL_VERSION}"
            )

        state = JournalState(
            meta=header.get("meta", {}),
            torn_tail=torn_tail,
            valid_bytes=valid_bytes,
        )
        for event in events[1:]:
            Journal._apply(path, state, event)
            state.events += 1
        return state

    @staticmethod
    def _apply(path: str, state: JournalState, event: dict) -> None:
        etype = event.get("type")
        if etype not in EVENT_TYPES:
            raise JournalError(
                f"journal {path} has unknown event type {etype!r}"
            )
        if etype in ("drain", "complete", "metrics", "header"):
            return

        run_id = event.get("run_id")
        if etype == "add":
            if run_id in state.records:
                raise JournalError(
                    f"journal {path} adds run {run_id!r} twice"
                )
            state.records[run_id] = RunRecord.from_json(event)
            return

        record = state.records.get(run_id)
        if record is None:
            raise JournalError(
                f"journal {path} references unknown run {run_id!r} "
                f"in a {etype!r} event (never added)"
            )

        if etype == "requeue":
            record.status = PENDING
            record.attempts = int(event.get("attempts", 0))
            record.last_pid = None
        elif etype == "launch":
            record.status = RUNNING
            record.attempts = int(event["attempt"])
            record.last_slot = event.get("slot")
            record.last_pid = event.get("pid")
            record.checkpoint_path = event.get("resume_from")
        elif etype == "exit":
            record.last_error = event.get("error")
            record.stuck = (event.get("error") or {}).get("stuck", [])
            record.last_pid = None
            if event.get("checkpoint_path"):
                record.checkpoint_path = event["checkpoint_path"]
        elif etype == "retry":
            record.status = PENDING
            if event.get("migrated"):
                record.migrations += 1
        elif etype == "preempted":
            record.status = PENDING
            record.last_pid = None
            if "attempt" in event:
                # Preemption refunds the attempt (the pool decrements);
                # replay must agree or a resumed run would over-count.
                record.attempts = int(event["attempt"]) - 1
            if event.get("checkpoint_path"):
                record.checkpoint_path = event["checkpoint_path"]
        elif etype == "done":
            record.status = DONE
            record.result_path = event.get("result_path")
            record.cached = bool(event.get("cached", False))
            record.last_error = None
            record.last_pid = None
        elif etype == "cancel":
            record.status = CANCELLED
            record.last_pid = None
        elif etype == "failed":
            record.status = FAILED
            record.last_pid = None
            if event.get("error"):
                record.last_error = event["error"]

"""Durable admission: idempotent, bounded, batch-journaled.

Every job enters the service through :class:`AdmissionQueue.admit`,
which gives the measurement service its three admission guarantees:

* **idempotent by spec digest** — the canonical digest of ``(kind,
  params)`` (see :func:`repro.supervisor.cache.spec_digest`) indexes
  every known run.  Resubmitting a spec that is already done,
  in flight, or queued returns the *existing* job id with zero new
  work; resubmitting a failed or cancelled spec requeues it with a
  fresh attempt budget.  A client that never saw its submit ack (the
  daemon was SIGKILLed mid-reply) can therefore always just resubmit.
* **bounded with explicit backpressure** — ``max_pending`` caps the
  not-yet-running backlog; specs over the cap are *rejected with a
  reason*, never silently dropped and never queued into unbounded
  memory.  The caller (service protocol / CLI) relays the rejection to
  the submitter, who retries later (:class:`~repro.supervisor.client.
  RetryPolicy`).
* **amortized durability** — one admission batch appends all of its
  journal events through a single :meth:`~repro.supervisor.journal.
  Journal.append_many` (one fsync per *batch*, not per job), which is
  what makes 10^4-spec batched admission sustainable.  The fsync lands
  before the batch is enqueued or acknowledged, so an acked job is
  always recoverable by replay.

A cache hit at admission is journaled ``add`` + ``done`` in the same
batch and never reaches the worker pool — zero launches, exactly like
the PR 7 resubmission path, but now batched.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.checkpoint.durable import atomic_write_json
from repro.supervisor.cache import ResultCache, spec_digest
from repro.supervisor.journal import Journal, add_event
from repro.supervisor.records import (
    CANCELLED,
    DONE,
    FAILED,
    PENDING,
    RunRecord,
)
from repro.trace.tracer import MetricsRegistry

#: Admission dispositions (the ``disposition`` field of every reply).
ADMITTED = "admitted"        #: new job, queued for execution
CACHED = "cached"            #: new job, served from the result cache
DUPLICATE = "duplicate"      #: spec already known (done / running / queued)
REQUEUED = "requeued"        #: failed/cancelled spec resubmitted, fresh budget
REJECTED = "rejected"        #: backpressure or id conflict — NOT admitted


def cached_done(out_dir: str, record: RunRecord, hit: dict) -> dict:
    """Serve ``record`` from the result-cache payload ``hit``: write its
    ``result.json``, mark it done, and return the ``done`` event the
    caller must journal."""
    run_dir = os.path.join(out_dir, record.run_id)
    os.makedirs(run_dir, exist_ok=True)
    result_path = os.path.join(run_dir, "result.json")
    atomic_write_json(result_path, hit)
    record.status = DONE
    record.result_path = result_path
    record.cached = True
    record.last_error = None
    return {
        "type": "done",
        "run_id": record.run_id,
        "attempt": record.attempts,
        "result_path": result_path,
        "cached": True,
    }


@dataclass
class RunSpec:
    """One run the caller wants executed.

    ``run_id`` may be empty: admission derives a stable id from the
    spec digest (``<kind>-<digest12>``), so anonymous submissions of
    the same spec always converge on the same job.
    """

    run_id: str
    kind: str
    params: dict = field(default_factory=dict)

    @classmethod
    def from_json(cls, data: dict) -> "RunSpec":
        return cls(
            run_id=data.get("run_id") or "",
            kind=data["kind"],
            params=data.get("params", {}),
        )

    def to_json(self) -> dict:
        return {"run_id": self.run_id, "kind": self.kind, "params": self.params}


@dataclass
class Admission:
    """The per-spec admission verdict returned to the submitter."""

    run_id: str
    disposition: str
    status: str
    reason: Optional[str] = None

    def to_json(self) -> dict:
        out = {
            "run_id": self.run_id,
            "disposition": self.disposition,
            "status": self.status,
        }
        if self.reason:
            out["reason"] = self.reason
        return out


class AdmissionQueue:
    """The service's admission control; see the module docstring.

    Owns the digest index over ``records`` (the shared materialized
    run-state dict) and the journal-write half of admission.  It does
    *not* own scheduling: admitted records are handed back for the pool
    to enqueue.
    """

    def __init__(
        self,
        out_dir: str,
        journal: Journal,
        records: dict[str, RunRecord],
        metrics: MetricsRegistry,
        log: Callable[[str], None],
        max_pending: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        backlog: Optional[Callable[[], int]] = None,
    ):
        self.out_dir = out_dir
        self.journal = journal
        self.records = records
        self.metrics = metrics
        self.log = log
        self.max_pending = max_pending
        self.cache = cache
        #: Live not-yet-running backlog (the pool's ready-queue depth);
        #: admission adds its own in-batch count on top.
        self.backlog = backlog or (lambda: 0)
        self._by_digest: dict[str, str] = {}
        for record in records.values():
            self._by_digest[spec_digest(record.kind, record.params)] = (
                record.run_id
            )

    # -- index maintenance ---------------------------------------------------

    def index(self, record: RunRecord) -> None:
        """Register an externally-recovered record (journal replay)."""
        self._by_digest[spec_digest(record.kind, record.params)] = record.run_id

    # -- admission -----------------------------------------------------------

    def admit(self, specs: list[RunSpec]) -> tuple[list[Admission], list[RunRecord]]:
        """Admit a batch; returns (verdicts, records to enqueue).

        All journal events for the batch are appended with one fsync
        *before* returning, so everything acked here is durable.  The
        returned enqueue list holds newly-admitted and requeued records
        the caller must hand to the pool (after this method returns —
        journal-before-act).
        """
        verdicts: list[Admission] = []
        to_enqueue: list[RunRecord] = []
        events: list[dict] = []
        headroom = None
        if self.max_pending is not None:
            headroom = max(0, self.max_pending - self.backlog())

        for spec in specs:
            digest = spec_digest(spec.kind, spec.params)
            run_id = spec.run_id or f"{spec.kind}-{digest[:12]}"

            existing = self.records.get(run_id)
            if existing is not None:
                if spec_digest(existing.kind, existing.params) != digest:
                    verdicts.append(
                        Admission(
                            run_id,
                            REJECTED,
                            existing.status,
                            reason=(
                                f"run id {run_id!r} already names a "
                                "different spec"
                            ),
                        )
                    )
                    self.metrics.counter("fleet.admission_rejected", key="conflict")
                    continue
            elif digest in self._by_digest:
                # Same spec under another id: idempotency wins, the
                # submitter gets the id that already owns the work.
                run_id = self._by_digest[digest]
                existing = self.records[run_id]

            if existing is not None:
                if existing.status in (FAILED, CANCELLED):
                    existing.status = PENDING
                    existing.attempts = 0
                    existing.last_error = None
                    events.append(
                        {"type": "requeue", "run_id": run_id, "attempts": 0}
                    )
                    to_enqueue.append(existing)
                    verdicts.append(Admission(run_id, REQUEUED, PENDING))
                    self.metrics.counter("fleet.admission_requeue")
                else:
                    # done / running / pending: nothing to do, job id
                    # answers polls. Zero launches, zero journal bytes.
                    verdicts.append(
                        Admission(run_id, DUPLICATE, existing.status)
                    )
                    self.metrics.counter("fleet.admission_dedup")
                continue

            if headroom is not None and headroom <= 0:
                verdicts.append(
                    Admission(
                        run_id,
                        REJECTED,
                        "rejected",
                        reason=(
                            f"queue full ({self.max_pending} pending); "
                            "retry after the backlog drains"
                        ),
                    )
                )
                self.metrics.counter("fleet.admission_rejected", key="full")
                continue

            record = RunRecord(run_id=run_id, kind=spec.kind, params=spec.params)
            self.records[run_id] = record
            self._by_digest[digest] = run_id
            events.append(add_event(record))

            hit = self.cache.get(spec.kind, spec.params) if self.cache else None
            if hit is not None:
                events.append(cached_done(self.out_dir, record, hit))
                verdicts.append(Admission(run_id, CACHED, DONE))
                self.metrics.counter("fleet.cache_hit")
            else:
                if headroom is not None:
                    headroom -= 1
                to_enqueue.append(record)
                verdicts.append(Admission(run_id, ADMITTED, PENDING))
            self.metrics.counter("fleet.admission_total")

        # ONE fsync for the whole batch — the amortized-durability point.
        self.journal.append_many(events)
        self.metrics.counter("fleet.admission_batch")
        self.metrics.observe("fleet.admission_batch_size", value=float(len(specs)))
        return verdicts, to_enqueue

"""The long-running measurement daemon and its shared service core.

Two layers:

:class:`ServiceCore`
    The socket-free heart of the measurement service: journal +
    :class:`~repro.supervisor.queue.AdmissionQueue` + step-driven
    :class:`~repro.supervisor.pool.WorkerPool` + result cache +
    metrics.  *Both* entry points are thin clients of this core — the
    one-shot ``Supervisor.run()`` opens it, admits one batch and steps
    until idle; the daemon keeps it open and interleaves admission,
    stepping and queries indefinitely.

:class:`MeasurementService`
    The daemon: a single-threaded ``selectors`` loop serving a JSON-
    lines protocol over a local unix socket.  Ops: ``submit`` (single
    or batched, idempotent), ``poll``, ``stream`` (follow a job's
    journal events live), ``cancel``, ``drain``, ``status``,
    ``shutdown``, ``ping``.

Crash safety is admission-deep: every transition is journaled before
the core acts on it, admission batches are fsync'd before they are
acknowledged or enqueued, and boot replays the journal to rebuild the
queue and in-flight set — then **reaps orphaned worker process
groups** (journal ``launch`` events carry pids; a RUNNING record after
replay names a worker a dead daemon left behind) before requeuing
their runs.  SIGKILLing the daemon at any instant therefore loses
nothing and double-runs nothing: acked jobs replay, unacked jobs are
resubmitted idempotently.

Boot also compacts an oversized journal (``compact_threshold_bytes``)
so a long-lived daemon's recovery time is proportional to the number
of runs, not the lifetime event count.

Wire protocol (one JSON object per line, UTF-8):

========  ======================================  ===========================
op        request fields                          reply
========  ======================================  ===========================
ping      —                                       ``{ok, pid, out_dir}``
submit    ``specs=[{run_id?,kind,params}]``       ``{ok, results=[{run_id,
                                                  disposition, status,
                                                  reason?}]}``
poll      ``run_ids=[...]`` (empty → all)         ``{ok, jobs=[...]}``
stream    ``run_id``                              event lines ``{ok,event}``,
                                                  then ``{ok, eof, status}``
cancel    ``run_id``                              ``{ok, disposition}``
drain     —                                       ``{ok}`` (drain proceeds)
status    —                                       ``{ok, status={...}}``
shutdown  —                                       ``{ok}`` then drain + exit
========  ======================================  ===========================

Errors are ``{ok: false, error: "..."}``; a rejected spec inside an
otherwise-successful submit is *not* an error — it is a per-spec
disposition, so one bad spec cannot mask the admission of the rest.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import time
from typing import Callable, Optional

from repro.supervisor.cache import ResultCache
from repro.supervisor.journal import Journal, add_event
from repro.supervisor.manifest import (
    CANCELLED,
    DONE,
    FAILED,
    PENDING,
    RUNNING,
    TERMINAL,
    Manifest,
    RunRecord,
    atomic_write_json,
)
from repro.supervisor.pool import WorkerPool, default_worker_count
from repro.supervisor.queue import AdmissionQueue, RunSpec
from repro.trace.tracer import MetricsRegistry

#: Test-only chaos hook: when this env var is set, the core SIGKILLs
#: itself right after an admission batch is journaled but before it is
#: enqueued or acknowledged — the worst-timed mid-admission crash.
KILL_AFTER_ADMIT_ENV = "REPRO_SERVICE_KILL_AFTER_ADMIT"

SOCKET_FILENAME = "service.sock"


def socket_path_for(out_dir: str) -> str:
    return os.path.join(out_dir, SOCKET_FILENAME)


class ServiceCore:
    """Socket-free service core; see the module docstring."""

    def __init__(
        self,
        out_dir: str,
        *,
        max_attempts: int = 3,
        backoff_s: float = 0.5,
        wall_timeout_s: Optional[float] = 300.0,
        checkpoint_every_s: float = 0.1,
        log: Callable[[str], None] = print,
        workers: Optional[int] = None,
        stuck_after_s: float = 30.0,
        poll_interval_s: float = 0.02,
        jitter_seed: Optional[int] = None,
        cache_dir: Optional[str] = None,
        cache_max_entries: Optional[int] = None,
        cache_max_bytes: Optional[int] = None,
        max_pending: Optional[int] = None,
        compact_threshold_bytes: Optional[int] = 8 * 1024 * 1024,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.out_dir = out_dir
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self.wall_timeout_s = wall_timeout_s
        self.checkpoint_every_s = checkpoint_every_s
        self.log = log
        self.workers = workers if workers is not None else default_worker_count()
        self.stuck_after_s = stuck_after_s
        self.poll_interval_s = poll_interval_s
        self.jitter_seed = jitter_seed
        self.cache_dir = cache_dir
        self.cache_max_entries = cache_max_entries
        self.cache_max_bytes = cache_max_bytes
        self.max_pending = max_pending
        self.compact_threshold_bytes = compact_threshold_bytes
        self.clock = clock
        self.sleep = sleep
        self.manifest_path = os.path.join(out_dir, "manifest.json")
        self.journal_path = os.path.join(out_dir, "journal.jsonl")
        self.metrics_path = os.path.join(out_dir, "metrics.json")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.journal = Journal(self.journal_path)
        self.records: dict[str, RunRecord] = {}
        self.pool: Optional[WorkerPool] = None
        self.admission: Optional[AdmissionQueue] = None
        self.cache: Optional[ResultCache] = None
        self._opened = False
        self._closed = False
        #: Orphan worker pids reaped during the last :meth:`open`.
        self.orphans_reaped = 0

    # -- lifecycle -----------------------------------------------------------

    def _meta(self) -> dict:
        return {
            "out_dir": self.out_dir,
            "max_attempts": self.max_attempts,
            "checkpoint_every_s": self.checkpoint_every_s,
            "workers": self.workers,
        }

    def open(self, resume: bool = False, requeue_failed: Optional[bool] = None) -> None:
        """Recover durable state and stand the pool up.

        ``resume=True`` replays an existing journal (compacting first
        past the size threshold), reaps orphaned worker groups, and
        re-enqueues every non-terminal run.  ``requeue_failed``
        (default: same as ``resume``) additionally gives failed runs a
        fresh attempt budget, matching ``sweep.py --resume``.
        """
        if self._opened:
            raise RuntimeError("ServiceCore.open() called twice")
        self._opened = True
        if requeue_failed is None:
            requeue_failed = resume
        os.makedirs(self.out_dir, exist_ok=True)

        if (
            resume
            and self.compact_threshold_bytes is not None
            and os.path.exists(self.journal_path)
            and os.path.getsize(self.journal_path) > self.compact_threshold_bytes
        ):
            before = os.path.getsize(self.journal_path)
            state = Journal.compact(self.journal_path, meta=self._meta())
            self.metrics.counter("fleet.journal_compact")
            self.log(
                f"[service] compacted journal {before} -> "
                f"{state.valid_bytes} bytes ({len(state.records)} run(s))"
            )

        self.records = self._recover(resume)

        self.cache = (
            ResultCache(
                self.cache_dir,
                max_entries=self.cache_max_entries,
                max_bytes=self.cache_max_bytes,
                on_evict=lambda n: self.metrics.counter(
                    "fleet.cache_evict", inc=float(n)
                ),
            )
            if self.cache_dir
            else None
        )
        self.pool = WorkerPool(
            self.out_dir,
            self.journal,
            workers=self.workers,
            max_attempts=self.max_attempts,
            backoff_s=self.backoff_s,
            jitter_seed=self.jitter_seed,
            wall_timeout_s=self.wall_timeout_s,
            stuck_after_s=self.stuck_after_s,
            checkpoint_every_s=self.checkpoint_every_s,
            poll_interval_s=self.poll_interval_s,
            clock=self.clock,
            sleep=self.sleep,
            log=self.log,
            metrics=self.metrics,
            on_done=self._store_in_cache,
        )
        self.admission = AdmissionQueue(
            self.out_dir,
            self.journal,
            self.records,
            self.metrics,
            self.log,
            max_pending=self.max_pending,
            cache=self.cache,
            backlog=lambda: self.pool.queue_depth,
        )

        self.orphans_reaped = self._reap_orphans()

        done = sum(1 for r in self.records.values() if r.status == DONE)
        if resume and done:
            self.log(f"[supervisor] resume: {done} run(s) already done, skipped")
        if requeue_failed:
            requeues = []
            for record in self.records.values():
                if record.status == FAILED:
                    record.status = PENDING
                    record.attempts = 0
                    record.last_error = None
                    requeues.append(
                        {"type": "requeue", "run_id": record.run_id, "attempts": 0}
                    )
            self.journal.append_many(requeues)

        recovered = [
            rec for rec in self.records.values() if rec.status not in TERMINAL
        ]
        self._dispatch(recovered)

        # Materialize the view once recovery settled.
        self.manifest = Manifest(self.manifest_path, meta=self._meta())
        self.manifest.runs = self.records
        self.manifest.save()

    def _recover(self, resume: bool) -> dict[str, RunRecord]:
        """Journal replay / legacy-manifest import / fresh start.
        Leaves the journal open for appending."""
        if (
            resume
            and os.path.exists(self.journal_path)
            and os.path.getsize(self.journal_path) == 0
        ):
            # Killed between creating the journal and fsyncing its
            # header: nothing was ever durably recorded, so a fresh
            # start is the correct (and only possible) resume.
            self.log(
                f"[supervisor] journal {self.journal_path} is empty "
                "(crash before the header was written); starting fresh"
            )
            self.journal.open_fresh(meta=self._meta())
            return {}
        if resume and os.path.exists(self.journal_path):
            state = Journal.replay(self.journal_path)
            if state.torn_tail:
                self.log(
                    "[supervisor] journal ended in a torn line "
                    "(crash debris); dropped it and resuming"
                )
            self.journal.open_append(
                truncate_to=state.valid_bytes if state.torn_tail else None
            )
            return state.records
        if resume and os.path.exists(self.manifest_path):
            # A pre-journal sweep directory: import the manifest into a
            # fresh journal and carry on under the new regime.
            manifest = Manifest.load(self.manifest_path)
            records = manifest.runs
            self.journal.open_fresh(meta=self._meta())
            self.journal.append_many(
                add_event(record, full=True) for record in records.values()
            )
            self.log(
                f"[supervisor] imported legacy manifest "
                f"({len(records)} run(s)) into {self.journal_path}"
            )
            return records
        if resume:
            self.log(
                f"[supervisor] no journal at {self.journal_path}; "
                "starting fresh"
            )
        self.journal.open_fresh(meta=self._meta())
        return {}

    def _reap_orphans(self) -> int:
        """SIGKILL worker process groups a dead daemon left running.

        After replay, a RUNNING record's ``last_pid`` names a worker
        that may still be alive (workers lead their own sessions, so
        they survive their supervisor).  Until it is dead it holds the
        run directory — heartbeats, checkpoints — so it must be gone
        before the run is relaunched."""
        reaped = 0
        for record in self.records.values():
            if record.status != RUNNING or not record.last_pid:
                continue
            for kill in (os.killpg, os.kill):
                try:
                    kill(record.last_pid, signal.SIGKILL)
                    reaped += 1
                    break
                except (ProcessLookupError, PermissionError, OSError):
                    continue
        if reaped:
            self.metrics.counter("fleet.orphan_reaped", inc=float(reaped))
            self.log(f"[service] reaped {reaped} orphaned worker group(s)")
        return reaped

    def _dispatch(self, records: list[RunRecord]) -> None:
        """Recovered (non-terminal) records re-enter execution: cache
        hits are served, spent attempt budgets fail, the rest queue."""
        launchable = []
        for record in records:
            if self.cache is not None and self._serve_from_cache(record):
                continue
            if record.attempts >= self.max_attempts:
                # Recovered mid-flight on its last attempt: the budget
                # is spent (matching the pre-pool retry accounting).
                record.status = FAILED
                self.journal.append(
                    {
                        "type": "failed",
                        "run_id": record.run_id,
                        "attempt": record.attempts,
                        "error": record.last_error,
                    }
                )
                self.log(
                    f"[supervisor] {record.run_id}: attempt budget already "
                    f"spent ({record.attempts}/{self.max_attempts})"
                )
                continue
            record.status = PENDING
            launchable.append(record)
        self.pool.enqueue(launchable)

    # -- cache ---------------------------------------------------------------

    def _serve_from_cache(self, record: RunRecord) -> bool:
        hit = self.cache.get(record.kind, record.params)
        if hit is None:
            return False
        run_dir = os.path.join(self.out_dir, record.run_id)
        os.makedirs(run_dir, exist_ok=True)
        result_path = os.path.join(run_dir, "result.json")
        atomic_write_json(result_path, hit)
        record.status = DONE
        record.result_path = result_path
        record.cached = True
        record.last_error = None
        self.journal.append(
            {
                "type": "done",
                "run_id": record.run_id,
                "attempt": record.attempts,
                "result_path": result_path,
                "cached": True,
            }
        )
        self.metrics.counter("fleet.cache_hit")
        self.log(f"[supervisor] {record.run_id}: served from result cache")
        return True

    def _store_in_cache(self, record: RunRecord) -> None:
        if self.cache is None:
            return
        try:
            with open(record.result_path) as fh:  # type: ignore[arg-type]
                result = json.load(fh)
        except (OSError, TypeError, ValueError):
            return
        self.cache.put(record.kind, record.params, result)

    # -- the job API ---------------------------------------------------------

    def submit(self, specs: list[RunSpec]) -> list[dict]:
        """Admit a batch; returns one disposition dict per spec.

        Durability before acknowledgement: the admission batch is
        journaled (one fsync) before records reach the pool and before
        this method returns."""
        verdicts, to_enqueue = self.admission.admit(specs)
        if os.environ.get(KILL_AFTER_ADMIT_ENV):
            # Chaos hook (tests only): die at the worst instant — batch
            # durable, nothing enqueued, nothing acknowledged.
            os.kill(os.getpid(), signal.SIGKILL)
        self.pool.enqueue(to_enqueue)
        return [v.to_json() for v in verdicts]

    def job_status(self, run_ids: Optional[list[str]] = None) -> list[dict]:
        ids = run_ids if run_ids else sorted(self.records)
        out = []
        for rid in ids:
            record = self.records.get(rid)
            if record is None:
                out.append({"run_id": rid, "status": "unknown"})
                continue
            out.append(
                {
                    "run_id": rid,
                    "status": record.status,
                    "attempts": record.attempts,
                    "cached": record.cached,
                    "migrations": record.migrations,
                    "result_path": record.result_path,
                    "error": record.last_error,
                }
            )
        return out

    def cancel(self, run_id: str) -> dict:
        record = self.records.get(run_id)
        if record is None:
            return {"run_id": run_id, "disposition": "unknown"}
        if record.status in (DONE, CANCELLED, FAILED):
            return {
                "run_id": run_id,
                "disposition": "no-op",
                "status": record.status,
            }
        # Journal-before-act: the cancel is durable before the worker
        # dies, so a crash mid-cancel can only over-deliver the kill.
        self.journal.append({"type": "cancel", "run_id": run_id})
        where = self.pool.cancel(run_id)
        record.status = CANCELLED
        record.last_pid = None
        return {
            "run_id": run_id,
            "disposition": f"cancelled-{where or 'pending'}",
            "status": CANCELLED,
        }

    def request_drain(self) -> None:
        if self.pool is not None:
            self.pool.request_drain()

    @property
    def drained(self) -> bool:
        return self.pool is not None and self.pool.draining

    @property
    def busy(self) -> bool:
        return self.pool is not None and self.pool.busy

    def step(self) -> bool:
        """One pool scheduling round; returns whether work remains."""
        return self.pool.step()

    def run_until_idle(self) -> None:
        while self.step():
            self.sleep(self.poll_interval_s)

    def status(self) -> dict:
        counts: dict[str, int] = {}
        for record in self.records.values():
            counts[record.status] = counts.get(record.status, 0) + 1
        return {
            "out_dir": self.out_dir,
            "runs": len(self.records),
            "counts": counts,
            "queue_depth": self.pool.queue_depth if self.pool else 0,
            "in_flight": self.pool.in_flight if self.pool else {},
            "draining": self.drained,
            "workers": self.workers,
            "max_pending": self.max_pending,
        }

    # -- shutdown ------------------------------------------------------------

    def close(self) -> Manifest:
        """Reap the pool's zygote, seal the journal (metrics +
        drain/complete), materialize the manifest view and metrics
        snapshot.  Idempotent."""
        if self._closed:
            return self.manifest
        self._closed = True
        if self.pool is not None:
            self.pool.close()
        snapshot = self.metrics.as_dict()
        summary = self.manifest.summary()
        self.journal.append({"type": "metrics", "metrics": snapshot})
        self.journal.append(
            {"type": "drain" if self.drained else "complete", "summary": summary}
        )
        self.journal.close()
        self.manifest.save()
        atomic_write_json(self.metrics_path, snapshot)
        return self.manifest


class _Client:
    """One accepted daemon connection (request/response or stream)."""

    def __init__(self, conn: socket.socket):
        self.conn = conn
        self.buffer = b""
        #: Run id this connection streams, or None for request/response.
        self.stream_run_id: Optional[str] = None


class MeasurementService:
    """The unix-socket daemon around a :class:`ServiceCore`."""

    def __init__(
        self,
        core: ServiceCore,
        socket_path: Optional[str] = None,
        log: Callable[[str], None] = print,
        idle_interval_s: float = 0.2,
    ):
        self.core = core
        self.socket_path = socket_path or socket_path_for(core.out_dir)
        self.log = log
        self.idle_interval_s = idle_interval_s
        self._shutdown = False
        self._listener: Optional[socket.socket] = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._streams: list[tuple[_Client, str]] = []

    # -- socket plumbing -----------------------------------------------------

    def _bind(self) -> None:
        path = self.socket_path
        if os.path.exists(path):
            # A stale socket from a SIGKILLed daemon refuses connects;
            # a live daemon accepts them.  Never bulldoze a live one.
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.settimeout(0.5)
                probe.connect(path)
            except OSError:
                os.unlink(path)
            else:
                raise RuntimeError(
                    f"another service is already listening on {path}"
                )
            finally:
                probe.close()
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(path)
        self._listener.listen(64)
        self._listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, None)

    def _on_journal_event(self, event: dict) -> None:
        """Journal observer: fan events out to matching streams."""
        rid = event.get("run_id")
        if rid is None:
            return
        for client, run_id in list(self._streams):
            if run_id != rid:
                continue
            if not self._send(client, {"ok": True, "event": event}):
                continue
            if event.get("type") in ("done", "failed", "cancel"):
                self._end_stream(client, event["type"])

    def _send(self, client: _Client, payload: dict) -> bool:
        """Best-effort send; drops the client on failure.  Returns
        False when the client is gone."""
        try:
            client.conn.sendall((json.dumps(payload) + "\n").encode())
            return True
        except OSError:
            self._drop(client)
            return False

    def _drop(self, client: _Client) -> None:
        self._streams = [(c, r) for c, r in self._streams if c is not client]
        try:
            self._selector.unregister(client.conn)
        except (KeyError, ValueError):
            pass
        try:
            client.conn.close()
        except OSError:
            pass

    def _end_stream(self, client: _Client, final: str) -> None:
        self._send(client, {"ok": True, "eof": True, "final": final})
        self._drop(client)

    # -- request dispatch ----------------------------------------------------

    def _reply(self, client: _Client, request: dict, payload: dict) -> bool:
        """Direct reply to one request, echoing its correlation fields.

        Every reply — error replies *especially* — carries the request's
        ``op`` and ``id`` back, so a client can match the refusal to
        what it sent instead of guessing from connection framing."""
        out: dict = {"op": request.get("op"), "id": request.get("id")}
        out.update(payload)
        return self._send(client, out)

    def _handle_request(self, client: _Client, request: dict) -> None:
        op = request.get("op")
        core = self.core
        if op == "ping":
            self._reply(
                client,
                request,
                {"ok": True, "pid": os.getpid(), "out_dir": core.out_dir},
            )
        elif op == "submit":
            if core.drained:
                self._reply(
                    client,
                    request,
                    {"ok": False, "error": "draining: not admitting new runs"},
                )
                return
            try:
                specs = [
                    RunSpec.from_json(s) for s in request.get("specs", [])
                ]
            except (KeyError, TypeError, AttributeError) as exc:
                self._reply(
                    client,
                    request,
                    {"ok": False, "error": f"malformed spec: {exc}"},
                )
                return
            results = core.submit(specs)
            self._reply(client, request, {"ok": True, "results": results})
        elif op == "poll":
            self._reply(
                client,
                request,
                {"ok": True, "jobs": core.job_status(request.get("run_ids"))},
            )
        elif op == "status":
            self._reply(client, request, {"ok": True, "status": core.status()})
        elif op == "cancel":
            rid = request.get("run_id")
            if not rid:
                self._reply(
                    client,
                    request,
                    {"ok": False, "error": "cancel needs run_id"},
                )
                return
            self._reply(client, request, {"ok": True, **core.cancel(rid)})
        elif op == "stream":
            rid = request.get("run_id")
            record = core.records.get(rid)
            if record is None:
                self._reply(
                    client,
                    request,
                    {"ok": False, "error": f"unknown run {rid!r}"},
                )
                return
            # Backlog first (tolerant tail read), then live events.
            for event in self._journal_backlog(rid):
                if not self._send(client, {"ok": True, "event": event}):
                    return
            if record.status in TERMINAL or record.status == FAILED:
                self._end_stream(client, record.status)
            else:
                client.stream_run_id = rid
                self._streams.append((client, rid))
        elif op == "drain":
            core.request_drain()
            self._reply(client, request, {"ok": True, "draining": True})
        elif op == "shutdown":
            self._shutdown = True
            core.request_drain()
            self._reply(client, request, {"ok": True, "shutting_down": True})
        else:
            self._reply(
                client, request, {"ok": False, "error": f"unknown op {op!r}"}
            )

    def _journal_backlog(self, run_id: str) -> list[dict]:
        events = []
        try:
            with open(self.core.journal_path, "rb") as fh:
                for line in fh.read().split(b"\n"):
                    if not line.strip():
                        continue
                    try:
                        event = json.loads(line)
                    except (json.JSONDecodeError, UnicodeDecodeError):
                        break  # torn tail: we are mid-append
                    if event.get("run_id") == run_id:
                        events.append(event)
        except OSError:
            pass
        return events

    def _service_client(self, client: _Client) -> None:
        try:
            chunk = client.conn.recv(1 << 20)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._drop(client)
            return
        if not chunk:
            self._drop(client)
            return
        client.buffer += chunk
        while b"\n" in client.buffer:
            line, client.buffer = client.buffer.split(b"\n", 1)
            if not line.strip():
                continue
            try:
                request = json.loads(line)
            except (json.JSONDecodeError, UnicodeDecodeError):
                # The request never parsed, so there is no id to echo —
                # _reply sends explicit null correlation fields, which
                # clients treat as "uncorrelatable" rather than a
                # mismatch.
                self._reply(
                    client, {}, {"ok": False, "error": "malformed JSON line"}
                )
                continue
            self._handle_request(client, request)

    # -- the daemon loop -----------------------------------------------------

    def serve(self, handle_signals: bool = True) -> None:
        """Run until ``shutdown`` (op or SIGTERM) drains the fleet.

        The core must already be :meth:`ServiceCore.open`\\ ed.  One
        thread, one loop: socket readiness and pool stepping are
        interleaved, so a submit can land while workers run and a
        stream sees events the instant they are journaled."""
        self._bind()
        self.core.journal.observers.append(self._on_journal_event)
        if handle_signals:
            signal.signal(signal.SIGTERM, self._on_sigterm)
            signal.signal(signal.SIGINT, self._on_sigterm)
        self.log(
            f"[service] listening on {self.socket_path} "
            f"(pid {os.getpid()}, {self.core.workers} worker slot(s))"
        )
        try:
            while not (self._shutdown and not self.core.busy):
                timeout = (
                    self.core.poll_interval_s
                    if self.core.busy
                    else self.idle_interval_s
                )
                for key, _ in self._selector.select(timeout):
                    if key.data is None:
                        self._accept()
                    else:
                        self._service_client(key.data)
                self.core.step()
        finally:
            self._teardown()

    def _accept(self) -> None:
        try:
            conn, _ = self._listener.accept()
        except OSError:
            return
        conn.setblocking(True)
        conn.settimeout(10.0)
        client = _Client(conn)
        self._selector.register(conn, selectors.EVENT_READ, client)

    def _on_sigterm(self, signum, frame) -> None:
        # Runs between two arbitrary bytecodes of the serve loop: only
        # flag-sets and one os.write are allowed here.  request_drain is
        # (deliberately) a flag-set all the way down; the human-readable
        # drain announcement comes from the next pool.step().
        self._shutdown = True
        self.core.request_drain()
        os.write(2, b"[service] SIGTERM: draining and shutting down\n")

    def _teardown(self) -> None:
        for key in list(self._selector.get_map().values()):
            if isinstance(key.data, _Client):
                self._drop(key.data)
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        self._listener.close()
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
        self._selector.close()
        try:
            self.core.journal.observers.remove(self._on_journal_event)
        except ValueError:
            pass
        self.log("[service] stopped")

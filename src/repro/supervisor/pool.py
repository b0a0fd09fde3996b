"""The concurrent worker pool: N forked workers, liveness, migration.

This is the fleet engine under :class:`~repro.supervisor.service.
ServiceCore`.  It admits pending runs into up to ``workers`` slots.  Each
attempt runs in a process of its own, forked from the pool's **zygote**,
and that process leads its **own session** (so a kill always takes the
whole process group — no zombie children surviving a timeout).  The
poll loop then watches every in-flight job three ways:

* ``poll()`` — **dead** workers are reaped and classified by exit code
  exactly as the single-worker supervisor did;
* heartbeats — a worker whose **simulated** time stops advancing for
  ``stuck_after_s`` of wall time is **stuck**: killed (whole group) and
  *migrated* — requeued on a different slot, resuming from its last
  checkpoint with its attempt/backoff state carried over;
* the wall deadline — a worker that is progressing but past
  ``wall_timeout_s`` is **slow**: killed and retried from checkpoint.

The zygote is one ``os.fork()`` of the pool's process, made when the
pool is created: it already holds repro and numpy, so a job pays for a
fork instead of an interpreter start.  It keeps only its two pipes
(stdio goes to ``/dev/null``), freezes the GC, rewinds the registered
global counters, blocks SIGTERM/SIGINT (they are for the daemon, whose
drain still needs the zygote), stays in the daemon's process group and
exits on EOF of its request pipe.  Each worker calls ``setsid()``, sends
fd 2 to the run's ``stderr.log``, runs
:func:`repro.supervisor.worker.run_spec_file` (the body of the ``python
-m repro.supervisor.worker`` CLI) and leaves through ``os._exit``.  The
zygote reaps its workers and relays their exit codes as
``os.waitstatus_to_exitcode`` gives them, negative for a signal as
``Popen.returncode`` was.  A worker thus sees the environment and working
directory of the pool's process as they were when the pool was created.
If the zygote dies, the in-flight worker groups are killed and retried
from their checkpoints as crashes, and a new zygote is forked.
:meth:`WorkerPool.close` reaps it.  docs/ARCHITECTURE.md has the
details.

Retries are scheduled, not slept: each failed attempt computes a
deterministic backoff (exponential base with seedable jitter, see
:func:`backoff_delay`) and re-enters the ready queue with a not-before
time on the injected ``clock``.  Tests inject a fake clock/sleep pair,
so no unit test ever calls ``time.sleep`` for real.

On ``request_drain()`` (wired to SIGTERM by ``tools/sweep.py``) the pool
stops admitting, SIGTERMs in-flight workers — they checkpoint and exit
:data:`~repro.supervisor.records.EXIT_PREEMPTED` — and returns with the
remaining runs still pending in the journal, ready for ``--resume``.
"""

from __future__ import annotations

import gc
import heapq
import json
import os
import random
import select
import signal
import sys
import traceback
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.checkpoint.durable import atomic_write_json
from repro.checkpoint.surface import IMPORT_COUNTER_STATE, set_global_counter_state
from repro.supervisor import worker
from repro.supervisor.heartbeat import (
    SLOW,
    STUCK,
    heartbeat_path,
    read_heartbeat,
)
from repro.supervisor.journal import Journal
from repro.supervisor.records import (
    CANCELLED,
    DONE,
    EXIT_PERMANENT,
    EXIT_PREEMPTED,
    FAILED,
    PENDING,
    RUNNING,
    RunRecord,
)
from repro.trace.tracer import MetricsRegistry


def default_worker_count() -> int:
    """``os.cpu_count()``-derived pool size: leave one CPU for the
    supervisor, never exceed eight.  A worker starts as a fork of the
    preloaded zygote, so startup no longer limits the fleet; the cap
    keeps the single-threaded supervisor's poll loop ahead of its
    workers."""
    cpus = os.cpu_count() or 1
    return max(1, min(8, cpus - 1))


def backoff_delay(
    base_s: float, attempt: int, run_id: str, jitter_seed: Optional[int]
) -> float:
    """Deterministic retry delay after ``attempt`` failed.

    Exponential base (``base_s * 2**(attempt-1)``, the PR 3 schedule)
    plus up to +25% jitter drawn from a :class:`random.Random` seeded by
    ``(jitter_seed, run_id, attempt)`` — so the schedule is a pure
    function of the sweep inputs, reproducible in tests, yet desynced
    across runs (no retry stampede when a whole fleet fails at once).
    ``jitter_seed=None`` disables jitter entirely.
    """
    delay = base_s * (2 ** (attempt - 1))
    if jitter_seed is None or delay <= 0:
        return delay
    rng = random.Random(f"{jitter_seed}:{run_id}:{attempt}")
    return delay * (1.0 + 0.25 * rng.random())


def _keep_only_fds(*keep: int) -> None:
    """Point stdio at ``/dev/null`` and close every other fd but ``keep``."""
    null = os.open(os.devnull, os.O_RDWR)
    for fd in (0, 1, 2):
        os.dup2(null, fd)
    low = 3
    for fd in sorted(keep) + [os.sysconf("SC_OPEN_MAX")]:
        os.closerange(low, fd)
        low = fd + 1


def _relay_exits(replies: int) -> None:
    """Reap every exited worker and report ``exit <pid> <code>``."""
    while True:
        try:
            pid, status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return
        code = os.waitstatus_to_exitcode(status)
        os.write(replies, b"exit %d %d\n" % (pid, code))


def _enter_worker(spec_path: str, zygote_fds: tuple[int, ...]) -> None:
    """Turn a fresh zygote child into a worker: drop the zygote's
    signal and fd state, send fd 2 to the run's ``stderr.log``."""
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGCHLD, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    for fd in zygote_fds:
        os.close(fd)
    log = os.open(
        os.path.join(os.path.dirname(spec_path), "stderr.log"),
        os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
        0o644,
    )
    os.dup2(log, 2)
    os.close(log)


def _zygote_main(requests: int, replies: int) -> None:
    """The zygote process: fork one worker per NUL-terminated spec path
    read from ``requests``, relay pids and exit codes on ``replies``,
    return on EOF.  See the module docstring."""
    gc.collect()
    _keep_only_fds(requests, replies)
    # The Python-level streams may wrap fds just closed (a test
    # runner's capture files); the originals wrap fds 1 and 2.
    sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    gc.freeze()
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, signal.SIG_DFL)
    # Blocked rather than ignored: a worker inherits the mask, so a
    # drain SIGTERM that races its fork stays pending until
    # worker.run_spec_file has armed the handler.
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM, signal.SIGINT})
    set_global_counter_state(IMPORT_COUNTER_STATE)
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_w, False)
    signal.signal(signal.SIGCHLD, lambda signum, frame: None)
    signal.set_wakeup_fd(wake_w)
    pending = b""
    while True:
        ready = select.select([requests, wake_r], [], [])[0]
        if wake_r in ready:
            os.read(wake_r, 4096)
        _relay_exits(replies)
        if requests not in ready:
            continue
        chunk = os.read(requests, 65536)
        if not chunk:
            return
        *paths, pending = (pending + chunk).split(b"\0")
        for spec_path in map(os.fsdecode, paths):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.setsid()
                    _enter_worker(spec_path, (requests, replies, wake_r, wake_w))
                    code = worker.run_spec_file(spec_path)
                except BaseException:
                    traceback.print_exc()
                finally:
                    os._exit(code)
            os.write(replies, b"pid %d\n" % pid)


def _shut_zygote(pid: int, *fds: int) -> int:
    """Close the zygote's pipes and reap it: it exits on EOF."""
    for fd in fds:
        os.close(fd)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


class _Zygote:
    """The pool's side of its zygote: the two pipes and the pid/exit
    lines relayed back (``pid <pid>`` per fork, ``exit <pid> <code>``
    per reaped worker).  EOF on the reply pipe means the zygote died."""

    def __init__(self) -> None:
        requests, self._requests = os.pipe()
        self._replies, replies = os.pipe()
        # Unflushed output would otherwise be written again by a child.
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                _zygote_main(requests, replies)
                code = 0
            finally:
                os._exit(code)
        os.close(requests)
        os.close(replies)
        self.pid = pid
        self.alive = True
        self.exit_code: Optional[int] = None
        #: Relayed exit codes not yet claimed by a worker handle.
        self.exits: dict[int, int] = {}
        self._spawned: deque[int] = deque()
        self._buffer = b""
        # A pool dropped without close() still shuts its zygote down.
        self._shut = weakref.finalize(
            self, _shut_zygote, pid, self._requests, self._replies
        )

    def spawn(self, spec_path: str) -> Optional[int]:
        """Fork a worker for the spec at ``spec_path``; its pid, or None
        when the zygote is dead."""
        data = memoryview(os.fsencode(spec_path) + b"\0")
        try:
            while data:
                data = data[os.write(self._requests, data):]
        except BrokenPipeError:
            self.alive = False
            return None
        while not self._spawned:
            if not self.pump(None):
                return None
        return self._spawned.popleft()

    def pump(self, timeout: Optional[float] = 0.0) -> bool:
        """Take in what the zygote sent, waiting up to ``timeout``
        seconds (None: until something arrives).  False once dead."""
        if self.alive and select.select([self._replies], [], [], timeout)[0]:
            chunk = os.read(self._replies, 65536)
            if not chunk:
                self.alive = False
            *lines, self._buffer = (self._buffer + chunk).split(b"\n")
            for line in lines:
                kind, pid, *code = line.split()
                if kind == b"pid":
                    self._spawned.append(int(pid))
                else:
                    self.exits[int(pid)] = int(code[0])
        return self.alive

    def close(self) -> None:
        """Close both pipes and reap the zygote, which exits on EOF.
        Idempotent."""
        if self._shut.alive:
            self.alive = False
            self.exit_code = self._shut()


class _Worker:
    """``Popen``-like handle on one zygote-forked worker.  The zygote is
    its parent and reaps it; the exit code arrives through the zygote."""

    def __init__(self, zygote: _Zygote, pid: int):
        self.zygote = zygote
        self.pid = pid
        self.returncode: Optional[int] = None

    def poll(self) -> Optional[int]:
        if self.returncode is None:
            self.zygote.pump()
            self.returncode = self.zygote.exits.pop(self.pid, None)
        return self.returncode

    def wait(self) -> Optional[int]:
        """The exit code, or None if the zygote died before relaying
        it (the pool's zygote-death handling then classifies it)."""
        while self.poll() is None and self.zygote.pump(None):
            pass
        return self.returncode

    def send_signal(self, sig: int) -> None:
        if self.poll() is None:
            os.kill(self.pid, sig)


@dataclass
class _Job:
    """One in-flight worker attempt."""

    record: RunRecord
    slot: int
    proc: _Worker
    run_dir: str
    started: float
    resume_from: Optional[str]
    #: Newest simulated time seen in a heartbeat for this attempt.
    last_sim_time: Optional[float] = None
    #: Pool-clock instant sim time last advanced (starts at launch).
    last_progress: float = 0.0
    #: A heartbeat for this attempt has been observed at least once.
    hb_seen: bool = False
    #: A SIGTERM was already sent (drain); don't repeat it.
    terminated: bool = False


class WorkerPool:
    """Runs a set of :class:`RunRecord`s to completion; see module doc."""

    def __init__(
        self,
        out_dir: str,
        journal: Journal,
        *,
        workers: int,
        max_attempts: int,
        backoff_s: float,
        jitter_seed: Optional[int],
        wall_timeout_s: Optional[float],
        stuck_after_s: float,
        checkpoint_every_s: float,
        poll_interval_s: float,
        clock: Callable[[], float],
        sleep: Callable[[float], None],
        log: Callable[[str], None],
        metrics: MetricsRegistry,
        on_done: Optional[Callable[[RunRecord], None]] = None,
        drain_grace_s: float = 10.0,
    ):
        self.out_dir = out_dir
        self.journal = journal
        self.workers = max(1, int(workers))
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self.jitter_seed = jitter_seed
        self.wall_timeout_s = wall_timeout_s
        self.stuck_after_s = stuck_after_s
        self.checkpoint_every_s = checkpoint_every_s
        self.poll_interval_s = poll_interval_s
        self.clock = clock
        self.sleep = sleep
        self.log = log
        self.metrics = metrics
        self.on_done = on_done
        self.drain_grace_s = drain_grace_s
        self._draining = False
        self._drain_unannounced = False
        self._drain_started: Optional[float] = None
        self._seq = 0
        #: Ready-queue heap entries: (not-before on self.clock, admission
        #: seq, record).  The seq keeps admission deterministic among
        #: simultaneously-ready runs and makes heap entries comparable.
        self._queue: list[tuple[float, int, RunRecord]] = []
        self._jobs: dict[int, _Job] = {}
        self._free_slots: list[int] = list(range(self.workers))
        self._zygote = _Zygote()

    # -- live state ----------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Distinct launchable runs waiting in the ready queue (stale
        heap entries from cancel/resubmit cycles are not counted)."""
        return len(
            {rec.run_id for _, _, rec in self._queue if rec.status == PENDING}
        )

    @property
    def in_flight(self) -> dict[str, int]:
        """``{run_id: pid}`` of currently-running workers."""
        return {
            job.record.run_id: job.proc.pid for job in self._jobs.values()
        }

    @property
    def busy(self) -> bool:
        """True while a :meth:`step` could still make progress: jobs in
        flight, or queued runs that a non-draining pool will launch."""
        return bool(self._jobs) or (
            self.queue_depth > 0 and not self._draining
        )

    # -- drain ---------------------------------------------------------------

    def request_drain(self) -> None:
        """Stop admitting; in-flight workers are asked to checkpoint and
        exit (the poll loop delivers the SIGTERMs).

        Async-signal-safe by design — the service's SIGTERM handler
        lands here, so this only sets flags.  The log line is emitted by
        the next :meth:`step` from the main loop."""
        if not self._draining:
            self._draining = True
            self._drain_unannounced = True

    @property
    def draining(self) -> bool:
        return self._draining

    # -- the fleet loop ------------------------------------------------------

    def enqueue(self, records: list[RunRecord]) -> None:
        """Admit runs into the ready queue (launchable immediately)."""
        now = self.clock()
        for record in records:
            heapq.heappush(self._queue, (now, self._seq, record))
            self._seq += 1

    def cancel(self, run_id: str) -> Optional[str]:
        """Cancel a queued or in-flight run.

        Queued runs are marked :data:`CANCELLED` and lazily skipped when
        they surface from the heap; in-flight runs have their worker
        group killed.  Returns ``"pending"`` / ``"running"`` for what
        was cancelled, or None if the run is not under pool control
        (already finished, or never enqueued)."""
        for slot, job in list(self._jobs.items()):
            if job.record.run_id == run_id:
                self._kill_group(job, signal.SIGKILL)
                job.proc.wait()
                del self._jobs[slot]
                self._free_slots.append(slot)
                job.record.status = CANCELLED
                job.record.last_pid = None
                self.metrics.counter("fleet.cancel", key="running")
                return "running"
        for _, _, record in self._queue:
            if record.run_id == run_id and record.status != CANCELLED:
                record.status = CANCELLED
                self.metrics.counter("fleet.cancel", key="pending")
                return "pending"
        return None

    def step(self) -> bool:
        """One scheduling round: admit ready runs into free slots, reap
        dead workers, enforce liveness, drive a drain.  Never sleeps —
        the caller owns pacing (and, in the daemon, interleaves socket
        traffic between steps).  Returns :attr:`busy`."""
        if self._drain_unannounced:
            self._drain_unannounced = False
            self.log("[fleet] drain requested: no new runs will start")
        now = self.clock()
        if not self._zygote.pump():
            self._zygote_died(now)
        if not self._draining:
            while self._free_slots and self._queue and self._queue[0][0] <= now:
                _, _, record = heapq.heappop(self._queue)
                if record.status != PENDING:
                    # Cancelled while queued, or a stale entry from a
                    # cancel→resubmit cycle (the record was re-enqueued
                    # and its newer entry already launched): skip.
                    continue
                slot = self._pick_slot(self._free_slots, record)
                self._free_slots.remove(slot)
                self._jobs[slot] = self._launch(record, slot, now)
        self.metrics.gauge("fleet.queue_depth", value=float(self.queue_depth))
        self.metrics.gauge("fleet.in_flight", value=float(len(self._jobs)))

        for slot in sorted(self._jobs):
            job = self._jobs[slot]
            code = job.proc.poll()
            if code is not None:
                del self._jobs[slot]
                self._free_slots.append(slot)
                self._finish(job, code, now)
                continue
            verdict = self._liveness(job, now)
            if verdict is not None:
                self._kill_group(job, signal.SIGKILL)
                job.proc.wait()
                del self._jobs[slot]
                self._free_slots.append(slot)
                self._finish_killed(job, verdict, now)

        if self._draining and self._jobs:
            self._drive_drain(self._jobs, now)
        return self.busy

    def run(self, records: list[RunRecord]) -> None:
        """One-shot mode: enqueue and step until idle (or drained)."""
        self.enqueue(records)
        while self.step():
            self.sleep(self.poll_interval_s)
        self.metrics.gauge("fleet.queue_depth", value=float(self.queue_depth))
        self.metrics.gauge("fleet.in_flight", value=0.0)

    def close(self) -> None:
        """Kill any worker still in flight (the journal shows it as a
        launch without exit, which the next boot reaps and requeues)
        and reap the zygote.  Idempotent."""
        for job in self._jobs.values():
            self._kill_group(job, signal.SIGKILL)
        self._jobs.clear()
        self._zygote.close()

    def _zygote_died(self, now: float) -> None:
        """The zygote is gone, and with it every exit code it had not
        relayed yet: kill those workers' groups, classify the attempts
        as transient crashes (they retry from their checkpoints) and
        fork a new zygote."""
        old = self._zygote
        self.log(
            f"[fleet] worker zygote {old.pid} died; killing "
            f"{len(self._jobs)} in-flight worker group(s)"
        )
        self.metrics.counter("fleet.zygote_restart")
        for slot in sorted(self._jobs):
            job = self._jobs.pop(slot)
            self._free_slots.append(slot)
            code = job.proc.poll()
            if code is None:
                self._kill_group(job, signal.SIGKILL)
                code = -signal.SIGKILL
            self._finish(job, code, now)
        old.close()
        self._zygote = _Zygote()

    # -- admission -----------------------------------------------------------

    def _pick_slot(self, free_slots: list[int], record: RunRecord) -> int:
        """Prefer a slot the run has not just failed on (migration)."""
        free_slots.sort()
        for slot in free_slots:
            if slot != record.last_slot:
                return slot
        return free_slots[0]

    def _launch(self, record: RunRecord, slot: int, now: float) -> _Job:
        run_dir = os.path.join(self.out_dir, record.run_id)
        os.makedirs(run_dir, exist_ok=True)
        checkpoint = os.path.join(run_dir, "checkpoint.snap")
        resume_from = checkpoint if os.path.exists(checkpoint) else None

        record.attempts += 1
        record.status = RUNNING
        record.last_slot = slot
        record.checkpoint_path = resume_from

        # A stale heartbeat from the previous attempt must not feed the
        # liveness monitor; drop it before the new worker starts.
        try:
            os.unlink(heartbeat_path(run_dir))
        except OSError:
            pass

        spec = {
            "run_id": record.run_id,
            "kind": record.kind,
            "params": record.params,
            "attempt": record.attempts,
            "out_dir": run_dir,
            "checkpoint_every_s": self.checkpoint_every_s,
            "resume_from": resume_from,
        }
        spec_path = os.path.join(run_dir, "spec.json")
        atomic_write_json(spec_path, spec)

        spec_path = os.path.abspath(spec_path)
        pid = self._zygote.spawn(spec_path)
        if pid is None:
            self._zygote_died(now)
            pid = self._zygote.spawn(spec_path)
            if pid is None:
                raise RuntimeError("a freshly forked worker zygote died")
        proc = _Worker(self._zygote, pid)

        origin = f"resuming from {resume_from}" if resume_from else "fresh start"
        self.log(
            f"[fleet] {record.run_id}: attempt {record.attempts}/"
            f"{self.max_attempts} on slot {slot} ({origin})"
        )
        self.journal.append(
            {
                "type": "launch",
                "run_id": record.run_id,
                "attempt": record.attempts,
                "slot": slot,
                "resume_from": resume_from,
                "pid": proc.pid,
            }
        )
        self.metrics.counter("fleet.launch")
        record.last_pid = proc.pid
        return _Job(
            record=record,
            slot=slot,
            proc=proc,
            run_dir=run_dir,
            started=now,
            resume_from=resume_from,
            last_progress=now,
        )

    # -- liveness ------------------------------------------------------------

    def _liveness(self, job: _Job, now: float) -> Optional[str]:
        """STUCK/SLOW when the job must be killed, else None (live)."""
        hb = read_heartbeat(heartbeat_path(job.run_dir))
        if hb is not None and hb.get("attempt") == job.record.attempts:
            if not job.hb_seen:
                # First heartbeat of the attempt: startup (fork, spec
                # and checkpoint load, model construction) is over — that is itself
                # progress, or a worker whose setup exceeds the stuck
                # window would be killed before its first sim step.
                job.hb_seen = True
                job.last_progress = now
            sim = hb.get("sim_time_s")
            if sim is not None and (
                job.last_sim_time is None or sim > job.last_sim_time
            ):
                job.last_sim_time = sim
                job.last_progress = now
        # Until that first heartbeat the worker is starting up, which is
        # arbitrarily slow under fleet load: give it triple rope.  A
        # worker *re-writing* heartbeats with frozen sim time gets no
        # credit — that is exactly the stuck signature.
        stuck_after = self.stuck_after_s * (1.0 if job.hb_seen else 3.0)
        if now - job.last_progress >= stuck_after:
            return STUCK
        if (
            self.wall_timeout_s is not None
            and now - job.started >= self.wall_timeout_s
        ):
            return SLOW
        return None

    def _kill_group(self, job: _Job, sig: int) -> None:
        """Signal the worker's whole process group (it leads its own
        session), so helpers it spawned die with it — no zombies."""
        try:
            os.killpg(job.proc.pid, sig)
        except (ProcessLookupError, PermissionError):
            try:
                job.proc.send_signal(sig)
            except ProcessLookupError:
                pass

    # -- exit handling -------------------------------------------------------

    @staticmethod
    def _read_error(run_dir: str) -> Optional[dict]:
        try:
            with open(os.path.join(run_dir, "error.json")) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def _stderr_tail(self, run_dir: str) -> list[str]:
        try:
            with open(os.path.join(run_dir, "stderr.log"), "rb") as fh:
                return (
                    fh.read().decode(errors="replace").strip().splitlines()[-3:]
                )
        except OSError:
            return []

    def _finish(self, job: _Job, code: int, now: float) -> None:
        record = job.record
        record.last_pid = None
        checkpoint = os.path.join(job.run_dir, "checkpoint.snap")
        if os.path.exists(checkpoint):
            record.checkpoint_path = checkpoint
        self.metrics.counter("fleet.exit", key=str(code))
        self.metrics.observe("fleet.attempt_wall_s", value=now - job.started)

        if code == 0:
            record.status = DONE
            record.last_error = None
            record.result_path = os.path.join(job.run_dir, "result.json")
            self.journal.append(
                {
                    "type": "done",
                    "run_id": record.run_id,
                    "attempt": record.attempts,
                    "result_path": record.result_path,
                    "cached": False,
                }
            )
            self.metrics.counter("fleet.done")
            self.log(f"[fleet] {record.run_id}: done")
            if self.on_done is not None:
                self.on_done(record)
            return

        if code == EXIT_PREEMPTED:
            # The worker checkpointed and exited on request: not a
            # failure, no attempt burned.
            record.attempts -= 1
            record.status = PENDING
            self.journal.append(
                {
                    "type": "preempted",
                    "run_id": record.run_id,
                    "attempt": record.attempts + 1,
                    "checkpoint_path": record.checkpoint_path,
                }
            )
            self.metrics.counter("fleet.preempt")
            self.log(
                f"[fleet] {record.run_id}: preempted "
                f"(checkpoint: {record.checkpoint_path or 'none'})"
            )
            if not self._draining:
                heapq.heappush(self._queue, (now, self._seq, record))
                self._seq += 1
            return

        error = self._read_error(job.run_dir)
        record.stuck = (error or {}).get("stuck", [])
        if error is None:
            for line in self._stderr_tail(job.run_dir):
                self.log(f"[fleet] {record.run_id}: worker stderr: {line}")
        record.last_error = error or {
            "type": "WorkerCrash",
            "message": (
                f"worker died with signal {-code}"
                if code < 0
                else f"worker exited {code} without writing error.json"
            ),
            "classification": "transient",
        }
        self.journal.append(
            {
                "type": "exit",
                "run_id": record.run_id,
                "attempt": record.attempts,
                "code": code,
                "liveness": "dead" if code < 0 else "live",
                "error": record.last_error,
                "checkpoint_path": record.checkpoint_path,
            }
        )

        permanent = code == EXIT_PERMANENT
        label = "permanent" if permanent else "transient"
        self.log(
            f"[fleet] {record.run_id}: attempt {record.attempts} failed "
            f"({label}: {record.last_error.get('type')}: "
            f"{record.last_error.get('message')}); "
            f"last checkpoint: {record.checkpoint_path or 'no checkpoint taken'}; "
            f"stuck: {self._describe_stuck(record.stuck)}"
        )
        if permanent:
            self._fail(record)
            return
        self._retry_or_fail(record, now, migrated=False)

    def _finish_killed(self, job: _Job, verdict: str, now: float) -> None:
        """A liveness kill: STUCK migrates, SLOW plain-retries."""
        record = job.record
        record.last_pid = None
        checkpoint = os.path.join(job.run_dir, "checkpoint.snap")
        if os.path.exists(checkpoint):
            record.checkpoint_path = checkpoint
        self.metrics.counter("fleet.liveness_kill", key=verdict)
        self.metrics.observe("fleet.attempt_wall_s", value=now - job.started)

        if verdict == STUCK:
            message = (
                f"no simulated-time progress for {self.stuck_after_s}s "
                f"(last sim time "
                f"{job.last_sim_time if job.last_sim_time is not None else 'never reported'}); "
                "worker group killed"
            )
            error_type = "StuckWorker"
        else:
            message = (
                f"wall-clock deadline {self.wall_timeout_s}s exceeded "
                f"while still progressing (sim time {job.last_sim_time}); "
                "worker group killed"
            )
            error_type = "WallTimeout"
        record.last_error = {
            "type": error_type,
            "message": message,
            "classification": "transient",
            "liveness": verdict,
        }
        self.journal.append(
            {
                "type": "exit",
                "run_id": record.run_id,
                "attempt": record.attempts,
                "code": -signal.SIGKILL,
                "liveness": verdict,
                "error": record.last_error,
                "checkpoint_path": record.checkpoint_path,
            }
        )
        self.log(f"[fleet] {record.run_id}: {verdict}: {message}")
        self._retry_or_fail(record, now, migrated=(verdict == STUCK))

    def _retry_or_fail(
        self, record: RunRecord, now: float, migrated: bool
    ) -> None:
        if record.attempts >= self.max_attempts:
            self._fail(record)
            self.log(
                f"[fleet] {record.run_id}: giving up after "
                f"{record.attempts} attempts"
            )
            return
        delay = backoff_delay(
            self.backoff_s, record.attempts, record.run_id, self.jitter_seed
        )
        if migrated:
            record.migrations += 1
            self.metrics.counter("fleet.migration")
            self.log(
                f"[fleet] {record.run_id}: migrating off slot "
                f"{record.last_slot} (retry in {delay:.2f}s from "
                f"{record.checkpoint_path or 'scratch'})"
            )
        elif delay > 0:
            self.log(f"[fleet] {record.run_id}: retrying in {delay:.2f}s")
        record.status = PENDING
        self.journal.append(
            {
                "type": "retry",
                "run_id": record.run_id,
                "next_attempt": record.attempts + 1,
                "delay_s": delay,
                "migrated": migrated,
                "from_slot": record.last_slot,
            }
        )
        self.metrics.counter("fleet.retry")
        if not self._draining:
            # Draining pools don't requeue: the retry stays journaled as
            # pending for --resume.
            heapq.heappush(self._queue, (now + delay, self._seq, record))
            self._seq += 1

    def _fail(self, record: RunRecord) -> None:
        record.status = FAILED
        self.journal.append(
            {
                "type": "failed",
                "run_id": record.run_id,
                "attempt": record.attempts,
                "error": record.last_error,
            }
        )
        self.metrics.counter("fleet.failed")

    # -- drain mechanics -----------------------------------------------------

    def _drive_drain(self, jobs: dict[int, _Job], now: float) -> None:
        if self._drain_started is None:
            self._drain_started = now
        past_grace = now - self._drain_started > self.drain_grace_s
        for job in jobs.values():
            if not job.terminated:
                self._kill_group(job, signal.SIGTERM)
                job.terminated = True
            elif past_grace:
                # A worker ignoring SIGTERM past the grace window gets
                # the hard kill; its exit is classified as a crash.
                self._kill_group(job, signal.SIGKILL)

    @staticmethod
    def _describe_stuck(stuck: list) -> str:
        parts = []
        for d in stuck or []:
            parts.append(
                f"{d.get('name')!r} on cpu {d.get('cpu')} "
                f"[{d.get('core_type') or 'off-cpu'}]"
            )
        return ", ".join(parts) if parts else "none reported"

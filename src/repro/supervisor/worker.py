"""Worker: executes exactly one run, crash-isolated.

The supervisor never runs simulations in its own process — each run
executes in a process of its own, so a segfault, SIGKILL, or runaway
loop takes down only this worker.  The pool forks that process from its
preloaded zygote (:mod:`repro.supervisor.pool`) and calls
:func:`run_spec_file`; ``python -m repro.supervisor.worker --spec
spec.json`` runs the same function in a fresh interpreter, for manual
debugging.  Communication is file-based (crash-safe): the worker reads
a spec, writes ``result.json`` on success or ``error.json`` on failure,
both atomically, and reports classification via exit code:

* 0 — success, ``result.json`` written;
* :data:`EXIT_PERMANENT` (3) — deterministic failure (bad params,
  unknown kind, an exception the simulation will reproduce on every
  attempt); retrying is pointless;
* :data:`EXIT_TRANSIENT` (4) — worth retrying: a :class:`SimTimeout`
  (the retry resumes from the last checkpoint and may progress) or an
  unreadable/corrupt checkpoint (the retry falls back to a fresh start);
* :data:`EXIT_PREEMPTED` (5) — the pool asked this worker to stop
  (SIGTERM during a drain): the run checkpointed at the next slice
  boundary and exited; not a failure, the supervisor requeues it
  without burning an attempt.

Anything else — a signal, an OOM kill, an interpreter abort — yields no
exit code from this table, and the supervisor classifies the bare crash
as transient.

Alongside the checkpoint cadence the worker writes ``heartbeat.json``
(pid, attempt, current *simulated* time) every slice; the pool's
liveness monitor uses it to tell a stuck worker (sim time frozen) from a
slow one (progressing past its deadline) — see
:mod:`repro.supervisor.heartbeat`.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import traceback

from repro.checkpoint.snapshot import SnapshotError, load_object
from repro.sim.engine import SimTimeout
from repro.supervisor.heartbeat import heartbeat_path, write_heartbeat
from repro.supervisor.manifest import (
    EXIT_PERMANENT,
    EXIT_PREEMPTED,
    EXIT_TRANSIENT,
    atomic_write_json,
)
from repro.supervisor.runs import RUN_KINDS, Preempted, RunContext

#: Set by the SIGTERM handler installed in :func:`main`; run kinds poll
#: it via ``ctx.should_preempt()`` at every slice boundary.
_PREEMPT_REQUESTED = False


def _on_sigterm(signum, frame) -> None:
    global _PREEMPT_REQUESTED
    _PREEMPT_REQUESTED = True


def _preempt_requested() -> bool:
    return _PREEMPT_REQUESTED


def _write_error(path: str, kind: str, exc: BaseException, **extra) -> None:
    payload = {
        "type": type(exc).__name__,
        "message": str(exc),
        "classification": kind,
        "traceback": traceback.format_exc(),
    }
    payload.update(extra)
    atomic_write_json(path, payload)


def run_spec(spec: dict) -> int:
    """Execute one run spec; returns the process exit code."""
    run_id = spec["run_id"]
    out_dir = spec["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    error_path = os.path.join(out_dir, "error.json")
    result_path = os.path.join(out_dir, "result.json")
    checkpoint_path = spec.get("checkpoint_path") or os.path.join(
        out_dir, "checkpoint.snap"
    )

    kind = spec["kind"]
    fn = RUN_KINDS.get(kind)
    if fn is None:
        _write_error(
            error_path,
            "permanent",
            ValueError(f"unknown run kind {kind!r}; known: {sorted(RUN_KINDS)}"),
        )
        return EXIT_PERMANENT

    restored = None
    resume_from = spec.get("resume_from")
    if resume_from:
        try:
            restored = load_object(resume_from)
        except (SnapshotError, OSError) as exc:
            # A torn or stale checkpoint is not fatal to the *run* —
            # the next attempt starts fresh.  Report transient so the
            # supervisor retries without the checkpoint.
            _write_error(error_path, "transient", exc, bad_checkpoint=resume_from)
            return EXIT_TRANSIENT

    attempt = int(spec.get("attempt", 1))
    # First heartbeat before any simulation: registers this attempt's
    # pid for the liveness monitor (sim time None = alive, no progress
    # to report yet).
    write_heartbeat(heartbeat_path(out_dir), os.getpid(), attempt, None)

    ctx = RunContext(
        run_id=run_id,
        attempt=attempt,
        checkpoint_path=checkpoint_path,
        checkpoint_every_s=float(spec.get("checkpoint_every_s", 0.1)),
        restored_payload=restored,
        heartbeat_path=heartbeat_path(out_dir),
        preempt=_preempt_requested,
    )

    try:
        result = fn(spec.get("params", {}), ctx)
    except Preempted:
        # The run checkpointed before raising; nothing else to record.
        return EXIT_PREEMPTED
    except SimTimeout as exc:
        _write_error(
            error_path,
            "transient",
            exc,
            stuck=exc.stuck_details(),
            checkpoint_path=exc.checkpoint_path,
        )
        return EXIT_TRANSIENT
    except Exception as exc:
        # The simulation is deterministic: a plain exception recurs on
        # every attempt.  Classify permanent so the supervisor stops
        # burning retries on it.
        _write_error(error_path, "permanent", exc)
        return EXIT_PERMANENT

    atomic_write_json(result_path, result)
    return 0


def run_spec_file(path: str) -> int:
    """Arm the drain handler, then run the spec stored at ``path``.

    SIGTERM is unblocked only once the handler is in place: a zygote
    forks its workers with SIGTERM blocked, so a drain request that
    races the fork stays pending until here instead of being lost."""
    signal.signal(signal.SIGTERM, _on_sigterm)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    with open(path) as fh:
        spec = json.load(fh)
    return run_spec(spec)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="path to the run-spec JSON")
    args = parser.parse_args(argv)
    return run_spec_file(args.spec)


if __name__ == "__main__":
    sys.exit(main())

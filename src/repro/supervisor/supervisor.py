"""The one-shot front door of the measurement service.

:class:`Supervisor` is now a thin client of the same
:class:`~repro.supervisor.service.ServiceCore` that powers the
long-running daemon (:mod:`repro.supervisor.service`): ``run()`` opens
the core (journal recovery, orphan reaping, result cache), admits the
submitted specs through the durable
:class:`~repro.supervisor.queue.AdmissionQueue` — idempotent by spec
digest, one fsync per batch — steps the
:class:`~repro.supervisor.pool.WorkerPool` until idle, and seals the
journal.  Everything the PR 3–7 supervisor guaranteed still holds and
is still covered by the same tests:

* **worker crashes** — crash-isolated worker process per run, checkpointed
  retries with deterministic backoff (seedable jitter, injectable
  clock/sleep);
* **wedged workers** — heartbeat liveness, process-group kills, slot
  migration;
* **supervisor death** — every transition journaled before acted on;
  SIGKILL + ``resume=True`` reconstructs the exact
  pending/in-flight/done sets and finishes byte-identically;
* **repeated work** — the deterministic result cache (now bounded, LRU)
  serves identical specs with zero launches;
* **shutdown** — ``request_drain()`` checkpoints in-flight workers and
  leaves a journal ``--resume`` picks up cleanly.

The difference is purely architectural: the sweep path and the daemon
path can no longer drift, because they are the same code.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.supervisor.manifest import Manifest
from repro.supervisor.queue import RunSpec
from repro.supervisor.service import ServiceCore

__all__ = ["RunSpec", "Supervisor"]


class Supervisor:
    """Drives a sweep to completion; see the module docstring."""

    def __init__(
        self,
        out_dir: str,
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
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.core = ServiceCore(
            out_dir,
            max_attempts=max_attempts,
            backoff_s=backoff_s,
            wall_timeout_s=wall_timeout_s,
            checkpoint_every_s=checkpoint_every_s,
            log=log,
            workers=workers,
            stuck_after_s=stuck_after_s,
            poll_interval_s=poll_interval_s,
            jitter_seed=jitter_seed,
            cache_dir=cache_dir,
            cache_max_entries=cache_max_entries,
            cache_max_bytes=cache_max_bytes,
            clock=clock,
            sleep=sleep,
        )
        self.out_dir = out_dir
        self.log = log

    # -- passthroughs (the public surface the CLI and tests rely on) ---------

    @property
    def journal_path(self) -> str:
        return self.core.journal_path

    @property
    def manifest_path(self) -> str:
        return self.core.manifest_path

    @property
    def metrics_path(self) -> str:
        return self.core.metrics_path

    @property
    def metrics(self):
        return self.core.metrics

    @property
    def workers(self) -> int:
        return self.core.workers

    def request_drain(self) -> None:
        """Graceful shutdown: stop admitting runs, checkpoint in-flight
        workers, return from :meth:`run` with the rest still pending."""
        self.core.request_drain()

    @property
    def drained(self) -> bool:
        return self.core.drained

    # -- the sweep -----------------------------------------------------------

    def run(self, runs: list[RunSpec], resume: bool = False) -> Manifest:
        """Execute ``runs`` to completion (or drain) and return the
        materialized manifest view."""
        self.core.open(resume=resume)
        try:
            self.core.submit(runs)
            self.core.run_until_idle()
        finally:
            manifest = self.core.close()
        counts = manifest.summary()
        verb = "drained" if self.drained else "complete"
        self.log(f"[supervisor] sweep {verb}: {counts}")
        return manifest

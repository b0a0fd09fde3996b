"""Run records: the per-run state the journal folds into, its lifecycle
states, and the worker exit-code protocol."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: Run lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
#: Cancelled through the service API before completing; never launched
#: again (unlike FAILED, which --resume requeues with a fresh budget).
CANCELLED = "cancelled"

#: States a sweep will not execute (work on them is finished for good).
TERMINAL = (DONE, CANCELLED)

#: Worker exit codes (the supervisor/worker protocol; any other nonzero
#: exit or death-by-signal is a crash, classified transient).
EXIT_PERMANENT = 3
EXIT_TRANSIENT = 4
#: The worker checkpointed and exited on request (SIGTERM drain /
#: preemption): not a failure, the run goes back to pending with its
#: checkpoint and does not burn an attempt.
EXIT_PREEMPTED = 5


@dataclass
class RunRecord:
    """Durable state of one run in the sweep."""

    run_id: str
    kind: str
    params: dict
    status: str = PENDING
    attempts: int = 0
    result_path: Optional[str] = None
    checkpoint_path: Optional[str] = None
    last_error: Optional[dict] = None
    #: Stuck-thread details from the last SimTimeout (cpu + core type).
    stuck: list = field(default_factory=list)
    #: True when the result came from the deterministic result cache.
    cached: bool = False
    #: Times this run was killed as stuck/dead and moved to another slot.
    migrations: int = 0
    #: Pool slot of the latest attempt (migrations avoid re-using it).
    last_slot: Optional[int] = None
    #: Worker pid of the latest launch, cleared when the attempt ends.
    #: After a journal replay, a RUNNING record's last_pid names the
    #: (possibly orphaned) worker process group a rebooting service
    #: must reap before relaunching.
    last_pid: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "kind": self.kind,
            "params": self.params,
            "status": self.status,
            "attempts": self.attempts,
            "result_path": self.result_path,
            "checkpoint_path": self.checkpoint_path,
            "last_error": self.last_error,
            "stuck": self.stuck,
            "cached": self.cached,
            "migrations": self.migrations,
            "last_slot": self.last_slot,
            "last_pid": self.last_pid,
        }

    @classmethod
    def from_json(cls, data: dict) -> "RunRecord":
        return cls(
            run_id=data["run_id"],
            kind=data["kind"],
            params=data.get("params", {}),
            status=data.get("status", PENDING),
            attempts=int(data.get("attempts", 0)),
            result_path=data.get("result_path"),
            checkpoint_path=data.get("checkpoint_path"),
            last_error=data.get("last_error"),
            stuck=data.get("stuck", []),
            cached=bool(data.get("cached", False)),
            migrations=int(data.get("migrations", 0)),
            last_slot=data.get("last_slot"),
            last_pid=data.get("last_pid"),
        )

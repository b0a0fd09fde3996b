"""The fault-tolerant measurement service.

See :mod:`repro.supervisor.service` for the service core (one-shot
:meth:`~repro.supervisor.service.ServiceCore.run` and the daemon),
:mod:`repro.supervisor.pool` for the concurrent worker pool (liveness,
migration, drain), :mod:`repro.supervisor.journal` for the crash-safe
append-only journal, :mod:`repro.supervisor.cache` for the deterministic
result cache, :mod:`repro.supervisor.worker` for the per-run worker process
entry, and :mod:`repro.supervisor.records` for the per-run record, its
states and the worker exit codes.  Every file the service writes goes
through :mod:`repro.checkpoint.durable`.
"""

from repro.supervisor.cache import ResultCache, code_version, spec_digest
from repro.supervisor.client import RetryPolicy, ServiceClient, ServiceError
from repro.supervisor.heartbeat import (
    DEAD,
    LIVE,
    SLOW,
    STUCK,
    heartbeat_path,
    read_heartbeat,
    write_heartbeat,
)
from repro.supervisor.journal import Journal, JournalError, JournalState, StorageError
from repro.supervisor.pool import WorkerPool, backoff_delay, default_worker_count
from repro.supervisor.queue import (
    ADMITTED,
    CACHED,
    DUPLICATE,
    REJECTED,
    REQUEUED,
    AdmissionQueue,
    RunSpec,
)
from repro.supervisor.records import (
    CANCELLED,
    DONE,
    EXIT_PERMANENT,
    EXIT_PREEMPTED,
    EXIT_TRANSIENT,
    FAILED,
    PENDING,
    RUNNING,
    TERMINAL,
    RunRecord,
)
from repro.supervisor.runs import RUN_KINDS, Preempted, RunContext
from repro.supervisor.service import (
    MeasurementService,
    ServiceCore,
    socket_path_for,
)

__all__ = [
    "DONE",
    "FAILED",
    "PENDING",
    "RUNNING",
    "CANCELLED",
    "TERMINAL",
    "DEAD",
    "LIVE",
    "SLOW",
    "STUCK",
    "ADMITTED",
    "CACHED",
    "DUPLICATE",
    "REQUEUED",
    "REJECTED",
    "AdmissionQueue",
    "RunRecord",
    "RUN_KINDS",
    "RunContext",
    "RunSpec",
    "ServiceCore",
    "MeasurementService",
    "ServiceClient",
    "ServiceError",
    "RetryPolicy",
    "WorkerPool",
    "Journal",
    "JournalError",
    "JournalState",
    "StorageError",
    "Preempted",
    "ResultCache",
    "backoff_delay",
    "code_version",
    "default_worker_count",
    "socket_path_for",
    "spec_digest",
    "heartbeat_path",
    "read_heartbeat",
    "write_heartbeat",
    "EXIT_PERMANENT",
    "EXIT_PREEMPTED",
    "EXIT_TRANSIENT",
]

"""The fault-tolerant measurement service.

See :mod:`repro.supervisor.supervisor` for the service front door,
:mod:`repro.supervisor.pool` for the concurrent worker pool (liveness,
migration, drain), :mod:`repro.supervisor.journal` for the crash-safe
append-only journal, :mod:`repro.supervisor.cache` for the deterministic
result cache, :mod:`repro.supervisor.worker` for the per-run worker process
entry, and :mod:`repro.supervisor.manifest` for the materialized sweep
view.
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
from repro.supervisor.journal import Journal, JournalError, JournalState
from repro.supervisor.manifest import (
    CANCELLED,
    DONE,
    EXIT_PERMANENT,
    EXIT_PREEMPTED,
    EXIT_TRANSIENT,
    FAILED,
    PENDING,
    RUNNING,
    TERMINAL,
    Manifest,
    RunRecord,
)
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
from repro.supervisor.runs import RUN_KINDS, Preempted, RunContext
from repro.supervisor.service import (
    MeasurementService,
    ServiceCore,
    socket_path_for,
)
from repro.supervisor.supervisor import Supervisor

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
    "Manifest",
    "RunRecord",
    "RUN_KINDS",
    "RunContext",
    "RunSpec",
    "Supervisor",
    "ServiceCore",
    "MeasurementService",
    "ServiceClient",
    "ServiceError",
    "RetryPolicy",
    "WorkerPool",
    "Journal",
    "JournalError",
    "JournalState",
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
